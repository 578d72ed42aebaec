"""Count the code lines of Python source files.

A code line holds at least one token that is not a comment and is not part
of a docstring (the first string statement of a module, class or function).
Blank lines, comment lines and docstring lines are counted apart, so the
four columns add up to the file's line count.  Standard library only.

Usage: python tools/code_lines.py [PATH ...]   (default: src/diagclosure)
Each PATH is a file or a directory searched for ``*.py``; prints one row per
file and a total.  An argument that is no file or directory, ``--help``
among them, prints the usage line on stderr and exits 2.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The file's lines split into code, docstring, comment and blank."""
    lines = source.splitlines()
    docs = _docstring_lines(ast.parse(source))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    blank = {i for i, line in enumerate(lines, 1) if not line.strip()}
    return {
        "lines": len(lines),
        "code": len(code),
        "docstring": len(docs),
        "comment": len(comments - code - docs),
        "blank": len(blank - code - docs),
    }


def _files(paths):
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs.sort()
                yield from (os.path.join(root, n) for n in sorted(names) if n.endswith(".py"))
        else:
            yield path


def main(argv=None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or [os.path.join("src", "diagclosure")]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        print(f"usage: python tools/code_lines.py [PATH ...]  (no file or directory: {missing[0]})", file=sys.stderr)
        return 2
    keys = ("lines", "code", "docstring", "comment", "blank")
    total = dict.fromkeys(keys, 0)
    print("\t".join(keys + ("file",)))
    for name in _files(paths):
        with open(name, encoding="utf-8") as f:
            row = count(f.read())
        for k in keys:
            total[k] += row[k]
        print("\t".join(str(row[k]) for k in keys) + "\t" + name)
    print("\t".join(str(total[k]) for k in keys) + "\ttotal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
