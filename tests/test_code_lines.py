"""tools/code_lines.py: its columns add up, and bad arguments exit 2 with a usage line."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(*args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)


def test_the_four_columns_add_up_to_the_lines():
    done = _run("src/diagclosure")
    assert done.returncode == 0 and done.stderr == ""
    header, *rows = [line.split("\t") for line in done.stdout.splitlines()]
    assert header == ["lines", "code", "docstring", "comment", "blank", "file"]
    assert rows[-1][-1] == "total" and len(rows) > 2
    for lines, *columns, _ in rows:
        assert int(lines) == sum(map(int, columns))


@pytest.mark.parametrize("args", [["--help"], ["-h"], ["src/diagclosure", "no/such/path.py"]])
def test_an_argument_that_is_no_path_exits_2_with_a_usage_line(args):
    done = _run(*args)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("usage: python tools/code_lines.py [PATH ...]")
    assert "Traceback" not in done.stderr
