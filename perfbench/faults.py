"""Deliberately corrupted outputs that the benchmark's checks must reject.

Each fault models one way the program could go wrong while still
answering: a witness aimed at the wrong block, a ``disjoint`` rule that
always says yes (which the program's own certificate checker then trusts),
a catalog with one count changed, and a CLI transcript with one answer
flipped.  :class:`RaisingWitness` is the one fault that raises; it must be
counted as a failed operation.
"""

from __future__ import annotations

import dataclasses

from diagclosure.constructions import CofInBlock, ExtendPairs, InfBlocks
from diagclosure.relations import BlockRef


class WrongBlockWitness(InfBlocks):
    """Certificates whose first open sits in the block after the query point's."""

    def _witness_opens(self, p, q):
        a, b = super()._witness_opens(p, q)
        return CofInBlock(BlockRef(p.cls, p.block + 1)), b


class RaisingWitness(InfBlocks):
    """Every witness call raises: each query on it is a failed operation, not a wrong answer."""

    def witness(self, p, q):
        raise RuntimeError("witness broken")


class LaxDisjoint(ExtendPairs):
    """``disjoint`` always says yes, so the program accepts bogus certificates."""

    def _disjoint(self, o1, o2):
        return True


def bump_one_count(catalog, index: int = 0):
    """The catalog with one record's labelled count raised by one."""
    records = list(catalog.records)
    records[index] = dataclasses.replace(records[index], labeled_topology_count=records[index].labeled_topology_count + 1)
    return dataclasses.replace(catalog, records=tuple(records))


def _flip_line(line: str):
    """The negated form of one answer line, or None when the line is no answer."""
    for a, b in (("separable", "inseparable"), ("result: PASS", "result: FAIL")):
        if line in (a, b):
            return b if line == a else a
    for a, b in (("separable: ", "inseparable: "), ("not T1-realisable", "T1-realisable")):
        if line.startswith(a):
            return b + line[len(a):]
        if line.startswith(b):
            return a + line[len(b):]
    if line.startswith("axioms: "):
        return line.replace("T0=true", "T0=false") if "T0=true" in line else line.replace("T0=false", "T0=true")
    if line and set(line) <= {"0", "1"}:
        return ("1" if line[0] == "0" else "0") + line[1:]
    if line.startswith(("topologies: ", "distinct closures: ", "non-transitive closures: ")):
        return line[:-1] + str((int(line[-1]) + 1) % 10)
    return None


def flip_first_answer(stdout: str) -> str:
    """The transcript with its first answer line negated."""
    lines = stdout.splitlines()
    for i, line in enumerate(lines):
        flipped = _flip_line(line)
        if flipped is not None:
            lines[i] = flipped
            return "\n".join(lines) + "\n"
    raise ValueError("no answer to flip")
