"""Symbolic partition specifications: the spec side of the relations.

A spec describes an equivalence relation on a countably infinite ground
set by its block profile: how many singleton blocks, which finite block
sizes (an explicit list, or an infinite family whose sizes repeat
cyclically), and how many infinite blocks.  Points of the symbolic ground
set are addressed by (class, block, element) triples, and ``omega`` stands
for countable infinity throughout.  The module holds the counts, the
profile, the spec and address parsers, the block test and the
T1-realisability decision.

The finite side, bit-matrix relations and explicit partitions of
``{0..n-1}`` (``FiniteRelation``, ``FinitePartition``, ``all_partitions``
and the rest), lives in :mod:`diagclosure.finite_topology`, and the tuple
value protocol every value class shares in :mod:`diagclosure.values`.
Their names are imported from those modules, so the finite layer loads
none of the spec side and the spec side none of the finite layer.  Only
``FinitePartition`` also resolves here, looked up in
:mod:`diagclosure.finite_topology` on first use (PEP 562): the benchmark
under ``perfbench/`` imports it from here, and it does not change with
the package.
"""

from __future__ import annotations

import operator
from enum import IntEnum
from typing import Iterable, NamedTuple, NoReturn

from .errors import (
    GroundSetFiniteError,
    InvalidAddressError,
    NotRealisableError,
    SpecSyntaxError,
    read_natural,
    read_naturals,
)
from .values import _new, _refuse, _TupleValue

__all__ = [
    "OMEGA",
    "BlockClass",
    "BlockRef",
    "Count",
    "FiniteBlocks",
    "PartitionSpec",
    "PointAddr",
    "is_t1_realisable",
    "parse_point",
    "parse_spec",
    "same_block",
]


def __getattr__(name):
    # perfbench, which does not change with the package, imports FinitePartition from here
    if name != "FinitePartition":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .finite_topology import FinitePartition

    return FinitePartition


_INFINITY = float("inf")  # omega's place in the order: above every int, which compares with it exactly


def _by_value(op, otherwise):
    """A comparison of a count with a count or an int by ``op`` on their values,
    omega above every natural; any other operand gets ``otherwise(self, other)``."""

    def compare(self, other):
        if isinstance(other, Count):
            other = other.value
        elif not isinstance(other, int) or isinstance(other, bool):
            return otherwise(self, other)
        value = self.value
        return op(_INFINITY if value is None else value, _INFINITY if other is None else other)

    return compare


class Count(_TupleValue):
    """A natural number or omega (countably infinite).

    Comparisons treat omega as larger than every natural number, and a
    count equals the int of its value, but no other tuple.  Counts refuse
    assignment, so the shared ``OMEGA`` stays omega.  ``tuple`` orders its
    subclasses by their items, so each comparison is written here.
    """

    _fields = ("value",)

    def __new__(cls, value: int | None = None):
        if value is not None and (not isinstance(value, int) or isinstance(value, bool) or value < 0):
            raise ValueError(f"count must be a natural number or None for omega: {value!r}")
        return _new(cls, (value,))

    @property
    def is_omega(self) -> bool:
        return self.value is None

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def finite(self) -> int:
        """The finite value; raises if this count is omega."""
        if self.value is None:
            raise ValueError("count is omega")
        return self.value

    @staticmethod
    def parse(text: str) -> "Count":
        if text == "omega":
            return OMEGA
        return Count(read_natural(text, "count (expected a natural number or 'omega')"))

    __eq__ = _by_value(operator.eq, _TupleValue.__eq__)
    __ne__ = _by_value(operator.ne, _TupleValue.__ne__)
    __lt__ = _by_value(operator.lt, _refuse)
    __le__ = _by_value(operator.le, _refuse)
    __gt__ = _by_value(operator.gt, _refuse)
    __ge__ = _by_value(operator.ge, _refuse)

    def __hash__(self):
        return hash(self.value)  # the hash of the int it equals

    def __str__(self):
        return "omega" if self.value is None else str(self.value)

    def __repr__(self):
        return f"Count({self})"


OMEGA = Count(None)


class BlockClass(IntEnum):
    """The three block classes of a symbolic spec."""

    SINGLETON = 0
    FINITE = 1
    INFINITE = 2


# enum attribute lookups are slow on hot paths
_SINGLETON, _FINITE, _INFINITE = BlockClass.SINGLETON, BlockClass.FINITE, BlockClass.INFINITE
_CLASS_PREFIX = {BlockClass.SINGLETON: "s", BlockClass.FINITE: "f", BlockClass.INFINITE: "i"}
_PREFIX_CLASS = {v: k for k, v in _CLASS_PREFIX.items()}


class BlockRef(NamedTuple):
    """Reference to one block of a partition spec."""

    cls: BlockClass
    index: int

    def render(self) -> str:
        cls, index = self
        return f"{_CLASS_PREFIX[cls]}:{index}"


class PointAddr(NamedTuple):
    """Canonical address of a point of the symbolic ground set.

    Singleton points always have ``elem == 0``; elements 0 and 1 of every
    non-singleton block are its canonical representatives.
    """

    cls: BlockClass
    block: int
    elem: int

    @property
    def block_ref(self) -> BlockRef:
        return _new(BlockRef, self[:2])

    def render(self) -> str:
        cls, block, elem = self
        if cls is _SINGLETON:  # by identity: a plain int 0 renders with its element, as f:/i: do
            return f"s:{block}"
        return f"{_CLASS_PREFIX[cls]}:{block}:{elem}"


def parse_point(text: str) -> PointAddr:
    """Parse ``s:<i>``, ``f:<j>:<k>``, or ``i:<j>:<k>`` into a PointAddr.

    Surrounding whitespace is ignored, and every index is ASCII digits, as
    :func:`~diagclosure.errors.read_natural` reads them.  One ``split``
    gives the fields, and each index takes ``isdigit``, ``isascii`` and
    ``int()``; :func:`_refuse_point` names the fault of any other text.
    """
    try:
        fields = text.strip().split(":")
    except (AttributeError, TypeError):  # None and ints have no strip, and bytes split on no str
        raise InvalidAddressError(f"bad point address: expected a str, got {type(text).__name__}") from None
    try:
        if len(fields) == 2:
            prefix, block = fields
            if prefix == "s" and block.isdigit() and block.isascii():
                return _new(PointAddr, (_SINGLETON, int(block), 0))
        elif len(fields) == 3:
            prefix, block, elem = fields
            cls = _PREFIX_CLASS.get(prefix, _SINGLETON)  # f and i take two indices, s and any other prefix do not
            if cls is not _SINGLETON and block.isdigit() and elem.isdigit() and block.isascii() and elem.isascii():
                return _new(PointAddr, (cls, int(block), int(elem)))
    except ValueError:  # more digits than int() converts
        pass
    _refuse_point(text)


def _refuse_point(text: str) -> NoReturn:
    """Raise the error that says why :func:`parse_point` refused the str ``text``."""
    prefix, *indices = text.strip().split(":")
    if prefix not in _PREFIX_CLASS or not 0 < len(indices) < 3 or not all(i.isascii() and i.isdigit() for i in indices):
        raise InvalidAddressError(f"bad point address: {text!r}")
    if prefix == "s" and len(indices) == 2:
        raise InvalidAddressError(f"singleton addresses take one index: {text!r}")
    if prefix != "s" and len(indices) == 1:
        raise InvalidAddressError(f"{prefix}-addresses take two indices: {text!r}")
    for index in indices:  # one has more digits than int() converts: read_natural names the limit
        read_natural(index, "point address")
    raise InvalidAddressError(f"bad point address: {text!r}")  # not reached by a plain str


class FiniteBlocks(_TupleValue):
    """The finite-block part of a spec: explicit sizes, or a cyclic family.

    ``cyclic=True`` means countably many finite blocks whose sizes repeat
    the given list cyclically; block ``j`` then has size ``sizes[j % len]``.
    """

    _fields = ("sizes", "cyclic")

    def __new__(cls, sizes: Iterable[int] = (), cyclic: bool = False):
        sizes = tuple(sizes)
        for s in sizes:
            if not isinstance(s, int) or s < 2:
                raise SpecSyntaxError(f"finite block sizes must be naturals >= 2: {s!r}")
        if cyclic and not sizes:
            raise SpecSyntaxError("a cyclic finite-block family needs at least one size")
        return _new(cls, (sizes, cyclic))

    @property
    def is_empty(self) -> bool:
        return not self.cyclic and not self.sizes

    @property
    def count(self) -> Count:
        return OMEGA if self.cyclic else Count(len(self.sizes))

    def size_of(self, j: int) -> int:
        if self.cyclic:
            return self.sizes[j % len(self.sizes)]
        return self.sizes[j]

    def render(self) -> str:
        body = ",".join(str(s) for s in self.sizes)
        return f"cycle[{body}]" if self.cyclic else f"[{body}]"


class PartitionSpec(_TupleValue):
    """Symbolic block profile of an equivalence relation on a countable set.

    Rejected at construction when the described ground set is finite (in
    particular when there are no blocks at all).
    """

    _fields = ("singletons", "fin", "inf")

    def __new__(cls, singletons: Count, fin: FiniteBlocks, inf: Count):
        self = _new(cls, (singletons, fin, inf))
        if not (singletons.is_omega or fin.cyclic or inf >= 1):
            raise GroundSetFiniteError(f"spec describes a finite ground set: {self.render()}")
        return self

    def valid_addr(self, a: PointAddr) -> bool:
        """Whether ``a`` names a point of this spec.

        The addresses are exactly those ``parse_point`` builds: the class is a
        ``BlockClass`` member, not an int equal to one, and both indices are
        ints, not bools.  Block indices are compared with each ``Count.value``
        as plain ints (``None`` is omega, above every index), not through
        ``Count``'s comparison operators: this runs on every oracle query.
        """
        if type(a) is not PointAddr and not isinstance(a, PointAddr):
            return False
        cls, block, elem = a
        if type(block) is not int or type(elem) is not int or block < 0 or elem < 0:
            return False
        if cls is _SINGLETON:
            n = self.singletons.value
            return elem == 0 and (n is None or block < n)
        if cls is _FINITE:
            sizes, cyclic = self.fin
            if cyclic:
                return elem < sizes[block % len(sizes)]
            return block < len(sizes) and elem < sizes[block]
        n = self.inf.value
        return cls is _INFINITE and (n is None or block < n)

    def check_addr(self, a: PointAddr) -> PointAddr:
        if not self.valid_addr(a):
            raise InvalidAddressError(f"no such point for {self.render()}: {_as_typed(a)}")
        return a

    def render(self) -> str:
        return f"singletons={self.singletons};fin={self.fin.render()};inf={self.inf}"


def _as_typed(a) -> str:
    """An address as it is typed (``s:3``) where :func:`parse_point` reads that
    text back as ``a``, and the ``repr`` of anything else: a singleton with
    a nonzero element or a negative index has no text of its own."""
    if type(a) is PointAddr and type(a.cls) is BlockClass and type(a.block) is int is type(a.elem):
        if min(a.block, a.elem) >= 0 and (a.cls is not _SINGLETON or a.elem == 0):
            return a.render()
    return repr(a)


def _parse_finspec(text: str) -> FiniteBlocks:
    cyclic = False
    body = text
    if body.startswith("cycle["):
        cyclic = True
        if not body.endswith("]"):
            raise SpecSyntaxError(f"bad finite-block clause: {text!r}")
        body = body[len("cycle[") : -1]
    elif body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    else:
        raise SpecSyntaxError(f"bad finite-block clause: {text!r}")
    if not body.strip():
        return FiniteBlocks((), cyclic)
    return FiniteBlocks(tuple(read_naturals(body, "finite block size")), cyclic)


def parse_spec(text: str) -> PartitionSpec:
    """Parse ``singletons=<count>;fin=<finspec>;inf=<count>`` (any clause order)."""
    try:
        parts = text.split(";")
    except (AttributeError, TypeError):  # None and ints have no split, and bytes split on no str
        raise SpecSyntaxError(f"bad partition spec: expected a str, got {type(text).__name__}") from None
    if len(parts) != 3:
        raise SpecSyntaxError(f"expected exactly three ';'-separated clauses: {text!r}")
    seen: dict[str, str] = {}
    for raw in parts:
        key, sep, val = raw.strip().partition("=")
        key = key.strip()
        if not sep or key not in ("singletons", "fin", "inf"):
            raise SpecSyntaxError(f"bad clause: {raw.strip()!r}")
        if key in seen:
            raise SpecSyntaxError(f"duplicate clause: {key!r}")
        seen[key] = val.strip()
    return PartitionSpec(
        singletons=Count.parse(seen["singletons"]),
        fin=_parse_finspec(seen["fin"]),
        inf=Count.parse(seen["inf"]),
    )


def same_block(spec: PartitionSpec, p: PointAddr, q: PointAddr) -> bool:
    """Symbolic membership test for the relation: same class and block index."""
    spec.check_addr(p)
    spec.check_addr(q)
    return p.cls is q.cls and p.block == q.block


def is_t1_realisable(spec: PartitionSpec) -> bool:
    """Decide realisability as a diagonal closure under a T1 topology.

    False exactly when the spec has finitely many blocks and at least one
    finite block with more than one element: an explicit, non-empty
    finite-block list next to finitely many singletons and infinite blocks.
    """
    return not (spec.fin.sizes and not spec.fin.cyclic and spec.singletons.is_finite and spec.inf.is_finite)


def check_t1_realisable(spec: PartitionSpec) -> None:
    """Refuse, with NotRealisableError, a spec that no T1 topology realises.

    The one source of the refusal: ``realise_t1`` raises it, and the
    ``realise`` and ``separable`` commands raise it before importing the
    constructions.
    """
    if not is_t1_realisable(spec):
        raise NotRealisableError("not T1-realisable: Part(R) finite with a finite block of size ≥ 2")

