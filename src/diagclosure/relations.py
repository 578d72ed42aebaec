"""Relations, partitions, and symbolic partition specifications.

The finite side works with bit-matrix relations and explicit partitions of
``{0..n-1}``.  The symbolic side describes an equivalence relation on a
countably infinite ground set by its block profile: how many singleton
blocks, which finite block sizes (an explicit list, or an infinite family
whose sizes repeat cyclically), and how many infinite blocks.  Points of
the symbolic ground set are addressed by (class, block, element) triples,
and ``omega`` stands for countable infinity throughout.
"""

from __future__ import annotations

import functools
from enum import IntEnum
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    GroundSetFiniteError,
    InvalidAddressError,
    NotEquivalenceError,
    NotRealisableError,
    SpecSyntaxError,
    read_natural,
    read_naturals,
)

__all__ = [
    "OMEGA",
    "BlockClass",
    "BlockRef",
    "Count",
    "FiniteBlocks",
    "FinitePartition",
    "FiniteRelation",
    "PartitionSpec",
    "PointAddr",
    "all_partitions",
    "eq_of_partition",
    "is_t1_realisable",
    "parse_point",
    "parse_spec",
    "partition_of_eq",
    "same_block",
]


# Sets a field of a _Frozen value in its __init__: bound once, as a global,
# because opens are built hundreds of thousands of times per verify round.
_set = object.__setattr__


class _Frozen:
    """Value semantics of a frozen dataclass, without importing ``dataclasses``.

    A subclass names its fields in ``_fields``: they are the value.  Unless
    the class writes its own ``__init__``, one is generated that takes them
    in that order, with the defaults given in ``_defaults``, and sets them
    through ``_set``; a class that converts or checks its values first
    writes its own.  Its ``__slots__`` holds the fields and may add slots
    for derived or cached data, also set through ``_set``.  Values are equal
    only to values of the same class with equal fields, hash as their field
    tuple, show as ``Class(field=value, ...)``, refuse assignment and
    deletion, and pickle and copy by calling ``__init__`` with their fields.
    """

    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        # Compiled from source once per class, as dataclasses and namedtuple
        # build theirs, so it runs the code of a hand-written __init__: a verify
        # round builds over half a million opens and certificates.
        if "_fields" in cls.__dict__ and "__init__" not in cls.__dict__:
            params = "".join(f", {f}=_d_{f}" if f in cls._defaults else f", {f}" for f in cls._fields)
            body = "".join(f"\n    _set(self, {f!r}, {f})" for f in cls._fields)
            namespace = {"_set": _set, **{f"_d_{f}": v for f, v in cls._defaults.items()}}
            exec(f"def __init__(self{params}):{body}\n", namespace)
            cls.__init__ = namespace["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"  # named in argument errors

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def _replace(self, **changes):
        """A copy with the named fields changed."""
        return type(self)(*[changes.get(f, getattr(self, f)) for f in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # pickle and copy rebuild through __init__, not by setting slots
        return type(self), self._values()


@functools.total_ordering
class Count(_Frozen):
    """A natural number or omega (countably infinite).

    Comparisons treat omega as larger than every natural number, and a
    count equals the int of its value.  Counts refuse assignment, so the
    shared ``OMEGA`` stays omega.
    """

    _fields = __slots__ = ("value",)

    def __init__(self, value: int | None = None):
        if value is not None and (not isinstance(value, int) or isinstance(value, bool) or value < 0):
            raise ValueError(f"count must be a natural number or None for omega: {value!r}")
        _set(self, "value", value)

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

    @staticmethod
    def _value_of(other) -> "int | None | type(NotImplemented)":
        if isinstance(other, Count):
            return other.value
        if isinstance(other, int) and not isinstance(other, bool):
            return other
        return NotImplemented

    def __eq__(self, other):
        v = self._value_of(other)
        if v is NotImplemented:
            return NotImplemented
        return self.value == v

    def __lt__(self, other):
        v = self._value_of(other)
        if v is NotImplemented:
            return NotImplemented
        if self.value is None:
            return False
        if v is None:
            return True
        return self.value < v

    def __hash__(self):
        return hash(self.value)

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


# Builds a BlockRef or PointAddr from the tuple of its fields, as in
# ``_new(PointAddr, (cls, block, elem))``, with no call of NamedTuple's
# ``__new__``, a Python function: a verify round builds some 700,000 addresses.
_new = tuple.__new__


class BlockRef(NamedTuple):
    """Reference to one block of a partition spec."""

    cls: BlockClass
    index: int

    def render(self) -> str:
        return f"{_CLASS_PREFIX[self.cls]}:{self.index}"


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
        if self.cls is BlockClass.SINGLETON:
            return f"s:{self.block}"
        return f"{_CLASS_PREFIX[self.cls]}:{self.block}:{self.elem}"


def parse_point(text: str) -> PointAddr:
    """Parse ``s:<i>``, ``f:<j>:<k>``, or ``i:<j>:<k>`` into a PointAddr.

    Surrounding whitespace is ignored, and every index is ASCII digits, as
    :func:`~diagclosure.errors.read_natural` reads them.
    """
    item = text.strip()
    prefix, *indices = item.split(":")
    cls = _PREFIX_CLASS.get(prefix)
    if cls is None or not 0 < len(indices) < 3 or not item.isascii() or not all(map(str.isdigit, indices)):
        raise InvalidAddressError(f"bad point address: {text!r}")
    if cls is _SINGLETON:
        if len(indices) == 2:
            raise InvalidAddressError(f"singleton addresses take one index: {text!r}")
        indices.append("0")
    elif len(indices) == 1:
        raise InvalidAddressError(f"{prefix}-addresses take two indices: {text!r}")
    try:
        block, elem = map(int, indices)
    except ValueError:  # more digits than int() converts: read_natural names the limit
        block, elem = (read_natural(index, "point address") for index in indices)
    return _new(PointAddr, (cls, block, elem))


class FiniteBlocks(_Frozen):
    """The finite-block part of a spec: explicit sizes, or a cyclic family.

    ``cyclic=True`` means countably many finite blocks whose sizes repeat
    the given list cyclically; block ``j`` then has size ``sizes[j % len]``.
    """

    _fields = __slots__ = ("sizes", "cyclic")

    def __init__(self, sizes: Iterable[int] = (), cyclic: bool = False):
        sizes = tuple(sizes)
        for s in sizes:
            if not isinstance(s, int) or s < 2:
                raise SpecSyntaxError(f"finite block sizes must be naturals >= 2: {s!r}")
        if cyclic and not sizes:
            raise SpecSyntaxError("a cyclic finite-block family needs at least one size")
        _set(self, "sizes", sizes)
        _set(self, "cyclic", cyclic)

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


class PartitionSpec(_Frozen):
    """Symbolic block profile of an equivalence relation on a countable set.

    Rejected at construction when the described ground set is finite (in
    particular when there are no blocks at all).
    """

    _fields = __slots__ = ("singletons", "fin", "inf")

    def __init__(self, singletons: Count, fin: FiniteBlocks, inf: Count):
        _set(self, "singletons", singletons)
        _set(self, "fin", fin)
        _set(self, "inf", inf)
        if not (singletons.is_omega or fin.cyclic or inf >= 1):
            raise GroundSetFiniteError(f"spec describes a finite ground set: {self.render()}")

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
            sizes = self.fin.sizes
            if self.fin.cyclic:
                return elem < sizes[block % len(sizes)]
            return block < len(sizes) and elem < sizes[block]
        n = self.inf.value
        return cls is _INFINITE and (n is None or block < n)

    def check_addr(self, a: PointAddr) -> PointAddr:
        if not self.valid_addr(a):
            raise InvalidAddressError(f"no such point for {self.render()}: {a!r}")
        return a

    def render(self) -> str:
        return f"singletons={self.singletons};fin={self.fin.render()};inf={self.inf}"


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
    parts = text.split(";")
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


def _mask(points: Iterable[int]) -> int:
    """The bitmask of a set of points of ``{0..n-1}``."""
    m = 0
    for x in points:
        m |= 1 << x
    return m


# FiniteRelation is a plain slotted class, not a _Frozen value: the preorder
# walk builds one Preorder, its subclass, per preorder, and the _set calls
# made enumerate_preorders(6, consumer) 13% slower (0.458 -> 0.520 s on a
# 2-vCPU Linux VM, Python 3.11).
class FiniteRelation:
    """Binary relation on ``{0..n-1}`` stored as bitmask rows."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Iterable[int]):
        rows = tuple(rows)
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        full = (1 << n) - 1
        if any(r & ~full for r in rows):
            raise ValueError("row bits outside the ground set")
        self.n = n
        self.rows = rows

    @classmethod
    def diagonal(cls, n: int) -> "FiniteRelation":
        return cls(n, (1 << i for i in range(n)))

    @classmethod
    def full(cls, n: int) -> "FiniteRelation":
        mask = (1 << n) - 1
        return cls(n, (mask for _ in range(n)))

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "FiniteRelation":
        """The diagonal together with ``pairs``."""
        rows = [1 << i for i in range(n)]
        for i, j in pairs:
            rows[i] |= 1 << j
        return cls(n, rows)

    def has(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def pairs(self) -> Iterator[tuple[int, int]]:
        for i in range(self.n):
            row = self.rows[i]
            for j in range(self.n):
                if row >> j & 1:
                    yield (i, j)

    def is_reflexive(self) -> bool:
        return all(self.rows[i] >> i & 1 for i in range(self.n))

    def is_symmetric(self) -> bool:
        return all(
            (self.rows[i] >> j & 1) == (self.rows[j] >> i & 1)
            for i in range(self.n)
            for j in range(i + 1, self.n)
        )

    def is_transitive(self) -> bool:
        for i in range(self.n):
            row = self.rows[i]
            for j in range(self.n):
                if row >> j & 1 and self.rows[j] & ~row:
                    return False
        return True

    def is_equivalence(self) -> bool:
        return self.is_reflexive() and self.is_symmetric() and self.is_transitive()

    def issubset(self, other: "FiniteRelation") -> bool:
        return self.n == other.n and all(a & ~b == 0 for a, b in zip(self.rows, other.rows))

    def __eq__(self, other):  # exact types: a subclass value is never equal to a FiniteRelation
        return type(other) is type(self) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        off = sorted((i, j) for i, j in self.pairs() if i != j)
        return f"FiniteRelation(n={self.n}, off_diagonal={off})"


class FinitePartition(_Frozen):
    """Partition of ``{0..n-1}`` into disjoint nonempty blocks.

    Blocks are normalised to sorted tuples ordered by least element, so two
    partitions are equal exactly when they have the same blocks.
    ``block_of[x]`` is the index of the block holding ``x``.
    """

    _fields = ("n", "blocks")
    __slots__ = ("n", "blocks", "block_of")

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        canon = sorted(tuple(sorted(b)) for b in blocks)
        # With n entries or more, none out of range or repeated (the loop
        # below), n distinct points of 0..n-1 are placed: all are covered.
        if sum(map(len, canon)) < n:  # before the n-slot table is allocated
            raise ValueError("blocks must cover the ground set")
        block_of = [-1] * n
        for bi, block in enumerate(canon):
            if not block:
                raise ValueError("empty block")
            for x in block:
                if not 0 <= x < n or block_of[x] != -1:
                    raise ValueError(f"blocks must partition 0..{n - 1}")
                block_of[x] = bi
        _set(self, "n", n)
        _set(self, "blocks", tuple(canon))
        _set(self, "block_of", tuple(block_of))


def eq_of_partition(p: FinitePartition) -> FiniteRelation:
    """The equivalence relation whose classes are the blocks of ``p``."""
    masks = [_mask(block) for block in p.blocks]
    return FiniteRelation(p.n, (masks[b] for b in p.block_of))


def partition_of_eq(r: FiniteRelation) -> FinitePartition:
    """Blocks of an equivalence relation; inverse of :func:`eq_of_partition`."""
    if not r.is_equivalence():
        raise NotEquivalenceError("relation is not an equivalence (reflexive, symmetric, transitive)")
    seen: dict[int, list[int]] = {}
    for i in range(r.n):
        seen.setdefault(r.rows[i], []).append(i)
    return FinitePartition(r.n, seen.values())


def all_partitions(n: int) -> Iterator[FinitePartition]:
    """All set partitions of ``{0..n-1}``, in restricted-growth order."""
    if n == 0:
        yield FinitePartition(0, [])
        return
    yield from _place(0, n, [])


# Module-level, not nested in all_partitions: a nested generator that calls
# itself would hold itself through its closure cell, a cycle left to the
# cyclic garbage collector.
def _place(i: int, n: int, blocks: list[list[int]]) -> Iterator[FinitePartition]:
    # point i joins each open block in turn, then a new block of its own
    if i == n:
        yield FinitePartition(n, [list(b) for b in blocks])
        return
    for b in blocks:
        b.append(i)
        yield from _place(i + 1, n, blocks)
        b.pop()
    blocks.append([i])
    yield from _place(i + 1, n, blocks)
    blocks.pop()
