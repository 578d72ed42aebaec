"""Symbolic realisations: separation oracles with checkable certificates.

Each construction realises an equivalence relation given by a
:class:`~diagclosure.relations.PartitionSpec` as the diagonal closure of a
topology on the (countably infinite) symbolic ground set.  A construction
answers three kinds of questions, all decidable and exact:

* ``separable(p, q)`` - can the two points be separated by disjoint basic
  opens of this construction;
* ``witness(p, q)`` - a :class:`Certificate`, a concrete pair of disjoint
  basic opens around the points, checkable by :func:`check_certificate`
  using only the membership and disjointness rules;
* ``t1_witness(p, q)`` - for the T1 constructions, a basic open containing
  the first point but not the second.

``answer_pair(p, q)`` gives all of these for one pair at once - the
separability, the certificate and the T1 witnesses both ways - checking
the two points once; it is the verification harness's entry.  The single
calls stay separate, each checking its own points, so a query that needs
one answer pays for that one alone.

This module holds the parts every construction shares: the base class
:class:`Construction`, the cofinite-open primitive ``_Cofinite``,
:class:`Certificate` and its checker, the draws, the cache sizes and the
three ``realise_*`` entries.  Each family of constructions lives in a
module of its own, which a command loads only when it runs that family:

* :mod:`~diagclosure.cofinite` - ``InfOrSingleton`` and ``InfBlocks``,
  with the opens ``SingletonPt`` and ``CofInBlock`` (no finite blocks);
* :mod:`~diagclosure.reservoirs` - ``FinTwoCase1`` and ``FinTwoCase2``
  with ``FinPt1`` and ``FinPt2`` (finitely many finite blocks);
* :mod:`~diagclosure.pair_system` - ``PairBlocks``, ``ExtendPairs`` and
  ``SplitUnion`` with ``Ball`` and ``ExtPt`` (infinitely many finite
  blocks), the only family that uses the ball rules of
  :mod:`diagclosure.symbolic_sets`;
* :mod:`~diagclosure.saturation` - ``T0Sat`` and ``TauR`` with ``SatPair``
  and ``BlockOpen``, which realise every spec;
* :mod:`~diagclosure.subbasis` - ``SubbasisExample`` on the naturals,
  with ``CofOmega`` and ``CofInD``, and ``nontransitive_demo``.

Each name is imported from the module that defines it.  Five family
names alone, ``CofInBlock``, ``InfBlocks``, ``ExtendPairs``,
``SubbasisExample`` and ``nontransitive_demo``, also resolve here, each
looked up in its module on first use (PEP 562): the benchmark under
``perfbench/`` imports them from here, and it does not change with the
package.  This module itself imports neither
:mod:`diagclosure.relations` nor :mod:`diagclosure.symbolic_sets`.

Canonical choices are fixed once so that every answer is deterministic:
elements 0 and 1 of a block are its two representatives, reservoirs are
assigned by block index modulo the number of finite blocks, and the pair
system uses the fixed natural/rational pairing of
:mod:`diagclosure.symbolic_sets`.

Each point's canonical basic open, the one ``basic_nbhd`` gives with
nothing to avoid, is interned: it depends only on the point's block, or on
block and element for reservoir and pair-system points, so one bounded
module-level cache per family (``_cofinite_home``, ``_reservoir_home``,
``_pair_home``, next to the block images ``_xq`` of the pair system) hands
out one shared object per point.  An open with an exclusion is built anew
on each call.  No open changes after it is returned, so a shared one is
safe to hand out.

The T1 constructions share one base: ``InfOrSingleton`` isolates the
singleton points and gives every infinite block its cofinite subsets, and
each construction adds at most one system of opens for the finite blocks -
reservoirs when there are finitely many of them, the pair system when
there are infinitely many.

Each kind states the specs it realises in one predicate, ``covers(spec)``.
Its constructor refuses every other spec.  :func:`realise_t1` picks the
family from the spec's finite blocks, the paper's case split (none, a
finite list, a cyclic family), and builds the first T1 kind there that
covers the spec, each narrowed subclass before its base.

Only for the reservoirs and ``SubbasisExample`` is ``separable`` computed
from the structure of the basic-open families (residues, designated sets),
so that comparing it with the block-membership oracle tests something.
Everywhere else it is the block test itself; there the independent routes
are the certificate re-check and the T1 witness check.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .errors import (
    ForeignVariantError,
    InvalidAddressError,
    NotT1ConstructionError,
    SpecMismatchError,
    check_bounds,
)
from .values import _new, _TupleValue

if TYPE_CHECKING:  # annotations only: the module loads no spec code
    from .relations import PartitionSpec, PointAddr

__all__ = [
    "Certificate",
    "Construction",
    "check_certificate",
    "realise_t0",
    "realise_t1",
    "realise_tau_r",
]

# perfbench, which does not change with the package, imports these five family names from here
_PERFBENCH_ALIASES = {"CofInBlock": "cofinite", "InfBlocks": "cofinite", "ExtendPairs": "pair_system",
                      "SubbasisExample": "subbasis", "nontransitive_demo": "subbasis"}


def __getattr__(name):
    module = _PERFBENCH_ALIASES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)


# --------------------------------------------------------------------------
# basic opens

_NOTHING = frozenset()  # the exclusions of an open that excludes nothing


def _render_item(x) -> str:
    return str(x) if isinstance(x, int) else x.render()


class _Named(_TupleValue):
    """Shared render of the opens named by one point or block (``SingletonPt``,
    ``SatPair``, ``BlockOpen``): the class name around the render of that field."""

    def render(self) -> str:
        return f"{type(self).__name__}({self[0].render()})"


class _Cofinite(_TupleValue):
    """A base set minus the finite set ``excluded``; the other fields fix the base.

    Shared by every cofinite open: two opens on one base meet in that base
    minus both exclusion sets, one lies inside another on its base when it
    excludes all the other excludes, and all of them render as their base -
    the fields before ``excluded``, labelled by ``_head`` - followed by the
    sorted exclusions.
    """

    _defaults = {"excluded": _NOTHING}
    _head = ()
    _excl_label = "excl"

    def meet(self, other):
        """The intersection with an open on the same base."""
        return _new(type(self), (*self[:-1], self.excluded | other.excluded))

    def within(self, outer, outside) -> bool:
        """Whether this open lies inside ``outer``, an open of the same class:
        the same base, and ``outer`` excludes nothing this open keeps, apart
        from the exclusions ``outside(u)`` finds outside the base, which take
        nothing away."""
        if self[:-1] != outer[:-1]:
            return False
        kept = self.excluded
        return outer.excluded <= kept or all(u in kept or outside(u) for u in outer.excluded)

    def render(self) -> str:
        shown = f"{type(self).__name__}("
        for label, item in zip(self._head, self):  # a loop, not a generator: no frame per field
            shown += f"{label}={item!s}, " if isinstance(item, int) else f"{label}={item.render()}, "
        excl = ",".join(map(_render_item, sorted(self.excluded))) if self.excluded else ""
        return f"{shown}{self._excl_label}=[{excl}])"


class Certificate(_TupleValue):
    """A disjoint pair of basic opens, the first around the first query point."""

    _fields = ("open_a", "open_b")

    def render(self) -> str:
        return f"{self.open_a.render()}\n{self.open_b.render()}"


def check_certificate(c: "Construction", p, q, cert: Certificate) -> bool:
    """Accept iff open_a contains p, open_b contains q, and they are disjoint.

    Pure re-checking through the construction's exact membership and
    disjointness rules; independent of how the certificate was produced.
    """
    open_a, open_b = cert
    return c.member(open_a, p) and c.member(open_b, q) and c.disjoint(open_a, open_b)


# --------------------------------------------------------------------------
# construction base

def _same_block_addr(p: PointAddr, q: PointAddr) -> bool:
    return p.cls is q.cls and p.block == q.block


class Construction:
    """Base class: a separation oracle over a partition spec.

    Each kind defines the hooks ``_member``, ``_disjoint``, ``_basic_nbhd``,
    ``_refine`` and ``_contains``; the public calls check their arguments.
    The hooks tell opens apart by exact type, as ``_variants`` admits them:
    ``isinstance`` against a value class, whose class is
    ``values._ValueClass``, takes CPython's slow path when it fails.
    """

    kind: str = ""
    is_t1: bool = True
    _variants: tuple = ()

    def __init__(self, spec: Optional[PartitionSpec]):
        self.spec = spec
        # whether the certificate of a separable pair is its two T1 opens:
        # on a T1 kind that keeps the base witness, which builds exactly those
        self._t1_certificate = self.is_t1 and type(self)._witness_opens is Construction._witness_opens
        if spec is not None:
            self._valid = spec.valid_addr  # bound once: every query checks its points
            if not self.covers(spec):
                raise SpecMismatchError(f"{self.kind} does not cover {spec.render()}")

    @classmethod
    def covers(cls, spec: PartitionSpec) -> bool:
        """Whether this kind realises ``spec``; the constructor refuses the rest."""
        return True

    # -- plumbing: one ``_valid`` call per point; ``_reject`` only raises --

    def _reject(self, p):
        self.spec.check_addr(p)  # the kind covers the spec, so it answers every valid point

    def _check_point(self, p):
        if not self._valid(p):
            self._reject(p)

    def _check_pair(self, p, q):
        valid = self._valid
        if not valid(p):
            self._reject(p)
        if not valid(q):
            self._reject(q)
        if p == q:
            raise InvalidAddressError("query points must be distinct")

    def _check_variant(self, o):
        if type(o) not in self._variants:
            raise ForeignVariantError(f"{type(o).__name__} does not belong to {self.kind}")

    # -- oracle API --

    def separable(self, p, q) -> bool:
        self._check_pair(p, q)
        return self._separable(p, q)

    def witness(self, p, q) -> Optional[Certificate]:
        self._check_pair(p, q)
        if not self._separable(p, q):
            return None
        return _new(Certificate, self._witness_opens(p, q))

    def t1_witness(self, p, q):
        """A basic open containing p but not q."""
        if not self.is_t1:
            raise NotT1ConstructionError(f"{self.kind} is not a T1 construction")
        self._check_pair(p, q)
        return self._basic_nbhd(p, q)

    def answer_pair(self, p, q):
        """``(separable, certificate, open_p_without_q, open_q_without_p)`` in one call.

        The answers of ``separable``, ``witness`` and ``t1_witness`` both ways,
        with the points checked once; the T1 opens are None off T1.  On a T1
        kind whose class keeps the base ``_witness_opens`` (the cofinite and
        reservoir kinds), the certificate is those two T1 opens, built once;
        a kind with a witness of its own (the pair system, ``SubbasisExample``)
        builds it apart.
        """
        self._check_pair(p, q)
        sep = self._separable(p, q)
        if self._t1_certificate:
            o_p, o_q = self._basic_nbhd(p, q), self._basic_nbhd(q, p)
            return sep, _new(Certificate, (o_p, o_q)) if sep else None, o_p, o_q
        cert = _new(Certificate, self._witness_opens(p, q)) if sep else None
        if not self.is_t1:
            return sep, cert, None, None
        return sep, cert, self._basic_nbhd(p, q), self._basic_nbhd(q, p)

    def member(self, o, p) -> bool:
        if type(o) in self._variants:
            return self._member(o, p)
        self._check_variant(o)  # raises

    def disjoint(self, o1, o2) -> bool:
        variants = self._variants
        if type(o1) in variants and type(o2) in variants:
            return self._disjoint(o1, o2)
        self._check_variant(o1)  # one of the two raises
        self._check_variant(o2)

    def basic_nbhd(self, p, avoid=None):
        """Canonical basic open around p, excluding ``avoid`` where the family permits."""
        self._check_point(p)
        return self._basic_nbhd(p, avoid)

    def sample_open(self, p, rng, bounds=(50, 50)):
        """A randomly decorated basic open containing p (harness plumbing)."""
        check_bounds(bounds, 0)
        self._check_point(p)
        return self._sample_open(p, rng, bounds)

    def refine(self, o1, o2, p):
        """Basis axiom, constructively: an open with p inside both arguments."""
        self._check_variant(o1)
        self._check_variant(o2)
        if not (self._member(o1, p) and self._member(o2, p)):
            raise ValueError("refine needs a common point of both opens")
        return self._refine(o1, o2, p)

    def contains(self, outer, inner) -> bool:
        """Exact containment inner <= outer, for this construction's variants."""
        self._check_variant(outer)
        self._check_variant(inner)
        return self._contains(outer, inner)

    # -- per-kind hooks --

    def _separable(self, p, q) -> bool:
        return not _same_block_addr(p, q)  # the relation itself: separable iff the blocks differ

    def _witness_opens(self, p, q):
        return self._basic_nbhd(p, q), self._basic_nbhd(q, p)

    def _sample_open(self, p, rng, bounds):
        return self._basic_nbhd(p)


def draw_below(getrandbits, n: int, k: Optional[int] = None) -> int:
    """A uniform draw from ``range(n)``, n >= 1, from the bit source ``getrandbits``.

    It draws k bits, k the bit width of n, again while they are >= n: the
    rule of ``random.Random._randbelow_with_getrandbits``, so the draws and
    the generator state after them are those of ``randrange(n)`` and
    ``randint(0, n - 1)``, without their argument checks.  A caller that
    draws often below one n passes its bit width ``k``, fixed once.
    """
    if k is None:
        k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _draw_excl(rng, hi: int, unit, keep) -> frozenset:
    """Up to two random exclusions ``unit(k)``, 0 <= k <= hi, never ``keep``."""
    out, getrandbits = set(), rng.getrandbits
    for _ in range(draw_below(getrandbits, 3)):
        u = unit(draw_below(getrandbits, hi + 1))
        if u != keep:
            out.add(u)
    return frozenset(out)


# --------------------------------------------------------------------------
# the sizes of the per-block caches of the families: block images and the
# interned canonical opens

_XQ_CACHE_SIZE = 4096
# Each cache holds every canonical open a verify run at the default bounds
# 50,50 asks for (at most 153 per family), and about 0.08 MB when full of
# wide block indices, which never repeat.
_HOME_CACHE_SIZE = 256


# --------------------------------------------------------------------------
# dispatch

def realise_t1(spec: PartitionSpec) -> Construction:
    """Build the T1 realisation of a spec, or refuse when none exists.

    The family follows from the spec's finite blocks, the paper's case
    split: none, a finite list or a cyclic family.  Only that family's
    module is loaded, and its first kind that covers the spec is built,
    each narrowed subclass before its base.
    """
    from .relations import check_t1_realisable

    check_t1_realisable(spec)
    if spec.fin.cyclic:
        from .pair_system import ExtendPairs, PairBlocks, SplitUnion

        kinds = (PairBlocks, ExtendPairs, SplitUnion)
    elif spec.fin.sizes:
        from .reservoirs import FinTwoCase1, FinTwoCase2

        kinds = (FinTwoCase1, FinTwoCase2)
    else:
        from .cofinite import InfBlocks, InfOrSingleton

        kinds = (InfBlocks, InfOrSingleton)
    return next(kind for kind in kinds if kind.covers(spec))(spec)


def realise_t0(spec: PartitionSpec) -> Construction:
    """Build the T0 realisation; works for every spec."""
    from .saturation import T0Sat

    return T0Sat(spec)


def realise_tau_r(spec: PartitionSpec) -> Construction:
    """Build the block-saturated realisation; works for every spec."""
    from .saturation import TauR

    return TauR(spec)
