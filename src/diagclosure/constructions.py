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

Canonical choices are fixed once so that every answer is deterministic:
elements 0 and 1 of a block are its two representatives, reservoirs are
assigned by block index modulo the number of finite blocks, and the pair
system uses the fixed natural/rational pairing of
:mod:`diagclosure.symbolic_sets`.

Each point's canonical basic open, the one ``basic_nbhd`` gives with
nothing to avoid, is interned: it depends only on the point's block, or on
block and element for reservoir and pair-system points, so bounded
module-level caches next to the block images ``_xq`` hand out one shared
object per point (``_cofinite_home``, ``_reservoir_home``, ``_pair_home``).
An open with an exclusion is built anew on each call.  No open changes
after it is returned, so a shared one is safe to hand out.

The T1 constructions share one base: :class:`InfOrSingleton` isolates the
singleton points and gives every infinite block its cofinite subsets, and
each construction adds at most one system of opens for the finite blocks -
reservoirs when there are finitely many of them, the pair system when
there are infinitely many.

Each kind states the specs it realises in one predicate, ``covers(spec)``.
Its constructor refuses every other spec, and :func:`realise_t1` builds the
first T1 kind that covers the spec, each narrowed subclass before its base.

Only for the reservoirs and :class:`SubbasisExample` is ``separable``
computed from the structure of the basic-open families (residues,
designated sets), so that comparing it with the block-membership oracle
tests something.  Everywhere else it is the block test itself; there the
independent routes are the certificate re-check and the T1 witness check.
"""

from __future__ import annotations

import functools
import itertools
from typing import Optional, Sequence

from .errors import (
    ForeignVariantError,
    InvalidAddressError,
    InvalidSizeError,
    NotDisjointError,
    NotT1ConstructionError,
    SpecMismatchError,
    check_bounds,
)
from .relations import (
    BlockClass,
    BlockRef,
    PartitionSpec,
    PointAddr,
    _new,
    _TupleValue,
    check_t1_realisable,
)
from .symbolic_sets import (
    RationalBall,
    ResidueClassSet,
    _ball_excluding,
    _image,
    _image_ball,
    _image_member,
    _image_refine,
    _separating_balls,
    ball_contains,
    ball_disjoint,
    residues_disjoint,
)

__all__ = [
    "Ball",
    "BlockOpen",
    "Certificate",
    "CofInBlock",
    "CofInD",
    "CofOmega",
    "Construction",
    "DEFAULT_DESIGNATED",
    "ExtPt",
    "ExtendPairs",
    "FinPt1",
    "FinPt2",
    "FinTwoCase1",
    "FinTwoCase2",
    "InfBlocks",
    "InfOrSingleton",
    "NonTransitiveReport",
    "PairBlocks",
    "SatPair",
    "SingletonPt",
    "SplitUnion",
    "SubbasisExample",
    "T0Sat",
    "TauR",
    "check_certificate",
    "nontransitive_demo",
    "realise_t0",
    "realise_t1",
    "realise_tau_r",
]

_S, _F, _I = BlockClass.SINGLETON, BlockClass.FINITE, BlockClass.INFINITE


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

    def within(self, outer) -> bool:
        """Whether this open lies inside ``outer``, an open of the same class:
        the same base, and ``outer`` excludes none that this open keeps."""
        return self[:-1] == outer[:-1] and outer.excluded <= self.excluded

    def render(self) -> str:
        shown = f"{type(self).__name__}("
        for label, item in zip(self._head, self):  # a loop, not a generator: no frame per field
            shown += f"{label}={item!s}, " if isinstance(item, int) else f"{label}={item.render()}, "
        excl = ",".join(map(_render_item, sorted(self.excluded))) if self.excluded else ""
        return f"{shown}{self._excl_label}=[{excl}])"


class SingletonPt(_Named):
    """The one-point open {x} of an isolated (singleton-block) point."""

    _fields = ("point",)


class CofInBlock(_Cofinite):
    """A cofinite subset of a single (infinite) block."""

    _fields = ("block", "excluded")
    _head = ("block",)


class _FinPt(_Cofinite):
    """A finite-block point plus a cofinite subset of its reservoir."""

    _fields = ("block", "elem", "excluded")
    _head = ("block", "elem")


class FinPt1(_FinPt):
    """A finite-block point plus a cofinite subset of its singleton reservoir."""


class FinPt2(_FinPt):
    """A finite-block point plus all but finitely many blocks of its infinite-block pool."""

    _excl_label = "excl_blocks"  # the exclusions are block indices


class Ball(_TupleValue):
    """A cofinite subset of a rational ball in the pair system."""

    _fields = ("ball",)

    def render(self) -> str:
        return f"Ball({self.ball.render_args()})"


class ExtPt(_TupleValue):
    """A non-representative point (the anchor) plus a ball around its block,
    minus the block's level-0 representative image; the ball must contain
    that image.  ``_dropped`` names the point of that image."""

    _fields = ("block", "elem", "ball")

    def render(self) -> str:
        return f"ExtPt(block={self.block}, elem={self.elem}, ball=({self.ball.render_args()}))"


class SatPair(_Named):
    """The open {x, rep(block(x))} of the representative-saturated topology."""

    _fields = ("point",)


class BlockOpen(_Named):
    """An entire block, as a basic open of the block-saturated topology."""

    _fields = ("block",)


class CofOmega(_Cofinite):
    """A cofinite subset of the naturals."""

    _fields = ("excluded",)


class CofInD(_Cofinite):
    """A cofinite subset of one designated residue-class set (1-based index)."""

    _fields = ("index", "excluded")
    _head = ("d",)


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
    ``relations._ValueClass``, takes CPython's slow path when it fails.
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
# per-block caches: block images and the interned canonical opens

_XQ_CACHE_SIZE = 4096
# Each cache holds every canonical open a verify run at the default bounds
# 50,50 asks for (at most 153 per family), and about 0.08 MB when full of
# wide block indices, which never repeat.
_HOME_CACHE_SIZE = 256

# The image of a block index: its (natural, rational) pair as the integers
# (x, numerator, denominator).  One bounded cache shared by every
# construction, so answering queries on ever new blocks cannot grow it.
_xq = functools.lru_cache(maxsize=_XQ_CACHE_SIZE)(_image)

# The interned canonical opens (see the module docstring), one bounded cache
# per family, shared by every construction like ``_xq``: a verify round asks
# for some 200,000 of these opens, and they take fewer than 200 values.


@functools.lru_cache(maxsize=_HOME_CACHE_SIZE)
def _cofinite_home(cls: BlockClass, block: int):
    """The canonical open of a singleton or infinite-block point: the point's
    ``SingletonPt``, or its whole block as a ``CofInBlock`` with no exclusion."""
    if cls is _S:
        return _new(SingletonPt, (_new(PointAddr, (cls, block, 0)),))
    return _new(CofInBlock, (_new(BlockRef, (cls, block)), _NOTHING))


@functools.lru_cache(maxsize=_HOME_CACHE_SIZE)
def _reservoir_home(open_cls: type, block: int, elem: int):
    """The canonical reservoir open of a finite-block point: the whole reservoir."""
    return _new(open_cls, (block, elem, _NOTHING))


def _pair_open(block: int, elem: int, ball: RationalBall):
    """The pair-system open of the point (block, elem) on ``ball``: the ball
    itself around a representative, an ``ExtPt`` anchored at any further element."""
    if elem <= 1:
        return _new(Ball, (ball,))
    return _new(ExtPt, (block, elem, ball))


@functools.lru_cache(maxsize=_HOME_CACHE_SIZE)
def _pair_home(block: int, elem: int):
    """The canonical pair-system open of a finite-block point: on the unit ball
    around its block's image, with no exclusion."""
    return _pair_open(block, elem, _image_ball(_xq(block)))


# --------------------------------------------------------------------------
# the cofinite/singleton family: isolated singletons, cofinite opens in blocks

class InfOrSingleton(Construction):
    """Singleton points are isolated; infinite blocks carry the cofinite opens.

    Two cofinite opens meet exactly when they sit in the same block, so
    points are separable iff their blocks differ, and excluding one point
    from a cofinite subset keeps it basic - which gives the T1 witnesses.
    This class holds the SingletonPt and CofInBlock rules for every T1
    construction; its subclasses narrow the variants or add one system of
    opens for the finite blocks (reservoirs or the pair system).
    """

    kind = "InfOrSingleton"
    _variants = (SingletonPt, CofInBlock)

    @classmethod
    def covers(cls, spec):
        return spec.fin.is_empty

    def _member(self, o, p):
        if type(o) is SingletonPt:
            return o.point == p
        cls, index = o.block
        return p.cls == cls and p.block == index and p not in o.excluded

    def _disjoint(self, o1, o2):
        if type(o1) is SingletonPt:
            return not self._member(o2, o1.point)
        if type(o2) is SingletonPt:
            return not self._member(o1, o2.point)
        return o1.block != o2.block

    def _basic_nbhd(self, p, avoid=None):
        if p.cls is not _S and isinstance(avoid, PointAddr) and avoid != p and _same_block_addr(avoid, p):
            return _new(CofInBlock, (p.block_ref, frozenset((avoid,))))
        return _cofinite_home(p.cls, p.block)

    def _sample_open(self, p, rng, bounds):
        if p.cls is _S:
            return _new(SingletonPt, (p,))
        cls, block, _ = p
        excl = _draw_excl(rng, bounds[1], lambda e: _new(PointAddr, (cls, block, e)), p)
        return _new(CofInBlock, (p.block_ref, excl))

    def _refine(self, o1, o2, p):
        if type(o1) is SingletonPt or type(o2) is SingletonPt:
            return SingletonPt(p)
        return o1.meet(o2)

    def _contains(self, outer, inner):
        if type(inner) is SingletonPt:
            return self._member(outer, inner.point)
        if type(outer) is SingletonPt:
            return False
        return inner.within(outer)


class InfBlocks(InfOrSingleton):
    """Every block infinite; basic opens are cofinite subsets of single blocks."""

    kind = "InfBlocks"
    _variants = (CofInBlock,)

    @classmethod
    def covers(cls, spec):
        return super().covers(spec) and spec.singletons == 0


# --------------------------------------------------------------------------
# the reservoir family: finitely many finite blocks on disjoint reservoirs

class _Reservoir(InfOrSingleton):
    """Finite blocks draw opens from disjoint reservoirs.

    Finite block j owns the reservoir of all ``_pool_cls`` blocks whose
    index is congruent to ``block_residues[j]`` modulo the number of finite
    blocks; a basic open around a finite-block point is an ``_open``: that
    point together with all but finitely many units of its reservoir.  The
    residue assignment is injective, as the realisation requires.  Points
    outside finite blocks keep the family rules.
    """

    _open: type  # FinPt1 or FinPt2
    _pool_cls: BlockClass  # what the reservoirs are made of: singletons or infinite blocks

    def __init__(self, spec):
        super().__init__(spec)
        self.modulus = len(spec.fin.sizes)
        self.block_residues = tuple(range(self.modulus))

    def _unit(self, p: PointAddr):
        """What a reservoir open excludes to drop p: p itself, or its whole block."""
        return p if self._pool_cls is _S else p.block

    def _in_reservoir(self, j: int, p: PointAddr) -> bool:
        return p.cls is self._pool_cls and p.block % self.modulus == self.block_residues[j]

    def _holds_block(self, o, ref: BlockRef) -> bool:
        """Whether the reservoir open o contains the whole infinite block ref."""
        return (
            self._pool_cls is _I
            and ref.cls is _I
            and ref.index % self.modulus == self.block_residues[o.block]
            and ref.index not in o.excluded
        )

    def _separable(self, p, q):
        if p.cls is _F and q.cls is _F:
            return p.block != q.block and self.block_residues[p.block] != self.block_residues[q.block]
        return not _same_block_addr(p, q)

    def _member(self, o, p):
        if type(o) is not self._open:
            return InfOrSingleton._member(self, o, p)
        if p.cls is _F:
            return p.block == o.block and p.elem == o.elem
        return self._in_reservoir(o.block, p) and self._unit(p) not in o.excluded

    def _disjoint(self, o1, o2):
        f1, f2 = type(o1) is self._open, type(o2) is self._open
        if f1 and f2:
            return o1.block != o2.block and self.block_residues[o1.block] != self.block_residues[o2.block]
        if f1 and type(o2) is CofInBlock:
            return not self._holds_block(o1, o2.block)
        if f2 and type(o1) is CofInBlock:
            return not self._holds_block(o2, o1.block)
        return InfOrSingleton._disjoint(self, o1, o2)

    def _basic_nbhd(self, p, avoid=None):
        if p.cls is not _F:
            return InfOrSingleton._basic_nbhd(self, p, avoid)
        if isinstance(avoid, PointAddr) and self._in_reservoir(p.block, avoid):
            return _new(self._open, (p.block, p.elem, frozenset((self._unit(avoid),))))
        return _reservoir_home(self._open, p.block, p.elem)

    def _sample_excl(self, j, rng, block_bound, avoid=None):
        res, m, pool = self.block_residues[j], self.modulus, self._pool_cls
        return _draw_excl(rng, max(1, block_bound), lambda k: self._unit(_new(PointAddr, (pool, res + m * k, 0))), avoid)

    def _sample_open(self, p, rng, bounds):
        if p.cls is _F:
            return _new(self._open, (p.block, p.elem, self._sample_excl(p.block, rng, bounds[0])))
        if p.cls is self._pool_cls:
            owners = [j for j in range(self.modulus) if self._in_reservoir(j, p)]
            if owners and rng.random() < 0.5:
                j = owners[draw_below(rng.getrandbits, len(owners))]
                k = draw_below(rng.getrandbits, self.spec.fin.size_of(j))
                return _new(self._open, (j, k, self._sample_excl(j, rng, bounds[0], avoid=self._unit(p))))
        return InfOrSingleton._sample_open(self, p, rng, bounds)

    def _refine(self, o1, o2, p):
        f1, f2 = type(o1) is self._open, type(o2) is self._open
        if f1 and f2:
            if o1[:-1] == o2[:-1]:  # one base, as ``within`` compares them: the same point
                return o1.meet(o2)
            return self._basic_nbhd(p)  # the overlap lies in the shared reservoir
        if f1 or f2:
            return o2 if f1 else o1  # p's singleton, or its whole reservoir block, lies inside
        return InfOrSingleton._refine(self, o1, o2, p)

    def _contains(self, outer, inner):
        if type(inner) is self._open:
            return type(outer) is self._open and inner.within(outer)
        if type(outer) is self._open and type(inner) is CofInBlock:
            return self._holds_block(outer, inner.block)
        return InfOrSingleton._contains(self, outer, inner)


class FinTwoCase1(_Reservoir):
    """Finitely many finite blocks, infinitely many singletons: each finite
    block owns a residue class of singleton points as its reservoir."""

    kind = "FinTwoCase1"
    _variants = (SingletonPt, CofInBlock, FinPt1)
    _open = FinPt1
    _pool_cls = _S

    @classmethod
    def covers(cls, spec):
        return bool(spec.fin.sizes) and not spec.fin.cyclic and spec.singletons.is_omega


class FinTwoCase2(_Reservoir):
    """Finitely many finite blocks and singletons, infinitely many infinite
    blocks: each finite block owns a residue class of whole infinite blocks.
    Only whole blocks can be excluded there - element-level exclusions
    happen inside CofInBlock opens."""

    kind = "FinTwoCase2"
    _variants = (SingletonPt, CofInBlock, FinPt2)
    _open = FinPt2
    _pool_cls = _I

    @classmethod
    def covers(cls, spec):
        return bool(spec.fin.sizes) and not spec.fin.cyclic and spec.singletons.is_finite and spec.inf.is_omega


# --------------------------------------------------------------------------
# the pair system: infinitely many finite blocks on rational balls

_OFFSETS = (0, 1, -1, 2, -2)  # centre offsets from z, in quarters
_HALVES = (1, 2, 3)  # the radii 1/2, 1 and 3/2, in halves


def _sample_ball(z, level, rng) -> RationalBall:
    """A ball around the image z of a block with up to two exclusions, all
    given in eighths from z's rational: with offset ``o/4`` and radius ``h/2``
    the centre is ``2o/8`` away, exclusion ``centre + (k/4) * radius`` is
    ``(2o + k*h)/8`` away, inside the ball as ``|k| < 4``, and the image
    itself iff ``2o + k*h == 0``."""
    getrandbits = rng.getrandbits
    off = _OFFSETS[draw_below(getrandbits, len(_OFFSETS))]
    half = _HALVES[draw_below(getrandbits, len(_HALVES))]
    if abs(off) >= 2 * half:  # the ball must hold z: 1/2 against an offset of 1/2
        half = 2
    excl = []
    for _ in range(draw_below(getrandbits, 3)):
        step = 2 * off + (draw_below(getrandbits, 7) - 3) * half
        lev = draw_below(getrandbits, 2)
        if step or lev != level:
            excl.append((step, lev))
    return _image_ball(z, 4 * half, 2 * off, excl)


_BALL_OPENS = (Ball, ExtPt)


def _dropped(o):
    """The point (block, elem) whose image a pair-system open drops from its
    ball: an ``ExtPt``'s level-0 representative, element 0 of its block; a
    ``Ball`` drops none.  Every rule on the ball part of an open reads it here."""
    return (o.block, 0) if type(o) is ExtPt else None


def _ball_part(o) -> RationalBall:
    """The ball part of a pair-system open: its ball minus the image of its ``_dropped`` point."""
    d = _dropped(o)
    if d is None:
        return o.ball
    return _ball_excluding(o.ball, _xq(d[0]), d[1])


class ExtendPairs(InfOrSingleton):
    """Infinitely many finite blocks of any sizes >= 2.

    Block j sits at the (natural, rational) pair number j; its elements 0
    and 1 are the levels 0 and 1 over that pair.  Basic opens around them
    are cofinite subsets of rational balls, so two such opens are disjoint
    exactly when their naturals differ or their intervals are separated -
    which happens iff the underlying blocks differ.  Every further element
    x of block j gets the opens {x} plus (N minus the level-0
    representative image), where N is a basic ball containing that image;
    such opens keep the basis property and pin x to its block.  Points
    outside finite blocks, and their opens, keep the family rules; balls
    never meet them.

    Every rule reads the subtracted image from ``_dropped``: membership
    tests the dropped point and the stored ball apart, the T1 witness
    excludes an avoided point exactly when membership says the open holds
    it, and refinement and containment pass the image to the ball rules of
    :mod:`diagclosure.symbolic_sets` as one more exclusion (``_ball_part``).
    Only the anchor has a rule of its own.
    """

    kind = "ExtendPairs"
    _variants = _BALL_OPENS

    @classmethod
    def covers(cls, spec):
        return spec.fin.cyclic and spec.singletons == 0 and spec.inf == 0

    def _witness_opens(self, p, q):
        if p.cls is not _F or q.cls is not _F:
            return InfOrSingleton._witness_opens(self, p, q)
        b1, b2 = _separating_balls(_xq(p.block), _xq(q.block))  # the blocks differ
        return _pair_open(p.block, p.elem, b1), _pair_open(q.block, q.elem, b2)

    def _member(self, o, p):
        if type(o) not in _BALL_OPENS:
            return InfOrSingleton._member(self, o, p)
        if p.cls is not _F:
            return False
        if p.elem >= 2:
            return type(o) is ExtPt and p.block == o.block and p.elem == o.elem
        return (p.block, p.elem) != _dropped(o) and _image_member(o.ball, _xq(p.block), p.elem)

    def _disjoint(self, o1, o2):
        b1, b2 = type(o1) in _BALL_OPENS, type(o2) in _BALL_OPENS
        if b1 != b2:
            return True  # balls never meet the other part
        if not b1:
            return InfOrSingleton._disjoint(self, o1, o2)
        if type(o1) is ExtPt and type(o2) is ExtPt and (o1.block, o1.elem) == (o2.block, o2.elem):
            return False  # both contain their anchor point
        return ball_disjoint(o1.ball, o2.ball)

    def _basic_nbhd(self, p, avoid=None):
        if p.cls is not _F:
            return InfOrSingleton._basic_nbhd(self, p, avoid)
        o = _pair_home(p.block, p.elem)
        if isinstance(avoid, PointAddr) and avoid != p and self._member(o, avoid):
            return _pair_open(p.block, p.elem, _ball_excluding(o.ball, _xq(avoid.block), avoid.elem))
        return o

    def _sample_open(self, p, rng, bounds):
        if p.cls is not _F:
            return InfOrSingleton._sample_open(self, p, rng, bounds)
        size = self.spec.fin.size_of(p.block)
        if p.elem >= 2:
            return _new(ExtPt, (p.block, p.elem, _sample_ball(_xq(p.block), 0, rng)))
        if p.elem == 1 and size >= 3 and rng.random() < 0.3:
            # an extension open of the same block also contains this point
            k = 2 + draw_below(rng.getrandbits, size - 2)
            half = _HALVES[draw_below(rng.getrandbits, 2)]
            return _new(ExtPt, (p.block, k, _image_ball(_xq(p.block), 4 * half)))
        return _new(Ball, (_sample_ball(_xq(p.block), p.elem, rng),))

    def _refine(self, o1, o2, p):
        if type(o1) not in _BALL_OPENS:
            return InfOrSingleton._refine(self, o1, o2, p)
        if p.elem >= 2:  # both opens are extension opens anchored at p
            return ExtPt(p.block, p.elem, _image_refine(o1.ball, o2.ball, _xq(p.block)))
        return Ball(_image_refine(_ball_part(o1), _ball_part(o2), _xq(p.block)))

    def _contains(self, outer, inner):
        b_out, b_in = type(outer) in _BALL_OPENS, type(inner) in _BALL_OPENS
        if b_out != b_in:
            return False
        if not b_in:
            return InfOrSingleton._contains(self, outer, inner)
        if type(inner) is ExtPt and (type(outer) is not ExtPt or (inner.block, inner.elem) != (outer.block, outer.elem)):
            return False  # inner's anchor lies only in the extension opens anchored there
        return ball_contains(_ball_part(outer), _ball_part(inner))


class PairBlocks(ExtendPairs):
    """Infinitely many two-element blocks: the pair system without extension points."""

    kind = "PairBlocks"
    _variants = (Ball,)

    @classmethod
    def covers(cls, spec):
        return super().covers(spec) and all(s == 2 for s in spec.fin.sizes)


class SplitUnion(ExtendPairs):
    """The pair system on the finite blocks next to isolated singletons and
    cofinite opens in the infinite blocks.

    Balls never meet the opens of the other part, so points from different
    parts are always separable.  Extension opens are foreign when every
    finite block has two elements, as in :class:`PairBlocks`.
    """

    kind = "SplitUnion"

    @classmethod
    def covers(cls, spec):
        return spec.fin.cyclic and (spec.singletons >= 1 or spec.inf >= 1)

    def __init__(self, spec):
        super().__init__(spec)
        pairs = PairBlocks._variants if all(s == 2 for s in spec.fin.sizes) else ExtendPairs._variants
        self._variants = pairs + InfOrSingleton._variants


# --------------------------------------------------------------------------
# representative-saturated construction (T0 for every spec)

class T0Sat(Construction):
    """Opens {x, rep(block(x))} with rep = element 0 of each block.

    Realises any spec's relation, is T0 (the representative's own open is
    just itself), but never T1 on blocks with more than one element: every
    open around a non-representative also contains the representative.
    """

    kind = "T0Sat"
    is_t1 = False
    _variants = (SatPair,)

    def _member(self, o, p):
        x = o.point
        return p == x or (p.cls == x.cls and p.block == x.block and p.elem == 0)  # x itself or its rep

    def _disjoint(self, o1, o2):
        return not _same_block_addr(o1.point, o2.point)

    def _basic_nbhd(self, p, avoid=None):
        return _new(SatPair, (p,))

    def _sample_open(self, p, rng, bounds):
        if p.elem == 0 and p.cls is not _S and rng.random() < 0.5:  # finite sizes are >= 2
            hi = bounds[1] if p.cls is _I else self.spec.fin.size_of(p.block) - 1
            e = 1 + draw_below(rng.getrandbits, max(1, hi))
            return _new(SatPair, (_new(PointAddr, (p.cls, p.block, e)),))
        return _new(SatPair, (p,))

    def _refine(self, o1, o2, p):
        if o1.point == o2.point:
            return o1
        return SatPair(p)  # the overlap is exactly the representative

    def _contains(self, outer, inner):
        x = inner.point
        return self._member(outer, x) and self._member(outer, _new(PointAddr, (x.cls, x.block, 0)))


# --------------------------------------------------------------------------
# block-saturated construction (not even T0 on non-trivial blocks)

class TauR(Construction):
    """Whole blocks as basic opens: the coarsest realisation of the relation."""

    kind = "TauR"
    is_t1 = False
    _variants = (BlockOpen,)

    def _member(self, o, p):
        cls, index = o.block
        return p.cls == cls and p.block == index

    def _disjoint(self, o1, o2):
        return o1.block != o2.block

    def _basic_nbhd(self, p, avoid=None):
        return _new(BlockOpen, (p.block_ref,))

    def _refine(self, o1, o2, p):
        return BlockOpen(o1.block)

    def _contains(self, outer, inner):
        return inner.block == outer.block


# --------------------------------------------------------------------------
# the subbasis example on the naturals

class SubbasisExample(Construction):
    """The naturals under the cofinite sets plus designated residue classes.

    Points are plain naturals here.  The generated basis consists of the
    cofinite subsets of the whole ground set and the cofinite subsets of
    each designated set; two points are separable iff they lie in two
    distinct designated sets, which makes the diagonal closure
    non-transitive as soon as two designated sets and an undesignated
    point exist.
    """

    kind = "SubbasisExample"
    _variants = (CofOmega, CofInD)

    def __init__(self, designated: Sequence[ResidueClassSet]):
        super().__init__(None)
        designated = tuple(designated)
        for d in designated:
            if d.modulus < 2:
                raise InvalidSizeError(f"designated set {d.render()} does not have an infinite complement")
        for d1, d2 in itertools.combinations(designated, 2):
            if not residues_disjoint(d1, d2):
                raise NotDisjointError(f"designated sets overlap: {d1.render()} and {d2.render()}")
        self.designated = designated

    @staticmethod
    def _valid(p) -> bool:
        return isinstance(p, int) and not isinstance(p, bool) and p >= 0

    def _reject(self, p):
        raise InvalidAddressError(f"points of this construction are naturals: {p!r}")

    def _designated_index(self, x: int) -> Optional[int]:
        for i, d in enumerate(self.designated, start=1):
            if d.contains(x):
                return i
        return None

    def _separable(self, p, q):
        ip, iq = self._designated_index(p), self._designated_index(q)
        return ip is not None and iq is not None and ip != iq

    def _witness_opens(self, p, q):
        return _new(CofInD, (self._designated_index(p), _NOTHING)), _new(CofInD, (self._designated_index(q), _NOTHING))

    def _member(self, o, p):
        if type(o) is CofOmega:
            return p not in o.excluded
        return self.designated[o.index - 1].contains(p) and p not in o.excluded

    def _disjoint(self, o1, o2):
        if type(o1) is CofInD and type(o2) is CofInD:
            return o1.index != o2.index
        return False  # a cofinite set meets every infinite set

    def _basic_nbhd(self, p, avoid=None):
        excl = frozenset((avoid,)) if isinstance(avoid, int) and avoid != p else _NOTHING
        return _new(CofOmega, (excl,))

    def _sample_open(self, p, rng, bounds):
        excl = _draw_excl(rng, 3 * (bounds[0] + 1), int, p)
        i = self._designated_index(p)
        if i is not None and rng.random() < 0.5:
            return _new(CofInD, (i, excl))
        return _new(CofOmega, (excl,))

    def _refine(self, o1, o2, p):
        # the overlap lies in a designated set if either open does
        return o2.meet(o1) if type(o2) is CofInD and type(o1) is not CofInD else o1.meet(o2)

    def _contains(self, outer, inner):
        if type(inner) is CofOmega:
            return type(outer) is CofOmega and inner.within(outer)
        if type(outer) is CofInD and outer.index != inner.index:
            return False
        dset = self.designated[inner.index - 1]
        return all(e in inner.excluded or not dset.contains(e) for e in outer.excluded)


# --------------------------------------------------------------------------
# dispatch

# every T1 kind, each narrowed subclass before its base: realise_t1 builds the first that covers
_T1_KINDS = (InfBlocks, InfOrSingleton, FinTwoCase1, FinTwoCase2, PairBlocks, ExtendPairs, SplitUnion)


def realise_t1(spec: PartitionSpec) -> Construction:
    """Build the T1 realisation of a spec, or refuse when none exists."""
    check_t1_realisable(spec)
    return next(kind for kind in _T1_KINDS if kind.covers(spec))(spec)


def realise_t0(spec: PartitionSpec) -> Construction:
    """Build the T0 realisation; works for every spec."""
    return T0Sat(spec)


def realise_tau_r(spec: PartitionSpec) -> Construction:
    """Build the block-saturated realisation; works for every spec."""
    return TauR(spec)


# --------------------------------------------------------------------------
# the non-transitive closure demonstration

DEFAULT_DESIGNATED = (ResidueClassSet(1, 3), ResidueClassSet(2, 3))
_SEARCH_BOUND = 400


class NonTransitiveReport(_TupleValue):
    """Outcome of the non-transitivity demonstration."""

    _fields = ("designated", "construction", "triple", "certificate", "message")

    @property
    def ok(self) -> bool:
        return self.triple is not None

    def render(self) -> str:
        shown = ", ".join(d.render() for d in self.designated) if self.designated else "(none)"
        lines = [f"designated: {shown}"]
        if self.triple is None:
            lines.append(self.message)
        else:
            a, b, c = self.triple
            lines.append(f"inseparable: ({a},{b})")
            lines.append(f"inseparable: ({b},{c})")
            lines.append(f"separable: ({a},{c})")
            lines.append("certificate:")
            lines.append(self.certificate.render())
            lines.append(f"triple: ({a},{b},{c})")
        return "\n".join(lines)


def nontransitive_demo(designated=None) -> NonTransitiveReport:
    """Exhibit a non-transitive triple of the subbasis-example closure.

    Looks for the smallest consecutive triple (a, a+1, a+2) with the ends
    separable but both adjacent pairs inseparable.  When there is none below
    ``_SEARCH_BOUND``, the triple is built from the rule every such triple
    obeys: b is the least undesignated point below ``_SEARCH_BOUND``, and a
    and c are the offsets of the first two designated sets.  The found
    certificate is re-checked before it is reported; failure there would be
    a library defect.
    """
    if designated is None:
        designated = DEFAULT_DESIGNATED
    designated = tuple(designated)
    c = SubbasisExample(designated)
    if not designated:
        return NonTransitiveReport(designated, c, None, None, "closure is total, no triple exists")

    def pattern(a, b, cc):
        return (not c.separable(a, b)) and (not c.separable(b, cc)) and c.separable(a, cc)

    triple = next(((a, a + 1, a + 2) for a in range(_SEARCH_BOUND) if pattern(a, a + 1, a + 2)), None)
    if triple is None and len(designated) >= 2:
        b = next((x for x in range(_SEARCH_BOUND) if c._designated_index(x) is None), None)
        if b is not None:
            triple = (designated[0].offset, b, designated[1].offset)
    if triple is None:
        return NonTransitiveReport(
            designated, c, None, None, "no non-transitivity witness found (closure may be transitive)"
        )
    a, b, cc = triple
    cert = c.witness(a, cc)
    if cert is None or not check_certificate(c, a, cc, cert):
        raise AssertionError("separation certificate failed re-checking")
    return NonTransitiveReport(designated, c, triple, cert, "")
