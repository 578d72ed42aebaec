"""The reservoir family: finitely many finite blocks on disjoint reservoirs.

``FinTwoCase1`` and ``FinTwoCase2`` realise the specs with a finite,
non-empty list of finite blocks; the points outside them keep the rules
of :class:`~diagclosure.cofinite.InfOrSingleton`.  The shared parts live
in :mod:`diagclosure.constructions`.
"""

from __future__ import annotations

import functools

from .cofinite import CofInBlock, InfOrSingleton, SingletonPt
from .constructions import _HOME_CACHE_SIZE, _NOTHING, _Cofinite, _draw_excl, _same_block_addr, draw_below
from .relations import BlockClass, BlockRef, PointAddr
from .values import _new

_S, _F, _I = BlockClass.SINGLETON, BlockClass.FINITE, BlockClass.INFINITE


class _FinPt(_Cofinite):
    """A finite-block point plus a cofinite subset of its reservoir."""

    _fields = ("block", "elem", "excluded")
    _head = ("block", "elem")


class FinPt1(_FinPt):
    """A finite-block point plus a cofinite subset of its singleton reservoir."""


class FinPt2(_FinPt):
    """A finite-block point plus all but finitely many blocks of its infinite-block pool."""

    _excl_label = "excl_blocks"  # the exclusions are block indices


# one bounded cache, shared by every construction (see diagclosure.constructions)
@functools.lru_cache(maxsize=_HOME_CACHE_SIZE)
def _reservoir_home(open_cls: type, block: int, elem: int):
    """The canonical reservoir open of a finite-block point: the whole reservoir."""
    return _new(open_cls, (block, elem, _NOTHING))


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

    def _outside_reservoir(self, j: int, u) -> bool:
        """Whether u is a unit, as ``_unit`` gives it, outside reservoir j."""
        if self._pool_cls is _S:
            return type(u) is PointAddr and not self._in_reservoir(j, u)
        return type(u) is int and u % self.modulus != self.block_residues[j]

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
            return type(outer) is self._open and inner.within(outer, lambda u: self._outside_reservoir(inner.block, u))
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
