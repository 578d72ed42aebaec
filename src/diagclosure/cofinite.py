"""The cofinite family: isolated singletons and cofinite opens in the infinite blocks.

The T1 realisation of every spec with no finite blocks, and the base of
every T1 construction: ``InfOrSingleton`` holds the ``SingletonPt`` and
``CofInBlock`` rules, which the reservoir and pair-system kinds keep for
the points outside their finite blocks.  The shared parts live in
:mod:`diagclosure.constructions`.
"""

from __future__ import annotations

import functools

from .constructions import _HOME_CACHE_SIZE, _NOTHING, Construction, _Cofinite, _draw_excl, _Named, _same_block_addr
from .relations import BlockClass, BlockRef, PointAddr
from .values import _new

_S = BlockClass.SINGLETON


class SingletonPt(_Named):
    """The one-point open {x} of an isolated (singleton-block) point."""

    _fields = ("point",)


class CofInBlock(_Cofinite):
    """A cofinite subset of a single (infinite) block."""

    _fields = ("block", "excluded")
    _head = ("block",)


# one bounded cache, shared by every construction (see diagclosure.constructions)
@functools.lru_cache(maxsize=_HOME_CACHE_SIZE)
def _cofinite_home(cls: BlockClass, block: int):
    """The canonical open of a singleton or infinite-block point: the point's
    ``SingletonPt``, or its whole block as a ``CofInBlock`` with no exclusion."""
    if cls is _S:
        return _new(SingletonPt, (_new(PointAddr, (cls, block, 0)),))
    return _new(CofInBlock, (_new(BlockRef, (cls, block)), _NOTHING))


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
        return inner.within(outer, lambda u: type(u) is PointAddr and u[:2] != outer.block)


class InfBlocks(InfOrSingleton):
    """Every block infinite; basic opens are cofinite subsets of single blocks."""

    kind = "InfBlocks"
    _variants = (CofInBlock,)

    @classmethod
    def covers(cls, spec):
        return super().covers(spec) and spec.singletons == 0
