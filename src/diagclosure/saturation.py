"""The saturation family: the T0 realisation and the block-saturated one.

``T0Sat`` and ``TauR`` realise every spec: ``T0Sat`` on the opens
{x, rep(block(x))} (``SatPair``), ``TauR`` on whole blocks
(``BlockOpen``).  The shared parts live in
:mod:`diagclosure.constructions`.
"""

from __future__ import annotations

from .constructions import Construction, _Named, _same_block_addr, draw_below
from .relations import BlockClass, PointAddr
from .values import _new

_S, _I = BlockClass.SINGLETON, BlockClass.INFINITE


class SatPair(_Named):
    """The open {x, rep(block(x))} of the representative-saturated topology."""

    _fields = ("point",)


class BlockOpen(_Named):
    """An entire block, as a basic open of the block-saturated topology."""

    _fields = ("block",)


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
