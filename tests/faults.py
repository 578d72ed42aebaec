"""Deliberately corrupted constructions for harness-sensitivity tests.

Each class desynchronises one side of a construction (usually the witness
generator) from the exact membership/disjointness rules, modelling the
documented fault modes: wrong residue class, swapped representatives, and
off-by-one exclusion sets, plus a separability rule that ignores the
relation.  The verification harness must flag every one of them.
"""

from diagclosure.constructions import (
    Ball,
    BlockOpen,
    CofInBlock,
    ExtendPairs,
    InfBlocks,
    InfOrSingleton,
    PairBlocks,
    SatPair,
    SplitUnion,
    T0Sat,
    TauR,
)
from diagclosure.relations import BlockRef, PointAddr
from diagclosure.symbolic_sets import RationalBall


class AlwaysSeparableInfBlocks(InfBlocks):
    """Every pair is separable, same-block pairs too.

    Only a harness that compares with the relation itself, not with the
    construction's own answer, sees the mismatch; the certificates of
    same-block pairs then fail the disjointness check.
    """

    def _separable(self, p, q):
        return True


class OffByOneInfBlocks(InfBlocks):
    """T1 witnesses exclude the neighbor of the intended point."""

    def _basic_nbhd(self, p, avoid=None):
        if isinstance(avoid, PointAddr) and avoid != p and avoid.block_ref == p.block_ref:
            wrong = PointAddr(avoid.cls, avoid.block, avoid.elem + 1)
            return CofInBlock(p.block_ref, frozenset({wrong}))
        return super()._basic_nbhd(p, avoid)


class _OffByOneCofinite:
    """Cofinite opens exclude the neighbors of the points they should exclude."""

    def _basic_nbhd(self, p, avoid=None):
        o = super()._basic_nbhd(p, avoid)
        if isinstance(o, CofInBlock) and o.excluded:
            wrong = {PointAddr(a.cls, a.block, a.elem + 1) for a in o.excluded}
            return CofInBlock(o.block, frozenset(wrong))
        return o


class OffByOneInfOrSingleton(_OffByOneCofinite, InfOrSingleton):
    pass


class OffByOneSplitUnion(_OffByOneCofinite, SplitUnion):
    """The same fault on the cofinite part of a sum; its pair system is intact."""


def _flip_ball_levels(ball):
    flipped = {(q, 1 - lev) for q, lev in ball.excluded}
    return RationalBall(ball.x_index, ball.center, ball.radius, flipped)


class SwappedRepPairBlocks(PairBlocks):
    """Ball exclusions hit the wrong representative level."""

    def _basic_nbhd(self, p, avoid=None):
        o = super()._basic_nbhd(p, avoid)
        if o.ball.excluded:
            return Ball(_flip_ball_levels(o.ball))
        return o


class SwappedRepExtendPairs(ExtendPairs):
    def _basic_nbhd(self, p, avoid=None):
        o = super()._basic_nbhd(p, avoid)
        if isinstance(o, Ball) and o.ball.excluded:
            return Ball(_flip_ball_levels(o.ball))
        return o


class SwappedRepT0Sat(T0Sat):
    """Witnesses anchor at a shifted element instead of the queried point."""

    def _witness_opens(self, p, q):
        shifted = PointAddr(p.cls, p.block, p.elem + 1)
        return SatPair(shifted), SatPair(q)


class OffByOneTauR(TauR):
    def _witness_opens(self, p, q):
        return BlockOpen(BlockRef(p.cls, p.block + 1)), BlockOpen(q.block_ref)
