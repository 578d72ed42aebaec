"""Deliberately corrupted constructions for harness-sensitivity tests.

Each class desynchronises one side of a construction (usually the witness
generator) from the exact membership/disjointness rules, modelling the
documented fault modes: wrong residue class, swapped representatives, and
off-by-one exclusion sets, plus a separability rule that ignores the
relation, certificates dropped, invented or aimed at the wrong block, T1
witnesses that miss their own point, and refinements that are not inside
both opens.  The verification harness must flag every one of them.
"""

from diagclosure.cofinite import CofInBlock, InfBlocks, InfOrSingleton
from diagclosure.constructions import Certificate
from diagclosure.pair_system import Ball, ExtendPairs, PairBlocks, SplitUnion
from diagclosure.relations import BlockRef, PointAddr
from diagclosure.reservoirs import FinTwoCase1, FinTwoCase2
from diagclosure.saturation import BlockOpen, SatPair, T0Sat, TauR
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


class NextBlockWitnessInfBlocks(InfBlocks):
    """Only the certificate is wrong: its first open sits in the block after
    the query point's, while the T1 witnesses stay right.  A harness that took
    the T1 opens for the certificate of every T1 kind would miss it."""

    def _witness_opens(self, p, q):
        _, b = super()._witness_opens(p, q)
        return CofInBlock(BlockRef(p.cls, p.block + 1)), b


class SelfExcludingT1InfBlocks(InfBlocks):
    """Only the T1 witnesses of separable pairs are wrong: each excludes its
    own point, so it misses both points, while the certificate holds the
    canonical opens.  A harness that let every accepted certificate answer
    the T1 memberships, whatever its opens, would miss it."""

    def _basic_nbhd(self, p, avoid=None):
        if isinstance(avoid, PointAddr) and avoid.block_ref != p.block_ref:
            return CofInBlock(p.block_ref, frozenset({p}))
        return super()._basic_nbhd(p, avoid)

    def _witness_opens(self, p, q):
        return super()._basic_nbhd(p), super()._basic_nbhd(q)


class OffByOneTauR(TauR):
    def _witness_opens(self, p, q):
        return BlockOpen(BlockRef(p.cls, p.block + 1)), BlockOpen(q.block_ref)


class _SharedReservoirs:
    """Finite blocks on the residues ``block_residues`` instead of distinct ones.

    Two finite blocks that share a residue share a reservoir, so their points
    are no longer separable; every rule still answers.
    """

    def __init__(self, spec, block_residues):
        super().__init__(spec)
        self.block_residues = tuple(block_residues)


class SharedFinTwoCase1(_SharedReservoirs, FinTwoCase1):
    pass


class SharedFinTwoCase2(_SharedReservoirs, FinTwoCase2):
    pass


class NoCertificateInfBlocks(InfBlocks):
    """Separable pairs come without a certificate."""

    def answer_pair(self, p, q):
        sep, _, o_p, o_q = super().answer_pair(p, q)
        return sep, None, o_p, o_q


class InseparableCertificateInfBlocks(InfBlocks):
    """Inseparable pairs come with a certificate too."""

    def answer_pair(self, p, q):
        sep, cert, o_p, o_q = super().answer_pair(p, q)
        if not sep:
            cert = Certificate(*self._witness_opens(p, q))
        return sep, cert, o_p, o_q


class FirstOpenRefineInfBlocks(InfBlocks):
    """The refinement is the first open, which need not lie inside the second."""

    def _refine(self, o1, o2, p):
        return o1


class UnexcludedRefineInfBlocks(InfBlocks):
    """The refinement drops every exclusion, and containment always holds:
    only the membership probes can see that it is too large."""

    def _refine(self, o1, o2, p):
        return CofInBlock(o1.block)

    def _contains(self, outer, inner):
        return True
