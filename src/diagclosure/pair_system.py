"""The pair system: infinitely many finite blocks on rational balls.

``PairBlocks``, ``ExtendPairs`` and ``SplitUnion`` realise the specs with
a cyclic family of finite blocks; the points outside them keep the rules
of :class:`~diagclosure.cofinite.InfOrSingleton`.  This is the only
family that uses the ball rules of :mod:`diagclosure.symbolic_sets`, all
in integers.  The shared parts live in :mod:`diagclosure.constructions`.
"""

from __future__ import annotations

import functools

from .cofinite import InfOrSingleton
from .constructions import _HOME_CACHE_SIZE, _XQ_CACHE_SIZE, draw_below
from .relations import BlockClass, PointAddr
from .symbolic_sets import (
    RationalBall,
    _ball_excluding,
    _image,
    _image_ball,
    _image_member,
    _image_refine,
    _separating_balls,
    ball_contains,
    ball_disjoint,
)
from .values import _new, _TupleValue

_F = BlockClass.FINITE


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


# The image of a block index: its (natural, rational) pair as the integers
# (x, numerator, denominator).  One bounded cache shared by every
# construction, so answering queries on ever new blocks cannot grow it.
_xq = functools.lru_cache(maxsize=_XQ_CACHE_SIZE)(_image)


def _pair_open(block: int, elem: int, ball: RationalBall):
    """The pair-system open of the point (block, elem) on ``ball``: the ball
    itself around a representative, an ``ExtPt`` anchored at any further element."""
    if elem <= 1:
        return _new(Ball, (ball,))
    return _new(ExtPt, (block, elem, ball))


# one bounded cache, shared by every construction like ``_xq``
@functools.lru_cache(maxsize=_HOME_CACHE_SIZE)
def _pair_home(block: int, elem: int):
    """The canonical pair-system open of a finite-block point: on the unit ball
    around its block's image, with no exclusion."""
    return _pair_open(block, elem, _image_ball(_xq(block)))


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
