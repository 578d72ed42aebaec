"""The pair system's opens, with extension points, against a point-set reference.

``member`` is compared with ``reference.pair_open_member`` on a window of
points around each open, and every ``contains`` True and every ``refine``
result is read back through the reference on the same windows, so none of
these checks goes through the construction's own rules.
"""

import itertools
import random

from reference import pair_open_member

from diagclosure.constructions import Ball, ExtPt, realise_t1
from diagclosure.relations import BlockClass, PointAddr, parse_spec
from diagclosure.symbolic_sets import pair_decode

F = BlockClass.FINITE
SPEC = parse_spec("singletons=0;fin=cycle[2,3];inf=0")  # odd blocks have a third point


def _window(o, around: int) -> set:
    """The points of the blocks near an open: the drawn point's block, the
    anchor's, their neighbours, and the blocks that ``pair_decode`` gives at the
    centre, just inside, on and just outside both ends, and at each exclusion."""
    b = o.ball
    blocks = {around + d for d in range(-2, 3)}
    if isinstance(o, ExtPt):
        blocks.update(o.block + d for d in range(-2, 3))
    eps = b.radius / 64
    rationals = [b.center, *(q for q, _ in b.excluded)]
    for end in (b.center - b.radius, b.center + b.radius):
        rationals += [end - eps, end, end + eps]
    blocks.update(pair_decode((b.x_index, q)) for q in rationals)
    return {PointAddr(F, j, e) for j in blocks if j >= 0 for e in range(SPEC.fin.size_of(j))}


def _group(c, rng, j):
    """(point, open) pairs around the points of block j: two sampled opens and
    one basic neighbourhood per point, and the refinement of the sampled two."""
    group = []
    for e in range(SPEC.fin.size_of(j)):
        p = PointAddr(F, j, e)
        avoid_block = max(0, j + rng.choice((-1, 0, 1)))
        avoid = PointAddr(F, avoid_block, rng.randrange(SPEC.fin.size_of(avoid_block)))
        o1, o2 = c.sample_open(p, rng), c.sample_open(p, rng)
        group += [(p, o1), (p, o2), (p, c.basic_nbhd(p, avoid)), (p, c.refine(o1, o2, p))]
    return group


def _held(o, points) -> set:
    return {w for w in points if pair_open_member(o, w)}


def test_extension_opens_match_the_point_set_reference():
    c = realise_t1(SPEC)
    rng = random.Random(19)
    seen = {"member": set(), "contains": set(), "refine": set()}
    for _ in range(12):
        j = rng.choice((0, 1, 2, 3, 5, rng.randrange(10**6)))
        group = _group(c, rng, j)
        windows = [_window(o, p.block) for p, o in group]
        for (p, o), window in zip(group, windows):
            held = _held(o, window)
            assert p in held, (o.render(), p)
            for w in window:
                assert c.member(o, w) is (w in held), (o.render(), w)
                seen["member"].add((type(o), w.elem, w in held))
        for i, k in itertools.permutations(range(len(group)), 2):
            outer, inner = group[i][1], group[k][1]
            if c.contains(outer, inner):
                seen["contains"].add((type(outer), type(inner)))
                near = windows[i] | windows[k]
                assert _held(inner, near) <= _held(outer, near), (outer.render(), inner.render())
        # refine every two opens of the group around a point of the block that both hold
        block = sorted({p for p, _ in group})
        for i, k in itertools.combinations(range(len(group)), 2):
            o1, o2 = group[i][1], group[k][1]
            common = [p for p in block if pair_open_member(o1, p) and pair_open_member(o2, p)]
            if common:
                p = rng.choice(common)
                r = c.refine(o1, o2, p)
                seen["refine"].add((type(o1), type(o2), type(r)))
                near = _window(r, p.block) | windows[i] | windows[k]
                inside = _held(o1, near) & _held(o2, near)
                assert pair_open_member(r, p) and _held(r, near) <= inside, (o1.render(), o2.render(), r.render())
    # the draws reach every case the rules tell apart
    assert {(ExtPt, 0, False), (ExtPt, 1, True), (ExtPt, 2, True), (Ball, 0, True), (Ball, 2, False)} <= seen["member"]
    assert {(Ball, Ball), (ExtPt, Ball), (ExtPt, ExtPt)} <= seen["contains"]
    assert {(ExtPt, Ball, Ball), (ExtPt, ExtPt, Ball), (ExtPt, ExtPt, ExtPt)} <= seen["refine"]
