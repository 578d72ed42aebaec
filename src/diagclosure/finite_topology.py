"""Topologies on n labeled points and their diagonal closures.

Finite topologies correspond exactly to preorders: open sets are the
up-sets of the specialization preorder (an orientation fixed here and
pinned by tests), and the minimal open neighborhood of ``x`` is the up-set
of ``x``.  Every open set is the union of the minimal neighborhoods of its
points, so one builder makes every open family from those neighborhoods,
and validation checks a family against them in time linear in
opens x points.  Subsets of the ground set are bitmasks throughout.
"""

from __future__ import annotations

from collections import _tuplegetter
from typing import Iterable

from .errors import BoundExceededError, InvalidRepresentativeError, NotATopologyError, read_naturals
from .relations import FinitePartition, FiniteRelation, _mask, _new, _TupleValue

__all__ = [
    "FiniteTopology",
    "MAX_POINTS",
    "MAX_SCAN",
    "Preorder",
    "cl_delta",
    "cl_delta_open_family",
    "closure_rows",
    "generate_from_subbasis",
    "is_t0",
    "is_t1",
    "is_t2",
    "minimal_neighborhoods",
    "parse_topology",
    "preorder_of_topology",
    "render_topology",
    "t0_saturation",
    "tau_r",
    "topology_of_preorder",
]


# Builders refuse more than MAX_SCAN points or blocks, since k of them can
# give 2**k opens; parse_topology refuses point labels from MAX_POINTS on,
# since the closure is quadratic, and more than _MAX_OPENS opens, so the
# size of a family read from outside stays bounded.
MAX_SCAN = 16
MAX_POINTS = 1000
_MAX_OPENS = 4096


def _check_scan(k: int, what: str) -> None:
    if k > MAX_SCAN:
        raise BoundExceededError(f"scanning every subset of {k} {what} is limited to {MAX_SCAN}")


def _mask_points(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _render_mask(mask: int) -> str:
    if mask == 0:
        return "-"
    return ",".join(str(i) for i in _mask_points(mask))


def _display_order(t: "FiniteTopology") -> list[int]:
    """The opens by size, then by mask: the order of the repr and of :func:`render_topology`."""
    return sorted(t.opens, key=lambda m: (bin(m).count("1"), m))


class Preorder(FiniteRelation):
    """Reflexive transitive relation; ``rows[i]`` is the up-set of point i.

    Like every ``FiniteRelation`` it is the tuple ``(n, rows)``; the
    constructor checks reflexivity and transitivity as well.
    """

    def __new__(cls, n: int, rows: Iterable[int]):
        self = super().__new__(cls, n, rows)
        _, rows = self
        for i in range(n):
            if not rows[i] >> i & 1:
                raise ValueError(f"not reflexive at {i}")
            for j in range(n):
                if rows[i] >> j & 1 and rows[j] & ~rows[i]:
                    raise ValueError(f"not transitive through {i} <= {j}")
        return self

    leq = FiniteRelation.has

    def __repr__(self):
        return f"Preorder(n={self.n}, up={[ _mask_points(r) for r in self.rows ]})"


class FiniteTopology(_TupleValue):
    """Family of open sets on ``{0..n-1}``, stored as a frozenset of bitmasks.

    The family never changes, so its minimal neighborhoods are found once,
    when it is built, and kept: the value is the tuple ``(n, opens, mins)``,
    ``mins[x]`` the minimal neighborhood of x.  ``validate`` finds them as
    it checks the family; the builders below are given them.
    """

    _fields = ("n", "opens")
    _mins = _tuplegetter(2, None)

    def __new__(cls, n: int, opens: Iterable[int], validate: bool = True):
        opens = frozenset(opens)
        mins = _checked_neighborhoods(n, opens) if validate else _neighborhoods(n, opens)
        return _new(cls, (n, opens, tuple(mins)))

    def validate(self) -> None:
        """Raise NotATopologyError unless the family is a topology."""
        _checked_neighborhoods(self.n, self.opens)

    def __repr__(self):
        return f"FiniteTopology(n={self.n}, opens={[_mask_points(m) for m in _display_order(self)]})"


def _checked_neighborhoods(n: int, opens: frozenset) -> list[int]:
    """The minimal neighborhood of each point of a family that is a topology;
    NotATopologyError, with the first failing pair as its witness, for any other."""
    full = (1 << n) - 1
    if any(o & ~full for o in opens):
        raise NotATopologyError("open set outside the ground set")
    if 0 not in opens:
        raise NotATopologyError("the empty set is not in the family")
    if full not in opens:
        raise NotATopologyError("the full set is not in the family")
    # Each running intersection is a member, so the last one is the
    # minimal neighborhood N(x).  A family holding every N(x) and every
    # U | N(x) holds every union of neighborhoods; each member is the
    # union of the N(x) of its points, so the family is then exactly
    # those unions, which are closed under union and intersection.
    ordered = sorted(opens)
    mins = []
    for x in range(n):
        running = full
        for o in ordered:
            if o >> x & 1:
                if (running & o) not in opens:
                    _not_closed(running, o, "intersection", running & o)
                running &= o
        mins.append(running)
    # Equal neighborhoods give equal checks, so each is tried once, in
    # first-seen order; the first failure found stays the same.
    distinct = list(dict.fromkeys(mins))
    for u in ordered:
        for m in distinct:
            if (u | m) not in opens:
                _not_closed(u, m, "union", u | m)
    return mins


def _not_closed(a: int, b: int, op: str, res: int):
    raise NotATopologyError(
        f"family not closed under {op}: {{{_render_mask(a)}}} and {{{_render_mask(b)}}} give {{{_render_mask(res)}}}",
        witness=(_mask_points(a), _mask_points(b), op),
    )


def _unions(n: int, mins: Iterable[int]) -> FiniteTopology:
    """The topology whose minimal neighborhoods are ``mins``, one per point:
    its opens are all unions of them.

    Work grows with the number of opens produced, not with 2**n.
    """
    mins = tuple(mins)
    opens = {0}
    for u in set(mins):
        opens |= {o | u for o in opens}
    return _new(FiniteTopology, (n, frozenset(opens), mins))


def _neighborhoods(n: int, masks: Iterable[int]) -> list[int]:
    """For each point, the intersection of the given sets that contain it."""
    mins = [(1 << n) - 1] * n
    for o in masks:
        m = o
        while m:
            low = m & -m
            mins[low.bit_length() - 1] &= o
            m ^= low
    return mins


def generate_from_subbasis(n: int, sets: Iterable[Iterable[int] | int]) -> FiniteTopology:
    """Smallest topology containing the given sets."""
    masks = [s if isinstance(s, int) else _mask(s) for s in sets]
    if any(m >> n for m in masks):
        raise ValueError("subbasis set outside the ground set")
    # the minimal neighborhood of x is the intersection of the sets containing it
    return _unions(n, _neighborhoods(n, masks))


def topology_of_preorder(p: Preorder) -> FiniteTopology:
    """Opens are exactly the up-sets of the preorder."""
    _check_scan(p.n, "points")
    return _unions(p.n, p.rows)


def minimal_neighborhoods(t: FiniteTopology) -> list[int]:
    """Intersection of all opens containing each point (open on finite sets)."""
    return list(t._mins)


def preorder_of_topology(t: FiniteTopology) -> Preorder:
    return _new(Preorder, (t.n, t._mins))


def closure_rows(ups) -> tuple[int, ...]:
    """Diagonal closure rows: (i, j) related iff the up-sets ``ups[i]``, ``ups[j]`` meet."""
    out = []
    for ui in ups:
        row = 0
        bit = 1
        for uj in ups:
            if ui & uj:
                row |= bit
            bit <<= 1
        out.append(row)
    return tuple(out)


def cl_delta(t: FiniteTopology) -> FiniteRelation:
    """Diagonal closure: (x, y) related iff their minimal neighborhoods meet."""
    return FiniteRelation(t.n, closure_rows(t._mins))


def cl_delta_open_family(t: FiniteTopology) -> FiniteRelation:
    """Diagonal closure computed directly from the open family.

    (x, y) is excluded exactly when some disjoint pair of opens separates
    them.  Quadratic in the family size; kept as the cross-check oracle for
    :func:`cl_delta`.
    """
    opens = sorted(t.opens)
    rows = [(1 << t.n) - 1 for _ in range(t.n)]
    for a in opens:
        for b in opens:
            if a & b == 0:
                for i in _mask_points(a):
                    for j in _mask_points(b):
                        rows[i] &= ~(1 << j)
    return FiniteRelation(t.n, rows)


def is_t2(t: FiniteTopology) -> bool:
    return cl_delta(t) == FiniteRelation.diagonal(t.n)


def is_t1(t: FiniteTopology) -> bool:
    """All singletons closed."""
    full = (1 << t.n) - 1
    return all((full ^ (1 << i)) in t.opens for i in range(t.n))


def is_t0(t: FiniteTopology) -> bool:
    """Distinct points have distinct minimal neighborhoods."""
    return len(set(t._mins)) == t.n


def tau_r(p: FinitePartition) -> FiniteTopology:
    """The block-saturated topology: opens are exactly unions of blocks."""
    _check_scan(len(p.blocks), "blocks")
    masks = [_mask(block) for block in p.blocks]
    return _unions(p.n, (masks[b] for b in p.block_of))


def t0_saturation(p: FinitePartition, rep=None) -> FiniteTopology:
    """The representative-saturated topology.

    A set is open iff it contains the representative of every block it
    meets.  ``rep`` maps block index to its representative point; by default
    the least point of each block.  The result is T0, and not T1 whenever
    some block has more than one element.
    """
    _check_scan(p.n, "points")
    if rep is None:
        reps = [block[0] for block in p.blocks]
    else:
        reps = [rep[bi] for bi in range(len(p.blocks))]
        for bi, r in enumerate(reps):
            if r not in p.blocks[bi]:
                raise InvalidRepresentativeError(f"point {r} is not in block {list(p.blocks[bi])}")
    return _unions(p.n, (1 << x | 1 << reps[p.block_of[x]] for x in range(p.n)))


def render_topology(t: FiniteTopology) -> str:
    """One open per line: sorted comma-separated points, '-' for the empty set."""
    return "\n".join(map(_render_mask, _display_order(t))) + "\n"


def parse_topology(text: str) -> FiniteTopology:
    """Parse the line format of :func:`render_topology` and validate it."""
    masks = set()
    max_point = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = 0
        if line != "-":
            points = read_naturals(line, f"point on line {lineno}")
            top = max(points)
            if top >= MAX_POINTS:
                raise BoundExceededError(f"line {lineno}: point {top} is beyond the limit of {MAX_POINTS} points")
            m = _mask(points)
            max_point = max(max_point, top)
        masks.add(m)
        if len(masks) > _MAX_OPENS:
            raise BoundExceededError(f"line {lineno}: more than {_MAX_OPENS} opens")
    n = max_point + 1
    return FiniteTopology(n, masks, validate=True)
