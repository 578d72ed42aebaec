"""Exhaustive enumeration of topologies on n labeled points, via preorders.

Finite topologies correspond one-to-one to preorders.  There is one
enumerator of preorders: a depth-first assignment of rows (row i is the
up-set of point i, as a bitmask), delivering matrices in ascending
row-major bit order.  Each candidate row m for point i passes two mask
tests against the rows already placed: m lies inside their intersection
over the earlier rows that contain i (computed once per node), and every
earlier row j that m contains lies inside m.  Together they make the
finished matrix transitive.

Counting needs no walk.  ``counting`` splits a preorder into its top
classes (its maximal classes), the set M(x) of top classes above each other
point x, and a preorder on the other points, and counts the preorders, and
the posets, by a label recursion on that split.

A catalog counts the labelled topologies per closure relation without
visiting them one by one.  The diagonal closure relates two points iff
their up-sets meet, so it depends only on the top classes and M: top
points are related iff they share a class, a top point of class C and a
point x iff C is in M(x), and two other points iff their M values meet.
A relation is a closure iff each of its edges lies in the closed
neighbourhood of a simplicial point (one whose closed neighbourhood is a
clique), and each closure is exactly one closure structure: its simplicial
points S, their partition into blocks (points of S with one closed
neighbourhood), and the set M(x) of at least two blocks for every point x
outside S.  The blocks and the points outside S make a set partition of
the points with at most one block marked as the rest, so the catalog walks
the set partitions once each: it builds a partition's block tables once
and reads off them its structure with no rest and, with three or more
blocks, those with each block in turn as the rest.  Each closure is built
once and nothing is merged.  The topologies of a structure choose a
non-empty top class inside each block; the block's other points get the
block as their label, and the counter on those labels and the M values
counts the preorders below the tops.  A T0 topology has one top point per
block, so every closure has one, and the T0 catalog is a column of the
plain one.  The closure is transitive iff there are no points outside S.
The example, the preorder with this closure delivered first, hangs each
block under one top point: its least point, or its greatest if a point
outside S below the least one has the block in M.  Codes are summed point
by point, never built from rows (see ``_Walk``): M is assigned one point
at a time, depth first, with the blocks whose top is the greatest carried
down as one mask, and each pair of other points adds its bit when their M
values meet.  The catalog up to isomorphism walks structure types
instead: a type is a structure up to relabelling the points, given by the
block sizes and the multiset of M values up to permuting blocks of equal
size, so types and closures up to isomorphism are one to one (56 at n=6).
A type needs its number of structures, their counts, the canonical code of
one representative's closure, and the relabelling of its flat preorder (one
top per block, the block's other points under it) delivered first, which is
the first example among all the type's closures.  Both relabellings come
from one ordered search (``_least_order``) that fixes the positions one at
a time, keeps every branch that ties the best prefix and branches once per
class of twins, so no search walks the n! permutations.

Relation codes render the strict upper triangle as lowercase hex: pairs
(i, j) with i < j in lexicographic order, first pair in the least
significant bit.  Preorder codes do the same with the off-diagonal cells
in row-major order.  The decoders invert the encoders' layouts and read a
code only as ``render_catalog`` writes it, with no bit beyond the cells of
n points.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from itertools import groupby, permutations, product
from math import comb, factorial, prod
from typing import Callable, Iterator

from .counting import SOFT_LIMIT, _count_below, _multisets, _partitions
from .errors import BoundExceededError, InvalidSizeError, SpecSyntaxError
from .finite_topology import Preorder, closure_rows
from .relations import FiniteRelation, all_partitions

__all__ = [
    "Catalog",
    "CatalogRecord",
    "build_catalog",
    "canonical_code",
    "closure_of_preorder",
    "decode_preorder",
    "decode_relation",
    "enumerate_preorders",
    "preorder_code",
    "read_catalog",
    "relation_code",
    "render_catalog",
]


def _check_size(n: int) -> None:
    if n < 0:
        raise InvalidSizeError(f"number of points must be >= 0, got {n}")


def _row_candidates(n: int) -> list[tuple[tuple[int, tuple[int, ...]], ...]]:
    """Per-row candidate up-set masks, sorted by column-order bit string,
    each with its set bits below the row."""
    _check_size(n)
    out = []
    for i in range(n):
        masks = [m for m in range(1 << n) if m >> i & 1]
        masks.sort(key=lambda m: tuple(m >> j & 1 for j in range(n)))
        out.append(tuple((m, tuple(j for j in range(i) if m >> j & 1)) for m in masks))
    return out


def _iter_rows(n: int) -> Iterator[tuple[int, ...]]:
    """All preorder row tuples on n points, ascending row-major bit order.

    Row i = m fits the earlier rows iff m lies inside every earlier row that
    contains i, and every earlier row j in m lies inside m.
    """
    if n == 0:
        yield ()
        return
    yield from _extend([], _row_candidates(n), 0, n - 1)


# Module-level, not nested in _iter_rows: a nested generator that calls
# itself would hold itself through its closure cell, a cycle left to the
# cyclic garbage collector once the walk ends.
def _extend(rows: list[int], candidates, i: int, last: int) -> Iterator[tuple[int, ...]]:
    """Every completion of the placed ``rows`` from row i to row ``last``."""
    if i == last:
        prefix = tuple(rows)
        for m in _fitting(rows, candidates[i], i):
            yield prefix + (m,)
        return
    for m in _fitting(rows, candidates[i], i):
        rows.append(m)
        yield from _extend(rows, candidates, i + 1, last)
        rows.pop()


def _fitting(rows: list[int], cands, i: int) -> list[int]:
    """The masks among row i's candidates ``cands`` that fit the placed ``rows``."""
    upper = -1
    for r in rows:
        if r >> i & 1:
            upper &= r
    out = []
    for m, below in cands:
        if m & ~upper:
            continue
        for j in below:
            if rows[j] & ~m:
                break
        else:
            out.append(m)
    return out


def enumerate_preorders(n: int, consumer: Callable[[Preorder], None] | None = None) -> int:
    """Deliver every preorder on n points exactly once; returns the count.

    Delivery order is deterministic: ascending lexicographic on the
    row-major matrix bits.  Without a consumer nothing is delivered and no
    preorder is visited: the count is ``_count_below`` on n equal labels.
    A consumer above the soft limit only warns: the walk visits every
    preorder, while the count alone stays fast.
    """
    _check_size(n)
    if consumer is None:
        return _count_below((0,) * n, {})[0]
    if n > SOFT_LIMIT:
        warnings.warn(f"enumerating preorders on {n} points may take extremely long", stacklevel=2)
    count = 0
    for rows in _iter_rows(n):
        consumer(Preorder(n, rows, validate=False))
        count += 1
    return count


def closure_of_preorder(p: Preorder) -> FiniteRelation:
    """Diagonal closure: (x, y) related iff the up-sets of x and y meet."""
    return FiniteRelation(p.n, closure_rows(p.rows))


# --- codes ---

def _relation_bits(rows, n: int) -> int:
    # Row i contributes its cells right of the diagonal, which are the
    # contiguous bits above i.
    code = 0
    t = 0
    for i, ri in enumerate(rows):
        code |= ri >> (i + 1) << t
        t += n - 1 - i
    return code


def _preorder_row(i: int, ri: int, n: int) -> int:
    # Row i contributes its n-1 off-diagonal cells: the bits below i, then
    # the bits above i shifted down by one.
    return ((ri & ((1 << i) - 1)) | (ri >> (i + 1) << i)) << (i * (n - 1))


def _preorder_bits(rows, n: int) -> int:
    code = 0
    for i, ri in enumerate(rows):
        code |= _preorder_row(i, ri, n)
    return code


def _pair_bits(n: int) -> list[list[int]]:
    """``pair[a][b]``: the relation bit of the pair {a, b}, as ``_relation_bits``
    lays the pairs out."""
    pair = [[0] * n for _ in range(n)]
    t = 0
    for a in range(n):
        for b in range(a + 1, n):
            pair[a][b] = pair[b][a] = 1 << t
            t += 1
    return pair


def relation_code(r: FiniteRelation) -> str:
    """Hex code of the upper triangle (no canonicalisation)."""
    return format(_relation_bits(r.rows, r.n), "x")


def canonical_code(r: FiniteRelation) -> str:
    """Minimum relation code over all point permutations.

    The code's most significant bit is the pair (n-2, n-1), then (n-3, n-1),
    (n-3, n-2), and so on: filling positions from n-1 downward, each new
    point's bits against the points already placed, first placed first, are
    the next most significant bits.  Those bits are the signature of the
    point's group (see ``_least_order``), so the group comes first and the
    key is the signature.  The search runs on the symmetric relation that
    the upper triangle describes, which is all the code reads.
    """
    rows = [1 << i | ri >> i + 1 << i + 1 for i, ri in enumerate(r.rows)]
    for i, ri in enumerate(rows):
        for j in range(i + 1, r.n):
            rows[j] |= (ri >> j & 1) << i

    def key(order, groups, p):
        return sum([1 << j for j, x in enumerate(reversed(order)) if rows[p] >> x & 1])

    return format(_relation_bits(_relabel(rows, _least_order(rows, key)[::-1]), r.n), "x")


def _delivery_least(rows) -> int:
    """The preorder bits of the relabelling of the preorder ``rows`` that
    ``enumerate_preorders`` delivers first.

    Delivery reads row 0 first, and row i is fixed once position i takes a
    point p: its bits against the placed points, then, group by group, the
    group's points outside p's up-set (0) before those inside it (1).  The
    placed rows are equal across the orders that tie, so their groups have
    the same signatures, and the row alone is the key.
    """
    n = len(rows)

    def key(order, groups, p):
        row = 0
        for x in order:
            row = row << 1 | rows[p] >> x & 1
        for group in groups:
            inside = sum([rows[p] >> x & 1 for x in group if x != p])
            row = row << (len(group) - (p in group)) | (1 << inside) - 1
        return row

    return _preorder_bits(_relabel(rows, _least_order(rows, key)), n)


def _least_order(rows, key) -> tuple[int, ...]:
    """An order of the points of ``rows`` whose keys are least, step by step.

    The unplaced points fall into groups of equal signature: their bits in
    the rows of the placed points, first placed most significant, 0 first.
    Each step extends every order that ties the best so far by each point p
    of its first group and keeps the extensions with the least
    ``key(order, groups, p)``; placing p splits every group into the points
    outside p's row and those inside it.  Two points that a transposition
    swaps without changing ``rows`` (twins) give the same keys from then on,
    so one point per twin class is tried.
    """
    twin = _twin_classes(rows)
    states = [((), [list(range(len(rows)))])]
    for _ in rows:
        best, ties = None, []
        for order, groups in states:
            tried = set()
            for p in groups[0]:
                if twin[p] in tried:
                    continue
                tried.add(twin[p])
                k = key(order, groups, p)
                if best is None or k < best:
                    best, ties = k, []
                if k == best:
                    split = [[x for x in g if x != p and rows[p] >> x & 1 == bit] for g in groups for bit in (0, 1)]
                    ties.append((order + (p,), [g for g in split if g]))
        states = ties
    return states[0][0]


def _twin_classes(rows) -> list[int]:
    """``twin[p]``: the least point q whose exchange with p keeps ``rows``.

    Such transpositions generate a group, so being twins is an equivalence.
    In a symmetric reflexive relation twins are the points with equal open
    or equal closed neighbourhoods.
    """
    twin = list(range(len(rows)))
    for q in range(len(rows)):
        twin[q] = next((p for p in range(q) if twin[p] == p and _swaps(rows, p, q)), q)
    return twin


def _swaps(rows, p: int, q: int) -> bool:
    """Whether exchanging the points p and q maps ``rows`` to itself."""
    both = 1 << p | 1 << q
    for x, r in enumerate(rows):
        image = r ^ both if (r >> p ^ r >> q) & 1 else r
        if image != rows[q if x == p else p if x == q else x]:
            return False
    return True


def _relabel(rows, order) -> list[int]:
    """``rows`` with old point ``order[i]`` moved to position i."""
    pos = [0] * len(order)
    for i, x in enumerate(order):
        pos[x] = i
    return [sum(1 << pos[y] for y in order if rows[x] >> y & 1) for x in order]


def decode_relation(code: str, n: int) -> FiniteRelation:
    """Invert the relation encoding (no permutation); diagonal included.

    Raises ``ValueError`` unless ``code`` is a code as the catalog writes it,
    with no bit beyond the pairs of n points.
    """
    bits = _code_bits(code, n * (n - 1) // 2)
    rows = [1 << i | sum([1 << j for j, b in enumerate(row) if bits & b]) for i, row in enumerate(_pair_bits(n))]
    return FiniteRelation(n, rows)


def preorder_code(p: Preorder) -> str:
    """Hex code of the off-diagonal cells in row-major order, LSB first."""
    return format(_preorder_bits(p.rows, p.n), "x")


def decode_preorder(code: str, n: int) -> Preorder:
    """Invert ``_preorder_row`` row by row; raises ``ValueError`` as
    ``decode_relation`` does, or if the cells are not transitive."""
    bits = _code_bits(code, n * (n - 1))
    rows = []
    for i in range(n):
        cells = bits >> i * (n - 1) & (1 << (n - 1)) - 1
        rows.append(cells & (1 << i) - 1 | 1 << i | cells >> i << i + 1)
    return Preorder(n, rows)


# --- catalogs ---

@dataclass(frozen=True)
class CatalogRecord:
    """One realised closure relation with its realisation counts."""

    n: int
    relation_code: str
    labeled_topology_count: int
    t0_topology_count: int
    transitive: bool
    equivalence: bool
    example_preorder_code: str


@dataclass(frozen=True)
class Catalog:
    """Classification of diagonal closures for one ground-set size."""

    n: int
    records: tuple[CatalogRecord, ...]
    total_topologies: int
    total_t0: int


def _count_structures(n: int) -> dict[int, list]:
    """``{closure bits: [labelled, t0, example bits, transitive]}``, one entry
    per closure structure: a set partition of the n points with at most one
    block marked as the rest, whose points take a set of at least two of the
    other blocks each (see ``_Walk``).
    """
    walk = _Walk(n)
    for part in all_partitions(n):
        walk.partition(part.blocks)
    return walk.counts


class _Walk:
    """The closure structures of one ground set, one set partition at a time.

    The closure bits are a sum of parts: the pairs inside each block, each
    rest point x against the points of the blocks in M(x), and the rest-rest
    pair bit, set when the two M values meet.  The example hangs each block
    under its least point, or under its greatest if a rest point below the
    least one has the block in M.  The rest points are taken in ascending
    order, so when x is assigned the top of every block in M(x) is settled:
    the greatest-top mask h carries the blocks settled so far down the walk,
    x's example row hangs under the least points of the blocks in M(x)
    outside h and the greatest of those in h, and the block points' rows are
    one lookup by h at the leaf.
    Per set partition, tables indexed by block bitmask hold the blocks'
    points, least points, greatest points and those rows, built once over
    all its blocks.  The partition's transitive closure (no rest) is read
    off them.  With three or more blocks, each block q then serves in turn
    as the rest: M ranges over the masks without bit q, q's pair bits leave
    the code and its rows leave the example by XOR, and bit q is squeezed
    out of the M values that ``_structure_counts`` sees.  x's relation bits
    against a point set, and its preorder row under one, are a table per x
    for the whole build.
    M is assigned one rest point at a time, depth first in the order of
    ``product(masks, repeat=len(rest))``, so each prefix's bits are summed
    once, and a leaf costs a few table lookups.
    """

    def __init__(self, n: int):
        self.counts: dict[int, list] = {}
        self.memo: dict = {}  # _structure_counts', for the whole build
        self.leaves: dict[tuple, dict] = {}
        self.pair = _pair_bits(n)
        # against[x][s]: x's relation bits against the points of s; row[x][s]:
        # x's preorder bits under the points of s; below[t][s]: the preorder
        # bits of the points of s under the point t
        self.against = [_table([(0, b) for b in self.pair[x]]) for x in range(n)]
        self.row = [_table([(0, _preorder_row(x, 1 << y, n)) for y in range(n)]) for x in range(n)]
        self.below = [_table([(0, _preorder_row(y, 1 << t, n)) for y in range(n)]) for t in range(n)]

    def partition(self, blocks: tuple[tuple[int, ...], ...]) -> None:
        """Add every structure whose blocks, with at most one as the rest, are ``blocks``."""
        points = [sum(1 << y for y in block) for block in blocks]
        lo, hi = [min(block) for block in blocks], [max(block) for block in blocks]
        cliques = []  # the pair bits inside each block, disjoint across blocks
        for block, s in zip(blocks, points):
            clique = 0
            for y in block:
                clique |= self.against[y][s]
            cliques.append(clique)
        # indexed by a block bitmask m: the points, least points and greatest
        # points of the blocks in m; hung[h]: the block points' preorder bits
        # when the blocks in h hang under their greatest points
        self.points = _table([(0, s) for s in points])
        self.least = _table([(0, 1 << t) for t in lo])
        self.greatest = _table([(0, 1 << t) for t in hi])
        self.hung = _table([(self.below[a][s], self.below[b][s]) for a, b, s in zip(lo, hi, points)])
        self.sizes = tuple(map(len, blocks))
        code = sum(cliques)
        self.counts[code] = [*_structure_counts(self.sizes, (), self.memo), self.hung[0], True]
        if len(blocks) < 3:
            return
        masks = [m for m in range(1 << len(blocks)) if m & (m - 1)]
        for q, rest in enumerate(blocks):
            low = (1 << q) - 1
            self.rest, self.others = rest, self.sizes[:q] + self.sizes[q + 1:]
            # each mask without bit q, and the same mask over the other blocks
            self.masks = [(m, m & low | m >> 1 & ~low) for m in masks if not m >> q & 1]
            self.under = [sum(1 << i for i, t in enumerate(lo) if t > x) for x in rest]  # blocks above each rest point
            # the rows of q's points under its least point, in every hung[g]: g never has bit q
            self.off = self.below[lo[q]][points[q]]
            self._assign(0, code ^ cliques[q], 0, 0, [])

    def _assign(self, k: int, code: int, example: int, h: int, ms: list[int]) -> None:
        # M(rest[k]) = m for each mask m of at least two other blocks in turn, then the points
        # after it; ms holds the M values so far as r, over the other blocks alone
        x, under = self.rest[k], self.under[k]
        against, row, points, least, greatest = self.against[x], self.row[x], self.points, self.least, self.greatest
        meets = [(mj, self.pair[x][y]) for mj, y in zip(ms, self.rest)]
        leaf = k == len(self.rest) - 1
        if leaf:
            entries = self._leaf_entries(ms)
            counts, hung, off = self.counts, self.hung, self.off
        for m, r in self.masks:
            c = code | against[points[m]]
            for mj, b in meets:
                if mj & r:
                    c |= b
            g = h | m & under
            e = example | row[least[m & ~g] | greatest[m & g]]
            if leaf:
                counts[c] = [*entries[r], e | (hung[g] ^ off), False]
            else:
                ms.append(r)
                self._assign(k + 1, c, e, g, ms)
                ms.pop()

    def _leaf_entries(self, ms: list[int]) -> dict[int, tuple[int, int]]:
        """``entries[r]``: the counts of the structure with M values ``ms`` and r
        last, all over the blocks other than the rest."""
        key = (self.others, tuple(sorted(ms)))
        entries = self.leaves.get(key)
        if entries is None:
            entries = self.leaves[key] = {r: _structure_counts(self.others, tuple(sorted([*ms, r])), self.memo) for _, r in self.masks}
        return entries


def _table(parts: list[tuple[int, int]]) -> list[int]:
    """``table[m]``: the union over i of ``parts[i][1]`` where m has bit i,
    and of ``parts[i][0]`` where it has not."""
    table = [0]
    for off, on in parts:
        table = [u | off for u in table] + [u | on for u in table]
    return table


def _structure_counts(sizes: tuple[int, ...], ms: tuple[int, ...], memo: dict) -> tuple[int, int]:
    """The labelled and T0 topologies with one closure: blocks of ``sizes``
    and the sorted M values ``ms`` of the other points.

    Each topology picks a top class of t points in each block of s (comb(s, t)
    ways); the block's other points lie under that class alone, so their label
    is the block's bit, and ``_count_below`` counts the preorders on the
    points under the tops.  A T0 topology has one top point per block.
    ``memo`` holds these counts by ``(sizes, ms)`` and ``_count_below``'s by
    their label tuples.
    """
    found = memo.get((sizes, ms))
    if found is None:
        labelled = t0 = 0
        for tops in product(*[range(1, s + 1) for s in sizes]):
            labels = [1 << q for q, (s, t) in enumerate(zip(sizes, tops)) for _ in range(s - t)]
            lab, posets = _count_below(tuple(sorted([*labels, *ms])), memo)
            labelled += prod(map(comb, sizes, tops)) * lab
            if all(t == 1 for t in tops):
                t0 = prod(sizes) * posets
        found = memo[sizes, ms] = labelled, t0
    return found


def _count_types(n: int) -> dict[int, list]:
    """``{canonical closure bits: [labelled, t0, first example's bits,
    transitive]}``, one entry per structure type.

    Relabelling is a bijection of structures, so the structures of one type
    share their counts and have isomorphic closures, and different types have
    closures that are not.  The closure of the type's flat preorder is
    canonicalised, and the flat preorder relabelled to the one delivered
    first, which is the first example of every closure of the type.
    """
    counts: dict[int, list] = {}
    memo: dict = {}
    for weight, sizes, ms in _types(n):
        labelled, t0 = _structure_counts(sizes, ms, memo)
        flat = _flat(sizes, ms)
        code = int(canonical_code(FiniteRelation(n, closure_rows(flat))), 16)
        counts[code] = [weight * labelled, weight * t0, _delivery_least(flat), not ms]
    return counts


def _types(n: int) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Each closure structure type on n points: ``(structures, block sizes, M values)``.

    A type is a structure up to relabelling the points: the block sizes,
    descending, and the sorted M values (masks of at least two blocks) over
    the blocks numbered in that order, up to permuting blocks of equal size.
    Its structures choose the simplicial points, split them into blocks of
    these sizes, and hand the other points one multiset of M values of the
    orbit.
    """
    for k in range(n + 1):
        for sizes in _partitions(k):
            c = len(sizes)
            runs = [tuple(same) for _, same in groupby(range(c), key=sizes.__getitem__)]
            ways = comb(n, k) * factorial(k) // prod([factorial(s) for s in sizes] + [factorial(len(r)) for r in runs])
            # the block permutations, needed only when some point is not simplicial
            perms = [sum(g, ()) for g in product(*map(permutations, runs))] if k < n else [()]
            seen: set[tuple[int, ...]] = set()
            for w, ms in _multisets([m for m in range(1 << c) if m & (m - 1)], n - k):
                if ms not in seen:
                    orbit = {tuple(sorted([sum(1 << g[i] for i in range(c) if m >> i & 1) for m in ms])) for g in perms}
                    seen |= orbit
                    yield ways * w * len(orbit), sizes, ms


def _flat(sizes: tuple[int, ...], ms: tuple[int, ...]) -> list[int]:
    """The up-sets of a structure type's flat preorder: the blocks of
    ``sizes`` on the first points, in order, each under its first point,
    then one point per M value in ``ms``, under the first points of its
    blocks."""
    firsts, at = [], 0
    for size in sizes:
        firsts.append(at)
        at += size
    flat = [1 << x | 1 << first for first, size in zip(firsts, sizes) for x in range(first, first + size)]
    return flat + [1 << x | sum(1 << f for q, f in enumerate(firsts) if m >> q & 1) for x, m in enumerate(ms, at)]


def build_catalog(n: int, t0_only: bool = False, up_to_iso: bool = False, workers: int = 1, force: bool = False) -> Catalog:
    """One record per distinct closure relation over all topologies on n points.

    The counts are summed over closure structures, or over their types if
    ``up_to_iso`` (see the module docstring), in one process; ``workers`` is
    accepted and has no effect.  With ``t0_only`` the labelled column counts
    the T0 topologies, which every closure has.  A closure relation is
    reflexive and symmetric by encoding, so it is an equivalence exactly when
    it is transitive.  Above ``SOFT_LIMIT`` points the catalog holds millions
    of records (3,731,508 at n=8) and the build raises ``BoundExceededError``
    unless ``force`` is true.
    """
    _check_size(n)
    if n > SOFT_LIMIT and not force:
        raise BoundExceededError(f"n={n} is above the soft limit {SOFT_LIMIT}; pass force=True to proceed")
    counts = (_count_types if up_to_iso else _count_structures)(n)
    records = []
    for code in sorted(counts):
        lab, t0c, example, transitive = counts[code]
        records.append(CatalogRecord(n, f"{code:x}", t0c if t0_only else lab, t0c, transitive, transitive, f"{example:x}"))
    totals = sum([r.labeled_topology_count for r in records]), sum([r.t0_topology_count for r in records])
    return Catalog(n, tuple(records), *totals)


_HEADER = "n\trelation\tlabeled\tt0\ttransitive\tequivalence\texample"
# Fields exactly as render_catalog writes them: a count as str(int) writes it
# (no sign, underscore, other digits or leading zero), a code as format(v, "x").
# A row's codes are matched by _code_bits alone, which also bounds their width.
_COUNT = "0|[1-9][0-9]*"
_COUNT_RE = re.compile(_COUNT)
_CODE_RE = re.compile("0|[1-9a-f][0-9a-f]*")
_ROW_RE = re.compile("\t".join(f"({field})" for field in (_COUNT, "[^\t]*", _COUNT, _COUNT, "true|false", "true|false", "[^\t]*")))


def _flag(v: bool) -> str:
    return "true" if v else "false"


def _count(s: str) -> int:
    if not _COUNT_RE.fullmatch(s):
        raise ValueError(f"not a count as the catalog writes it: {s!r}")
    return int(s)


def _code_bits(code: str, width: int) -> int:
    """The bits of ``code``; ``ValueError`` unless it is a code as
    ``render_catalog`` writes it, with no bit beyond the first ``width``."""
    if not _CODE_RE.fullmatch(code):
        raise ValueError(f"not a code as the catalog writes it: {code!r}")
    bits = int(code, 16)
    # a bit length, not 1 << width: a catalog row may claim any number of points
    if bits.bit_length() > width:
        raise ValueError(f"code {code!r} has bits beyond the cells of its points")
    return bits


def render_catalog(cat: Catalog) -> str:
    lines = [_HEADER]
    for rec in cat.records:
        lines.append(
            f"{rec.n}\t{rec.relation_code}\t{rec.labeled_topology_count}\t"
            f"{rec.t0_topology_count}\t{_flag(rec.transitive)}\t"
            f"{_flag(rec.equivalence)}\t{rec.example_preorder_code}"
        )
    lines.append(f"# total_topologies={cat.total_topologies} total_t0={cat.total_t0}")
    return "\n".join(lines) + "\n"


def read_catalog(text: str) -> Catalog:
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1] != _HEADER:
        lineno, ln = lines[0] if lines else (1, "")
        raise SpecSyntaxError(f"bad catalog header at line {lineno}: {ln!r}")
    records = []
    totals = (0, 0)
    for lineno, ln in lines[1:]:
        try:
            if ln.startswith("#"):
                items = [item.split("=", 1) for item in ln[1:].split()]
                if sorted(key for key, _ in items) != ["total_t0", "total_topologies"]:
                    raise ValueError("a totals line needs exactly total_topologies and total_t0")
                parts = dict(items)
                totals = (_count(parts["total_topologies"]), _count(parts["total_t0"]))
                continue
            m = _ROW_RE.fullmatch(ln)
            if m is None:
                raise ValueError("not seven fields as render_catalog writes them")
            n_s, rel, lab, t0c, trans, equiv, example = m.groups()
            n = int(n_s)
            if records and n != records[0].n:
                raise ValueError("a point count unlike the first row's")
            if trans != equiv:
                raise ValueError("a reflexive symmetric relation is an equivalence exactly when it is transitive")
            _code_bits(rel, n * (n - 1) // 2)
            _code_bits(example, n * (n - 1))
            records.append(CatalogRecord(n, rel, int(lab), int(t0c), trans == "true", trans == "true", example))
        except (ValueError, KeyError) as exc:
            raise SpecSyntaxError(f"bad catalog line {lineno}: {ln!r}") from exc
    n = records[0].n if records else 0
    return Catalog(n, tuple(records), totals[0], totals[1])
