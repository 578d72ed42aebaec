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
a time and keeps every branch that ties the best prefix, but leaves the
order of points open while no key tells them apart: points that may come
in any order cost one branch, not one per order.

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
from itertools import groupby, product
from math import comb, factorial, prod
from typing import Callable, Iterator

from .counting import SOFT_LIMIT, _count_below, _multisets, _partitions
from .errors import BoundExceededError, InvalidCatalogError, SpecSyntaxError, check_size
from .finite_topology import Preorder, closure_rows
from .relations import FiniteRelation, _new, _partition_blocks, _TupleValue

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


def _row_candidates(n: int) -> list[tuple[tuple[int, tuple[int, ...]], ...]]:
    """Per-row candidate up-set masks, sorted by column-order bit string,
    each with its set bits below the row."""
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
    n = check_size(n)
    if consumer is None:
        return _count_below((0,) * n, {})[0]
    if n > SOFT_LIMIT:
        warnings.warn(f"enumerating preorders on {n} points may take extremely long", stacklevel=2)
    count = 0
    for rows in _iter_rows(n):
        consumer(_new(Preorder, (n, rows)))
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
    the next most significant bits, which ``_least_order`` makes least step
    by step.  The search runs on the symmetric relation that the upper
    triangle describes, which is all the code reads.
    """
    rows = [1 << i | ri >> i + 1 << i + 1 for i, ri in enumerate(r.rows)]
    for i, ri in enumerate(rows):
        for j in range(i + 1, r.n):
            rows[j] |= (ri >> j & 1) << i
    return format(_relation_bits(_relabel(rows, _least_order(rows, False)[::-1]), r.n), "x")


def _delivery_least(rows) -> int:
    """The preorder bits of the relabelling of the preorder ``rows`` that
    ``enumerate_preorders`` delivers first: delivery reads row 0 first, so
    each new point's whole row is the next key.  The cuts of the ordered
    search rely on ``rows`` being transitive."""
    return _preorder_bits(_relabel(rows, _least_order(rows, True)), len(rows))


def _least_order(rows, ordered: bool) -> tuple[int, ...]:
    """An order of the points of ``rows`` whose keys are least, step by step:
    the key of the point p placed next is its row against the placed points,
    first placed most significant, then, if ``ordered``, against the others.

    A state holds the placed points in cells, runs of positions whose order
    is still open, and the others in groups of one signature (bits in the
    placed rows).  Placing p splits each cell and group into the points
    outside p's row, then those inside, so p's key has its row's points last
    in each.  An ordered step takes p from the first group, whose place the
    earlier keys fixed; a canonical step takes any point, one key per group.
    Each step keeps the states whose least key ties the best, extended by
    each point with that key, and a state reached twice once.  Exact cuts:
    p joins the last cell if it has the row (within the placed points, or
    everywhere if ``ordered``) and the column in the placed rows of each
    point there, and then every tied point does; tied points with one row
    outside themselves (and that cell if they join it), related to none of
    each other or, unless ``ordered``, to all, fill the next steps in any
    order, so one is tried, or a lone state places them all at once; else
    one is tried per class of twins (equal rows or, unless ``ordered``,
    equal open neighbourhoods), which give the same keys.
    """
    n = len(rows)
    full = (1 << n) - 1
    twin = [next(q for q in range(n) if rows[q] == r or not ordered and rows[q] == r ^ 1 << p ^ 1 << q) for p, r in enumerate(rows)]
    cols = [sum([1 << y for y, r in enumerate(rows) if r >> x & 1]) for x in range(n)] if ordered else rows
    states = {((), (full,) if n else ()): 0}
    while next(iter(states))[1]:
        best, ties = None, {}
        for cells, groups in states:
            placed = full & ~sum(groups)
            # with one state, a lone candidate needs no key
            if len(states) == 1 and (not groups[0] & groups[0] - 1 if ordered else len(groups) == 1):
                tied = groups[0]
            else:
                keys = {}
                for p, mask in [(p, 1 << p) for p in _bits(groups[0])] if ordered else [((g & -g).bit_length() - 1, g) for g in groups]:
                    r, k = rows[p], 0
                    for c in (*cells, *[g & ~mask for g in groups]) if ordered else cells:
                        k = k << c.bit_count() | (1 << (c & r).bit_count()) - 1
                    keys[k] = keys.get(k, 0) | mask
                low = min(keys)
                if best is not None and low > best:
                    continue
                if best is None or low < best:
                    best, ties = low, {}
                tied = keys[low]
            last = cells[-1] if cells else 0
            t = (tied & -tied).bit_length() - 1
            joins = last and _joins(rows, cols, t, last, full if ordered else placed, placed)
            if not tied & tied - 1 or _uniform(rows, tied | last if joins else tied, full if ordered else placed | tied, ordered):
                branch = [tied if len(states) == 1 else 1 << t]
            else:
                classes = {}
                branch = [classes.setdefault(twin[p], 1 << p) for p in _bits(tied) if twin[p] not in classes]
            for bit in branch:
                r = rows[(bit & -bit).bit_length() - 1]
                if joins:
                    new = cells[:-1] + (last | bit,)
                else:
                    new = tuple([x for c in cells for x in (c & ~r, c & r) if x]) + (bit,)
                split = [g & ~bit for g in groups if g & ~bit]
                for p in _bits(bit):
                    split = [x for g in split for x in (g & ~rows[p], g & rows[p]) if x]
                ties[new, tuple(split if ordered else sorted(split))] = 0
        states = ties
    cells, _ = next(iter(states))
    return tuple([p for c in cells for p in _bits(c)])


def _joins(rows, cols, t: int, cell: int, within: int, placed: int) -> bool:
    """Whether t has the row within ``within`` and the column in the ``placed``
    rows of each point of ``cell``; its first and last point stand for all."""
    for m in (cell & -cell).bit_length() - 1, cell.bit_length() - 1:
        both = 1 << t | 1 << m
        if (rows[t] ^ rows[m]) & within & ~both or (cols[t] ^ cols[m]) & placed & ~both or (rows[t] >> m ^ rows[m] >> t) & 1:
            return False
    return True


def _uniform(rows, points: int, within: int, ordered: bool) -> bool:
    """Whether the ``points`` have one row within ``within``, apart from each
    other, and are related to none of the others or, unless ``ordered``, to all."""
    ps = _bits(points)
    return len({(rows[p] ^ 1 << p) & within for p in ps}) == 1 or not ordered and len({rows[p] & within for p in ps}) == 1


def _bits(m: int) -> list[int]:
    return [i for i in range(m.bit_length()) if m >> i & 1]


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

@dataclass(frozen=True, init=False, eq=False)
class CatalogRecord(_TupleValue):
    """One realised closure relation with its realisation counts.

    The 7-tuple of its fields, in the order below, that is also a frozen
    dataclass: assignment and deletion raise ``FrozenInstanceError``, a
    record has no ``__dict__``, and ``dataclasses.fields`` and
    ``dataclasses.replace`` work on it.  It hashes, indexes, unpacks and
    orders as that tuple, and equals only a record with the same fields.
    The fields are named once, as annotations: ``_fields`` lists them, so
    each reads its item and the value's generic constructor takes them by
    position or keyword, as ``dataclasses.replace`` passes them.  A catalog
    builds and reads one record per closure with ``_new``, past ``__new__``.
    """

    n: int
    relation_code: str
    labeled_topology_count: int
    t0_topology_count: int
    transitive: bool
    equivalence: bool
    example_preorder_code: str

    _fields = tuple(__annotations__)


@dataclass(frozen=True)
class Catalog:
    """Classification of diagonal closures for one ground-set size.

    ``build_catalog`` and ``read_catalog`` mark the catalogs they return as
    ones whose text reads back as themselves: ``_trusted``, set once by
    ``_trust`` and not a field, so equality, hash, repr and
    ``dataclasses.replace`` ignore it.  ``render_catalog`` writes a marked
    catalog with no check.  A ``replace`` copy is a new, unmarked catalog;
    ``copy`` and ``pickle`` keep the mark with the value they copy.
    """

    n: int
    records: tuple[CatalogRecord, ...]
    total_topologies: int
    total_t0: int

    _trusted = False


def _trust(cat: Catalog) -> Catalog:
    object.__setattr__(cat, "_trusted", True)
    return cat


def _count_structures(n: int) -> dict[int, tuple]:
    """``{closure bits: (labelled, t0, example bits, transitive)}``, one entry
    per closure structure: a set partition of the n points with at most one
    block marked as the rest, whose points take a set of at least two of the
    other blocks each (see ``_Walk``).
    """
    walk = _Walk(n)
    for blocks in _partition_blocks(n):
        walk.partition(blocks)
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
    Per build: x's relation bits against a point set, and its preorder row
    under one, are a table per x; and for k blocks and each block q, the
    masks of at least two blocks without bit q, each with bit q squeezed
    out, which is how ``_structure_counts`` sees M.  Per set partition:
    tables indexed by block bitmask hold the blocks' points, least points,
    greatest points and those rows, built once over all its blocks, and the
    transitive closure (no rest) is read off them.  Per rest block: with
    three or more blocks, each block q serves in turn as the rest, q's pair
    bits leave the code and its rows leave the example by XOR, and each rest
    point gets the mask of the blocks whose least points lie above it.
    M is assigned one rest point at a time, depth first in the order of
    ``product(masks, repeat=len(rest))``, so each prefix's bits are summed
    once, and a leaf costs a few table lookups.
    """

    def __init__(self, n: int):
        self.counts: dict[int, tuple] = {}
        self.memo: dict = {}  # _structure_counts', for the whole build
        self.leaves: dict[tuple, dict] = {}
        self.pair = _pair_bits(n)
        # against[x][s]: x's relation bits against the points of s; row[x][s]:
        # x's preorder bits under the points of s; below[t][s]: the preorder
        # bits of the points of s under the point t
        self.against = [_table([(0, b) for b in self.pair[x]]) for x in range(n)]
        self.row = [_table([(0, _preorder_row(x, 1 << y, n)) for y in range(n)]) for x in range(n)]
        self.below = [_table([(0, _preorder_row(y, 1 << t, n)) for y in range(n)]) for t in range(n)]
        # rest_masks[k][q]: each mask of at least two of k blocks without bit q, with its copy over the other blocks
        self.rest_masks = [[[(m, m & (1 << q) - 1 | m >> q + 1 << q) for m in range(1 << k) if m & (m - 1) and not m >> q & 1]
                            for q in range(k)] for k in range(n + 1)]

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
        # the count with no rest is a product over the blocks, so it ignores their order
        self.counts[code] = _structure_counts(tuple(sorted(self.sizes)), (), self.memo) + (self.hung[0], True)
        if len(blocks) < 3:
            return
        for q, rest in enumerate(blocks):
            self.rest, self.others = rest, self.sizes[:q] + self.sizes[q + 1:]
            self.masks = self.rest_masks[len(blocks)][q]
            # the blocks above each rest point: lo ascends, so they run from the first block with a greater least point
            self.under, c = [], q + 1
            for x in rest:
                while c < len(lo) and lo[c] < x:
                    c += 1
                self.under.append(-1 << c)
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
                counts[c] = entries[r] + (e | (hung[g] ^ off), False)
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
        if off:
            table = [u | off for u in table] + [u | on for u in table]
        else:
            table += [u | on for u in table]
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


def _count_types(n: int) -> dict[int, tuple]:
    """``{canonical closure bits: (labelled, t0, first example's bits,
    transitive)}``, one entry per structure type.

    Relabelling is a bijection of structures, so the structures of one type
    share their counts and have isomorphic closures, and different types have
    closures that are not.  The closure of the type's flat preorder is
    canonicalised, and the flat preorder relabelled to the one delivered
    first, which is the first example of every closure of the type.
    """
    counts: dict[int, tuple] = {}
    memo: dict = {}
    for weight, sizes, ms in _types(n):
        labelled, t0 = _structure_counts(sizes, ms, memo)
        flat = _flat(sizes, ms)
        code = int(canonical_code(FiniteRelation(n, closure_rows(flat))), 16)
        counts[code] = (weight * labelled, weight * t0, _delivery_least(flat), not ms)
    return counts


def _types(n: int) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Each closure structure type on n points: ``(structures, block sizes, M values)``.

    A type is a structure up to relabelling the points: the block sizes,
    descending, and the sorted M values (masks of at least two blocks) over
    the blocks numbered in that order, up to permuting blocks of equal size.
    Its structures choose the simplicial points, split them into blocks of
    these sizes, and hand the other points one multiset of M values of the
    orbit.  Exchanges of neighbouring blocks of one size generate those
    permutations, so each orbit is closed under them alone, by a table of
    mask images per exchange: work in the orbit's size, not theirs.
    """
    for k in range(n + 1):
        for sizes in _partitions(k):
            c = len(sizes)
            runs = [len(list(same)) for _, same in groupby(sizes)]
            ways = comb(n, k) * factorial(k) // prod([factorial(s) for s in sizes] + [factorial(r) for r in runs])
            swaps = [[m ^ ((m >> b ^ m >> b + 1) & 1) * (3 << b) for m in range(1 << c)] for b in range(c - 1) if sizes[b] == sizes[b + 1]]
            seen: set[tuple[int, ...]] = set()
            for w, ms in _multisets([m for m in range(1 << c) if m & (m - 1)], n - k):
                if ms not in seen:
                    seen.add(ms)
                    orbit = [ms]
                    for x in orbit:
                        orbit += [y for y in {tuple(sorted([swap[m] for m in x])) for swap in swaps} - seen if not seen.add(y)]
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
    n = check_size(n)
    if n > SOFT_LIMIT and not force:
        raise BoundExceededError(f"n={n} is above the soft limit {SOFT_LIMIT}; pass force=True to proceed")
    counts = (_count_types if up_to_iso else _count_structures)(n)
    records = []
    append = records.append
    labs = t0s = 0
    for code in sorted(counts):
        lab, t0c, example, transitive = counts[code]
        if t0_only:
            lab = t0c
        labs += lab
        t0s += t0c
        append(_new(CatalogRecord, (n, f"{code:x}", lab, t0c, transitive, transitive, f"{example:x}")))
    return _trust(Catalog(n, tuple(records), labs, t0s))


_HEADER = "n\trelation\tlabeled\tt0\ttransitive\tequivalence\texample"
# Fields exactly as render_catalog writes them: a count as str(int) writes it
# (no sign, underscore, other digits or leading zero), a code as format(v, "x").
# A row's codes are matched by _ROW_RE, so read_catalog checks only their widths.
_COUNT = "0|[1-9][0-9]*"
_CODE = "0|[1-9a-f][0-9a-f]*"
_CODE_RE = re.compile(_CODE)
_ROW_RE = re.compile("\t".join(f"({field})" for field in (_COUNT, _CODE, _COUNT, _COUNT, "true|false", "true|false", _CODE)))
_TOTALS_RE = re.compile(f"# total_topologies=({_COUNT}) total_t0=({_COUNT})")


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
    """The text of ``cat``: a header, one tab-separated row per record, and a
    totals line, which ``read_catalog`` reads back as ``cat``.

    ``read_catalog`` is the rule for what a catalog may hold.  A catalog
    that ``build_catalog`` or ``read_catalog`` made is written with no
    check (see ``Catalog``); any other is read back from its text first.
    If the reader refuses the text, this raises ``InvalidCatalogError``
    with the reader's ``SpecSyntaxError`` as its cause, which names record
    i's row as line i + 2; if the text reads back as another catalog, it
    raises ``InvalidCatalogError`` too, as it does, from the ``TypeError`` or
    ``ValueError``, on records that do not unpack into seven fields.
    """
    lines = [_HEADER]
    append = lines.append
    try:
        for rn, rel, lab, t0c, tr, eq, ex in cat.records:
            append(f"{rn}\t{rel}\t{lab}\t{t0c}\t{'true' if tr else 'false'}\t{'true' if eq else 'false'}\t{ex}")
    except (TypeError, ValueError) as exc:
        raise InvalidCatalogError(f"the catalog's records are not rows of seven fields: {exc}") from exc
    append(f"# total_topologies={cat.total_topologies} total_t0={cat.total_t0}")
    text = "\n".join(lines) + "\n"
    if not cat._trusted:
        try:
            back = read_catalog(text)
        except SpecSyntaxError as exc:
            raise InvalidCatalogError(f"the catalog's text does not read back: {exc}") from exc
        if back != cat:
            raise InvalidCatalogError("the catalog's text reads back as another catalog")
    return text


def read_catalog(text: str) -> Catalog:
    """The catalog of ``text``, which must be exactly as ``render_catalog``
    writes it, blank lines aside.

    After the header, every line but the last is a row and the last is the
    totals line, ``# total_topologies=T total_t0=U`` with single spaces.  A
    row has a point count equal to the first row's, equal transitive and
    equivalence flags (a reflexive symmetric relation is an equivalence
    exactly when it is transitive), and codes with no bit beyond the cells
    of its points; its relation code is above the previous row's.  The
    totals are the sums of the labelled and T0 columns.  Anything else
    raises ``SpecSyntaxError`` naming the line; a missing totals line is
    named as the line after the last.  The rows' relations are not checked
    to be closures: ``tests/reference.py``'s ``check_catalog`` does that.
    """
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1] != _HEADER:
        lineno, ln = lines[0] if lines else (1, "")
        raise SpecSyntaxError(f"bad catalog header at line {lineno}: {ln!r}")
    last_line, last = lines[-1]
    totals = _TOTALS_RE.fullmatch(last)
    records = []
    append = records.append
    n, n_text, cells = 0, None, 0  # a catalog with no rows has 0 points
    previous = -1
    labs = t0s = 0
    for lineno, ln in lines[1:-1] if totals else lines[1:]:
        m = _ROW_RE.fullmatch(ln)
        try:
            if m is None:
                raise ValueError("not seven fields as render_catalog writes them")
            n_s, rel, lab, t0c, trans, equiv, example = m.groups()
            if n_s != n_text:  # both as str(int) writes them
                if records:
                    raise ValueError("a point count unlike the first row's")
                n, n_text = int(n_s), n_s
                cells = n * (n - 1) // 2
            if trans != equiv:
                raise ValueError("a reflexive symmetric relation is an equivalence exactly when it is transitive")
            code = int(rel, 16)
            # a bit length, not 1 << cells: a catalog row may claim any number of points
            if code.bit_length() > cells or int(example, 16).bit_length() > 2 * cells:
                raise ValueError("a code with bits beyond the cells of its points")
            if code <= previous:
                raise ValueError("a relation code not above the previous row's")
            previous = code
            lab, t0c, flag = int(lab), int(t0c), trans == "true"
            labs += lab
            t0s += t0c
            append(_new(CatalogRecord, (n, rel, lab, t0c, flag, flag, example)))
        except ValueError as exc:
            raise SpecSyntaxError(f"bad catalog line {lineno}: {ln!r}") from exc
    if totals is None:
        raise SpecSyntaxError(f"bad catalog line {last_line + 1}: no totals line after the last row")
    if (int(totals[1]), int(totals[2])) != (labs, t0s):
        raise SpecSyntaxError(f"bad catalog line {last_line}: {last!r}") from ValueError(
            f"totals {totals[1]} and {totals[2]}, but the columns sum to {labs} and {t0s}"
        )
    return _trust(Catalog(n, tuple(records), labs, t0s))
