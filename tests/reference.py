"""Reference enumerations the tests check the production code against.

``brute_force_topology_count`` scans every family of subsets for the
topologies among them (n <= 3).  ``count_preorders_by_extension`` grows
preorders one point at a time, a strategy independent of the row-by-row
DFS.  ``preorders_by_filter`` keeps the transitive tuples among all tuples
of reflexive rows, with no pruning.  ``bounded_walk`` is the DFS with each
row cut to an upper bound, the leaf walk that ``_count_below``'s recursion
replaced; ``count_below_by_walk`` counts the preorders it delivers, and the
posets among them, as the oracle for that recursion.
``decode_relation_by_cells`` and ``decode_preorder_by_cells`` read a code
one cell at a time, apart from the encoders' layouts that the decoders
invert.
``relabelled_codes`` permutes the points of a relation one permutation at
a time, and ``first_delivered_relabelling`` tries every permutation of a
preorder's points: the oracles for the ordered searches behind
``canonical_code`` and the iso catalog's examples.
``canonical_code_by_twins`` and ``delivery_least_by_twins`` run
``least_order_by_twins``, the search that fixed one point per step and cut
only twins, which ``_least_order``'s cells replaced; ``types_by_permutations``
applies every permutation of equal-size blocks (``block_orbit``), the rule
that ``_types``' orbits by exchanges replaced.
``build_catalog`` walks closure structures, or their types, and never
visits most preorders; ``reference_catalogs`` visits every preorder the DFS
delivers, takes its closure, keeps the first example met and folds the
codes by ``relabelled_codes``, so it checks the counting argument, the T0
rule, the example rule and the types independently.
``unchecked_catalog_text`` writes any catalog in the layout of
``render_catalog``, with none of its refusals.
``parse_point_by_regex`` reads a point address by the grammar's regular
expression and ``read_natural``, the rule ``parse_point`` replaced; the
tests compare it with the one-pass reader, a single ``split`` with a digit
test and ``int()`` per index, and its refusal function, on fixed edge texts
and on drawn texts that mix Unicode whitespace and digits.
``sample_point`` and ``sample_pair`` re-derive every limit from the spec on
each draw and draw through ``randint``; the verify harness's samplers, built
once per run, must take the same draws and return the same points.
``pair_open_member`` reads a pair-system open as a point set, with
``Fraction`` arithmetic and ``pair_encode`` only.
``basic_nbhd_by_old_rule`` builds a new open on every call, the rule the
interned canonical opens of ``constructions`` replaced.
``positive_rational_at_by_bits`` and ``positive_rational_index_by_steps``
walk the Calkin-Wilf tree one step per bit of the index, the rule the
run-length walks of ``symbolic_sets`` replaced.
``labelled_closure_count`` and ``iso_closure_count`` count the closures on
n points from their structure alone - blocks of top points, and for every
other point the set of at least two blocks it lies under - by a closed form
and by Burnside's lemma, with no preorder in sight.
``is_diagonal_closure`` decides from a relation alone whether it is cl(Δ) of
a topology: every edge lies in the closed neighbourhood of a simplicial
point.  ``closure_structures`` builds each closure from its structure and
gives its counts and greedy example; ``check_catalog`` checks a catalog's
rows against these facts, whatever built or read it.
"""

import re
from collections import Counter
from functools import lru_cache
from itertools import combinations, groupby, permutations, product
from math import comb, factorial, prod

from diagclosure.constructions import (
    Ball,
    BlockOpen,
    CofInBlock,
    ExtendPairs,
    ExtPt,
    SatPair,
    SingletonPt,
    T0Sat,
    TauR,
    _Reservoir,
)
from diagclosure.counting import _multisets, _partitions
from diagclosure.enumeration import (
    Catalog,
    CatalogRecord,
    _count_below,
    _extend,
    _iter_rows,
    _preorder_bits,
    _relabel,
    _relation_bits,
    _row_candidates,
    decode_preorder,
    decode_relation,
)
from diagclosure.errors import BoundExceededError, InvalidAddressError, read_natural
from diagclosure.finite_topology import Preorder, closure_rows
from diagclosure.relations import BlockClass, FiniteRelation, PointAddr
from diagclosure.symbolic_sets import _ball_excluding, _image, _image_ball, pair_encode


def brute_force_topology_count(n: int) -> int:
    """Count topologies by scanning every family of subsets (n <= 3)."""
    if n > 3:
        raise BoundExceededError(f"brute-force family scan is limited to n <= 3, got {n}")
    subsets = 1 << n
    full = subsets - 1
    count = 0
    for fam in range(1 << subsets):
        if not (fam >> 0 & 1 and fam >> full & 1):
            continue
        members = [s for s in range(subsets) if fam >> s & 1]
        ok = True
        for a in members:
            for b in members:
                if not (fam >> (a | b) & 1 and fam >> (a & b) & 1):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def _iter_by_extension(n: int):
    # The new point's relations are a down-set d (who lies below it) and an
    # up-set u (who lies above it) of the old preorder with d x u inside it.
    if n == 0:
        yield ()
        return
    old = n - 1
    for rows in _iter_by_extension(old):
        cols = [0] * old
        for i in range(old):
            ri = rows[i]
            for j in range(old):
                if ri >> j & 1:
                    cols[j] |= 1 << i
        downs = []
        ups = []
        for m in range(1 << old):
            down_ok = True
            up_ok = True
            t = m
            while t:
                low = t & -t
                b = low.bit_length() - 1
                if cols[b] & ~m:
                    down_ok = False
                if rows[b] & ~m:
                    up_ok = False
                if not down_ok and not up_ok:
                    break
                t ^= low
            if down_ok:
                downs.append(m)
            if up_ok:
                ups.append(m)
        full = (1 << old) - 1
        for d in downs:
            allowed = full
            t = d
            while t:
                low = t & -t
                allowed &= rows[low.bit_length() - 1]
                t ^= low
            for u in ups:
                if u & ~allowed:
                    continue
                yield tuple(rows[i] | ((d >> i & 1) << old) for i in range(old)) + (u | 1 << old,)


def count_preorders_by_extension(n: int) -> int:
    """Preorder count by the extension strategy; cross-check for the DFS."""
    return sum(1 for _ in _iter_by_extension(n))


def preorders_by_filter(n: int, bounds=None) -> list[tuple[int, ...]]:
    """Every transitive tuple of reflexive rows, row i inside ``bounds[i]``,
    ascending by the row-major bit string."""
    if bounds is None:
        bounds = [(1 << n) - 1] * n
    choices = [[m for m in range(1 << n) if m >> i & 1 and not m & ~b] for i, b in enumerate(bounds)]

    def transitive(rows):
        # i <= j and j <= k give i <= k
        return all(
            rows[i] >> k & 1
            for i in range(n)
            for j in range(n)
            if rows[i] >> j & 1
            for k in range(n)
            if rows[j] >> k & 1
        )

    found = [rows for rows in product(*choices) if transitive(rows)]
    return sorted(found, key=lambda rows: "".join(str(r >> j & 1) for r in rows for j in range(n)))


def bounded_walk(n: int, bounds):
    """The preorders whose row i lies inside ``bounds[i]``, in delivery
    order: the DFS with each row's candidates cut to its bound."""
    if n == 0:
        yield ()
        return
    candidates = [[c for c in cands if not c[0] & ~b] for cands, b in zip(_row_candidates(n), bounds)]
    yield from _extend([], candidates, 0, n - 1)


def count_below_by_walk(labels) -> tuple[int, int]:
    """How many preorders, and posets, have x <= y only where ``labels[x]``
    contains ``labels[y]``, by walking them; a poset has distinct rows."""
    bounds = [sum(1 << j for j, lj in enumerate(labels) if not lj & ~li) for li in labels]
    labelled = posets = 0
    for rows in bounded_walk(len(labels), bounds):
        labelled += 1
        posets += len(set(rows)) == len(rows)
    return labelled, posets


def relabelled_codes(code: int, n: int) -> list[int]:
    """Relation bits of every relabelling of the relation with bits ``code``,
    new point j being old point sigma[j], in ``permutations`` order.

    The pairs (a, b) with a < b hold the bits in lexicographic order, first
    pair least significant.
    """
    bit = {pair: 1 << t for t, pair in enumerate(combinations(range(n), 2))}
    pairs = [pair for pair, b in bit.items() if code & b]
    out = []
    for sigma in permutations(range(n)):
        new = [0] * n
        for j, s in enumerate(sigma):
            new[s] = j
        out.append(sum([bit[min(new[a], new[b]), max(new[a], new[b])] for a, b in pairs]))
    return out


def decode_relation_by_cells(code: str, n: int) -> FiniteRelation:
    """The relation of a code, read cell by cell: the pairs (i, j) with
    i < j in lexicographic order, first pair least significant."""
    bits = int(code, 16)
    rows = [1 << i for i in range(n)]
    t = 0
    for i in range(n):
        for j in range(i + 1, n):
            if bits >> t & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            t += 1
    return FiniteRelation(n, rows)


def decode_preorder_by_cells(code: str, n: int) -> Preorder:
    """The preorder of a code, read cell by cell: the off-diagonal cells
    in row-major order, first cell least significant."""
    bits = int(code, 16)
    rows = [1 << i for i in range(n)]
    t = 0
    for i in range(n):
        for j in range(n):
            if i != j:
                if bits >> t & 1:
                    rows[i] |= 1 << j
                t += 1
    return Preorder(n, rows)


def first_delivered_relabelling(rows) -> int:
    """The preorder bits of the relabelling of the preorder ``rows`` that the
    DFS delivers first, by trying every permutation: delivery compares the
    off-diagonal cells row by row, first cell first, 0 before 1."""
    n = len(rows)
    best = None
    for sigma in permutations(range(n)):
        relabelled = [sum(1 << j for j, y in enumerate(sigma) if rows[x] >> y & 1) for x in sigma]
        cells = [r >> j & 1 for i, r in enumerate(relabelled) for j in range(n) if j != i]
        if best is None or cells < best[0]:
            best = cells, relabelled
    return _preorder_bits(best[1], n)


def canonical_code_by_twins(r: FiniteRelation) -> str:
    """``canonical_code`` by ``least_order_by_twins``: each new point's key is
    its bits against the placed points, first placed most significant."""
    rows = [1 << i | ri >> i + 1 << i + 1 for i, ri in enumerate(r.rows)]
    for i, ri in enumerate(rows):
        for j in range(i + 1, r.n):
            rows[j] |= (ri >> j & 1) << i

    def key(order, groups, p):
        return sum([1 << j for j, x in enumerate(reversed(order)) if rows[p] >> x & 1])

    return format(_relation_bits(_relabel(rows, least_order_by_twins(rows, key)[::-1]), r.n), "x")


def delivery_least_by_twins(rows) -> int:
    """``_delivery_least`` by ``least_order_by_twins``: row i is fixed once
    position i takes a point p, its bits against the placed points, then,
    group by group, the group's points outside p's up-set before those
    inside it."""

    def key(order, groups, p):
        row = 0
        for x in order:
            row = row << 1 | rows[p] >> x & 1
        for group in groups:
            inside = sum([rows[p] >> x & 1 for x in group if x != p])
            row = row << (len(group) - (p in group)) | (1 << inside) - 1
        return row

    return _preorder_bits(_relabel(rows, least_order_by_twins(rows, key)), len(rows))


def least_order_by_twins(rows, key) -> tuple[int, ...]:
    """An order of the points of ``rows`` whose keys are least, step by step,
    one point at a time: the search that ``_least_order``'s cells replaced.

    The unplaced points fall into groups of equal signature: their bits in
    the rows of the placed points, first placed most significant, 0 first.
    Each step extends every order that ties the best so far by each point p
    of its first group and keeps the extensions with the least
    ``key(order, groups, p)``; placing p splits every group into the points
    outside p's row and those inside it.  Two points that a transposition
    swaps without changing ``rows`` (twins) give the same keys from then on,
    so one point per twin class is tried.
    """
    twin = twin_classes(rows)
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


def twin_classes(rows) -> list[int]:
    """``twin[p]``: the least point q whose exchange with p keeps ``rows``."""
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


def block_orbit(sizes, ms) -> set[tuple[int, ...]]:
    """The sorted M values ``ms`` under every permutation of equal-size blocks."""
    runs = [tuple(same) for _, same in groupby(range(len(sizes)), key=sizes.__getitem__)]
    perms = [sum(g, ()) for g in product(*map(permutations, runs))]
    return {tuple(sorted([sum(1 << g[i] for i in range(len(sizes)) if m >> i & 1) for m in ms])) for g in perms}


def automorphism_count(rows) -> int:
    """The permutations g of the points with row g(x) the image of row x, by trying all."""
    n = len(rows)
    return sum(all(rows[g[x]] == sum(1 << g[y] for y in range(n) if r >> y & 1) for x, r in enumerate(rows))
               for g in permutations(range(n)))


def types_by_permutations(n: int):
    """``_types`` by applying every permutation of equal-size blocks to the
    first multiset of each orbit: ``(structures, block sizes, M values)``."""
    for k in range(n + 1):
        for sizes in _partitions(k):
            runs = [len(list(same)) for _, same in groupby(sizes)]
            ways = comb(n, k) * factorial(k) // prod([factorial(s) for s in sizes] + [factorial(r) for r in runs])
            seen: set[tuple[int, ...]] = set()
            for w, ms in _multisets([m for m in range(1 << len(sizes)) if m & (m - 1)], n - k):
                if ms not in seen:
                    orbit = block_orbit(sizes, ms)
                    seen |= orbit
                    yield ways * w * len(orbit), sizes, ms


def accumulate(n: int, t0_only: bool):
    """Counts ``{closure bits: [labelled, t0, first example's bits, transitive]}``.

    The transitive flag is read off each distinct closure by
    ``FiniteRelation.is_transitive``, not from the structure.
    """
    counts: dict[int, list] = {}
    for rows in _iter_rows(n):
        t0 = len(set(rows)) == n
        if t0_only and not t0:
            continue
        closure = closure_rows(rows)
        code = _relation_bits(closure, n)
        entry = counts.get(code)
        if entry is None:
            counts[code] = [1, int(t0), _preorder_bits(rows, n), FiniteRelation(n, closure).is_transitive()]
        else:
            entry[0] += 1
            entry[1] += t0
    return counts


def catalog_of(n: int, counts) -> Catalog:
    """The catalog of ``{closure bits: (labelled, t0, example bits, transitive)}``,
    with the column sums for totals."""
    records = tuple(
        CatalogRecord(n, format(code, "x"), lab, t0, tr, tr, format(example, "x"))
        for code, (lab, t0, example, tr) in sorted(counts.items())
    )
    return Catalog(n, records, sum(r.labeled_topology_count for r in records), sum(r.t0_topology_count for r in records))


def unchecked_catalog_text(cat) -> str:
    """The text of ``cat`` as ``render_catalog`` lays it out, written with no
    check: the rows in the records' order, each flag as its own field, and
    the totals as given."""
    rows = [
        "\t".join([str(rn), rel, str(lab), str(t0c), "true" if tr else "false", "true" if eq else "false", ex])
        for rn, rel, lab, t0c, tr, eq, ex in cat.records
    ]
    header = "n\trelation\tlabeled\tt0\ttransitive\tequivalence\texample"
    return "\n".join([header, *rows, f"# total_topologies={cat.total_topologies} total_t0={cat.total_t0}"]) + "\n"


def reference_catalogs(n: int, t0_only: bool):
    """The labelled catalog and the catalog up to isomorphism, from one walk.

    Codes enter ``accumulate``'s counts in the order the walk first meets
    them, so the first member of an orbit met here keeps the orbit's first
    example.
    """
    counts = accumulate(n, t0_only)
    canon: dict[int, int] = {}
    folded: dict[int, list] = {}
    for code, (labelled, t0, example, transitive) in counts.items():
        if code not in canon:
            orbit = relabelled_codes(code, n)
            canon.update(dict.fromkeys(orbit, min(orbit)))
        entry = folded.setdefault(canon[code], [0, 0, example, transitive])
        entry[0] += labelled
        entry[1] += t0
    return catalog_of(n, counts), catalog_of(n, folded)


_POINT_RE = re.compile(r"^([sfi]):([0-9]+)(?::([0-9]+))?$")
_PREFIX_CLASS = {"s": BlockClass.SINGLETON, "f": BlockClass.FINITE, "i": BlockClass.INFINITE}


def parse_point_by_regex(text: str) -> PointAddr:
    """``s:<i>``, ``f:<j>:<k>`` or ``i:<j>:<k>`` after ``strip``, matched whole by
    a regular expression, each index then read by ``read_natural``."""
    m = _POINT_RE.match(text.strip())
    if m is None:
        raise InvalidAddressError(f"bad point address: {text!r}")
    prefix, block, elem = m.groups()
    cls = _PREFIX_CLASS[prefix]
    if cls is BlockClass.SINGLETON:
        if elem is not None:
            raise InvalidAddressError(f"singleton addresses take one index: {text!r}")
        return PointAddr(cls, read_natural(block, "point address"), 0)
    if elem is None:
        raise InvalidAddressError(f"{prefix}-addresses take two indices: {text!r}")
    return PointAddr(cls, read_natural(block, "point address"), read_natural(elem, "point address"))


def sample_point(tag, spec, rng, bounds, block=None, not_elem=None):
    """One point of address class ``tag`` ("s", "f" or "i") within ``bounds``."""
    block_bound, elem_bound = bounds
    if tag == "s":
        hi = block_bound if spec.singletons.is_omega else min(block_bound, spec.singletons.finite() - 1)
        return PointAddr(BlockClass.SINGLETON, rng.randint(0, hi), 0)
    if tag == "f":
        if block is None:
            hi = block_bound if spec.fin.cyclic else min(block_bound, len(spec.fin.sizes) - 1)
            block = rng.randint(0, hi)
        size = spec.fin.size_of(block)
        while True:
            e = rng.randint(0, min(elem_bound, size - 1))
            if e != not_elem:
                return PointAddr(BlockClass.FINITE, block, e)
    if block is None:
        hi = block_bound if spec.inf.is_omega else min(block_bound, spec.inf.finite() - 1)
        block = rng.randint(0, hi)
    while True:
        e = rng.randint(0, elem_bound)
        if e != not_elem:
            return PointAddr(BlockClass.INFINITE, block, e)


def sample_pair(stratum, spec, rng, bounds):
    """Two distinct points of one stratum, as the verify harness must draw them."""
    if len(stratum) == 3:
        tag, _, mode = stratum
        p = sample_point(tag, spec, rng, bounds)
        if mode == "same":
            q = sample_point(tag, spec, rng, bounds, block=p.block, not_elem=p.elem)
        else:
            while True:
                q = sample_point(tag, spec, rng, bounds)
                if q.block != p.block:
                    break
        return p, q
    t1, t2 = stratum
    p = sample_point(t1, spec, rng, bounds)
    while True:
        q = sample_point(t2, spec, rng, bounds)
        if q != p:
            return p, q


_pair_of = lru_cache(maxsize=1 << 16)(pair_encode)  # windows revisit the same blocks


def pair_open_member(o, p) -> bool:
    """Whether a pair-system open (``Ball`` or ``ExtPt``) holds the finite-block
    point p.  An ``ExtPt`` holds its anchor.  Either open holds each point
    with elem <= 1 whose pair image (x, q) lies in the open interval, is not
    excluded at its level, and is not the ``ExtPt`` anchor's (block, 0)."""
    assert p.cls is BlockClass.FINITE
    anchor = (o.block, o.elem) if isinstance(o, ExtPt) else None
    if (p.block, p.elem) == anchor:
        return True
    if p.elem > 1 or (anchor is not None and (p.block, p.elem) == (anchor[0], 0)):
        return False
    x, q = _pair_of(p.block)
    b = o.ball
    return x == b.x_index and abs(q - b.center) < b.radius and (q, p.elem) not in b.excluded


def basic_nbhd_by_old_rule(c, p, avoid=None):
    """``c.basic_nbhd(p, avoid)`` on the nine kinds, built anew on every call
    from the open classes, the ball of the pair system through the uncached
    ``_image``: the rule before the canonical opens were interned.  An
    exclusion is added exactly when the canonical open would hold ``avoid``."""
    S, F = BlockClass.SINGLETON, BlockClass.FINITE
    if isinstance(c, T0Sat):
        return SatPair(p)
    if isinstance(c, TauR):
        return BlockOpen(p.block_ref)
    other = isinstance(avoid, PointAddr) and avoid != p
    if isinstance(c, ExtendPairs) and p.cls is F:
        ball = _image_ball(_image(p.block))
        wrap = Ball if p.elem <= 1 else lambda b: ExtPt(p.block, p.elem, b)
        if other and avoid.cls is F and pair_open_member(wrap(ball), avoid):
            ball = _ball_excluding(ball, _image(avoid.block), avoid.elem)
        return wrap(ball)
    if isinstance(c, _Reservoir) and p.cls is F:
        excl = frozenset()
        if other and avoid.cls is c._pool_cls and avoid.block % c.modulus == c.block_residues[p.block]:
            excl = frozenset((avoid if avoid.cls is S else avoid.block,))
        return c._open(p.block, p.elem, excl)
    if p.cls is S:
        return SingletonPt(p)
    excl = frozenset()
    if other and (avoid.cls, avoid.block) == (p.cls, p.block):
        excl = frozenset((avoid,))
    return CofInBlock(p.block_ref, excl)


@lru_cache(maxsize=None)
def positive_rational_at_by_bits(k: int) -> tuple[int, int]:
    """Node k+1 of the Calkin-Wilf tree, read off one bit of k+1 at a time."""
    v = k + 1
    a, b = 1, 1
    for shift in range(v.bit_length() - 2, -1, -1):
        if v >> shift & 1:
            a = a + b
        else:
            b = a + b
    return a, b


def positive_rational_index_by_steps(q) -> int:
    """The index of a positive rational, one subtraction per tree step."""
    a, b = q.numerator, q.denominator
    bits = []
    while (a, b) != (1, 1):
        if a > b:
            bits.append(1)
            a -= b
        else:
            bits.append(0)
            b -= a
    v = 1
    for bit in reversed(bits):
        v = v << 1 | bit
    return v - 1


def stirling2(n: int, k: int) -> int:
    """The number of partitions of n points into k non-empty blocks."""
    if n == 0 or k == 0:
        return int(n == k)
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def bell(n: int) -> int:
    """The number of partitions of n points: the equivalences, the transitive closures."""
    return sum(stirling2(n, k) for k in range(n + 1))


def labelled_closure_count(n: int) -> int:
    """L(n) = sum over s, c of C(n,s) S(s,c) (2^c - c - 1)^(n-s): the closures on n
    labelled points.  s top points split into c blocks; each of the other n - s
    points lies under a set M of at least two blocks, one of 2^c - c - 1."""
    return sum(comb(n, s) * stirling2(s, c) * (2**c - c - 1) ** (n - s) for s in range(n + 1) for c in range(s + 1))


def _integer_partitions(k: int, most: int):
    if not k:
        yield ()
    for first in range(min(k, most), 0, -1):
        for rest in _integer_partitions(k - first, first):
            yield (first,) + rest


def _cycle_types(k: int):
    """Each cycle type of the permutations of k items, with how many have it."""
    for parts in _integer_partitions(k, k):
        yield parts, factorial(k) // prod(j**a * factorial(a) for j, a in Counter(parts).items())


def iso_closure_count(n: int) -> tuple[int, int]:
    """(closures on n points up to relabelling, those that are not transitive).

    Up to relabelling, a closure is its block sizes and a multiset of n - s
    M values, up to permuting blocks of equal size.  By Burnside's lemma the
    orbits of each size list are the mean, over those permutations g, of the
    multisets that g fixes: constant on each cycle of g on the M values, so
    counted by the coefficient of t^(n-s) in the product of 1/(1 - t^len)
    over those cycles.  One permutation stands for each cycle type.  The
    transitive closures are those with no M value (s = n).
    """
    total = transitive = 0
    for s in range(n + 1):
        m = n - s
        for sizes in _integer_partitions(s, s):
            c = len(sizes)
            values = [v for v in range(1 << c) if bin(v).count("1") >= 2]
            runs = list(Counter(sizes).values())  # sizes descend, so equal sizes are adjacent
            fixed = 0
            for types in product(*map(_cycle_types, runs)):
                g, start = [], 0
                for parts, _ in types:
                    for j in parts:
                        g += [start + (i + 1) % j for i in range(j)]
                        start += j
                ways = [1] + [0] * m  # multisets of each size, constant on the cycles seen so far
                left = set(values)
                while left:
                    v, length = left.pop(), 1
                    w = sum(1 << g[i] for i in range(c) if v >> i & 1)
                    while w != v:
                        left.remove(w)
                        length += 1
                        w = sum(1 << g[i] for i in range(c) if w >> i & 1)
                    for t in range(length, m + 1):
                        ways[t] += ways[t - length]
                fixed += prod(count for _, count in types) * ways[m]
            orbits = fixed // prod(map(factorial, runs))
            total += orbits
            transitive += orbits if m == 0 else 0
    return total, total - transitive


def is_diagonal_closure(rows) -> bool:
    """Whether the reflexive symmetric relation ``rows`` is cl(Δ) of some
    topology: every edge lies in the closed neighbourhood of a simplicial
    point, a point whose closed neighbourhood is a clique."""
    n = len(rows)
    covered = [0] * n  # covered[x]: the points in a simplicial closed neighbourhood with x
    for r in rows:
        if all(rows[y] & r == r for y in range(n) if r >> y & 1):
            for x in range(n):
                if r >> x & 1:
                    covered[x] |= r
    return all(not r & ~c for r, c in zip(rows, covered))


def _set_partitions(points: list[int]):
    """Every partition of ``points`` into blocks, each a list."""
    if not points:
        yield []
        return
    first = points[0]
    for part in _set_partitions(points[1:]):
        yield [[first], *part]
        for i in range(len(part)):
            yield [*part[:i], [first, *part[i]], *part[i + 1:]]


def _subsets(block: list[int]):
    """The non-empty subsets of ``block``."""
    return [[x for i, x in enumerate(block) if k >> i & 1] for k in range(1, 1 << len(block))]


def closure_structures(n: int) -> dict[int, tuple[int, int, int, bool]]:
    """``{closure bits: (labelled, t0, example bits, transitive)}`` over the
    closure structures on n points.

    A structure is a set S of simplicial points split into blocks, and a set
    M(x) of at least two blocks for every other point x: two points of S are
    related iff they share a block, a point of block q and x iff q is in
    M(x), and two other points iff their M values meet.  Its topologies pick
    a non-empty top class inside each block; the block's other points lie
    under that class alone, so with the M values they are the labels of the
    points below the tops, and the preorders on those are counted by
    ``_count_below``.  A topology is T0 when every top class is one point.
    The example takes one top per block, its least point, or its greatest
    when some point outside S below the least point lies under the block.
    """
    memo: dict = {}
    out = {}
    for s in range(1 << n):
        simplicial = [x for x in range(n) if s >> x & 1]
        rest = [x for x in range(n) if not s >> x & 1]
        for blocks in _set_partitions(simplicial):
            values = [m for m in range(1 << len(blocks)) if bin(m).count("1") >= 2]
            for ms in product(values, repeat=len(rest)):
                label = {x: 1 << q for q, block in enumerate(blocks) for x in block}
                label.update(zip(rest, ms))
                # the labels of different blocks are different bits, so they never meet
                rows = [sum(1 << y for y in range(n) if label[x] & label[y]) for x in range(n)]
                labelled = t0 = 0
                for tops in product(*map(_subsets, blocks)):
                    below = [label[x] for x in range(n) if not any(x in top for top in tops)]
                    lab, posets = _count_below(tuple(sorted(below)), memo)
                    labelled += lab
                    t0 += posets if all(len(top) == 1 for top in tops) else 0
                top = {}
                for q, block in enumerate(blocks):
                    pulled = any(x < min(block) and m >> q & 1 for x, m in zip(rest, ms))
                    top[q] = max(block) if pulled else min(block)
                example = [1 << x for x in range(n)]
                for q, block in enumerate(blocks):
                    for x in block:
                        example[x] |= 1 << top[q]
                for x, m in zip(rest, ms):
                    example[x] |= sum(1 << top[q] for q in range(len(blocks)) if m >> q & 1)
                code = _relation_bits(rows, n)
                assert code not in out, "two structures with one closure"
                out[code] = (labelled, t0, _preorder_bits(example, n), not rest)
    return out


def check_catalog(cat, up_to_iso: bool = False) -> None:
    """Raise ``AssertionError``, naming the row, unless every row of ``cat``
    could have come from ``build_catalog``.

    Each relation passes ``is_diagonal_closure``; its flags are those of the
    relation; its example decodes to a preorder whose closure is the relation
    (a relabelling of it, if ``up_to_iso``, where each code is the least of
    its relabellings); the rows are sorted and unique; 1 <= t0 <= labelled,
    since every closure has a T0 topology; the totals are the column sums.
    """
    n = cat.n
    codes = [int(r.relation_code, 16) for r in cat.records]
    _require(codes == sorted(set(codes)), "rows not sorted by relation code and unique")
    for rec, code in zip(cat.records, codes):
        where = f"row {rec.relation_code}"
        rel = decode_relation(rec.relation_code, n)
        _require(is_diagonal_closure(rel.rows), f"{where}: not the closure of any topology")
        _require(rec.transitive == rel.is_transitive() == rec.equivalence, f"{where}: flags unlike the relation")
        _require(1 <= rec.t0_topology_count <= rec.labeled_topology_count, f"{where}: counts out of order")
        try:
            example = decode_preorder(rec.example_preorder_code, n)
        except ValueError as exc:
            raise AssertionError(f"{where}: example is no preorder") from exc
        relabellings = relabelled_codes(code, n) if up_to_iso else [code]
        _require(code == min(relabellings), f"{where}: not the least relabelling")
        _require(_relation_bits(closure_rows(example.rows), n) in relabellings, f"{where}: example's closure is another relation")
    _require(cat.total_topologies == sum(r.labeled_topology_count for r in cat.records), "total_topologies")
    _require(cat.total_t0 == sum(r.t0_topology_count for r in cat.records), "total_t0")


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)
