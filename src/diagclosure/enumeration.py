"""Exhaustive enumeration of topologies on n labeled points, via preorders.

Finite topologies correspond one-to-one to preorders, so the enumerator
walks reflexive transitive bit matrices.  There is one production
enumerator: a depth-first assignment of rows with incremental transitivity
pruning, delivering matrices in ascending row-major bit order.  Counting
and catalogs both run on it; the closure of each leaf comes from
``finite_topology.closure_rows``.  Two references back it in the tests: a
brute-force scan over all set families (tiny n), and a point-by-point
extension enumeration.

A catalog counts the labelled topologies per closure relation, optionally
split over worker processes at the first matrix row (at most one process
per branch and per CPU).  The catalog up to isomorphism is a fold of the
finished labelled counts: each orbit under point permutations is
canonicalised once and its members are merged under the orbit minimum.
Every record keeps as its example the preorder delivered first.

Relation codes render the strict upper triangle as lowercase hex: pairs
(i, j) with i < j in lexicographic order, first pair in the least
significant bit.  Preorder codes do the same with the off-diagonal cells
in row-major order.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import permutations, repeat
from typing import Callable, Iterator

from .errors import BoundExceededError, InvalidSizeError, SpecSyntaxError
from .finite_topology import Preorder, closure_rows
from .relations import FiniteRelation

__all__ = [
    "Catalog",
    "CatalogRecord",
    "brute_force_topology_count",
    "build_catalog",
    "canonical_code",
    "closure_of_preorder",
    "count_preorders_by_extension",
    "decode_preorder",
    "decode_relation",
    "enumerate_preorders",
    "preorder_code",
    "read_catalog",
    "relation_code",
    "render_catalog",
]

SOFT_LIMIT = 7

_candidates_cache: dict[int, list[tuple[int, ...]]] = {}


def _row_candidates(n: int) -> list[tuple[int, ...]]:
    """Per-row candidate up-set masks, sorted by column-order bit string."""
    if n < 0:
        raise InvalidSizeError(f"number of points must be >= 0, got {n}")
    cached = _candidates_cache.get(n)
    if cached is not None:
        return cached
    out = []
    for i in range(n):
        masks = [m for m in range(1 << n) if m >> i & 1]
        masks.sort(key=lambda m: tuple(m >> j & 1 for j in range(n)))
        out.append(tuple(masks))
    _candidates_cache[n] = out
    return out


def _iter_rows(n: int, first_row: int | None = None) -> Iterator[tuple[int, ...]]:
    """All preorder row tuples on n points, ascending row-major bit order."""
    if n == 0:
        yield ()
        return
    candidates = _row_candidates(n)
    rows: list[int] = []

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(rows)
            return
        cands = (first_row,) if i == 0 and first_row is not None else candidates[i]
        for m in cands:
            ok = True
            for j in range(i):
                rj = rows[j]
                if (m >> j & 1 and rj & ~m) or (rj >> i & 1 and m & ~rj):
                    ok = False
                    break
            if ok:
                rows.append(m)
                yield from rec(i + 1)
                rows.pop()

    yield from rec(0)


def enumerate_preorders(n: int, consumer: Callable[[Preorder], None] | None = None) -> int:
    """Deliver every preorder on n points exactly once; returns the count.

    Delivery order is deterministic: ascending lexicographic on the
    row-major matrix bits.  n above the soft limit only warns.
    """
    if n > SOFT_LIMIT:
        warnings.warn(f"enumerating preorders on {n} points may take extremely long", stacklevel=2)
    count = 0
    for rows in _iter_rows(n):
        if consumer is not None:
            consumer(Preorder(n, rows, validate=False))
        count += 1
    return count


def _iter_by_extension(n: int) -> Iterator[tuple[int, ...]]:
    # Independent strategy: grow preorders one point at a time.  The new
    # point's relations are a down-set d (who lies below it) and an up-set u
    # (who lies above it) of the old preorder with d x u inside it.
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
    count = 0
    for _ in _iter_by_extension(n):
        count += 1
    return count


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


def _preorder_bits(rows, n: int) -> int:
    # Row i contributes its n-1 off-diagonal cells: the bits below i, then
    # the bits above i shifted down by one.
    code = 0
    for i, ri in enumerate(rows):
        code |= ((ri & ((1 << i) - 1)) | (ri >> (i + 1) << i)) << (i * (n - 1))
    return code


def _orbit(rows, n: int) -> Iterator[int]:
    """Relation bits of every relabelling of the relation ``rows``."""
    points = [[k for k in range(n) if r >> k & 1] for r in rows]
    for sigma in permutations(range(n)):
        bit = [0] * n
        for j, s in enumerate(sigma):
            bit[s] = 1 << j  # old point s becomes point j
        yield _relation_bits([sum([bit[k] for k in points[s]]) for s in sigma], n)


def relation_code(r: FiniteRelation) -> str:
    """Hex code of the upper triangle (no canonicalisation)."""
    return format(_relation_bits(r.rows, r.n), "x")


def canonical_code(r: FiniteRelation) -> str:
    """Minimum relation code over all point permutations."""
    return format(min(_orbit(r.rows, r.n)), "x")


def decode_relation(code: str, n: int) -> FiniteRelation:
    """Invert the relation encoding (no permutation); diagonal included."""
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


def preorder_code(p: Preorder) -> str:
    """Hex code of the off-diagonal cells in row-major order, LSB first."""
    return format(_preorder_bits(p.rows, p.n), "x")


def decode_preorder(code: str, n: int) -> Preorder:
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


def _accumulate(n: int, t0_only: bool, first_row: int | None):
    """Counts ``{closure bits: [labelled, t0, first example's bits]}`` and totals."""
    counts: dict[int, list] = {}
    totals = [0, 0]
    for rows in _iter_rows(n, first_row):
        t0 = len(set(rows)) == n
        if t0_only and not t0:
            continue
        totals[0] += 1
        totals[1] += t0
        code = _relation_bits(closure_rows(rows), n)
        entry = counts.get(code)
        if entry is None:
            counts[code] = [1, int(t0), _preorder_bits(rows, n)]
        else:
            entry[0] += 1
            entry[1] += t0
    return counts, totals


def _merge(into: dict[int, list], code: int, entry: list, n: int) -> None:
    """Add one entry's counts under ``code``; the example delivered first is kept.

    Delivery order reads the off-diagonal cells row-major with the first cell
    most significant, which is the preorder bits reversed.
    """
    have = into.get(code)
    if have is None:
        into[code] = list(entry)
        return
    have[0] += entry[0]
    have[1] += entry[1]
    width = f"0{n * (n - 1)}b"
    if format(entry[2], width)[::-1] < format(have[2], width)[::-1]:
        have[2] = entry[2]


def _fold_orbits(counts: dict[int, list], n: int) -> dict[int, list]:
    """Merge labelled counts by orbit under point permutations.

    Each orbit is canonicalised once, and its members are its permutation
    images (relabelling a topology gives a topology, so all are present).
    """
    canon_of: dict[int, int] = {}
    folded: dict[int, list] = {}
    for code, entry in counts.items():
        canon = canon_of.get(code)
        if canon is None:
            rel = decode_relation(format(code, "x"), n)
            canon = int(canonical_code(rel), 16)
            canon_of.update(dict.fromkeys(_orbit(rel.rows, n), canon))
        _merge(folded, canon, entry, n)
    return folded


def build_catalog(n: int, t0_only: bool = False, up_to_iso: bool = False, workers: int = 1) -> Catalog:
    """One record per distinct closure relation over all topologies on n points.

    ``workers > 1`` splits the search at the first matrix row over at most
    ``os.cpu_count()`` processes and merges the partial counts; the result
    is identical for any worker count.  ``up_to_iso`` folds the finished
    labelled counts by orbit.
    """
    branches = _row_candidates(n)[0] if n else ()
    workers = min(workers, len(branches), os.cpu_count() or 1)
    if workers <= 1:
        counts, totals = _accumulate(n, t0_only, None)
    else:
        counts = {}
        totals = [0, 0]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part_counts, part_totals in pool.map(_accumulate, repeat(n), repeat(t0_only), branches):
                totals[0] += part_totals[0]
                totals[1] += part_totals[1]
                for code, entry in part_counts.items():
                    _merge(counts, code, entry, n)
    if up_to_iso:
        counts = _fold_orbits(counts, n)
    records = []
    for code in sorted(counts):
        lab, t0c, example = counts[code]
        rel = decode_relation(format(code, "x"), n)
        transitive = rel.is_transitive()
        records.append(
            CatalogRecord(
                n=n,
                relation_code=format(code, "x"),
                labeled_topology_count=lab,
                t0_topology_count=t0c,
                transitive=transitive,
                equivalence=transitive,  # reflexive and symmetric by encoding
                example_preorder_code=format(example, "x"),
            )
        )
    return Catalog(n, tuple(records), totals[0], totals[1])


_HEADER = "n\trelation\tlabeled\tt0\ttransitive\tequivalence\texample"


def _flag(v: bool) -> str:
    return "true" if v else "false"


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
        raise ValueError("bad catalog header")
    records = []
    totals = (0, 0)
    for lineno, ln in lines[1:]:
        try:
            if ln.startswith("#"):
                parts = dict(item.split("=", 1) for item in ln[1:].split())
                totals = (int(parts["total_topologies"]), int(parts["total_t0"]))
                continue
            n_s, rel, lab, t0c, trans, equiv, example = ln.split("\t")
            records.append(
                CatalogRecord(int(n_s), rel, int(lab), int(t0c), trans == "true", equiv == "true", example)
            )
        except (ValueError, KeyError) as exc:
            raise SpecSyntaxError(f"bad catalog line {lineno}: {ln!r}") from exc
    n = records[0].n if records else 0
    return Catalog(n, tuple(records), totals[0], totals[1])
