"""Exhaustive enumeration of topologies on n labeled points, via preorders.

Finite topologies correspond one-to-one to preorders.  There is one
enumerator of preorders: a depth-first assignment of rows (row i is the
up-set of point i, as a bitmask), delivering matrices in ascending
row-major bit order, optionally with an upper bound on each row.  Each
candidate row m for point i passes two mask tests against the rows already
placed: m lies inside their intersection over the earlier rows that
contain i (computed once per node), and every earlier row j that m
contains lies inside m.  Together they make the finished matrix
transitive.  A brute-force scan over all set families backs it for tiny n.

A catalog counts the labelled topologies per closure relation without
visiting them one by one.  Call the points of the maximal classes of a
preorder its top set T, and for every other point x let M(x) be the set of
top classes above x.  The diagonal closure relates two points iff their
up-sets meet, so it depends only on the top classes and M: top points are
related iff they share a class, a top point of class C and a point x iff C
is in M(x), and two other points iff their M values meet.  The catalog
therefore sums over configurations (T, a partition of T into classes, M).
The preorders of one configuration are the preorders Q on the other points
with x <=_Q y only if M(x) contains M(y); the DFS counts them, with the
posets among them for the T0 column (T0 needs singleton top classes), and
the counts are memoised on the sorted M values, with transitivity: the
closure is transitive iff every M(x) is one class (a top point's M is its
own class).  If M(x) holds classes C != C', then c ~ x ~ c' for c in C and
c' in C' but not c ~ c'; otherwise the closure is "same M", an equivalence.
The configuration's flat preorder (Q the identity) is a subset of every
other preorder in it, so it comes first in delivery order and is the
configuration's example.  The catalog up to isomorphism is a fold of the
finished labelled counts: each orbit under point permutations is
canonicalised once and its members are merged under the orbit minimum.  A
relabelling moves relation bits, not rows: one table per permutation of n
points, built once per n, maps each upper-triangle cell to the bit it moves
to, and the image of a code is the sum of the table entries of its set
cells.  Every record keeps as its example the preorder delivered first.

Relation codes render the strict upper triangle as lowercase hex: pairs
(i, j) with i < j in lexicographic order, first pair in the least
significant bit.  Preorder codes do the same with the off-diagonal cells
in row-major order.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from itertools import permutations, product
from typing import Callable, Iterable, Iterator

from .errors import BoundExceededError, InvalidSizeError, SpecSyntaxError
from .finite_topology import Preorder, closure_rows
from .relations import FiniteRelation, all_partitions

__all__ = [
    "Catalog",
    "CatalogRecord",
    "brute_force_topology_count",
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

SOFT_LIMIT = 7

_candidates_cache: dict[int, list[tuple[tuple[int, tuple[int, ...]], ...]]] = {}
_tables_cache: dict[int, list[list[int]]] = {}


def _check_size(n: int) -> None:
    if n < 0:
        raise InvalidSizeError(f"number of points must be >= 0, got {n}")


def _row_candidates(n: int) -> list[tuple[tuple[int, tuple[int, ...]], ...]]:
    """Per-row candidate up-set masks, sorted by column-order bit string,
    each with its set bits below the row."""
    _check_size(n)
    cached = _candidates_cache.get(n)
    if cached is not None:
        return cached
    out = []
    for i in range(n):
        masks = [m for m in range(1 << n) if m >> i & 1]
        masks.sort(key=lambda m: tuple(m >> j & 1 for j in range(n)))
        out.append(tuple((m, tuple(j for j in range(i) if m >> j & 1)) for m in masks))
    _candidates_cache[n] = out
    return out


def _iter_rows(n: int, bounds=None) -> Iterator[tuple[int, ...]]:
    """All preorder row tuples on n points, ascending row-major bit order.

    With ``bounds``, only the preorders whose row i lies inside ``bounds[i]``.
    Row i = m fits the earlier rows iff m lies inside every earlier row that
    contains i, and every earlier row j in m lies inside m.
    """
    if n == 0:
        yield ()
        return
    candidates = _row_candidates(n)
    if bounds is not None:
        candidates = [[c for c in cands if not c[0] & ~b] for cands, b in zip(candidates, bounds)]
    rows: list[int] = []
    last = n - 1

    def fitting(i: int) -> list[int]:
        upper = -1
        for r in rows:
            if r >> i & 1:
                upper &= r
        out = []
        for m, below in candidates[i]:
            if m & ~upper:
                continue
            for j in below:
                if rows[j] & ~m:
                    break
            else:
                out.append(m)
        return out

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        if i == last:
            prefix = tuple(rows)
            for m in fitting(i):
                yield prefix + (m,)
            return
        for m in fitting(i):
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


def _relabel_tables(n: int) -> Iterable[list[int]]:
    """One table per point permutation, in ``permutations`` order: the
    relation bit each upper-triangle cell moves to.

    Kept per n up to the soft limit; above it (over 40,000 tables) they are
    built afresh on every call, so memory stays bounded.
    """
    cached = _tables_cache.get(n)
    if cached is not None:
        return cached
    cells = [(a, b) for a in range(n) for b in range(a + 1, n)]
    bit = {}
    for t, (a, b) in enumerate(cells):
        bit[a, b] = bit[b, a] = 1 << t

    def table(sigma: tuple[int, ...]) -> list[int]:
        new = [0] * n
        for j, s in enumerate(sigma):
            new[s] = j  # old point s becomes point j
        return [bit[new[a], new[b]] for a, b in cells]

    tables = map(table, permutations(range(n)))
    if n > SOFT_LIMIT:
        return tables
    cached = _tables_cache[n] = list(tables)
    return cached


def _orbit(code: int, n: int) -> Iterator[int]:
    """Relation bits of every relabelling of the relation with bits ``code``."""
    cells = [t for t in range(n * (n - 1) // 2) if code >> t & 1]
    for table in _relabel_tables(n):
        yield sum([table[t] for t in cells])


def relation_code(r: FiniteRelation) -> str:
    """Hex code of the upper triangle (no canonicalisation)."""
    return format(_relation_bits(r.rows, r.n), "x")


def canonical_code(r: FiniteRelation) -> str:
    """Minimum relation code over all point permutations."""
    return format(min(_orbit(_relation_bits(r.rows, r.n), r.n)), "x")


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


def _count_below(ms: tuple[int, ...]) -> tuple[int, int]:
    """How many preorders, and posets, have i <= j only where ``ms[i]`` contains ``ms[j]``."""
    k = len(ms)
    bounds = [sum(1 << j for j, mj in enumerate(ms) if not mj & ~mi) for mi in ms]
    labelled = posets = 0
    for rows in _iter_rows(k, bounds):
        labelled += 1
        posets += len(set(rows)) == k
    return labelled, posets


def _count_configurations(n: int, t0_only: bool):
    """Counts ``{closure bits: [labelled, t0, first example's bits, transitive]}`` and totals.

    One entry per configuration: a top set, its partition into classes, and
    the non-empty set of classes above each other point, as a class bitmask.
    """
    counts: dict[int, list] = {}
    totals = [0, 0]
    memo: dict[tuple[int, ...], tuple[int, int, bool]] = {}
    for top in range(1 << n):
        tops = [x for x in range(n) if top >> x & 1]
        rest = [x for x in range(n) if not top >> x & 1]
        for part in all_partitions(len(tops)):
            singletons = len(part.blocks) == len(tops)
            if t0_only and not singletons:
                continue
            rows = [0] * n
            above = [0]  # above[m]: the points of the classes in the class bitmask m
            for block in part.blocks:
                c = sum(1 << tops[i] for i in block)
                for i in block:
                    rows[tops[i]] = c
                above += [u | c for u in above]
            for ms in product(range(1, len(above)), repeat=len(rest)):
                key = tuple(sorted(ms))
                found = memo.get(key)
                if found is None:
                    found = memo[key] = (*_count_below(key), all(m & (m - 1) == 0 for m in key))
                posets = found[1] if singletons else 0
                labelled = posets if t0_only else found[0]
                for x, m in zip(rest, ms):
                    rows[x] = 1 << x | above[m]
                totals[0] += labelled
                totals[1] += posets
                code = _relation_bits(closure_rows(rows), n)
                _merge(counts, code, [labelled, posets, _preorder_bits(rows, n), found[2]], n)
    return counts, totals


def _merge(into: dict[int, list], code: int, entry: list, n: int) -> None:
    """Add one entry's counts under ``code``; the example delivered first is kept.

    The entries under one code share their closure, hence its transitive flag.
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
    Relabelling keeps transitivity, so the members share their flag.
    """
    canon_of: dict[int, int] = {}
    folded: dict[int, list] = {}
    for code, entry in counts.items():
        canon = canon_of.get(code)
        if canon is None:
            canon = int(canonical_code(decode_relation(format(code, "x"), n)), 16)
            canon_of.update(dict.fromkeys(_orbit(code, n), canon))
        _merge(folded, canon, entry, n)
    return folded


def _catalog(n: int, counts: dict[int, list], totals, up_to_iso: bool) -> Catalog:
    """The catalog of finished labelled counts, folded by orbit if ``up_to_iso``."""
    if up_to_iso:
        counts = _fold_orbits(counts, n)
    records = []
    for code in sorted(counts):
        lab, t0c, example, transitive = counts[code]
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


def build_catalog(n: int, t0_only: bool = False, up_to_iso: bool = False, workers: int = 1) -> Catalog:
    """One record per distinct closure relation over all topologies on n points.

    The counts are summed over configurations (see the module docstring),
    in one process; ``workers`` is accepted and has no effect.
    ``up_to_iso`` folds the finished labelled counts by orbit.
    """
    _check_size(n)
    return _catalog(n, *_count_configurations(n, t0_only), up_to_iso)


_HEADER = "n\trelation\tlabeled\tt0\ttransitive\tequivalence\texample"
# Fields exactly as render_catalog writes them: a count as str(int) writes it
# (no sign, underscore, other digits or leading zero), a code as format(v, "x").
_COUNT = "0|[1-9][0-9]*"
_CODE = "0|[1-9a-f][0-9a-f]*"
_COUNT_RE = re.compile(_COUNT)
_ROW_RE = re.compile(
    "\t".join(f"({field})" for field in (_COUNT, _CODE, _COUNT, _COUNT, "true|false", "true|false", _CODE))
)


def _flag(v: bool) -> str:
    return "true" if v else "false"


def _count(s: str) -> int:
    if not _COUNT_RE.fullmatch(s):
        raise ValueError(f"not a count as the catalog writes it: {s!r}")
    return int(s)


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
            # bit lengths, not 1 << n*(n-1): a row may claim any number of points
            if int(rel, 16).bit_length() > n * (n - 1) // 2 or int(example, 16).bit_length() > n * (n - 1):
                raise ValueError("a code with bits beyond the cells of n points")
            records.append(CatalogRecord(n, rel, int(lab), int(t0c), trans == "true", trans == "true", example))
        except (ValueError, KeyError) as exc:
            raise SpecSyntaxError(f"bad catalog line {lineno}: {ln!r}") from exc
    n = records[0].n if records else 0
    return Catalog(n, tuple(records), totals[0], totals[1])
