"""Reference enumerations the tests check the production code against.

``count_preorders_by_extension`` grows preorders one point at a time, a
strategy independent of the row-by-row DFS.  ``preorders_by_filter`` keeps
the transitive tuples among all tuples of reflexive rows, with no pruning.
``relabelled_codes`` permutes the points of a decoded relation one by one.
``build_catalog`` sums over configurations and never visits most preorders;
``reference_catalogs`` visits every preorder the DFS delivers, takes its
closure and keeps the first example met, so it checks the counting
argument, the T0 rule and the example rule independently.
"""

from itertools import permutations, product

from diagclosure.enumeration import _catalog, _iter_rows, _preorder_bits, _relation_bits, decode_relation, relation_code
from diagclosure.finite_topology import closure_rows
from diagclosure.relations import FiniteRelation


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


def relabelled_codes(code: int, n: int) -> list[int]:
    """Relation bits of every relabelling of the relation with bits ``code``,
    new point j being old point sigma[j], in ``permutations`` order."""
    pairs = list(decode_relation(format(code, "x"), n).pairs())
    out = []
    for sigma in permutations(range(n)):
        new = {s: j for j, s in enumerate(sigma)}
        out.append(int(relation_code(FiniteRelation.from_pairs(n, [(new[a], new[b]) for a, b in pairs])), 16))
    return out


def accumulate(n: int, t0_only: bool):
    """Counts ``{closure bits: [labelled, t0, first example's bits]}`` and totals."""
    counts: dict[int, list] = {}
    totals = [0, 0]
    for rows in _iter_rows(n):
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


def reference_catalogs(n: int, t0_only: bool):
    """The labelled catalog and the catalog up to isomorphism, from one walk."""
    counts, totals = accumulate(n, t0_only)
    return _catalog(n, counts, totals, False), _catalog(n, counts, totals, True)
