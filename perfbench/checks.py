"""Output checks for the benchmark, computed apart from the program.

Every expected value here comes from the benchmark's own arithmetic on the
inputs it generated: address classes and block indices for separability,
residue classes for the subbasis example, "up-sets meet" for finite
closures, hand-written decoders for the catalog codes, and explicit orbits
under point permutations.  Where a check has to ask the program a question
(is this point in that open?), it asks only ``member`` and never trusts the
construction's own ``disjoint``: claimed-disjoint opens are probed on a
finite window of addresses instead.

A failed check raises :class:`CheckFailed`.
"""

from __future__ import annotations

from itertools import permutations

# topologies (OEIS A000798), T0 topologies (A001035), equivalence relations (Bell)
# on n labelled points, n = 0..6
TOPOLOGIES = (1, 1, 4, 29, 355, 6_942, 209_527)
T0_TOPOLOGIES = (1, 1, 3, 19, 219, 4_231, 130_023)
BELL = (1, 1, 2, 5, 15, 52, 203)


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own answer."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# --------------------------------------------------------------------------
# verify reports

def check_verify_report(report, kind: str, spec_text: str, n_pairs: int, n_basis: int, is_t1: bool) -> None:
    where = f"verify {kind} seed {report.seed}"
    require(report.construction == kind, f"{where}: construction {report.construction}")
    require(report.spec.replace(" ", "") == spec_text, f"{where}: spec {report.spec}")
    for name in ("mismatches", "certificate_failures", "t1_failures", "basis_failures"):
        require(getattr(report, name) == 0, f"{where}: {name} = {getattr(report, name)}")
    require(report.pairs_checked == n_pairs, f"{where}: pairs_checked {report.pairs_checked}")
    require(report.basis_checks == n_basis, f"{where}: basis_checks {report.basis_checks}")
    require(report.t1_checks == (2 * n_pairs if is_t1 else 0), f"{where}: t1_checks {report.t1_checks}")
    require(0 < report.certificates_checked <= n_pairs, f"{where}: certificates_checked {report.certificates_checked}")


# --------------------------------------------------------------------------
# point queries

def block_size(spec_shape, cls: str, block: int):
    """Elements in a block (None for infinite), from the benchmark's own spec shape."""
    if cls == "s":
        return 1
    if cls == "i":
        return None
    sizes, _cyclic = spec_shape["fin"]
    return sizes[block % len(sizes)]


def block_exists(spec_shape, cls: str, block: int) -> bool:
    if block < 0:
        return False
    if cls == "f":
        sizes, cyclic = spec_shape["fin"]
        return bool(sizes) and (cyclic or block < len(sizes))
    count = spec_shape[cls]
    return count is None or block < count


def address_window(spec_shape, p, q):
    """A finite set of addresses around the two query points.

    Points are (cls, block, elem) triples.  The window holds both points,
    the first few elements of both blocks and of their neighbouring blocks.
    """
    out = {p, q}
    for cls, block, elem in (p, q):
        for b in (block - 1, block, block + 1):
            if not block_exists(spec_shape, cls, b):
                continue
            size = block_size(spec_shape, cls, b)
            elems = {0, 1, 2, elem - 1, elem, elem + 1}
            for e in elems:
                if e >= 0 and (size is None or e < size):
                    out.add((cls, b, e))
    return sorted(out)


def expected_separable(p, q) -> bool:
    """The relation by definition: same address class and block means related."""
    return not (p[0] == q[0] and p[1] == q[1])


def residue_index(families, x: int):
    for i, (offset, modulus) in enumerate(families, start=1):
        if x >= offset and (x - offset) % modulus == 0:
            return i
    return None


def expected_subbasis_separable(families, p: int, q: int) -> bool:
    i, j = residue_index(families, p), residue_index(families, q)
    return i is not None and j is not None and i != j


def subbasis_window(p: int, q: int):
    return sorted({x for c in (p, q) for x in range(max(0, c - 6), c + 7)} | set(range(12)))


def check_opens_on_window(member, open_a, open_b, p, q, window, where: str) -> None:
    """``open_a`` holds p, ``open_b`` holds q, and no window point lies in both."""
    require(member(open_a, p), f"{where}: first open misses its point")
    require(member(open_b, q), f"{where}: second open misses its point")
    for w in window:
        if member(open_a, w) and member(open_b, w):
            raise CheckFailed(f"{where}: opens claimed disjoint share the window point {w!r}")


def check_query(c, check_certificate, certificate_type, expected: bool, p, q, sep, cert, accepted, text, window, where: str) -> None:
    """One answered query: the answer, its certificate, and a bogus-certificate probe.

    ``p``/``q`` are the program's parsed points and ``window`` a list of
    program points around them.  For an inseparable pair the two basic
    neighbourhoods are offered to the program's certificate checker as a
    bogus certificate; if it accepts, the window must show that the opens
    really are disjoint, which they never are.
    """
    require(sep == expected, f"{where}: separable said {sep}, the relation says {expected}")
    if sep:
        require(cert is not None, f"{where}: separable pair without a certificate")
        require(accepted is True, f"{where}: certificate refused by the program's own checker")
        require(bool(text) and text.count("\n") == 1, f"{where}: certificate renders as {text!r}")
        check_opens_on_window(c.member, cert.open_a, cert.open_b, p, q, window, where)
        return
    require(cert is None, f"{where}: inseparable pair with a certificate")
    bogus_a, bogus_b = c.basic_nbhd(p), c.basic_nbhd(q)
    if check_certificate(c, p, q, certificate_type(bogus_a, bogus_b)):
        check_opens_on_window(c.member, bogus_a, bogus_b, p, q, window, where + " (bogus certificate accepted)")


# --------------------------------------------------------------------------
# finite relations, codes and catalogs

def relation_bits(rows, n: int) -> int:
    """Upper-triangle code: pairs (i, j), i < j, lexicographic, first pair in bit 0."""
    code = t = 0
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i] >> j & 1:
                code |= 1 << t
            t += 1
    return code


def decode_relation_bits(code: int, n: int):
    rows = [1 << i for i in range(n)]
    t = 0
    for i in range(n):
        for j in range(i + 1, n):
            if code >> t & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            t += 1
    return rows


def decode_preorder_bits(code: int, n: int):
    """Off-diagonal cells in row-major order, first cell in bit 0; diagonal set."""
    rows = [1 << i for i in range(n)]
    t = 0
    for i in range(n):
        for j in range(n):
            if i != j:
                if code >> t & 1:
                    rows[i] |= 1 << j
                t += 1
    return rows


def is_reflexive(rows) -> bool:
    return all(r >> i & 1 for i, r in enumerate(rows))


def is_transitive(rows) -> bool:
    n = len(rows)
    return all(not (rows[i] >> j & 1) or rows[j] & ~rows[i] == 0 for i in range(n) for j in range(n))


def closure_rows(up_rows):
    """Diagonal closure of a finite topology given by its up-sets: up-sets meet."""
    n = len(up_rows)
    return [sum(1 << j for j in range(n) if up_rows[i] & up_rows[j]) for i in range(n)]


def set_partitions(n: int):
    """All partitions of range(n) as restricted-growth label lists."""
    def rec(i, labels, k):
        if i == n:
            yield list(labels)
            return
        for b in range(k + 1):
            labels.append(b)
            yield from rec(i + 1, labels, max(k, b + 1))
            labels.pop()
    yield from rec(0, [], 0)


def partition_rows(labels):
    n = len(labels)
    return [sum(1 << j for j in range(n) if labels[j] == labels[i]) for i in range(n)]


def orbit_minima(codes, n: int) -> dict:
    """Map every relation code to the minimum code of its orbit under S_n."""
    perms = list(permutations(range(n)))
    out: dict[int, int] = {}
    for code in codes:
        if code in out:
            continue
        rows = decode_relation_bits(code, n)
        orbit = set()
        for s in perms:
            image = [0] * n
            for i in range(n):
                r = rows[i]
                m = 0
                for j in range(n):
                    if r >> j & 1:
                        m |= 1 << s[j]
                image[s[i]] = m
            orbit.add(relation_bits(image, n))
        low = min(orbit)
        for member in orbit:
            out[member] = low
    return out


def all_preorders(n: int):
    """Every preorder on n points by brute force over off-diagonal matrices."""
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in range(1 << len(cells)):
        rows = [1 << i for i in range(n)]
        for t, (i, j) in enumerate(cells):
            if bits >> t & 1:
                rows[i] |= 1 << j
        if is_transitive(rows):
            yield rows


def small_catalog_summary(n: int):
    """(topologies, distinct closures, non-transitive closures, iso classes, non-transitive iso classes)."""
    closures = {}
    total = 0
    for rows in all_preorders(n):
        total += 1
        code = relation_bits(closure_rows(rows), n)
        closures[code] = closures.get(code, 0) + 1
    nontrans = {c for c in closures if not is_transitive(decode_relation_bits(c, n))}
    iso = set(orbit_minima(closures, n).values())
    return total, len(closures), len(nontrans), len(iso), len(iso & nontrans)


def check_catalog_records(cat, n: int, where: str) -> None:
    """Per-record checks that do not depend on other catalogs."""
    require(cat.n == n, f"{where}: n = {cat.n}")
    require(sum(r.labeled_topology_count for r in cat.records) == cat.total_topologies,
            f"{where}: labelled counts sum to {sum(r.labeled_topology_count for r in cat.records)}, total {cat.total_topologies}")
    require(sum(r.t0_topology_count for r in cat.records) == cat.total_t0, f"{where}: T0 counts do not sum to total_t0")
    codes = [int(r.relation_code, 16) for r in cat.records]
    require(codes == sorted(set(codes)), f"{where}: records not sorted by distinct code")
    for rec, code in zip(cat.records, codes):
        rows = decode_preorder_bits(int(rec.example_preorder_code, 16), n)
        require(is_reflexive(rows) and is_transitive(rows), f"{where}: example {rec.example_preorder_code} is not a preorder")
        closure = closure_rows(rows)
        require(relation_bits(closure, n) == code, f"{where}: example {rec.example_preorder_code} closes to another relation than {rec.relation_code}")
        trans = is_transitive(decode_relation_bits(code, n))
        require(rec.transitive == trans and rec.equivalence == trans, f"{where}: transitive flag of {rec.relation_code}")
        require(rec.labeled_topology_count >= max(1, rec.t0_topology_count), f"{where}: counts of {rec.relation_code}")


def check_catalog_set(count, plain, t0, workers2, iso, round_trip, n: int) -> None:
    """The catalog workload: OEIS totals, cross-catalog agreement, orbits, TSV.

    An output that is None came from an operation that raised; the checks
    that need it are left out (the failure is counted elsewhere).
    """
    tops, t0s = TOPOLOGIES[n], T0_TOPOLOGIES[n]
    if count is not None:
        require(count == tops, f"count: {count} preorders, expected {tops}")
    if plain is not None:
        require((plain.total_topologies, plain.total_t0) == (tops, t0s), f"catalog totals {plain.total_topologies}/{plain.total_t0}")
        check_catalog_records(plain, n, "catalog")
    if t0 is not None:
        require((t0.total_topologies, t0.total_t0) == (t0s, t0s), f"T0 catalog totals {t0.total_topologies}/{t0.total_t0}")
        check_catalog_records(t0, n, "T0 catalog")
        require(all(r.labeled_topology_count == r.t0_topology_count for r in t0.records), "T0 catalog counts a non-T0 topology")
        t0_codes = {int(r.relation_code, 16) for r in t0.records}
        eqs = {relation_bits(partition_rows(labels), n) for labels in set_partitions(n)}
        require(len(eqs) == BELL[n], f"{len(eqs)} equivalence relations on {n} points")
        require(eqs <= t0_codes, f"T0 catalog misses {len(eqs - t0_codes)} equivalence relations")
    if workers2 is not None:
        require((workers2.total_topologies, workers2.total_t0) == (tops, t0s), "workers=2 catalog totals")
    if iso is not None:
        require((iso.total_topologies, iso.total_t0) == (tops, t0s), "iso catalog totals")
    if plain is None:
        return
    if t0 is not None:
        plain_t0 = {r.relation_code: r.t0_topology_count for r in plain.records if r.t0_topology_count}
        require({r.relation_code: r.t0_topology_count for r in t0.records} == plain_t0, "T0 catalog disagrees with the T0 column of the full catalog")
    if workers2 is not None:
        require(workers2 == plain, "workers=2 catalog differs from the one-worker catalog")
    if round_trip is not None:
        require(round_trip == plain, "TSV round trip changed the catalog")
    if iso is None:
        return
    # iso: every iso code is its orbit minimum, and the labelled codes fall into exactly those orbits
    minima = orbit_minima([int(r.relation_code, 16) for r in plain.records], n)
    by_orbit: dict[int, list] = {}
    for r in plain.records:
        entry = by_orbit.setdefault(minima[int(r.relation_code, 16)], [0, 0])
        entry[0] += r.labeled_topology_count
        entry[1] += r.t0_topology_count
    iso_codes = {int(r.relation_code, 16): r for r in iso.records}
    require(set(iso_codes) == set(by_orbit), f"iso codes {len(iso_codes)} vs {len(by_orbit)} orbits of labelled codes")
    for code, rec in iso_codes.items():
        lab, t0c = by_orbit[code]
        require((rec.labeled_topology_count, rec.t0_topology_count) == (lab, t0c), f"iso class {rec.relation_code} counts")
        trans = is_transitive(decode_relation_bits(code, n))
        require(rec.transitive == trans, f"iso class {rec.relation_code} transitive flag")


# --------------------------------------------------------------------------
# CLI transcripts

def render_closure(rows, n: int):
    return ["".join("1" if rows[i] >> j & 1 else "0" for j in range(n)) for i in range(n)]


def flag(v: bool) -> str:
    return "true" if v else "false"


def expected_finite(up_rows):
    """Stdout of ``finite --show all`` for the topology whose up-sets are given."""
    n = len(up_rows)
    closure = closure_rows(up_rows)
    t0 = len(set(up_rows)) == n
    t1 = all(up_rows[i] == 1 << i for i in range(n))
    t2 = closure == [1 << i for i in range(n)]
    return ["closure:", *render_closure(closure, n), f"axioms: T0={flag(t0)} T1={flag(t1)} T2={flag(t2)}"]


def nontransitive_triple(families, search_bound: int = 400):
    """First consecutive (a, a+1, a+2): ends separable, both neighbours inseparable."""
    for a in range(search_bound):
        if (not expected_subbasis_separable(families, a, a + 1)
                and not expected_subbasis_separable(families, a + 1, a + 2)
                and expected_subbasis_separable(families, a, a + 2)):
            return (a, a + 1, a + 2)
    return None


def check_transcript(expect, code: int, stdout: str, where: str) -> None:
    """Compare one CLI run against its expectation.

    ``expect`` is a dict: ``code`` (exit code), and optionally ``lines``
    (the whole stdout), ``first`` (the first line), ``contains`` (lines
    that must appear), ``line_count``.
    """
    require(code == expect["code"], f"{where}: exit code {code}, expected {expect['code']}")
    lines = stdout.splitlines()
    if "lines" in expect:
        require(lines == expect["lines"], f"{where}: stdout {lines!r}, expected {expect['lines']!r}")
    if "first" in expect:
        require(bool(lines) and lines[0] == expect["first"], f"{where}: first line {lines[:1]!r}, expected {expect['first']!r}")
    for needed in expect.get("contains", ()):
        require(needed in lines, f"{where}: no line {needed!r} in stdout")
    if "line_count" in expect:
        require(len(lines) == expect["line_count"], f"{where}: {len(lines)} lines, expected {expect['line_count']}")
