"""Preorder enumeration, relation codes, and catalogs."""

import copy
import dataclasses
import gc
import os
import pickle
import random
import re
import warnings
from collections import Counter
from itertools import groupby
from math import comb, factorial, prod

import pytest

from reference import (
    automorphism_count,
    bell,
    block_orbit,
    bounded_walk,
    brute_force_topology_count,
    canonical_code_by_twins,
    catalog_of,
    check_catalog,
    closure_structures,
    count_preorders_by_extension,
    decode_preorder_by_cells,
    decode_relation_by_cells,
    delivery_least_by_twins,
    preorders_by_filter,
    first_delivered_relabelling,
    is_diagonal_closure,
    iso_closure_count,
    labelled_closure_count,
    reference_catalogs,
    relabelled_codes,
    types_by_permutations,
    unchecked_catalog_text,
)

from diagclosure.enumeration import (
    Catalog,
    CatalogRecord,
    _delivery_least,
    _flat,
    _types,
    build_catalog,
    canonical_code,
    closure_of_preorder,
    decode_preorder,
    decode_relation,
    enumerate_preorders,
    preorder_code,
    read_catalog,
    relation_code,
    render_catalog,
)
from diagclosure.errors import BoundExceededError, InvalidCatalogError, InvalidSizeError, SpecSyntaxError
from diagclosure.finite_topology import Preorder, cl_delta, closure_rows, topology_of_preorder
from diagclosure.relations import FiniteRelation, all_partitions, eq_of_partition

KNOWN_COUNTS = {0: 1, 1: 1, 2: 4, 3: 29, 4: 355, 5: 6942, 6: 209527}


def test_counts_up_to_5():
    for n in range(6):
        assert enumerate_preorders(n) == KNOWN_COUNTS[n]


def test_count_only_equals_the_delivered_count():
    # without a consumer the count comes from the label recursion, not the walk
    for n in range(7):
        delivered = []
        assert enumerate_preorders(n, lambda p: delivered.append(None)) == len(delivered)
        assert enumerate_preorders(n) == len(delivered) == KNOWN_COUNTS[n]
    assert enumerate_preorders(7) == 9535241  # OEIS A000798


def test_counts_confirmed_by_brute_force_scan():
    for n in range(4):
        assert brute_force_topology_count(n) == KNOWN_COUNTS[n]
    with pytest.raises(BoundExceededError):
        brute_force_topology_count(4)


def test_counts_confirmed_by_extension_strategy():
    for n in range(7):
        assert count_preorders_by_extension(n) == KNOWN_COUNTS[n]


def test_delivery_is_each_exactly_once_and_ordered():
    seen = []
    count = enumerate_preorders(2, seen.append)
    assert count == 4 == len(seen) == len(set(seen))
    for p in seen:
        assert isinstance(p, Preorder)
    # ascending lexicographic on row-major bits, pinned via the hex codes
    assert [preorder_code(p) for p in seen] == ["0", "2", "1", "3"]

    seen3 = []
    enumerate_preorders(3, seen3.append)
    strings = [
        "".join(str(p.rows[i] >> j & 1) for i in range(3) for j in range(3)) for p in seen3
    ]
    assert strings == sorted(strings)
    assert len(set(seen3)) == 29


def test_dfs_matches_a_brute_force_filter():
    from diagclosure.enumeration import _iter_rows

    for n in range(5):
        assert list(_iter_rows(n)) == preorders_by_filter(n)
    assert list(bounded_walk(3, [0b001, 0b101, 0b011])) == []  # row 2's bound misses point 2


def test_soft_limit_warns():
    class _Stop(Exception):
        pass

    def boom(_):
        raise _Stop

    with pytest.warns(UserWarning):
        with pytest.raises(_Stop):
            enumerate_preorders(8, boom)


def test_count_only_path_does_not_warn_above_the_soft_limit():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert enumerate_preorders(8) == 642779354


def test_closure_of_preorder_examples():
    assert closure_of_preorder(Preorder(3, (1, 2, 4))) == FiniteRelation.diagonal(3)

    witness = Preorder(3, (0b001, 0b111, 0b100))  # up-sets {0}, {0,1,2}, {2}
    rel = closure_of_preorder(witness)
    assert rel == FiniteRelation.from_pairs(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
    assert not rel.is_transitive()

    chain = Preorder(3, (0b111, 0b110, 0b100))
    assert closure_of_preorder(chain) == FiniteRelation.full(3)


def test_closure_agrees_with_topology_route_n4():
    def check(p):
        assert closure_of_preorder(p) == cl_delta(topology_of_preorder(p))

    for n in range(5):
        enumerate_preorders(n, check)


# --- codes ---

def test_code_examples():
    for n in (1, 2, 3, 5):
        assert relation_code(FiniteRelation.diagonal(n)) == "0"
        assert canonical_code(FiniteRelation.diagonal(n)) == "0"
    assert relation_code(FiniteRelation.full(3)) == "7"

    r02 = FiniteRelation.from_pairs(3, [(0, 2), (2, 0)])
    r01 = FiniteRelation.from_pairs(3, [(0, 1), (1, 0)])
    assert relation_code(r02) != relation_code(r01)
    assert canonical_code(r02) == canonical_code(r01)


def test_canonical_code_is_the_least_relabelling():
    rng = random.Random(23)
    cases = [(n, code) for n in range(6) for code in range(1 << (n * (n - 1) // 2))]
    cases += [(n, rng.randrange(1 << (n * (n - 1) // 2))) for n, draws in ((6, 12), (7, 4), (8, 2)) for _ in range(draws)]
    for n, code in cases:
        assert canonical_code(decode_relation(format(code, "x"), n)) == format(min(relabelled_codes(code, n)), "x"), (n, code)
    # the code reads the upper triangle only, also of a relation that is not symmetric
    for _ in range(12):
        n = rng.randrange(2, 7)
        r = FiniteRelation(n, [rng.randrange(1 << n) | 1 << i for i in range(n)])
        assert canonical_code(r) == format(min(relabelled_codes(int(relation_code(r), 16), n)), "x"), r.rows
    assert canonical_code(FiniteRelation.from_pairs(8, [(3, 7), (7, 3)])) == "1"


def random_preorder(n: int, rng: random.Random) -> list[int]:
    """The reflexive transitive closure of a random relation on n points."""
    rows = [rng.randrange(1 << n) & rng.randrange(1 << n) | 1 << i for i in range(n)]
    for k in range(n):
        rows = [r | rows[k] if r >> k & 1 else r for r in rows]
    return rows


def test_delivery_least_is_the_first_delivered_relabelling():
    rng = random.Random(29)
    cases = [random_preorder(n, rng) for n in range(7) for _ in range(12)]
    cases += [_flat(sizes, ms) for n in range(6) for _, sizes, ms in _types(n)]
    for rows in cases:
        assert Preorder(len(rows), rows).rows == tuple(rows)
        assert _delivery_least(rows) == first_delivered_relabelling(rows), rows


def test_structure_types_and_their_weights():
    # a type is a closure up to relabelling, so the types are the iso catalog's rows,
    # and their weights count the closures on labelled points
    assert [len(list(_types(n))) for n in range(9)] == [iso_closure_count(n)[0] for n in range(9)]
    assert [sum(w for w, _, _ in _types(n)) for n in range(8)] == [labelled_closure_count(n) for n in range(8)]


def test_searches_match_the_point_by_point_search_on_every_type():
    # the cell search against the search it replaced, which placed one point per step and cut only twins
    for n in range(8):
        for _, sizes, ms in _types(n):
            flat = _flat(sizes, ms)
            closure = FiniteRelation(n, closure_rows(flat))
            assert canonical_code(closure) == canonical_code_by_twins(closure), (sizes, ms)
            assert _delivery_least(flat) == delivery_least_by_twins(flat), (sizes, ms)


def test_types_are_the_orbits_of_every_block_permutation():
    for n in range(8):
        new, old = list(_types(n)), list(types_by_permutations(n))
        assert Counter((w, sizes) for w, sizes, _ in new) == Counter((w, sizes) for w, sizes, _ in old), n
        orbits = [{(sizes, frozenset(block_orbit(sizes, ms))) for _, sizes, ms in types} for types in (new, old)]
        assert orbits[0] == orbits[1] and len(orbits[0]) == len(new), n


def test_type_automorphisms_are_three_groups():
    # closures and structures are one to one, so the automorphisms of a type's closure are the permutations
    # inside each block, those of the other points with one M value, and the permutations of equal-size
    # blocks that keep the multiset of M values; n!/|Aut| structures have the type
    for n in range(8):
        for weight, sizes, ms in _types(n):
            blocks = prod(factorial(len(list(same))) for _, same in groupby(sizes)) // len(block_orbit(sizes, ms))
            aut = prod(map(factorial, sizes)) * prod(factorial(len(list(same))) for _, same in groupby(ms)) * blocks
            assert factorial(n) == weight * aut, (sizes, ms)
            if n <= 6:
                assert automorphism_count(closure_rows(_flat(sizes, ms))) == aut, (sizes, ms)


def test_relation_code_round_trip():
    rng = random.Random(19)
    for _ in range(100):
        n = rng.randrange(1, 6)
        pairs = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    pairs.extend([(i, j), (j, i)])
        r = FiniteRelation.from_pairs(n, pairs)
        assert decode_relation(relation_code(r), n) == r


def test_preorder_code_round_trip_n3():
    def check(p):
        assert decode_preorder(preorder_code(p), 3) == p

    enumerate_preorders(3, check)


def test_decode_preorder_refuses_a_code_that_is_not_transitive():
    # "9" sets the cells 0 <= 1 and 1 <= 2 but not 0 <= 2
    with pytest.raises(ValueError, match="^not transitive through 0 <= 1$"):
        decode_preorder("9", 3)


def test_decode_relation_equals_the_cell_by_cell_reference():
    for n in range(7):
        for c in range(1 << comb(n, 2)):
            code = format(c, "x")
            assert decode_relation(code, n) == decode_relation_by_cells(code, n), (n, code)


def test_decode_preorder_equals_the_cell_by_cell_reference():
    for n in range(6):
        codes = []
        enumerate_preorders(n, lambda p: codes.append(preorder_code(p)))
        for code in codes:
            assert decode_preorder(code, n) == decode_preorder_by_cells(code, n), (n, code)
    # every code on up to 3 points, where most are not transitive: the same
    # preorder or the same refusal
    for n in range(4):
        for c in range(1 << n * (n - 1)):
            code = format(c, "x")
            try:
                expected = decode_preorder_by_cells(code, n)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    decode_preorder(code, n)
            else:
                assert decode_preorder(code, n) == expected, (n, code)


# texts that int(code, 16) reads but render_catalog never writes
_NOT_CODES = ["-1", "+1", "0x1", " 1", "1 ", "1_0", "F", "01", "00"]


@pytest.mark.parametrize("code", _NOT_CODES)
def test_decoders_refuse_what_the_catalog_never_writes(code):
    with pytest.raises(ValueError, match="^not a code as the catalog writes it"):
        decode_relation(code, 2)
    with pytest.raises(ValueError, match="^not a code as the catalog writes it"):
        decode_preorder(code, 2)


def test_decoders_refuse_bits_beyond_the_cells():
    # on 2 points a relation code has one cell and a preorder code two
    for code in ("2", "ff"):
        with pytest.raises(ValueError, match="bits beyond the cells"):
            decode_relation(code, 2)
    for code in ("4", "fff"):
        with pytest.raises(ValueError, match="bits beyond the cells"):
            decode_preorder(code, 2)


# --- catalogs ---

def test_catalog_n1():
    cat = build_catalog(1)
    assert cat.total_topologies == 1 and cat.total_t0 == 1
    assert len(cat.records) == 1
    rec = cat.records[0]
    assert rec.relation_code == "0" and rec.labeled_topology_count == 1
    assert rec.equivalence and rec.transitive


def test_catalog_n3_contains_nontransitive_with_witness():
    cat = build_catalog(3)
    assert cat.total_topologies == 29
    target = relation_code(FiniteRelation.from_pairs(3, [(0, 1), (1, 0), (1, 2), (2, 1)]))
    rec = next(r for r in cat.records if r.relation_code == target)
    assert rec.transitive is False and rec.equivalence is False
    witness = decode_preorder(rec.example_preorder_code, 3)
    assert closure_of_preorder(witness) == decode_relation(target, 3)


def test_catalog_records_are_sound():
    for n in range(5):
        cat = build_catalog(n)
        codes = [int(r.relation_code, 16) for r in cat.records]
        assert codes == sorted(codes) and len(set(codes)) == len(codes)
        assert sum(r.labeled_topology_count for r in cat.records) == cat.total_topologies
        assert sum(r.t0_topology_count for r in cat.records) == cat.total_t0
        for rec in cat.records:
            rel = decode_relation(rec.relation_code, n)
            assert rel.is_reflexive() and rel.is_symmetric()
            assert rec.labeled_topology_count >= 1
            assert rec.transitive == rel.is_transitive()
            assert rec.equivalence == rel.is_equivalence()
            witness = decode_preorder(rec.example_preorder_code, n)
            assert relation_code(closure_of_preorder(witness)) == rec.relation_code


def test_t0_catalogs_cover_all_equivalences_up_to_n4():
    # n=5 runs in the acceptance suite
    for n in range(1, 5):
        cat = build_catalog(n, t0_only=True)
        codes = {r.relation_code for r in cat.records}
        for part in all_partitions(n):
            assert relation_code(eq_of_partition(part)) in codes


def test_full_catalog_has_nontransitive_for_n3_and_n4():
    for n in (3, 4):
        cat = build_catalog(n)
        assert any(not r.transitive for r in cat.records)


def test_t0_only_counts_are_consistent():
    # the T0 catalog is the plain catalog's T0 view: the records with a T0
    # realisation, in order, counting those alone, with the same example
    for n in range(7):
        for iso in (False, True):
            full = build_catalog(n, up_to_iso=iso)
            t0 = build_catalog(n, t0_only=True, up_to_iso=iso)
            assert (t0.total_topologies, t0.total_t0) == (full.total_t0, full.total_t0)
            view = [
                dataclasses.replace(r, labeled_topology_count=r.t0_topology_count)
                for r in full.records
                if r.t0_topology_count
            ]
            assert list(t0.records) == view, (n, iso)


def test_closure_counts_match_their_structure():
    # a closure is blocks of top points plus, for each other point, a set of at
    # least two blocks; the reference counts those structures, not preorders
    for n in range(7):
        plain = build_catalog(n)
        assert len(plain.records) == labelled_closure_count(n)
        assert sum(not r.transitive for r in plain.records) == labelled_closure_count(n) - bell(n)
        iso = build_catalog(n, up_to_iso=True)
        assert (len(iso.records), sum(not r.transitive for r in iso.records)) == iso_closure_count(n)
    # the counts that CI pins on the seven- and eight-point catalogs
    assert labelled_closure_count(7) - bell(7) == 128548 and labelled_closure_count(7) == 129425
    assert iso_closure_count(7) == (164, 149) and iso_closure_count(8) == (557, 535)
    # the counts that CI pins on the eight-point structure walk
    assert labelled_closure_count(8) == 3731508 and labelled_closure_count(8) - bell(8) == 3727368


def test_catalog_codes_are_the_edge_covered_relations():
    # a relation is a closure iff each edge lies in the closed neighbourhood
    # of a simplicial point; filter every reflexive symmetric relation by that
    for n in range(7):
        covered = [c for c in range(1 << comb(n, 2)) if is_diagonal_closure(decode_relation(format(c, "x"), n).rows)]
        assert [int(r.relation_code, 16) for r in build_catalog(n).records] == covered, n


def test_catalog_equals_the_per_closure_reference():
    # the reference builds each closure once from its structure, with the
    # greedy example; its counts still go through _count_below, which
    # test_label_recursion_matches_the_bounded_walk checks against a walk
    for n in range(7):
        structures = closure_structures(n)
        assert_same_catalog(build_catalog(n), catalog_of(n, structures), f"plain n={n}")
        t0 = {code: (t0, t0, example, tr) for code, (_, t0, example, tr) in structures.items()}
        assert_same_catalog(build_catalog(n, t0_only=True), catalog_of(n, t0), f"t0 n={n}")


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "catalogs.txt")


def test_check_catalog_accepts_the_golden_and_built_catalogs():
    with open(GOLDEN, encoding="utf-8") as fh:
        sections = re.split(r"^== (\S+) n=\d+\n", fh.read(), flags=re.M)[1:]
    assert len(sections) == 2 * 24
    for variant, text in zip(sections[::2], sections[1::2]):
        check_catalog(read_catalog(text), up_to_iso=variant.endswith("iso"))
    for n in range(7):
        for t0_only in (False, True):
            for iso in (False, True):
                check_catalog(build_catalog(n, t0_only=t0_only, up_to_iso=iso), up_to_iso=iso)


def test_check_catalog_rejects_each_broken_row():
    # read_catalog checks no row's closure, so it loads the 4-cycle, which no topology has
    four_cycle = read_catalog(render_catalog(Catalog(4, (CatalogRecord(4, "2d", 1, 1, False, False, "0"),), 1, 1)))
    with pytest.raises(AssertionError, match="row 2d: not the closure"):
        check_catalog(four_cycle)
    cat = build_catalog(4)
    check_catalog(cat)
    rec = cat.records[-2]
    broken = {
        "flags": dataclasses.replace(rec, transitive=not rec.transitive, equivalence=not rec.equivalence),
        "counts": dataclasses.replace(rec, t0_topology_count=rec.labeled_topology_count + 1),
        "another relation": dataclasses.replace(rec, example_preorder_code="0"),
        "no preorder": dataclasses.replace(rec, example_preorder_code="11"),  # 0 <= 1 <= 2, not 0 <= 2
    }
    for what, bad in broken.items():
        records = cat.records[:-2] + (bad, cat.records[-1])
        with pytest.raises(AssertionError, match=what):
            check_catalog(dataclasses.replace(cat, records=records))
    with pytest.raises(AssertionError, match="sorted"):
        check_catalog(dataclasses.replace(cat, records=cat.records[::-1]))
    with pytest.raises(AssertionError, match="total_t0"):
        check_catalog(dataclasses.replace(cat, total_t0=cat.total_t0 + 1))
    with pytest.raises(AssertionError, match="least relabelling"):
        check_catalog(cat, up_to_iso=True)


def test_iso_catalog_merges_orbits():
    plain = build_catalog(3)
    iso = build_catalog(3, up_to_iso=True)
    assert len(iso.records) < len(plain.records)
    assert sum(r.labeled_topology_count for r in iso.records) == plain.total_topologies
    # one-pair relations form a single orbit of size three
    one_pair = canonical_code(FiniteRelation.from_pairs(3, [(0, 2), (2, 0)]))
    rec = next(r for r in iso.records if r.relation_code == one_pair)
    expected = sum(
        r.labeled_topology_count
        for r in plain.records
        if canonical_code(decode_relation(r.relation_code, 3)) == one_pair
    )
    assert rec.labeled_topology_count == expected


def assert_same_catalog(got: Catalog, want: Catalog, what: str) -> None:
    """Equal rendered catalogs, compared line by line.

    Naming the first differing line keeps a failure fast: pytest's diff of
    two catalog strings of thousands of lines can take minutes.
    """
    got_lines, want_lines = render_catalog(got).splitlines(), render_catalog(want).splitlines()
    for i, (a, b) in enumerate(zip(want_lines, got_lines), start=1):
        assert b == a, f"{what}: line {i} differs"
    assert len(got_lines) == len(want_lines), what


def test_parallel_workers_deterministic():
    for kwargs in ({}, {"t0_only": True}, {"up_to_iso": True}):
        seq = build_catalog(4, **kwargs)
        par = build_catalog(4, workers=3, **kwargs)
        assert_same_catalog(par, seq, f"workers=3 {kwargs}")


def test_catalogs_match_the_full_preorder_walk_n6():
    # the golden file pins n <= 5; here every preorder on 6 points is visited
    for t0_only in (False, True):
        plain, iso = reference_catalogs(6, t0_only)
        assert_same_catalog(build_catalog(6, t0_only=t0_only), plain, f"plain t0_only={t0_only}")
        assert_same_catalog(build_catalog(6, t0_only=t0_only, up_to_iso=True), iso, f"iso t0_only={t0_only}")


def test_catalogs_and_the_preorder_walk_leave_no_cyclic_garbage():
    # the recursive walks are module-level functions, so every frame and
    # partial row list they make is freed by reference counting alone
    runs = {
        "plain": lambda: build_catalog(5),
        "t0": lambda: build_catalog(5, t0_only=True),
        "iso": lambda: build_catalog(5, up_to_iso=True),
        "preorders": lambda: enumerate_preorders(5),
        "preorder walk": lambda: enumerate_preorders(5, lambda p: None),
    }
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for name, run in runs.items():
            run()
            assert gc.collect() == 0, name
    finally:
        if enabled:
            gc.enable()


def test_catalog_tsv_round_trip(tmp_path):
    cat = build_catalog(3)
    text = render_catalog(cat)
    lines = text.splitlines()
    assert lines[0] == "n\trelation\tlabeled\tt0\ttransitive\tequivalence\texample"
    assert lines[-1].startswith("# total_topologies=29 total_t0=")
    assert read_catalog(text) == cat


def test_read_catalog_names_the_malformed_line():
    good = render_catalog(build_catalog(2)).splitlines()
    bad_rows = (
        (2, "2\t0\t1\t1\ttrue\ttrue"),  # a column missing
        (3, "2\t1\tthree\t2\ttrue\ttrue\t2"),  # a count that is no integer
        (4, "# total_topologies=4"),  # a total missing
        (1, "n\trelation"),  # a bad header
        (3, "3\t1\t1\t1\ttrue\ttrue\t3"),  # a point count unlike the first row's
        (2, "2\tzz\t1\t1\ttrue\ttrue\t0"),  # a relation code that is not hex
        (2, "2\t0\t1\t1\ttrue\ttrue\t0F"),  # an example code in upper case
        (3, "2\t01\t2\t2\ttrue\ttrue\t2"),  # a code with a leading zero
        (2, "2\t0\t1\t1\tyes\tbanana\t0"),  # flags other than true/false
        (3, "2\t1\t3\t2\ttrue\tTrue\t2"),  # a flag in another case
        (2, "-2\t0\t-1\t-1\ttrue\ttrue\t0"),  # a negative point count, blamed on its own line
        (3, "2\t1\t-3\t2\ttrue\ttrue\t2"),  # a negative topology count
        (3, "2\t1\t3\t-2\ttrue\ttrue\t2"),  # a negative T0 count
        (4, "# total_topologies=-4 total_t0=3"),  # a negative total
        (4, "# total_topologies=4 total_t0=3 extra=1"),  # a key besides the two totals
        (4, "# total_topologies=4 total_t0=3 total_t0=3"),  # a total given twice
        (4, "# total_topologies=4 total_t0"),  # an item without a value
        (3, "2\t1\t1_0\t2\ttrue\ttrue\t2"),  # a count with an underscore
        (3, "2\t1\t+3\t2\ttrue\ttrue\t2"),  # a count with a sign
        (3, "2\t1\t3\t\u0662\ttrue\ttrue\t2"),  # a count in Arabic-Indic digits
        (2, "02\t0\t1\t1\ttrue\ttrue\t0"),  # a count with a leading zero
        (4, "# total_topologies=04 total_t0=3"),  # a total with a leading zero
        (3, "2\t1\t3\t2\ttrue\tfalse\t2"),  # transitive but not an equivalence
        (2, "2\t0\t1\t1\tfalse\ttrue\t0"),  # an equivalence but not transitive
        (3, "2\t2\t3\t2\ttrue\ttrue\t2"),  # a relation code beyond the one cell of 2 points
        (3, "2\tff\t3\t2\ttrue\ttrue\t2"),  # a relation code far beyond it
        (3, "2\t1\t3\t2\ttrue\ttrue\t4"),  # an example code beyond the two cells
        (3, "2\t1\t3\t2\ttrue\ttrue\tfff"),  # an example code far beyond them
        (3, good[1]),  # a row repeated
        (4, good[3] + "\n# total_topologies=99 total_t0=3"),  # a second totals line
        (4, ""),  # no totals line, blamed on the line after the last
        (4, "# total_topologies=5 total_t0=3"),  # a total that is not its column's sum
        (4, "# total_topologies=4 total_t0=2"),  # a T0 total that is not its column's sum
    )
    header, first, second, totals = good
    bad_texts = [(lineno, good[:lineno - 1] + [row] + good[lineno:]) for lineno, row in bad_rows] + [
        (3, [header, second, first, totals]),  # rows in descending code order
        (3, [header, first, totals, second]),  # a totals line before the last row
    ]
    for lineno, lines in bad_texts:
        with pytest.raises(SpecSyntaxError, match=f"line {lineno}:"):
            read_catalog("\n".join(lines))
    with pytest.raises(SpecSyntaxError, match="line 1:"):
        read_catalog("")


def _with_records(cat, records):
    """``cat`` with these records, and totals that are their column sums."""
    return Catalog(cat.n, tuple(records), sum(r.labeled_topology_count for r in records),
                   sum(r.t0_topology_count for r in records))


def _record_changed(cat, index, **changes):
    """``cat`` with record ``index`` changed, and totals that are the column sums."""
    records = list(cat.records)
    records[index] = dataclasses.replace(records[index], **changes)
    return _with_records(cat, records)


# each case: (the catalog made from build_catalog(3)'s, the line at which read_catalog refuses its unchecked
# text, or None where it reads that text back as another catalog)
RENDER_REFUSALS = {
    "codes out of order": (
        lambda cat: _with_records(cat, cat.records[:2] + cat.records[3:4] + cat.records[2:3] + cat.records[4:]), 5,
    ),
    "a code repeated": (lambda cat: _with_records(cat, cat.records[:3] + cat.records[2:]), 5),
    "another point count": (lambda cat: _record_changed(cat, 1, n=4), 3),
    "transitive but no equivalence": (lambda cat: _record_changed(cat, 5, transitive=True), 7),
    "a labelled total off": (lambda cat: dataclasses.replace(cat, total_topologies=cat.total_topologies + 1), 10),
    "a T0 total off": (lambda cat: dataclasses.replace(cat, total_t0=cat.total_t0 - 1), 10),
    "a code with a leading zero": (lambda cat: _record_changed(cat, 0, relation_code="00"), 2),
    "a code in upper case": (lambda cat: _record_changed(cat, 7, relation_code="A"), 9),
    "a code beyond the one cell of 2 points": (lambda cat: _record_changed(build_catalog(2), 1, relation_code="2"), 3),
    "a count that is a bool": (lambda cat: _record_changed(cat, 0, labeled_topology_count=True), 2),
    "a negative count": (lambda cat: _record_changed(cat, 1, t0_topology_count=-1), 3),
    "a count that is a float": (lambda cat: _record_changed(cat, 0, labeled_topology_count=1.0), 2),
    "flags that are 2": (lambda cat: _record_changed(cat, 7, transitive=2, equivalence=2), None),
    "no records on 3 points": (lambda cat: Catalog(3, (), 0, 0), None),
    "records that are plain tuples": (lambda cat: dataclasses.replace(cat, records=tuple(map(tuple, cat.records))), None),
}


@pytest.mark.parametrize("what", RENDER_REFUSALS)
def test_render_catalog_refuses_what_read_catalog_refuses(what):
    change, line = RENDER_REFUSALS[what]
    cat = change(build_catalog(3))
    if line is None:
        assert read_catalog(unchecked_catalog_text(cat)) != cat
        refusal = "^the catalog's text reads back as another catalog$"
    else:
        with pytest.raises(SpecSyntaxError, match=f"^bad catalog line {line}:"):
            read_catalog(unchecked_catalog_text(cat))
        refusal = f"^the catalog's text does not read back: bad catalog line {line}:"
    with pytest.raises(InvalidCatalogError, match=refusal) as caught:
        render_catalog(cat)
    assert isinstance(caught.value, ValueError)
    assert isinstance(caught.value.__cause__, SpecSyntaxError) == (line is not None)


# each case: the records of a catalog made from build_catalog(3)'s, and the exception unpacking them raises
UNWRITABLE_RECORDS = {
    "a record of six fields": (lambda cat: cat.records[:1] + (tuple(cat.records[1])[:6],) + cat.records[2:], ValueError),
    "a record that is an int": (lambda cat: cat.records[:2] + (7,), TypeError),
    "records that are None": (lambda cat: None, TypeError),
}


@pytest.mark.parametrize("what", UNWRITABLE_RECORDS)
def test_render_catalog_refuses_records_that_are_not_rows(what):
    change, cause = UNWRITABLE_RECORDS[what]
    cat = build_catalog(3)
    with pytest.raises(InvalidCatalogError, match="^the catalog's records are not rows of seven fields: ") as caught:
        render_catalog(dataclasses.replace(cat, records=change(cat)))
    assert type(caught.value.__cause__) is cause


def test_package_catalogs_render_without_a_read_back(monkeypatch):
    import diagclosure.enumeration as enumeration

    built = build_catalog(3)
    text = render_catalog(built)
    read = read_catalog(text)
    read_backs = []
    monkeypatch.setattr(enumeration, "read_catalog", lambda t: read_backs.append(t) or read_catalog(t))
    for cat in (built, read, copy.copy(built), copy.deepcopy(read), pickle.loads(pickle.dumps(built))):
        assert render_catalog(cat) == text
    render_catalog(build_catalog(3, t0_only=True, up_to_iso=True))
    assert read_backs == []
    # a replace copy is a new catalog: read back once, and refused if one count is bumped
    assert render_catalog(dataclasses.replace(built)) == text
    assert read_backs == [text]
    bumped = dataclasses.replace(built, records=(
        dataclasses.replace(built.records[0], labeled_topology_count=2),) + built.records[1:])
    with pytest.raises(InvalidCatalogError, match="^the catalog's text does not read back: bad catalog line 10:"):
        render_catalog(bumped)
    assert len(read_backs) == 2


def test_negative_point_count_refused():
    with pytest.raises(InvalidSizeError):
        build_catalog(-1)
    with pytest.raises(InvalidSizeError):
        enumerate_preorders(-1)


def test_build_catalog_refuses_above_the_soft_limit_unless_forced(monkeypatch):
    # with the limit lowered, so that a build that does not refuse ends quickly
    import diagclosure.enumeration as enumeration

    want = {up_to_iso: build_catalog(3, up_to_iso=up_to_iso) for up_to_iso in (False, True)}
    monkeypatch.setattr(enumeration, "SOFT_LIMIT", 2)
    assert len(build_catalog(2).records) == 2
    for up_to_iso, cat in want.items():
        with pytest.raises(BoundExceededError, match=r"^n=3 is above the soft limit 2; pass force=True to proceed$"):
            build_catalog(3, up_to_iso=up_to_iso)
        assert build_catalog(3, up_to_iso=up_to_iso, force=True) == cat
