"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every criterion pins its stated tolerance and time budget.
"""

import time

from faults import (
    OffByOneInfBlocks,
    OffByOneInfOrSingleton,
    OffByOneSplitUnion,
    OffByOneTauR,
    SharedFinTwoCase1,
    SharedFinTwoCase2,
    SwappedRepExtendPairs,
    SwappedRepPairBlocks,
    SwappedRepT0Sat,
)
from reference import brute_force_topology_count

from diagclosure.constructions import (
    Certificate,
    CofInD,
    check_certificate,
    nontransitive_demo,
    realise_t0,
    realise_t1,
    realise_tau_r,
)
from diagclosure.enumeration import (
    build_catalog,
    closure_of_preorder,
    decode_preorder,
    decode_relation,
    enumerate_preorders,
    relation_code,
)
from diagclosure.finite_topology import cl_delta, is_t2, topology_of_preorder
from diagclosure.relations import (
    FiniteRelation,
    all_partitions,
    eq_of_partition,
    is_t1_realisable,
    parse_spec,
)
from diagclosure.symbolic_sets import ResidueClassSet
from diagclosure.verify import finite_cross_check, monotonicity_check, verify_construction

KNOWN_COUNTS = (1, 1, 4, 29, 355, 6942, 209527)

# the six dispatch branches, plus the two non-T1 realisations
CONSTRUCTIONS = (
    ("InfBlocks", "t1", "singletons=0;fin=[];inf=3"),
    ("InfOrSingleton", "t1", "singletons=omega;fin=[];inf=2"),
    ("FinTwoCase1", "t1", "singletons=omega;fin=[3,2];inf=1"),
    ("FinTwoCase2", "t1", "singletons=2;fin=[2,3];inf=omega"),
    ("PairBlocks", "t1", "singletons=0;fin=cycle[2];inf=0"),
    ("SplitUnion", "t1", "singletons=1;fin=cycle[2,3];inf=2"),
    ("T0Sat", "t0", "singletons=1;fin=[2];inf=1"),
    ("TauR", "taur", "singletons=1;fin=[2];inf=1"),
)

_REALISERS = {"t1": realise_t1, "t0": realise_t0, "taur": realise_tau_r}

_report_cache: dict[str, object] = {}


def _passing(text: str) -> None:
    print(f"\nACCEPTANCE {text}: PASS")


def _run_criterion_3_reports():
    reports = {}
    for kind, axiom, text in CONSTRUCTIONS:
        spec = parse_spec(text)
        c = _REALISERS[axiom](spec)
        assert c.kind == kind
        started = time.perf_counter()
        report = verify_construction(c, spec, n_pairs=20_000, bounds=(50, 50), seed=0, basis_samples=2_000)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"{kind} took {elapsed:.2f}s"
        reports[kind] = report
    return reports


def test_criterion_1_theorem_decision_table():
    rows = [
        ("singletons=5;fin=[];inf=2", True),
        ("singletons=5;fin=[2,3];inf=2", False),
        ("singletons=5;fin=[2,3];inf=omega", True),
        ("singletons=5;fin=cycle[2];inf=0", True),
        ("singletons=omega;fin=[];inf=0", True),
        ("singletons=omega;fin=[2,3];inf=0", True),
        ("singletons=omega;fin=cycle[2,3];inf=0", True),
        ("singletons=0;fin=[2];inf=3", False),
    ]
    specs = [(parse_spec(text), expected) for text, expected in rows]
    started = time.perf_counter()
    results = [is_t1_realisable(spec) for spec, _ in specs]
    elapsed = time.perf_counter() - started
    assert results == [expected for _, expected in specs]
    assert elapsed < 0.001, f"decision table took {elapsed * 1000:.3f}ms"
    _passing("criterion 1 (theorem decision table, 8 rows, <1ms)")


def test_criterion_2_worked_example_reproduction():
    started = time.perf_counter()
    demo = nontransitive_demo([ResidueClassSet(1, 3), ResidueClassSet(2, 3)])
    c = demo.construction
    assert not c.separable(2, 3)
    assert not c.separable(3, 4)
    assert c.separable(2, 4)
    cert = c.witness(2, 4)
    assert cert == Certificate(CofInD(2), CofInD(1))
    assert check_certificate(c, 2, 4, cert)
    assert demo.triple == (2, 3, 4)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passing("criterion 2 (worked-example reproduction, exact, <1s)")


def test_criterion_3_construction_verification():
    reports = _run_criterion_3_reports()
    _report_cache.update(reports)
    for kind, report in reports.items():
        assert report.pairs_checked == 20_000
        assert report.basis_checks == 2_000
        assert report.mismatches == 0, kind
        assert report.certificate_failures == 0, kind
        assert report.t1_failures == 0, kind
        assert report.basis_failures == 0, kind
        if kind in ("T0Sat", "TauR"):
            assert report.t1_checks == 0
        else:
            assert report.t1_checks == 40_000
    _passing("criterion 3 (verification of all 8 constructions, 20k pairs each, <10s each)")


def test_criterion_4_enumeration_counts():
    for n in range(6):
        assert enumerate_preorders(n) == KNOWN_COUNTS[n]
    for n in range(4):
        assert brute_force_topology_count(n) == KNOWN_COUNTS[n]
    started = time.perf_counter()
    assert enumerate_preorders(6) == KNOWN_COUNTS[6]
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"n=6 took {elapsed:.1f}s"
    _passing("criterion 4 (preorder counts 0..6, n<=3 brute-confirmed, n=6 <=60s)")


def test_criterion_5_finite_cross_check():
    started = time.perf_counter()
    report = finite_cross_check(5)
    elapsed = time.perf_counter() - started
    assert report.partitions_checked == 52
    assert report.failures == 0
    assert elapsed < 5.0
    _passing("criterion 5 (52-partition cross-check at n=5, <5s)")


def test_criterion_6_monotonicity_and_t2():
    started = time.perf_counter()
    mono = monotonicity_check(3)
    assert mono.topologies == 29 and mono.failures == 0
    for n in range(5):
        diag = FiniteRelation.diagonal(n)
        tops = []
        enumerate_preorders(n, lambda p: tops.append(topology_of_preorder(p)))
        for t in tops:
            assert is_t2(t) == (cl_delta(t) == diag)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _passing("criterion 6 (monotonicity at n=3 and T2 iff diagonal up to n=4, <5s)")


def test_criterion_7_nontransitive_finite_closure():
    catalog = build_catalog(3)
    target = relation_code(FiniteRelation.from_pairs(3, [(0, 1), (1, 0), (1, 2), (2, 1)]))
    record = next(r for r in catalog.records if r.relation_code == target)
    assert record.transitive is False
    witness = decode_preorder(record.example_preorder_code, 3)
    assert closure_of_preorder(witness) == decode_relation(target, 3)
    _passing("criterion 7 (non-transitive closure in the n=3 catalog with working witness)")


def test_criterion_8_finite_t0_coverage():
    for n in range(1, 6):
        catalog = build_catalog(n, t0_only=True)
        codes = {r.relation_code for r in catalog.records}
        for part in all_partitions(n):
            assert relation_code(eq_of_partition(part)) in codes, (n, part)
    _passing("criterion 8 (every equivalence relation in the T0 catalogs up to n=5)")


def test_criterion_9_determinism_and_sensitivity():
    # byte-identical golden reports across two runs of criterion 3
    first = _report_cache or _run_criterion_3_reports()
    second = _run_criterion_3_reports()
    for kind, report in second.items():
        assert report.render_text() == first[kind].render_text()
        assert report.render_json_line() == first[kind].render_json_line()

    # every documented fault-injection mode is detected within 10,000 samples
    detections = []

    spec = parse_spec("singletons=omega;fin=[3,2];inf=1")
    rep = verify_construction(SharedFinTwoCase1(spec, block_residues=(0, 0)), spec, n_pairs=10_000, basis_samples=0)
    detections.append(("wrong residue class / FinTwoCase1", rep.mismatches > 0))

    spec = parse_spec("singletons=2;fin=[2,3];inf=omega")
    rep = verify_construction(SharedFinTwoCase2(spec, block_residues=(1, 1)), spec, n_pairs=10_000, basis_samples=0)
    detections.append(("wrong residue class / FinTwoCase2", rep.mismatches > 0))

    spec = parse_spec("singletons=0;fin=cycle[2];inf=0")
    rep = verify_construction(SwappedRepPairBlocks(spec), spec, n_pairs=10_000, basis_samples=0)
    detections.append(("swapped representatives / PairBlocks", rep.t1_failures > 0))

    spec = parse_spec("singletons=0;fin=cycle[3];inf=0")
    rep = verify_construction(SwappedRepExtendPairs(spec), spec, n_pairs=10_000, basis_samples=0)
    detections.append(("swapped representatives / ExtendPairs", rep.t1_failures > 0))

    spec = parse_spec("singletons=1;fin=[2];inf=1")
    rep = verify_construction(SwappedRepT0Sat(spec), spec, n_pairs=10_000, basis_samples=0)
    detections.append(("swapped representatives / T0Sat", rep.certificate_failures > 0))

    spec = parse_spec("singletons=0;fin=[];inf=3")
    rep = verify_construction(OffByOneInfBlocks(spec), spec, n_pairs=10_000, basis_samples=0)
    detections.append(("off-by-one exclusion / InfBlocks", rep.t1_failures > 0))

    spec = parse_spec("singletons=omega;fin=[];inf=2")
    rep = verify_construction(OffByOneInfOrSingleton(spec), spec, n_pairs=10_000, basis_samples=0)
    detections.append(("off-by-one exclusion / InfOrSingleton", rep.t1_failures > 0))

    spec = parse_spec("singletons=1;fin=cycle[2,3];inf=2")
    rep = verify_construction(OffByOneSplitUnion(spec), spec, n_pairs=10_000, basis_samples=0)
    detections.append(("off-by-one exclusion / SplitUnion", rep.t1_failures > 0))

    spec = parse_spec("singletons=1;fin=[2];inf=1")
    rep = verify_construction(OffByOneTauR(spec), spec, n_pairs=10_000, basis_samples=0)
    detections.append(("off-by-one block / TauR", rep.certificate_failures > 0))

    for label, caught in detections:
        assert caught, f"fault not detected: {label}"
    _passing("criterion 9 (golden-report byte equality; all fault injections detected)")
