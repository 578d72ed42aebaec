"""The verification harness: reports, determinism, stratification, sensitivity."""

import json
import random
import re

import pytest

from faults import (
    AlwaysSeparableInfBlocks,
    FirstOpenRefineInfBlocks,
    InseparableCertificateInfBlocks,
    NoCertificateInfBlocks,
    OffByOneInfBlocks,
    OffByOneInfOrSingleton,
    OffByOneSplitUnion,
    OffByOneTauR,
    SelfExcludingT1InfBlocks,
    SharedFinTwoCase1,
    SharedFinTwoCase2,
    SwappedRepExtendPairs,
    SwappedRepPairBlocks,
    SwappedRepT0Sat,
    UnexcludedRefineInfBlocks,
)

from diagclosure import finite_topology
from diagclosure.constructions import draw_below, realise_t0, realise_t1, realise_tau_r
from diagclosure.errors import BoundExceededError, InvalidSizeError, SpecMismatchError
from diagclosure.finite_topology import FiniteRelation
from diagclosure.relations import BlockClass, PointAddr, parse_spec, same_block
from diagclosure.subbasis import DEFAULT_DESIGNATED, SubbasisExample
from reference import sample_pair, sample_point

from diagclosure.verify import (
    _MAX_REDRAWS,
    _pair_sampler,
    _samplers,
    _strata_for,
    finite_cross_check,
    monotonicity_check,
    verify_construction,
)

SPECS = {
    "InfBlocks": "singletons=0;fin=[];inf=3",
    "InfOrSingleton": "singletons=omega;fin=[];inf=2",
    "FinTwoCase1": "singletons=omega;fin=[3,2];inf=1",
    "FinTwoCase2": "singletons=2;fin=[2,3];inf=omega",
    "PairBlocks": "singletons=0;fin=cycle[2];inf=0",
    "SplitUnion": "singletons=1;fin=cycle[2,3];inf=2",
}


@pytest.mark.parametrize("kind,text", sorted(SPECS.items()))
def test_verify_passes_per_kind(kind, text):
    spec = parse_spec(text)
    c = realise_t1(spec)
    assert c.kind == kind
    report = verify_construction(c, spec, n_pairs=1500, basis_samples=300, seed=3)
    assert report.passed(), report.render_text()
    assert report.pairs_checked == 1500
    assert report.certificates_checked > 0
    assert report.t1_checks == 3000
    assert report.basis_checks == 300


def test_verify_t0sat_on_unrealisable_spec():
    spec = parse_spec("singletons=1;fin=[2];inf=1")
    report = verify_construction(realise_t0(spec), spec, n_pairs=1500, basis_samples=300)
    assert report.passed()
    assert report.t1_checks == 0  # not a T1 construction

    report = verify_construction(realise_tau_r(spec), spec, n_pairs=1500, basis_samples=300)
    assert report.passed()


def test_verify_spec_mismatch():
    spec = parse_spec("singletons=0;fin=[];inf=3")
    other = parse_spec("singletons=0;fin=[];inf=4")
    c = realise_t1(spec)
    with pytest.raises(SpecMismatchError):
        verify_construction(c, other, n_pairs=10)


# a bound or count that is not an integer is refused by name before any draw,
# the same on every Python version and spec
@pytest.mark.parametrize("bounds", ((50, 50.0), (50, 50.5), ("5", 5)), ids=repr)
def test_non_integer_bounds_are_refused_before_any_draw(bounds):
    bad = next(b for b in bounds if type(b) is not int)
    message = f"^sampling bounds must be integers, got {re.escape(repr(bad))}$"
    spec = parse_spec("singletons=omega;fin=[3,2];inf=1")
    c = realise_t1(spec)
    with pytest.raises(InvalidSizeError, match=message):
        verify_construction(c, spec, n_pairs=10, bounds=bounds)
    rng = random.Random(0)
    state = rng.getstate()
    calls = [lambda p=PointAddr(cls, 0, 0): c.sample_open(p, rng, bounds) for cls in BlockClass]
    calls.append(lambda: SubbasisExample(DEFAULT_DESIGNATED).sample_open(4, rng, bounds))
    for call in calls:
        with pytest.raises(InvalidSizeError, match=message):
            call()
    assert rng.getstate() == state


@pytest.mark.parametrize("counts", ((10.0, 5), (10, "3"), (2.5, 0)), ids=repr)
def test_non_integer_sample_counts_are_refused(counts):
    bad = next(n for n in counts if type(n) is not int)
    spec = parse_spec("singletons=0;fin=[];inf=3")
    with pytest.raises(InvalidSizeError, match=f"^sample counts must be integers, got {re.escape(repr(bad))}$"):
        verify_construction(realise_t1(spec), spec, n_pairs=counts[0], basis_samples=counts[1])


@pytest.mark.parametrize("counts", ((-1, 0), (0, -5)), ids=repr)
def test_negative_sample_counts_are_refused(counts):
    spec = parse_spec("singletons=0;fin=[];inf=3")
    message = f"^sample counts must be >= 0, got n_pairs={counts[0]}, basis_samples={counts[1]}$"
    with pytest.raises(InvalidSizeError, match=message):
        verify_construction(realise_t1(spec), spec, n_pairs=counts[0], basis_samples=counts[1])


def test_sample_open_refuses_negative_bounds():
    # below zero an exclusion draw would have no index to take
    spec = parse_spec("singletons=omega;fin=[];inf=2")
    cases = (
        (realise_t1(spec), PointAddr(BlockClass.INFINITE, 0, 0), (50, -1)),
        (SubbasisExample(DEFAULT_DESIGNATED), 4, (-2, 50)),
    )
    for c, p, bounds in cases:
        with pytest.raises(InvalidSizeError, match=f"^sampling bounds must be >= 0, got {bounds[0]},{bounds[1]}$"):
            c.sample_open(p, random.Random(0), bounds)


def test_report_rendering_and_determinism():
    spec = parse_spec("singletons=omega;fin=[3,2];inf=1")
    c = realise_t1(spec)
    r1 = verify_construction(c, spec, n_pairs=800, basis_samples=200, seed=5)
    r2 = verify_construction(c, spec, n_pairs=800, basis_samples=200, seed=5)
    assert r1 == r2
    assert r1.render_text() == r2.render_text()
    assert r1.render_json_line() == r2.render_json_line()
    payload = json.loads(r1.render_json_line())
    assert payload["construction"] == "FinTwoCase1"
    assert payload["bounds"] == "50,50"
    assert list(payload) == [
        "spec", "construction", "pairs_checked", "mismatches",
        "certificates_checked", "certificate_failures", "t1_checks",
        "t1_failures", "basis_checks", "basis_failures", "seed", "bounds",
    ]
    # a different seed still passes
    r3 = verify_construction(c, spec, n_pairs=800, basis_samples=200, seed=6)
    assert r3.passed()


def test_stratification_covers_every_applicable_combination():
    spec = parse_spec("singletons=omega;fin=cycle[2,3];inf=omega")
    strata = _strata_for(spec)
    assert len(strata) == 8
    rng = random.Random(0)
    _, pairs = _samplers(spec, rng, (50, 50))
    seen = {s: 0 for s in strata}
    n_pairs = 10_000
    for t in range(n_pairs):
        stratum = strata[t % len(strata)]
        p, q = pairs[t % len(strata)]()
        assert p != q
        # classify the drawn pair independently and check it fits its stratum
        tags = {"s": 0, "f": 1, "i": 2}
        assert tags[stratum[0]] == p.cls and tags[stratum[1]] == q.cls
        if len(stratum) == 3:
            assert (stratum[2] == "same") == same_block(spec, p, q)
        seen[stratum] += 1
    assert all(count >= 50 for count in seen.values())


# the nine benchmark specs, the stratification spec, and more finite counts
SAMPLER_SPECS = (
    "singletons=0;fin=[];inf=3",
    "singletons=omega;fin=[];inf=2",
    "singletons=omega;fin=[3,2];inf=1",
    "singletons=2;fin=[2,3];inf=omega",
    "singletons=0;fin=cycle[2];inf=0",
    "singletons=1;fin=cycle[2,3];inf=2",
    "singletons=1;fin=[2];inf=1",
    "singletons=0;fin=cycle[2,3];inf=0",
    "singletons=omega;fin=cycle[2,3];inf=omega",
    "singletons=3;fin=[4,2,60];inf=omega",
    "singletons=omega;fin=[7];inf=2",
)
SAMPLER_BOUNDS = ((50, 50), (1, 1), (2, 70))


@pytest.mark.parametrize("bounds", SAMPLER_BOUNDS)
@pytest.mark.parametrize("text", SAMPLER_SPECS)
def test_samplers_take_the_reference_draws(text, bounds):
    # the samplers built once per run must draw exactly as the reference
    # functions that re-derive every limit and go through randint
    spec = parse_spec(text)
    for seed, stratum in enumerate(_strata_for(spec)):
        fast, slow = random.Random(seed), random.Random(seed)
        pair = _samplers(spec, fast, bounds)[1][seed]
        for _ in range(500):
            assert pair() == sample_pair(stratum, spec, slow, bounds)
        assert fast.getstate() == slow.getstate()
    fast, slow = random.Random(99), random.Random(99)
    points, _ = _samplers(spec, fast, bounds)
    for tag, point in points.items():
        for _ in range(200):
            assert point() == sample_point(tag, spec, slow, bounds)
    assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("stratum", [("s", "s"), ("f", "f", "diff"), ("i", "i", "diff")])
def test_pair_sampler_gives_up_when_every_draw_falls_in_p_block(stratum):
    # stub point samplers that always return a point of p's block, as a faulty sampler might
    cls = {"s": BlockClass.SINGLETON, "f": BlockClass.FINITE, "i": BlockClass.INFINITE}[stratum[0]]
    draws = 0

    def stuck(block=None, not_elem=None):
        nonlocal draws
        draws += 1
        return PointAddr(cls, 4, 0)

    pair = _pair_sampler(stratum, {stratum[0]: stuck})
    with pytest.raises(RuntimeError, match=re.escape(f"stratum {stratum}: ")):
        pair()
    assert draws == 1 + _MAX_REDRAWS


# the limits draw_below must draw below as randrange does: small ones, powers
# of two and their neighbours, where the rejection rule shows, and a large prime
DRAW_LIMITS = (1, 2, 3, 4, 5, 7, 8, 9, 51, *(2**k + d for k in (4, 6, 31, 32, 33, 53, 64, 100) for d in (-1, 1)), 10**9 + 7)


@pytest.mark.parametrize("seed", (0, 1, 99, 2**40 + 3))
def test_draw_below_takes_the_randrange_draws(seed):
    references = (
        lambda rng, n: rng.randrange(n),
        lambda rng, n: rng.randint(0, n - 1),
    )
    for n in DRAW_LIMITS:
        for t, reference in enumerate(references):
            fast, slow = random.Random(seed), random.Random(seed)
            k = n.bit_length() if t else None  # the bit width fixed by the caller, or not
            for _ in range(200):
                assert draw_below(fast.getrandbits, n, k) == reference(slow, n)
            assert fast.getstate() == slow.getstate(), n
    fast, slow = random.Random(seed), random.Random(seed)
    for _ in range(2000):
        assert draw_below(fast.getrandbits, 7) - 3 == slow.randrange(-3, 4)
    assert fast.getstate() == slow.getstate()


def test_strata_shrink_with_the_spec():
    assert len(_strata_for(parse_spec("singletons=0;fin=[];inf=1"))) == 1
    assert len(_strata_for(parse_spec("singletons=0;fin=[];inf=2"))) == 2
    assert len(_strata_for(parse_spec("singletons=omega;fin=[];inf=0"))) == 1
    assert len(_strata_for(parse_spec("singletons=0;fin=[2];inf=omega"))) == 4


# --- sensitivity: every documented fault mode is caught ---

def test_wrong_residue_class_detected():
    spec = parse_spec("singletons=omega;fin=[3,2];inf=1")
    bad = SharedFinTwoCase1(spec, block_residues=(0, 0))
    report = verify_construction(bad, spec, n_pairs=10_000, basis_samples=0)
    assert report.mismatches > 0

    spec2 = parse_spec("singletons=2;fin=[2,3];inf=omega")
    bad2 = SharedFinTwoCase2(spec2, block_residues=(1, 1))
    report2 = verify_construction(bad2, spec2, n_pairs=10_000, basis_samples=0)
    assert report2.mismatches > 0


def test_swapped_representatives_detected():
    spec = parse_spec("singletons=0;fin=cycle[2];inf=0")
    bad = SwappedRepPairBlocks(spec)
    report = verify_construction(bad, spec, n_pairs=10_000, basis_samples=0)
    assert report.t1_failures > 0

    spec2 = parse_spec("singletons=0;fin=cycle[3];inf=0")
    bad2 = SwappedRepExtendPairs(spec2)
    report2 = verify_construction(bad2, spec2, n_pairs=10_000, basis_samples=0)
    assert report2.t1_failures > 0

    spec3 = parse_spec("singletons=1;fin=[2];inf=1")
    bad3 = SwappedRepT0Sat(spec3)
    report3 = verify_construction(bad3, spec3, n_pairs=10_000, basis_samples=0)
    assert report3.certificate_failures > 0


def test_off_by_one_exclusion_detected():
    spec = parse_spec("singletons=0;fin=[];inf=3")
    report = verify_construction(OffByOneInfBlocks(spec), spec, n_pairs=10_000, basis_samples=0)
    assert report.t1_failures > 0

    spec2 = parse_spec("singletons=omega;fin=[];inf=2")
    report2 = verify_construction(OffByOneInfOrSingleton(spec2), spec2, n_pairs=10_000, basis_samples=0)
    assert report2.t1_failures > 0

    spec3 = parse_spec("singletons=1;fin=[2];inf=1")
    report3 = verify_construction(OffByOneTauR(spec3), spec3, n_pairs=10_000, basis_samples=0)
    assert report3.certificate_failures > 0


def test_off_by_one_split_union_detected():
    spec = parse_spec("singletons=1;fin=cycle[2,3];inf=2")
    report = verify_construction(OffByOneSplitUnion(spec), spec, n_pairs=10_000, basis_samples=0)
    assert report.t1_failures > 0


def test_always_separable_detected():
    """The expected answer comes from the relation, not from the construction."""
    spec = parse_spec("singletons=0;fin=[];inf=3")
    report = verify_construction(AlwaysSeparableInfBlocks(spec), spec, n_pairs=2_000, basis_samples=0)
    assert report.mismatches > 0
    assert report.certificate_failures > 0


@pytest.mark.parametrize(
    "text, shared",
    (
        ("singletons=0;fin=[];inf=3", True),
        ("singletons=omega;fin=[3,2];inf=1", True),
        ("singletons=0;fin=cycle[2,3];inf=0", False),
    ),
)
def test_t1_check_reuses_the_memberships_of_an_accepted_certificate(text, shared):
    """Where the accepted certificate is the pair's two T1 opens, the T1 check
    asks only whether each open misses the other point: four memberships per
    pair.  The pair system's separating balls are opens of their own, so each
    certificate there costs its two memberships on top."""
    spec = parse_spec(text)
    c = realise_t1(spec)
    calls = 0
    member = c.member

    def counting(o, p):
        nonlocal calls
        calls += 1
        return member(o, p)

    c.member = counting
    report = verify_construction(c, spec, n_pairs=600, basis_samples=0)
    assert report.passed() and report.certificates_checked > 0
    assert calls == 4 * report.pairs_checked + (0 if shared else 2 * report.certificates_checked)


FAILURE_COUNTERS = ("mismatches", "certificate_failures", "t1_failures", "basis_failures")


@pytest.mark.parametrize(
    "fault,counter",
    (
        (NoCertificateInfBlocks, "certificate_failures"),
        (InseparableCertificateInfBlocks, "certificate_failures"),
        (SelfExcludingT1InfBlocks, "t1_failures"),  # only member(o_p, p) sees it
        (FirstOpenRefineInfBlocks, "basis_failures"),
        (UnexcludedRefineInfBlocks, "basis_failures"),  # only the membership probes see it
    ),
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)
def test_certificate_and_basis_faults_detected(fault, counter):
    spec = parse_spec("singletons=0;fin=[];inf=3")
    report = verify_construction(fault(spec), spec, n_pairs=2_000, basis_samples=2_000)
    assert getattr(report, counter) > 0
    assert all(getattr(report, other) == 0 for other in FAILURE_COUNTERS if other != counter), report.render_text()


# --- finite cross-checks ---

def test_finite_cross_check():
    assert finite_cross_check(1).failures == 0
    r3 = finite_cross_check(3)
    assert r3.partitions_checked == 5 and r3.failures == 0 and r3.passed()
    r5 = finite_cross_check(5)
    assert r5.partitions_checked == 52 and r5.failures == 0
    with pytest.raises(BoundExceededError):
        finite_cross_check(6)


@pytest.mark.parametrize("check, n", [
    (finite_cross_check, "3"),
    (monotonicity_check, None),
    (finite_cross_check, True),
    (monotonicity_check, True),
], ids=["cross-check-str", "monotonicity-none", "cross-check-true", "monotonicity-true"])
def test_the_finite_checks_read_the_size_before_comparing_it(check, n):
    # errors.check_size reads the size first: no bare TypeError from the size limit's comparison,
    # and True counts as 1, as every number of points does
    if n is True:
        report = check(n)
        assert type(report.n) is int and report.n == 1 and report == check(1)
    else:
        with pytest.raises(InvalidSizeError, match="^number of points must be an integer"):
            check(n)


def test_finite_cross_check_fails_on_a_wrong_tau_r(monkeypatch):
    # the representative-saturated topology is T0 where the block-saturated one must not be
    monkeypatch.setattr(finite_topology, "tau_r", finite_topology.t0_saturation)
    r3 = finite_cross_check(3)
    assert r3.partitions_checked == 5 and r3.failures > 0 and not r3.passed()


def test_monotonicity_check():
    r2 = monotonicity_check(2)
    assert r2.topologies == 4 and r2.failures == 0 and r2.passed()
    r3 = monotonicity_check(3)
    assert r3.topologies == 29 and r3.failures == 0 and r3.comparable_pairs >= 29
    with pytest.raises(BoundExceededError):
        monotonicity_check(4)


def test_monotonicity_check_fails_on_a_wrong_cl_delta(monkeypatch):
    # the discrete topology's closure called total: finer topologies then close more
    right = finite_topology.cl_delta

    def wrong(t):
        if len(t.opens) == 1 << t.n:
            return FiniteRelation(t.n, [(1 << t.n) - 1] * t.n)
        return right(t)

    monkeypatch.setattr(finite_topology, "cl_delta", wrong)
    r3 = monotonicity_check(3)
    assert r3.comparable_pairs == 192 and r3.failures > 0 and not r3.passed()
