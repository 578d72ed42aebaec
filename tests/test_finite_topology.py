"""Finite topologies, the preorder correspondence, and diagonal closures."""

import functools
import operator
import pickle

import pytest

from reference import brute_force_topology_count

from diagclosure.enumeration import enumerate_preorders
from diagclosure.errors import BoundExceededError, InvalidRepresentativeError, NotATopologyError
from diagclosure.finite_topology import (
    _MAX_OPENS,
    MAX_POINTS,
    MAX_SCAN,
    FiniteTopology,
    Preorder,
    cl_delta,
    cl_delta_open_family,
    generate_from_subbasis,
    is_t0,
    is_t1,
    is_t2,
    minimal_neighborhoods,
    parse_topology,
    preorder_of_topology,
    render_topology,
    t0_saturation,
    tau_r,
    topology_of_preorder,
)
from diagclosure.relations import FinitePartition, FiniteRelation, all_partitions, eq_of_partition


def _opens_as_sets(t):
    return {frozenset(i for i in range(t.n) if m >> i & 1) for m in t.opens}


def _subbasis_closure_oracle(n, sets):
    # independent closure computation on sets-of-frozensets
    family = {frozenset(s) for s in sets} | {frozenset(range(n)), frozenset()}
    changed = True
    while changed:
        changed = False
        items = list(family)
        for a in items:
            for b in items:
                for c in (a | b, a & b):
                    if c not in family:
                        family.add(c)
                        changed = True
    return family


def _all_preorders(n):
    out = []
    enumerate_preorders(n, out.append)
    return out


def _all_topologies(n):
    return [topology_of_preorder(p) for p in _all_preorders(n)]


# --- subbasis generation ---

def test_generate_from_subbasis_examples():
    t = generate_from_subbasis(2, [])
    assert _opens_as_sets(t) == {frozenset(), frozenset({0, 1})}

    t = generate_from_subbasis(2, [{0}])
    assert _opens_as_sets(t) == {frozenset(), frozenset({0}), frozenset({0, 1})}

    t = generate_from_subbasis(3, [{0}, {1}])
    expected = {frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1}), frozenset({0, 1, 2})}
    assert _opens_as_sets(t) == expected
    assert _opens_as_sets(t) == _subbasis_closure_oracle(3, [{0}, {1}])
    assert generate_from_subbasis(2, [[0, 0]]) == generate_from_subbasis(2, [{0}])  # a point listed twice

    with pytest.raises(ValueError, match="^subbasis set outside the ground set$"):
        generate_from_subbasis(2, [{0}, {2}])


def test_generate_from_subbasis_matches_oracle_on_random_input():
    import random

    rng = random.Random(23)
    for _ in range(400):
        n = rng.randrange(0, 7)
        sets = [frozenset(x for x in range(n) if rng.random() < 0.5) for _ in range(rng.randrange(7))]
        t = generate_from_subbasis(n, sets)
        assert _opens_as_sets(t) == _subbasis_closure_oracle(n, sets)
        t.validate()


# --- Alexandrov correspondence ---

@pytest.mark.parametrize("cls", [FiniteRelation, Preorder])
@pytest.mark.parametrize("rows, message", [
    ((1,), "^expected 2 rows, got 1$"),
    ((1, 2, 4), "^expected 2 rows, got 3$"),
    ((1, 0b110), "^row bits outside the ground set$"),
])
def test_relations_refuse_rows_of_the_wrong_shape(cls, rows, message):
    with pytest.raises(ValueError, match=message):
        cls(2, rows)


def test_preorder_refuses_a_relation_that_is_not_reflexive():
    with pytest.raises(ValueError, match="^not reflexive at 1$"):
        Preorder(2, (0b11, 0b00))
    # no keyword skips the checks
    with pytest.raises(TypeError, match="validate"):
        Preorder(2, (0b11, 0b00), validate=False)


def test_a_preorder_is_a_finite_relation_of_its_own_type():
    rows = (0b011, 0b010, 0b111)  # 0 <= 1, and 2 below both
    p, r = Preorder(3, rows), FiniteRelation(3, rows)
    assert isinstance(p, FiniteRelation) and p.is_reflexive() and p.is_transitive()
    assert [p.leq(i, j) for i in range(3) for j in range(3)] == [r.has(i, j) for i in range(3) for j in range(3)]
    assert p.leq(0, 1) and not p.leq(1, 0)
    # the same rows, but not the same value; their hashes may be equal
    assert p != r and r != p and not p == r and len({p, r}) == 2
    assert p == Preorder(3, list(rows)) and hash(p) == hash(Preorder(3, rows)) == hash((3, rows))
    assert repr(p) == "Preorder(n=3, up=[(0, 1), (1,), (0, 1, 2)])"
    assert repr(r) == "FiniteRelation(n=3, off_diagonal=[(0, 1), (2, 0), (2, 1)])"
    # a topology keeps the minimal neighborhoods it is built with, and pickles with them
    t = topology_of_preorder(p)
    assert t._mins == rows and tuple(t) == (3, t.opens, rows)
    copy = pickle.loads(pickle.dumps(t))
    assert copy == t and copy.opens == t.opens and copy._mins == rows


def test_topology_of_preorder_examples():
    eq = Preorder(3, (0b001, 0b010, 0b100))
    assert len(topology_of_preorder(eq).opens) == 8  # discrete

    chain = Preorder(3, (0b111, 0b110, 0b100))  # 0 <= 1 <= 2
    assert _opens_as_sets(topology_of_preorder(chain)) == {
        frozenset(),
        frozenset({2}),
        frozenset({1, 2}),
        frozenset({0, 1, 2}),
    }


def test_alexandrov_round_trip_all_preorders_n3():
    preorders = []
    count = enumerate_preorders(3, preorders.append)
    assert count == 29 == brute_force_topology_count(3)
    for p in preorders:
        assert preorder_of_topology(topology_of_preorder(p)) == p
    # and distinct preorders give distinct topologies
    assert len({topology_of_preorder(p).opens for p in preorders}) == 29


def test_sierpinski_orientation_pin():
    # opens are up-sets: the open point is below the closed one
    t = FiniteTopology(2, {0b00, 0b01, 0b11})
    p = preorder_of_topology(t)
    assert p.leq(1, 0) and not p.leq(0, 1)
    assert topology_of_preorder(p) == t


def _up_set_scan(p):
    # every subset that contains the up-set of each of its points
    return {m for m in range(1 << p.n) if all(p.rows[i] & ~m == 0 for i in range(p.n) if m >> i & 1)}


def test_topology_of_preorder_matches_the_up_set_scan_up_to_n4():
    for n in range(5):
        for p in _all_preorders(n):
            assert topology_of_preorder(p).opens == _up_set_scan(p)


# --- diagonal closure ---

def test_cl_delta_examples():
    discrete = topology_of_preorder(Preorder(3, (1, 2, 4)))
    assert cl_delta(discrete) == FiniteRelation.diagonal(3)

    sierpinski = FiniteTopology(2, {0b00, 0b01, 0b11})
    assert cl_delta(sierpinski) == FiniteRelation.full(2)

    t = generate_from_subbasis(3, [{2}, {0, 1}])
    assert cl_delta(t) == FiniteRelation.from_pairs(3, [(0, 1), (1, 0)])


def test_separation_axiom_examples():
    discrete = topology_of_preorder(Preorder(3, (1, 2, 4)))
    assert is_t0(discrete) and is_t1(discrete) and is_t2(discrete)

    sierpinski = FiniteTopology(2, {0b00, 0b01, 0b11})
    assert is_t0(sierpinski) and not is_t1(sierpinski) and not is_t2(sierpinski)

    indiscrete = FiniteTopology(2, {0b00, 0b11})
    assert not is_t0(indiscrete) and not is_t1(indiscrete) and not is_t2(indiscrete)


def test_cl_delta_reflexive_symmetric_all_n4():
    tops = _all_topologies(4)
    assert len(tops) == 355
    for t in tops:
        r = cl_delta(t)
        assert r.is_reflexive() and r.is_symmetric()


def test_cl_delta_oracle_equivalence_up_to_n4():
    for n in range(5):
        for t in _all_topologies(n):
            assert cl_delta(t) == cl_delta_open_family(t)


def test_t2_iff_closure_is_diagonal_up_to_n4():
    for n in range(5):
        diag = FiniteRelation.diagonal(n)
        for t in _all_topologies(n):
            assert is_t2(t) == (cl_delta(t) == diag)


def test_monotonicity_n3():
    tops = _all_topologies(3)
    closures = [cl_delta(t) for t in tops]
    pairs = 0
    for i, sigma in enumerate(tops):
        for j, tau in enumerate(tops):
            if sigma.opens >= tau.opens:
                pairs += 1
                assert closures[i].issubset(closures[j])
                if sigma.opens == tau.opens:
                    assert closures[i] == closures[j]
    assert pairs > 29  # the comparable pairs beyond the reflexive ones


def test_finite_t1_implies_discrete_up_to_n5():
    for n in range(1, 6):
        found_discrete = 0
        def check(p, n=n):
            nonlocal found_discrete
            t = topology_of_preorder(p)
            if is_t1(t):
                found_discrete += 1
                assert len(t.opens) == 1 << n
                assert cl_delta(t) == FiniteRelation.diagonal(n)
        enumerate_preorders(n, check)
        assert found_discrete == 1


# --- the two saturation topologies ---

def test_tau_r_examples():
    part = FinitePartition(3, [[0, 1], [2]])
    t = tau_r(part)
    assert _opens_as_sets(t) == {frozenset(), frozenset({2}), frozenset({0, 1}), frozenset({0, 1, 2})}
    assert cl_delta(t) == FiniteRelation.from_pairs(3, [(0, 1), (1, 0)])
    assert not is_t0(t)

    assert len(tau_r(FinitePartition(3, [[0], [1], [2]])).opens) == 8
    assert cl_delta(tau_r(FinitePartition(3, [[0], [1], [2]]))) == FiniteRelation.diagonal(3)

    one_block = tau_r(FinitePartition(3, [[0, 1, 2]]))
    assert _opens_as_sets(one_block) == {frozenset(), frozenset({0, 1, 2})}
    assert cl_delta(one_block) == FiniteRelation.full(3)


def test_t0_saturation_examples():
    t = t0_saturation(FinitePartition(2, [[0, 1]]))  # default rep: least point
    assert _opens_as_sets(t) == {frozenset(), frozenset({0}), frozenset({0, 1})}
    assert cl_delta(t) == FiniteRelation.full(2)
    assert is_t0(t) and not is_t1(t)

    assert len(t0_saturation(FinitePartition(3, [[0], [1], [2]])).opens) == 8

    part = FinitePartition(3, [[0, 1], [2]])
    t = t0_saturation(part, rep={0: 1, 1: 2})
    assert cl_delta(t) == FiniteRelation.from_pairs(3, [(0, 1), (1, 0)])
    assert is_t0(t)

    with pytest.raises(InvalidRepresentativeError):
        t0_saturation(part, rep={0: 2, 1: 2})


def test_saturations_close_to_the_relation_all_partitions_n5():
    for n in range(6):
        for part in all_partitions(n):
            rel = eq_of_partition(part)
            tb = tau_r(part)
            ts = t0_saturation(part)
            tb.validate()
            ts.validate()
            assert cl_delta(tb) == rel
            assert cl_delta(ts) == rel
            assert is_t0(ts)
            if any(len(b) >= 2 for b in part.blocks):
                assert not is_t0(tb)
                assert not is_t1(ts)


def _block_masks(part):
    return [sum(1 << x for x in block) for block in part.blocks]


def _block_union_scan(part):
    masks = _block_masks(part)
    return {sum(m for bi, m in enumerate(masks) if pick >> bi & 1) for pick in range(1 << len(masks))}


def _rep_saturated_scan(part, reps):
    # every subset that contains the representative of each block it meets
    masks = _block_masks(part)
    return {
        m for m in range(1 << part.n)
        if all(not m & bm or m >> reps[bi] & 1 for bi, bm in enumerate(masks))
    }


def test_saturations_match_their_defining_scans_up_to_n6():
    import itertools

    for n in range(7):
        for part in all_partitions(n):
            assert tau_r(part).opens == _block_union_scan(part)
            assert t0_saturation(part).opens == _rep_saturated_scan(part, [b[0] for b in part.blocks])
            if n <= 4:
                for reps in itertools.product(*part.blocks):
                    rep = dict(enumerate(reps))
                    assert t0_saturation(part, rep=rep).opens == _rep_saturated_scan(part, reps)


def _closed_under_union_and_intersection(family):
    return all(a | b in family and a & b in family for a in family for b in family)


def test_validate_accepts_exactly_the_topologies_on_up_to_3_points():
    checked = rejected = 0
    for n in range(4):
        full = (1 << n) - 1
        subsets = range(1 << n)
        for pick in range(1 << (1 << n)):
            family = frozenset(m for m in subsets if pick >> m & 1)
            is_topology = 0 in family and full in family and _closed_under_union_and_intersection(family)
            checked += 1
            try:
                FiniteTopology(n, family)
            except NotATopologyError as exc:
                rejected += 1
                assert not is_topology
                if exc.witness is not None:
                    a, b, op = exc.witness
                    a, b = (sum(1 << x for x in s) for s in (a, b))
                    assert a in family and b in family
                    assert (a | b if op == "union" else a & b) not in family
                    assert op in ("union", "intersection")
                else:
                    assert 0 not in family or full not in family
            else:
                assert is_topology
    assert checked == 278
    assert checked - rejected == 1 + 1 + 4 + 29


def _mins_by_intersection(t):
    """Each point's minimal neighborhood, as the intersection of every open that holds it."""
    full = (1 << t.n) - 1
    return tuple(functools.reduce(operator.and_, (o for o in t.opens if o >> x & 1), full) for x in range(t.n))


def test_minimal_neighborhoods_are_computed_once():
    # each topology keeps, from when it is built, the neighborhoods its opens give
    for p in _all_preorders(3):
        built = topology_of_preorder(p)
        assert built._mins == p.rows == _mins_by_intersection(built)
        checked = FiniteTopology(3, built.opens)
        assert checked._mins == p.rows  # kept from validate
        assert FiniteTopology(3, built.opens, validate=False)._mins == p.rows
        got = minimal_neighborhoods(checked)
        got[0] = 0  # the caller's copy, not the kept one
        assert minimal_neighborhoods(checked) == list(p.rows)
    for n in range(5):
        for part in all_partitions(n):
            for t in (tau_r(part), t0_saturation(part), generate_from_subbasis(n, part.blocks[1:])):
                assert t._mins == _mins_by_intersection(t) and t == FiniteTopology(n, t.opens)


# --- text format ---

def test_topology_text_round_trip():
    t = generate_from_subbasis(3, [{2}, {0, 1}])
    text = render_topology(t)
    assert parse_topology(text) == t
    assert text.splitlines()[0] == "-"


def test_parse_topology_rejects_non_topology():
    with pytest.raises(NotATopologyError) as err:
        parse_topology("-\n0\n1\n0,1,2\n")
    assert "union" in str(err.value)
    assert err.value.witness == ((0,), (1,), "union")

    with pytest.raises(NotATopologyError):
        parse_topology("0\n0,1\n")  # missing empty set

    with pytest.raises(NotATopologyError):
        parse_topology("-\n0\n1\n")  # missing full set {0,1}

    with pytest.raises(NotATopologyError, match="^open set outside the ground set$"):
        FiniteTopology(1, {0, 1, 2})


# --- size bounds ---

def test_tau_r_refuses_too_many_blocks():
    too_many = FinitePartition(MAX_SCAN + 1, [[x] for x in range(MAX_SCAN + 1)])
    with pytest.raises(BoundExceededError, match="blocks"):
        tau_r(too_many)
    # the block count is what is bounded, not the point count
    wide = FinitePartition(MAX_SCAN + 4, [range(0, 10), range(10, MAX_SCAN + 4)])
    assert len(tau_r(wide).opens) == 4


def test_t0_saturation_refuses_too_many_points():
    with pytest.raises(BoundExceededError, match="points"):
        t0_saturation(FinitePartition(MAX_SCAN + 1, [range(MAX_SCAN + 1)]))


def test_topology_of_preorder_refuses_too_many_points():
    n = MAX_SCAN + 1
    with pytest.raises(BoundExceededError, match="points"):
        topology_of_preorder(Preorder(n, [1 << i for i in range(n)]))


def test_parse_topology_refuses_points_beyond_the_limit():
    everything = ",".join(str(x) for x in range(MAX_POINTS))
    assert parse_topology(f"-\n{everything}\n").n == MAX_POINTS
    with pytest.raises(BoundExceededError, match=f"line 2: point {MAX_POINTS}"):
        parse_topology(f"-\n0,{MAX_POINTS}\n")
    with pytest.raises(BoundExceededError):
        parse_topology("-\n0,10000000000000\n")  # refused before a mask that wide is built


def _nonempty_subset_lines(count):
    return "\n".join(",".join(str(x) for x in range(13) if m >> x & 1) for m in range(1, count + 1)) + "\n"


def test_parse_topology_refuses_too_many_opens():
    # at the limit the family is still read, and refused as no topology by the empty-set check
    with pytest.raises(NotATopologyError, match="empty set"):
        parse_topology(_nonempty_subset_lines(_MAX_OPENS))
    with pytest.raises(BoundExceededError, match=f"line {_MAX_OPENS + 1}: more than {_MAX_OPENS} opens"):
        parse_topology(_nonempty_subset_lines(_MAX_OPENS + 1))
    # repeated lines are one open each
    assert len(parse_topology("-\n0\n" * (_MAX_OPENS + 1)).opens) == 2
