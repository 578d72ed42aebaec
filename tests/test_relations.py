"""Relations, partitions, and partition-spec parsing."""

import itertools
import random

import pytest

from diagclosure.constructions import realise_t1
from diagclosure.errors import (
    GroundSetFiniteError,
    InvalidAddressError,
    NotEquivalenceError,
    NotRealisableError,
    SpecSyntaxError,
)
from diagclosure.relations import (
    OMEGA,
    BlockClass,
    Count,
    FiniteBlocks,
    FinitePartition,
    FiniteRelation,
    PartitionSpec,
    PointAddr,
    all_partitions,
    eq_of_partition,
    is_t1_realisable,
    parse_point,
    parse_spec,
    partition_of_eq,
    same_block,
)

S, F, I = BlockClass.SINGLETON, BlockClass.FINITE, BlockClass.INFINITE


# --- counts ---

def test_count_arithmetic():
    with pytest.raises(TypeError):  # counts compare; they do not add
        Count(2) + Count(3)
    assert OMEGA > 10**9
    assert Count(3) < OMEGA
    assert Count(0) == 0 and not Count(0).is_omega
    assert str(OMEGA) == "omega" and str(Count(7)) == "7"
    with pytest.raises(ValueError):
        Count(-1)
    with pytest.raises(ValueError):
        OMEGA.finite()


# --- spec parsing ---

def test_parse_spec_examples():
    s = parse_spec("singletons=omega;fin=[];inf=0")
    assert s.singletons.is_omega and s.fin.is_empty and s.inf == 0

    s = parse_spec("singletons=0;fin=[2];inf=1")
    assert s.singletons == 0 and s.fin.sizes == (2,) and not s.fin.cyclic and s.inf == 1

    with pytest.raises(GroundSetFiniteError):
        parse_spec("singletons=3;fin=[2,3];inf=0")


def test_parse_spec_clause_order_and_cycle():
    s = parse_spec("inf=omega;singletons=2;fin=cycle[2,3]")
    assert s.inf.is_omega and s.singletons == 2
    assert s.fin.cyclic and s.fin.sizes == (2, 3)
    assert s.fin.size_of(0) == 2 and s.fin.size_of(1) == 3 and s.fin.size_of(4) == 2
    assert s.render() == "singletons=2;fin=cycle[2,3];inf=omega"
    assert parse_spec(s.render()) == s


@pytest.mark.parametrize(
    "text",
    [
        "singletons=omega;fin=[]",  # missing clause
        "singletons=omega;fin=[];inf=0;inf=1",
        "singletons=omega;singletons=omega;inf=1",
        "singletons=x;fin=[];inf=1",
        "singletons=omega;fin=2;inf=0",
        "singletons=omega;fin=[1];inf=0",  # size < 2
        "singletons=omega;fin=cycle[];inf=0",
        "singletons=omega;fin=cycle[ ];inf=0",
        "singletons=omega;fin=[2,];inf=0",
        "bogus=omega;fin=[];inf=1",
    ],
)
def test_parse_spec_rejects(text):
    with pytest.raises(SpecSyntaxError):
        parse_spec(text)


def test_ground_set_must_be_infinite():
    with pytest.raises(GroundSetFiniteError):
        PartitionSpec(Count(0), FiniteBlocks(), Count(0))  # no blocks at all
    with pytest.raises(GroundSetFiniteError):
        parse_spec("singletons=0;fin=[];inf=0")
    # any one source of infinity suffices
    parse_spec("singletons=omega;fin=[];inf=0")
    parse_spec("singletons=0;fin=cycle[2];inf=0")
    parse_spec("singletons=0;fin=[];inf=1")


def test_finite_blocks_normalise_and_refuse_sizes():
    assert FiniteBlocks([2, 3]).sizes == (2, 3) and FiniteBlocks([2, 3]) == FiniteBlocks((2, 3))
    assert FiniteBlocks() == FiniteBlocks((), False) and FiniteBlocks().is_empty
    assert FiniteBlocks(sizes=[2], cyclic=True) == FiniteBlocks((2,), True)
    for sizes, cyclic in (([1], False), ([2, 0], True), (["2"], False), ((), True)):
        with pytest.raises(SpecSyntaxError):
            FiniteBlocks(sizes, cyclic)
    spec = PartitionSpec(singletons=OMEGA, fin=FiniteBlocks(), inf=Count(0))
    assert spec == parse_spec("singletons=omega;fin=[];inf=0") and hash(spec) == hash(parse_spec(spec.render()))


# --- point addresses ---

def test_parse_point_grammar():
    assert parse_point("s:3") == PointAddr(S, 3, 0)
    assert parse_point("f:0:1") == PointAddr(F, 0, 1)
    assert parse_point("i:2:7") == PointAddr(I, 2, 7)
    for bad in ("x:1", "s:1:1", "f:0", "i:", "f:a:b", "s:-1"):
        with pytest.raises(InvalidAddressError):
            parse_point(bad)


def test_addr_validation():
    spec = parse_spec("singletons=3;fin=[2,3];inf=2")
    assert spec.valid_addr(PointAddr(S, 2, 0))
    assert not spec.valid_addr(PointAddr(S, 3, 0))
    assert not spec.valid_addr(PointAddr(S, 0, 1))
    assert spec.valid_addr(PointAddr(F, 1, 2))
    assert not spec.valid_addr(PointAddr(F, 1, 3))
    assert not spec.valid_addr(PointAddr(F, 2, 0))
    assert spec.valid_addr(PointAddr(I, 1, 10**6))
    assert not spec.valid_addr(PointAddr(I, 2, 0))

    cyc = parse_spec("singletons=0;fin=cycle[2,3];inf=0")
    assert cyc.valid_addr(PointAddr(F, 10**9, 1))
    assert cyc.valid_addr(PointAddr(F, 1, 2))
    assert not cyc.valid_addr(PointAddr(F, 0, 2))

    with pytest.raises(InvalidAddressError):
        spec.check_addr(PointAddr(I, 5, 0))


# --- same_block ---

def test_same_block_examples():
    spec = parse_spec("singletons=5;fin=[2,3];inf=2")
    assert same_block(spec, PointAddr(I, 0, 0), PointAddr(I, 0, 7))
    assert not same_block(spec, PointAddr(S, 3, 0), PointAddr(S, 4, 0))
    assert not same_block(spec, PointAddr(F, 1, 0), PointAddr(I, 1, 0))
    with pytest.raises(InvalidAddressError):
        same_block(spec, PointAddr(S, 9, 0), PointAddr(S, 0, 0))


def test_same_block_is_equivalence_on_sampled_addresses():
    spec = parse_spec("singletons=omega;fin=cycle[2,3];inf=omega")
    rng = random.Random(7)

    def sample():
        cls = (S, F, I)[rng.randrange(3)]
        block = rng.randrange(20)
        if cls is S:
            return PointAddr(S, block, 0)
        if cls is F:
            return PointAddr(F, block, rng.randrange(spec.fin.size_of(block)))
        return PointAddr(I, block, rng.randrange(20))

    pts = [sample() for _ in range(60)]
    for p in pts:
        assert same_block(spec, p, p)
    for p in pts:
        for q in pts:
            assert same_block(spec, p, q) == same_block(spec, q, p)
    for p in pts[:20]:
        for q in pts[:20]:
            for r in pts[:20]:
                if same_block(spec, p, q) and same_block(spec, q, r):
                    assert same_block(spec, p, r)


# --- the decision theorem ---

def test_is_t1_realisable_spec_examples():
    assert is_t1_realisable(parse_spec("singletons=0;fin=[2];inf=1")) is False
    assert is_t1_realisable(parse_spec("singletons=omega;fin=[3];inf=0")) is True
    assert is_t1_realisable(parse_spec("singletons=5;fin=[];inf=2")) is True
    assert is_t1_realisable(parse_spec("singletons=0;fin=cycle[2];inf=0")) is True


def test_is_t1_realisable_truth_table():
    # Part(R) is finite iff singletons finite, fin explicit, inf finite;
    # non-realisable iff that holds together with a >= 2 finite block.
    rows = [
        ("singletons=5;fin=[];inf=2", True),
        ("singletons=5;fin=[];inf=omega", True),
        ("singletons=5;fin=[2,3];inf=2", False),
        ("singletons=5;fin=[2,3];inf=omega", True),
        ("singletons=5;fin=cycle[2];inf=0", True),
        ("singletons=5;fin=cycle[2];inf=omega", True),
        ("singletons=omega;fin=[];inf=0", True),
        ("singletons=omega;fin=[];inf=omega", True),
        ("singletons=omega;fin=[2,3];inf=0", True),
        ("singletons=omega;fin=[2,3];inf=omega", True),
        ("singletons=omega;fin=cycle[2];inf=0", True),
        ("singletons=omega;fin=cycle[2];inf=omega", True),
        ("singletons=0;fin=[2];inf=3", False),
        ("singletons=0;fin=[];inf=3", True),
    ]
    for text, expected in rows:
        spec = parse_spec(text)
        assert is_t1_realisable(spec) is expected, text
    # A grid, each answer read off the text: finitely many blocks is no "omega"
    # and no "cycle", and a finite block with two or more points a non-empty fin.
    for singletons, fin, inf in itertools.product(
        ("0", "1", "5", "omega"), ("[]", "[2]", "[2,3]", "cycle[2]", "cycle[2,3]"), ("0", "2", "omega")
    ):
        text = f"singletons={singletons};fin={fin};inf={inf}"
        try:
            spec = parse_spec(text)
        except GroundSetFiniteError:
            continue
        expected = "omega" in text or "cycle" in text or fin == "[]"
        assert is_t1_realisable(spec) is expected, text
        if expected:
            assert realise_t1(spec).spec == spec, text
        else:
            with pytest.raises(NotRealisableError):
                realise_t1(spec)


# --- finite relations and partitions ---

def test_eq_of_partition_examples():
    p = FinitePartition(3, [[0, 1], [2]])
    r = eq_of_partition(p)
    assert set(r.pairs()) == {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)}

    assert eq_of_partition(FinitePartition(3, [[0], [1], [2]])) == FiniteRelation.diagonal(3)
    assert eq_of_partition(FinitePartition(3, [[0, 1, 2]])) == FiniteRelation.full(3)


def test_partition_of_eq_examples():
    assert partition_of_eq(FiniteRelation.diagonal(3)).blocks == ((0,), (1,), (2,))
    assert partition_of_eq(FiniteRelation.full(2)).blocks == ((0, 1),)
    bad = FiniteRelation.from_pairs(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
    with pytest.raises(NotEquivalenceError):
        partition_of_eq(bad)


def test_round_trip_all_partitions_up_to_6():
    bell = {0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}
    for n in range(7):
        parts = list(all_partitions(n))
        assert len(parts) == bell[n]
        assert len(set(parts)) == bell[n]
        for p in parts:
            assert partition_of_eq(eq_of_partition(p)) == p


def test_relation_predicates():
    r = FiniteRelation.from_pairs(3, [(0, 1), (1, 0)])
    assert r.is_reflexive() and r.is_symmetric() and r.is_transitive()
    asym = FiniteRelation.from_pairs(2, [(0, 1)])
    assert not asym.is_symmetric()
    not_trans = FiniteRelation.from_pairs(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
    assert not not_trans.is_transitive()
    assert not not_trans.is_equivalence()
    assert FiniteRelation.diagonal(3).issubset(not_trans)
    assert not not_trans.issubset(FiniteRelation.diagonal(3))


def test_partition_validation():
    with pytest.raises(ValueError):
        FinitePartition(3, [[0, 1], [1, 2]])  # overlap
    with pytest.raises(ValueError):
        FinitePartition(3, [[0, 1]])  # not covering
    with pytest.raises(ValueError):
        FinitePartition(2, [[0, 1], []])  # empty block
    with pytest.raises(ValueError, match="cover"):
        FinitePartition(10**12, [[0], [1]])  # refused before a table of n slots is built
