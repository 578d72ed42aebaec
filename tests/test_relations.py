"""Relations, partitions, and partition-spec parsing."""

import collections
import copy
import itertools
import math
import operator
import pickle
import random
from collections import _tuplegetter

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
    BlockRef,
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
    _new,
    _TupleValue,
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


def test_counts_do_not_compare_with_non_numbers():
    for other in ("3", 3.0, True, None):
        assert Count(3).__eq__(other) is NotImplemented
        assert not Count(3) == other and Count(3) != other
    with pytest.raises(TypeError, match="^'<' not supported between instances of 'Count' and 'str'$"):
        Count(3) < "3"
    with pytest.raises(TypeError, match="^'<' not supported between instances of 'Count' and 'bool'$"):
        OMEGA < True


def test_counts_write_all_six_comparisons():
    # tuple orders its subclasses by their items, so functools.total_ordering
    # would fill in none of these: each is Count's own
    ops = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)
    values = (0, 1, 3, 10**400, None)  # None is omega, above every natural
    rank = {v: math.inf if v is None else v for v in values}
    for a, b, op in itertools.product(values, values, ops):
        want = op(rank[a], rank[b])
        assert op(Count(a), Count(b)) is want, (a, b, op)
        if b is not None:
            assert op(Count(a), b) is want, (a, b, op)
        if a is not None:
            assert op(a, Count(b)) is want, (a, b, op)
    assert OMEGA >= 10**400 and Count(3) >= 3 and not 3 >= OMEGA and OMEGA >= OMEGA
    # a count equals the int of its value, but not the tuple of its fields
    for count, items in ((Count(3), (3,)), (OMEGA, (None,))):
        assert count != items and items != count and not count == items and not items == count


def test_counts_refuse_assignment_and_omega_stays_shared_omega():
    # a parsed "omega" is the shared OMEGA; were it assignable, one write would change every later spec
    for count in (OMEGA, Count(3)):
        with pytest.raises(AttributeError, match="^cannot assign to field 'value'$"):
            count.value = 3
        with pytest.raises(AttributeError, match="^cannot delete field 'value'$"):
            del count.value
    assert OMEGA.is_omega and OMEGA.value is None
    assert parse_spec("singletons=omega;fin=[];inf=0").singletons is OMEGA
    assert Count(3) == 3 and hash(Count(3)) == hash(3) and repr(Count(3)) == "Count(3)"
    for count in (OMEGA, Count(0), Count(3)):
        back = pickle.loads(pickle.dumps(count))
        assert type(back) is Count and back == count and back.value == count.value


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


NON_TEXT = (None, 5, b"s:3")


def test_parse_spec_refuses_non_text():
    for value in NON_TEXT:
        with pytest.raises(SpecSyntaxError, match=f"^bad partition spec: expected a str, got {type(value).__name__}$"):
            parse_spec(value)


def test_count_parse_refuses_non_text():
    what = r"bad count \(expected a natural number or 'omega'\)"
    for value in NON_TEXT + (b"3",):  # read_natural reads str only: int(b"3") alone would give 3
        with pytest.raises(SpecSyntaxError, match=f"^{what}: expected a str, got {type(value).__name__}$"):
            Count.parse(value)


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


def test_parse_point_refuses_non_text():
    for value in NON_TEXT:
        with pytest.raises(InvalidAddressError, match=f"^bad point address: expected a str, got {type(value).__name__}$"):
            parse_point(value)


def test_addresses_render_by_their_class_member():
    # a plain int class is no BlockClass member: it renders with its element, by the member it equals
    assert PointAddr(S, 3, 0).render() == "s:3" and PointAddr(0, 3, 0).render() == "s:3:0"
    assert PointAddr(F, 10**300, 1).render() == f"f:{10**300}:1" and PointAddr(2, 4, 5).render() == "i:4:5"
    assert BlockRef(S, 3).render() == "s:3" and BlockRef(1, 10**300).render() == f"f:{10**300}"


def test_no_such_point_names_the_point_as_typed():
    spec = parse_spec("singletons=2;fin=[2];inf=1")
    for a, shown in [
        (PointAddr(S, 3, 0), "s:3"),
        (PointAddr(F, 0, 2), "f:0:2"),
        (PointAddr(I, 10**300, 0), f"i:{10**300}:0"),
        # no text reads back as these: their repr
        (PointAddr(S, 0, 1), "PointAddr(cls=<BlockClass.SINGLETON: 0>, block=0, elem=1)"),
        (PointAddr(I, -1, 0), "PointAddr(cls=<BlockClass.INFINITE: 2>, block=-1, elem=0)"),
        (PointAddr(2, 1, 0), "PointAddr(cls=2, block=1, elem=0)"),
        (PointAddr(I, True, 0), "PointAddr(cls=<BlockClass.INFINITE: 2>, block=True, elem=0)"),
        ((2, 1, 0), "(2, 1, 0)"),
    ]:
        with pytest.raises(InvalidAddressError) as info:
            spec.check_addr(a)
        assert str(info.value) == f"no such point for {spec.render()}: {shown}"


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


# --- tuple values: the fields declared once, in _fields ---

class _Pair(_TupleValue):
    _fields = ("left", "right")
    _defaults = {"right": 0}


class _Checked(_TupleValue):
    """A class that writes its own __new__, keeping a derived item after its field."""

    _fields = ("n",)
    double = _tuplegetter(1, None)

    def __new__(cls, n):
        if n < 0:
            raise ValueError("negative")
        return _new(cls, (n, 2 * n))


def test_tuple_value_fields_are_read_only_getters_of_their_items():
    pair = _Pair(1, 2)
    assert (pair.left, pair.right) == (1, 2) and tuple(pair) == (1, 2) and pair[1] == 2 and len(pair) == 2
    assert type(_Pair.left) is type(collections.namedtuple("Named", "x").x)  # a namedtuple field's C getter
    for name in ("left", "right", "other"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(pair, name, 3)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(pair, name)
    assert pair == _Pair(1, 2) and not hasattr(pair, "__dict__")
    # a value orders as its tuple, but does not join or repeat like one
    assert _Pair(1, 2) < _Pair(1, 3) and sorted([_Pair(2, 0), _Pair(1, 5)]) == [_Pair(1, 5), _Pair(2, 0)]
    for op in (lambda: pair + pair, lambda: pair + (3,), lambda: pair * 2, lambda: 2 * pair):
        with pytest.raises(TypeError, match="^unsupported operand"):
            op()


def test_tuple_value_new_takes_the_fields_by_position_or_keyword_with_defaults():
    assert _Pair.__new__ is _TupleValue.__new__
    assert _Pair(1) == _Pair(1, 0) == _Pair(left=1) == _Pair(right=0, left=1) and _Pair(1, right=2) == _Pair(1, 2)
    assert type(_Pair(1)) is _Pair and _Pair(1).right == 0
    refused = "takes its fields left, right, each once, by position or keyword"
    for args, kwargs, message in [
        ((), {}, "missing 1 required positional argument: 'left'"),
        ((), {"right": 2}, "missing 1 required positional argument: 'left'"),
        ((1, 2, 3), {}, refused),
        ((1,), {"left": 1}, refused),
        ((1,), {"middle": 1}, refused),
    ]:
        with pytest.raises(TypeError, match=rf"^_Pair\.__new__\(\) {message}$"):
            _Pair(*args, **kwargs)


def test_tuple_value_shows_its_fields_and_keeps_the_new_it_writes():
    assert repr(_Pair(1, "a")) == "_Pair(left=1, right='a')"
    checked = _Checked(3)
    assert checked.n == 3 and checked.double == 6 and tuple(checked) == (3, 6)
    assert repr(checked) == "_Checked(n=3)"  # the derived item is not a field
    with pytest.raises(ValueError, match="^negative$"):
        _Checked(-1)
    for twin in (pickle.loads(pickle.dumps(checked)), copy.deepcopy(checked)):
        assert type(twin) is _Checked and twin == checked and twin.double == 6
