"""Realisation constructions: dispatch, oracles, witnesses, certificates."""

import copy
import dataclasses
import hashlib
import pickle
import random
import re
from fractions import Fraction
from itertools import combinations, product

import pytest

from diagclosure import constructions
from diagclosure.constructions import (
    Ball,
    BlockOpen,
    Certificate,
    CofInBlock,
    CofInD,
    CofOmega,
    Construction,
    DEFAULT_DESIGNATED,
    ExtendPairs,
    ExtPt,
    FinPt1,
    FinPt2,
    FinTwoCase1,
    FinTwoCase2,
    InfBlocks,
    InfOrSingleton,
    NonTransitiveReport,
    PairBlocks,
    SatPair,
    SingletonPt,
    SplitUnion,
    SubbasisExample,
    T0Sat,
    TauR,
    check_certificate,
    nontransitive_demo,
    realise_t0,
    realise_t1,
    realise_tau_r,
    _FinPt,
)
from diagclosure.enumeration import Catalog, CatalogRecord, build_catalog, read_catalog, render_catalog
from diagclosure.errors import (
    ForeignVariantError,
    GroundSetFiniteError,
    InvalidAddressError,
    InvalidSizeError,
    NotDisjointError,
    NotRealisableError,
    NotT1ConstructionError,
    SpecMismatchError,
)
from diagclosure.finite_topology import FiniteTopology, Preorder, tau_r
from diagclosure.relations import (
    BlockClass,
    BlockRef,
    Count,
    FiniteBlocks,
    FinitePartition,
    FiniteRelation,
    PointAddr,
    is_t1_realisable,
    parse_point,
    parse_spec,
    same_block,
    _TupleValue,
)
from diagclosure.symbolic_sets import RationalBall, ResidueClassSet, pair_encode
from diagclosure.verify import CrossCheckReport, MonotonicityReport, _samplers, verify_construction
import faults
from reference import basic_nbhd_by_old_rule, sample_point

S, F, I = BlockClass.SINGLETON, BlockClass.FINITE, BlockClass.INFINITE

pt = parse_point


# --- dispatch ---

@pytest.mark.parametrize(
    "text, kind",
    [
        ("singletons=0;fin=[];inf=3", "InfBlocks"),
        ("singletons=omega;fin=[3,2];inf=1", "FinTwoCase1"),
        ("singletons=2;fin=[2];inf=omega", "FinTwoCase2"),
        ("singletons=0;fin=cycle[2];inf=0", "PairBlocks"),
        ("singletons=1;fin=cycle[2,3];inf=2", "SplitUnion"),
        ("singletons=5;fin=[];inf=2", "InfOrSingleton"),
        ("singletons=omega;fin=[];inf=0", "InfOrSingleton"),
        ("singletons=0;fin=cycle[3];inf=0", "ExtendPairs"),
    ],
)
def test_realise_t1_dispatch(text, kind):
    spec = parse_spec(text)
    c = realise_t1(spec)
    assert c.kind == kind
    assert c.spec == spec


def test_realise_t1_refuses_unrealisable():
    spec = parse_spec("singletons=1;fin=[2];inf=1")
    with pytest.raises(NotRealisableError) as err:
        realise_t1(spec)
    assert "not T1-realisable" in str(err.value)


def test_split_union_variants():
    """Extension opens are foreign to a sum exactly when every finite block has two elements."""
    ext = ExtPt(0, 2, RationalBall(*pair_encode(0), Fraction(1)))
    opens = (Ball(ext.ball), SingletonPt(pt("s:0")), CofInBlock(BlockRef(I, 0)))
    for text, ext_ok in (
        ("singletons=1;fin=cycle[2,3];inf=2", True),
        ("singletons=0;fin=cycle[3];inf=omega", True),
        ("singletons=omega;fin=cycle[2];inf=0", False),
        ("singletons=omega;fin=cycle[2,2];inf=4", False),
    ):
        c = realise_t1(parse_spec(text))
        assert isinstance(c, SplitUnion)
        for o in opens:
            assert c.contains(o, o)
        if ext_ok:
            assert c.contains(ext, ext)
        else:
            with pytest.raises(ForeignVariantError):
                c.contains(ext, ext)
        with pytest.raises(ForeignVariantError):
            c.member(SatPair(pt("f:0:0")), pt("f:0:0"))


REFUSAL_SPECS = (
    "singletons=0;fin=[];inf=3",
    "singletons=omega;fin=[];inf=2",
    "singletons=omega;fin=[];inf=0",
    "singletons=5;fin=[];inf=omega",
    "singletons=omega;fin=[3,2];inf=1",
    "singletons=2;fin=[2,3];inf=omega",
    "singletons=1;fin=[2];inf=1",
    "singletons=0;fin=cycle[2];inf=0",
    "singletons=0;fin=cycle[2,3];inf=0",
    "singletons=1;fin=cycle[2,3];inf=2",
    "singletons=omega;fin=cycle[2];inf=0",
    "singletons=0;fin=cycle[3];inf=omega",
    "singletons=omega;fin=[2];inf=omega",
)
# for each constructor, the indices into REFUSAL_SPECS it accepts; it refuses the rest
ACCEPTED = {
    InfOrSingleton: {0, 1, 2, 3},
    InfBlocks: {0},
    FinTwoCase1: {4, 12},
    FinTwoCase2: {5},
    ExtendPairs: {7, 8},
    PairBlocks: {7},
    SplitUnion: {9, 10, 11},
    T0Sat: set(range(13)),
    TauR: set(range(13)),
}


@pytest.mark.parametrize("cls", list(ACCEPTED), ids=lambda cls: cls.kind)
def test_constructor_refusals(cls):
    accepted = set()
    for i, text in enumerate(REFUSAL_SPECS):
        spec = parse_spec(text)
        try:
            c = cls(spec)
        except ValueError:
            continue
        assert c.spec == spec
        accepted.add(i)
    assert accepted == ACCEPTED[cls]


# the T1 kinds in dispatch order, each narrowed subclass before its base
T1_KINDS = (InfBlocks, InfOrSingleton, FinTwoCase1, FinTwoCase2, PairBlocks, ExtendPairs, SplitUnion)
NARROWED = {frozenset((InfOrSingleton, InfBlocks)), frozenset((ExtendPairs, PairBlocks))}


def grid_specs():
    counts = ("0", "1", "2", "omega")
    fins = ("[]", "[2]", "[3]", "[2,3]", "cycle[2]", "cycle[3]", "cycle[2,3]")
    for s, fin, i in product(counts, fins, counts):
        try:
            yield parse_spec(f"singletons={s};fin={fin};inf={i}")
        except GroundSetFiniteError:
            continue


def test_dispatch_agrees_with_the_theorem():
    specs = list(grid_specs())
    assert len(specs) == 100  # 112 profiles, less the 12 finite ground sets
    for spec in specs:
        covering = [kind for kind in T1_KINDS if kind.covers(spec)]
        assert is_t1_realisable(spec) == bool(covering), spec.render()
        for kind in T1_KINDS + (T0Sat, TauR):
            if kind.covers(spec):
                assert kind(spec).spec == spec
            else:
                with pytest.raises(SpecMismatchError, match=f"^{kind.kind} does not cover "):
                    kind(spec)
        for pair in combinations(covering, 2):
            assert frozenset(pair) in NARROWED, spec.render()
        if covering:
            assert type(realise_t1(spec)) is covering[0]
        else:
            with pytest.raises(NotRealisableError):
                realise_t1(spec)


def test_a_kind_refuses_a_spec_it_does_not_cover_as_a_mismatch():
    spec = parse_spec("singletons=1;fin=[];inf=2")  # InfOrSingleton's, with a singleton InfBlocks has no open for
    with pytest.raises(SpecMismatchError, match=r"^InfBlocks does not cover singletons=1;fin=\[\];inf=2$") as err:
        InfBlocks(spec)
    assert isinstance(err.value, ValueError)  # callers that catch ValueError still catch it


def test_realise_t0_examples():
    spec = parse_spec("singletons=1;fin=[2];inf=1")  # not T1-realisable
    c = realise_t0(spec)
    assert c.kind == "T0Sat"
    assert c.separable(pt("s:0"), pt("f:0:0"))
    assert not c.separable(pt("f:0:0"), pt("f:0:1"))

    all_single = realise_t0(parse_spec("singletons=omega;fin=[];inf=0"))
    o = all_single.basic_nbhd(pt("s:4"))
    assert o == SatPair(pt("s:4"))
    assert all_single.member(o, pt("s:4")) and not all_single.member(o, pt("s:5"))

    pairs = realise_t0(parse_spec("singletons=0;fin=cycle[2];inf=0"))
    # the representative of each block is element 0
    assert pairs.member(SatPair(pt("f:3:1")), pt("f:3:0"))
    assert not pairs.member(SatPair(pt("f:3:0")), pt("f:3:1"))


# --- separability ---

def test_infblocks_separable_examples():
    c = realise_t1(parse_spec("singletons=0;fin=[];inf=3"))
    assert not c.separable(pt("i:0:0"), pt("i:0:9"))
    assert c.separable(pt("i:0:0"), pt("i:1:0"))
    cert = c.witness(pt("i:0:0"), pt("i:1:0"))
    assert cert == Certificate(CofInBlock(BlockRef(I, 0)), CofInBlock(BlockRef(I, 1)))
    assert c.witness(pt("i:0:0"), pt("i:0:9")) is None


def test_subbasis_example_paper_triple():
    c = SubbasisExample([ResidueClassSet(1, 3), ResidueClassSet(2, 3)])
    assert not c.separable(2, 3)
    assert not c.separable(3, 4)
    assert c.separable(2, 4)
    cert = c.witness(2, 4)
    assert cert == Certificate(CofInD(2), CofInD(1))
    assert check_certificate(c, 2, 4, cert)


def test_subbasis_example_no_designated_sets():
    c = SubbasisExample([])
    for a in range(5):
        for b in range(a + 1, 5):
            assert not c.separable(a, b)


def test_subbasis_example_validation():
    with pytest.raises(NotDisjointError):
        SubbasisExample([ResidueClassSet(0, 2), ResidueClassSet(2, 4)])
    with pytest.raises(ValueError):
        SubbasisExample([ResidueClassSet(5, 1)])  # finite complement
    with pytest.raises(InvalidAddressError):
        SubbasisExample([]).separable(-1, 2)


def test_subbasis_example_refuses_a_small_modulus_as_a_library_error():
    # a DiagClosureError, so the command line's one handler exits 2 on it
    for modulus in (0, 1):
        with pytest.raises(InvalidSizeError, match="does not have an infinite complement"):
            SubbasisExample([ResidueClassSet(5, modulus)])


def test_separable_matches_theorem_on_samples():
    rng = random.Random(41)
    specs = [
        "singletons=0;fin=[];inf=3",
        "singletons=omega;fin=[];inf=2",
        "singletons=omega;fin=[3,2];inf=1",
        "singletons=2;fin=[2,3];inf=omega",
        "singletons=0;fin=cycle[2];inf=0",
        "singletons=1;fin=cycle[2,3];inf=2",
    ]
    for text in specs:
        spec = parse_spec(text)
        c = realise_t1(spec)
        pts = []
        while len(pts) < 30:
            cls = (S, F, I)[rng.randrange(3)]
            if cls is S and spec.singletons >= 1:
                hi = 10 if spec.singletons.is_omega else spec.singletons.finite() - 1
                pts.append(PointAddr(S, rng.randint(0, hi), 0))
            elif cls is F and spec.fin.count >= 1:
                hi = 10 if spec.fin.cyclic else len(spec.fin.sizes) - 1
                b = rng.randint(0, hi)
                pts.append(PointAddr(F, b, rng.randrange(spec.fin.size_of(b))))
            elif cls is I and spec.inf >= 1:
                hi = 10 if spec.inf.is_omega else spec.inf.finite() - 1
                pts.append(PointAddr(I, rng.randint(0, hi), rng.randrange(10)))
        for p in pts:
            for q in pts:
                if p == q:
                    continue
                sep = c.separable(p, q)
                assert sep == (not same_block(spec, p, q))
                cert = c.witness(p, q)
                assert (cert is not None) == sep
                if cert is not None:
                    assert check_certificate(c, p, q, cert)


# --- witnesses ---

def test_fintwocase1_witness_example():
    c = realise_t1(parse_spec("singletons=omega;fin=[3,2];inf=1"))
    # s:0 lies in the reservoir of finite block 0 (index 0 mod 2)
    cert = c.witness(pt("f:0:0"), pt("s:0"))
    assert cert == Certificate(FinPt1(0, 0, frozenset({pt("s:0")})), SingletonPt(pt("s:0")))
    assert check_certificate(c, pt("f:0:0"), pt("s:0"), cert)
    # a singleton outside the reservoir needs no exclusion
    cert = c.witness(pt("f:0:0"), pt("s:1"))
    assert cert == Certificate(FinPt1(0, 0), SingletonPt(pt("s:1")))


def test_pairblocks_witness_radius():
    spec = parse_spec("singletons=0;fin=cycle[2];inf=0")
    c = realise_t1(spec)
    # find two blocks that share the same natural coordinate
    by_x = {}
    j_pair = None
    for j in range(100):
        x, q = pair_encode(j)
        if x in by_x:
            j_pair = (by_x[x], j)
            break
        by_x[x] = j
    j1, j2 = j_pair
    p, q = PointAddr(F, j1, 0), PointAddr(F, j2, 1)
    cert = c.witness(p, q)
    (x1, q1), (x2, q2) = pair_encode(j1), pair_encode(j2)
    delta = abs(q1 - q2) / 2
    assert cert.open_a == Ball(RationalBall(x1, q1, delta))
    assert cert.open_b == Ball(RationalBall(x2, q2, delta))
    assert check_certificate(c, p, q, cert)
    assert c.witness(PointAddr(F, 5, 0), PointAddr(F, 5, 1)) is None


def test_check_certificate_rejects_tampering():
    spec = parse_spec("singletons=0;fin=cycle[2];inf=0")
    c = realise_t1(spec)
    p, q = PointAddr(F, 0, 0), PointAddr(F, 1, 0)
    cert = c.witness(p, q)
    # swapped sides no longer contain the right points
    assert not check_certificate(c, p, q, Certificate(cert.open_b, cert.open_a))
    # overlapping balls on the same natural coordinate are not disjoint
    x, qc = pair_encode(0)
    fat = Certificate(
        Ball(RationalBall(x, qc, Fraction(10))), Ball(RationalBall(x, qc + 1, Fraction(10)))
    )
    assert not check_certificate(c, p, q, fat)


def test_check_certificate_foreign_variant():
    c = realise_t1(parse_spec("singletons=0;fin=[];inf=3"))
    alien = Certificate(SatPair(pt("i:0:0")), CofInBlock(BlockRef(I, 1)))
    with pytest.raises(ForeignVariantError):
        check_certificate(c, pt("i:0:0"), pt("i:1:0"), alien)


# --- T1 witnesses ---

def test_t1_witness_examples():
    c = realise_t1(parse_spec("singletons=0;fin=[];inf=3"))
    o = c.t1_witness(pt("i:0:0"), pt("i:0:1"))
    assert o == CofInBlock(BlockRef(I, 0), frozenset({pt("i:0:1")}))
    assert c.member(o, pt("i:0:0")) and not c.member(o, pt("i:0:1"))

    c1 = realise_t1(parse_spec("singletons=omega;fin=[3,2];inf=1"))
    o = c1.t1_witness(pt("f:0:0"), pt("f:0:1"))
    assert o == FinPt1(0, 0)
    assert c1.member(o, pt("f:0:0")) and not c1.member(o, pt("f:0:1"))

    t0 = realise_t0(parse_spec("singletons=1;fin=[2];inf=1"))
    with pytest.raises(NotT1ConstructionError):
        t0.t1_witness(pt("f:0:0"), pt("f:0:1"))
    with pytest.raises(NotT1ConstructionError):
        realise_tau_r(parse_spec("singletons=1;fin=[2];inf=1")).t1_witness(pt("s:0"), pt("i:0:0"))


def test_t1_witness_both_ways_samples():
    spec = parse_spec("singletons=omega;fin=[2,3];inf=omega")
    c = realise_t1(spec)
    pts = [PointAddr(S, 3, 0), PointAddr(S, 4, 0), PointAddr(F, 0, 0), PointAddr(F, 0, 1),
           PointAddr(F, 1, 2), PointAddr(I, 0, 0), PointAddr(I, 0, 5), PointAddr(I, 7, 1)]
    for p in pts:
        for q in pts:
            if p == q:
                continue
            o = c.t1_witness(p, q)
            assert c.member(o, p) and not c.member(o, q)


# --- membership / disjointness rule spot checks ---

def test_member_disjoint_examples():
    c = realise_t1(parse_spec("singletons=0;fin=[];inf=3"))
    x = pt("i:1:4")
    assert not c.member(CofInBlock(BlockRef(I, 1), frozenset({x})), x)

    c1 = realise_t1(parse_spec("singletons=omega;fin=[2];inf=2"))
    assert c1.disjoint(FinPt1(0, 1, frozenset()), CofInBlock(BlockRef(I, 0)))
    assert c1.disjoint(FinPt1(0, 1, frozenset()), CofInBlock(BlockRef(I, 1), frozenset({pt("i:1:0")})))

    c2 = realise_t1(parse_spec("singletons=2;fin=[2,3];inf=omega"))
    # pool of finite block 0: infinite blocks with even index
    assert not c2.disjoint(FinPt2(0, 0), CofInBlock(BlockRef(I, 2)))
    assert c2.disjoint(FinPt2(0, 0), CofInBlock(BlockRef(I, 3)))  # wrong residue
    assert c2.disjoint(FinPt2(0, 0, frozenset({2})), CofInBlock(BlockRef(I, 2)))  # excluded block
    assert not c2.disjoint(FinPt2(0, 0), FinPt2(0, 1))
    # block 1's pool is the odd indices, block 0's the even: always disjoint
    assert c2.disjoint(FinPt2(0, 0), FinPt2(1, 0))


def test_extendpairs_membership_rules():
    spec = parse_spec("singletons=0;fin=cycle[3];inf=0")
    c = realise_t1(spec)
    x, qc = pair_encode(0)
    ball = RationalBall(x, qc, Fraction(1))
    ext = ExtPt(0, 2, ball)
    assert c.member(ext, PointAddr(F, 0, 2))  # the anchor
    assert not c.member(ext, PointAddr(F, 0, 0))  # the level-0 image is subtracted
    assert c.member(ext, PointAddr(F, 0, 1))  # the level-1 representative lies in the ball
    assert not c.member(Ball(ball), PointAddr(F, 0, 2))  # plain balls never hold anchors
    assert c.member(Ball(ball), PointAddr(F, 0, 0))


def test_foreign_variant_and_bad_addresses():
    c = realise_t1(parse_spec("singletons=0;fin=[];inf=3"))
    with pytest.raises(ForeignVariantError):
        c.member(SingletonPt(pt("s:0")), pt("i:0:0"))
    with pytest.raises(ForeignVariantError):
        c.disjoint(CofInBlock(BlockRef(I, 0)), BlockOpen(BlockRef(I, 0)))
    with pytest.raises(InvalidAddressError):
        c.separable(pt("i:5:0"), pt("i:0:0"))
    with pytest.raises(InvalidAddressError):
        c.separable(pt("i:0:0"), pt("i:0:0"))
    with pytest.raises(InvalidAddressError):
        c.separable(pt("s:0"), pt("i:0:0"))  # no singletons in this spec


def test_refine_needs_a_common_point():
    c = realise_t1(parse_spec("singletons=0;fin=[];inf=3"))
    x = pt("i:0:4")
    with pytest.raises(ValueError, match="^refine needs a common point of both opens$"):
        c.refine(CofInBlock(BlockRef(I, 0), frozenset({x})), CofInBlock(BlockRef(I, 0)), x)
    with pytest.raises(ValueError, match="^refine needs a common point of both opens$"):
        c.refine(CofInBlock(BlockRef(I, 0)), CofInBlock(BlockRef(I, 1)), x)


def test_contains_refuses_across_families():
    c = realise_t1(parse_spec("singletons=omega;fin=[];inf=2"))
    assert c.kind == "InfOrSingleton"
    assert not c.contains(SingletonPt(pt("s:0")), CofInBlock(BlockRef(I, 0)))

    c2 = realise_t1(parse_spec("singletons=1;fin=cycle[2,3];inf=2"))
    assert c2.kind == "SplitUnion"
    x, qc = pair_encode(0)
    ball = Ball(RationalBall(x, qc, Fraction(1)))
    assert not c2.contains(ball, CofInBlock(BlockRef(I, 0)))
    assert not c2.contains(CofInBlock(BlockRef(I, 0)), ball)

    c3 = SubbasisExample(DEFAULT_DESIGNATED)
    assert not c3.contains(CofInD(1), CofInD(2))


def test_contains_of_cofinite_opens_agrees_with_member():
    # containment on one base, checked apart from ``contains`` by member on points that decide it: each open
    # keeps a probed point of its base, and every exclusion is a probed point
    inf = [pt(f"i:{b}:{e}") for b in range(2) for e in range(3)]
    fin = [pt(f"f:{j}:{e}") for j, e in ((0, 0), (0, 1), (1, 0))] + [pt(f"s:{k}") for k in range(6)]
    cases = (
        (InfBlocks(parse_spec("singletons=0;fin=[];inf=2")), inf,
         [CofInBlock(BlockRef(I, b), frozenset(pt(f"i:{b}:{e}") for e in ex))
          for b in range(2) for ex in ((), (0,), (1,), (0, 1))]),
        (FinTwoCase1(parse_spec("singletons=omega;fin=[2,3];inf=0")), fin,  # reservoir j: the s:k with k % 2 == j
         [FinPt1(j, e, frozenset(pt(f"s:{k}") for k in ex))
          for j, e in ((0, 0), (0, 1), (1, 0)) for ex in ((), (j,), (j + 2,), (j, j + 2))]),
        (SubbasisExample(DEFAULT_DESIGNATED), list(range(3)), [CofOmega(frozenset(ex)) for ex in ((), (0,), (1,), (0, 1))]),
    )
    for c, points, opens in cases:
        for outer, inner in product(opens, repeat=2):
            held = all(c.member(outer, x) for x in points if c.member(inner, x))
            assert c.contains(outer, inner) == held, (c.kind, outer, inner)


# --- split union ---

def test_split_union_cross_part():
    spec = parse_spec("singletons=1;fin=cycle[2,3];inf=2")
    c = realise_t1(spec)
    p, q = pt("f:0:1"), pt("i:1:3")
    assert c.separable(p, q)
    cert = c.witness(p, q)
    assert check_certificate(c, p, q, cert)
    assert isinstance(cert.open_a, (Ball, ExtPt)) and isinstance(cert.open_b, CofInBlock)
    # opens from different parts are always disjoint
    assert c.disjoint(cert.open_a, CofInBlock(BlockRef(I, 0)))
    assert c.disjoint(cert.open_a, SingletonPt(pt("s:0")))
    o = c.t1_witness(p, q)
    assert c.member(o, p) and not c.member(o, q)
    # within one part that part's rules apply
    assert not c.separable(pt("f:1:0"), pt("f:1:2"))
    assert not c.separable(pt("i:0:0"), pt("i:0:1"))


# --- T0Sat / TauR structure ---

def test_t0sat_every_open_around_nonrep_contains_rep():
    spec = parse_spec("singletons=1;fin=[2];inf=1")
    c = realise_t0(spec)
    rng = random.Random(5)
    for _ in range(200):
        x = (pt("f:0:1"), pt("i:0:7"), pt("i:0:3"))[rng.randrange(3)]
        o = c.sample_open(x, rng)
        if c.member(o, x) and x.elem != 0:
            assert c.member(o, PointAddr(x.cls, x.block, 0))


def test_taur_admits_no_open_splitting_a_block():
    spec = parse_spec("singletons=1;fin=[2];inf=1")
    c = realise_tau_r(spec)
    assert not c.separable(pt("f:0:0"), pt("f:0:1"))
    assert c.separable(pt("f:0:0"), pt("i:0:0"))
    cert = c.witness(pt("f:0:0"), pt("i:0:0"))
    assert cert == Certificate(BlockOpen(BlockRef(F, 0)), BlockOpen(BlockRef(I, 0)))
    o = BlockOpen(BlockRef(F, 0))
    assert c.member(o, pt("f:0:0")) and c.member(o, pt("f:0:1"))


# --- serialization ---

def test_certificate_serialization_stable():
    c = realise_t1(parse_spec("singletons=omega;fin=[2];inf=1"))
    p, q = pt("f:0:0"), pt("s:0")
    cert = c.witness(p, q)
    assert cert.render() == c.witness(p, q).render()
    assert cert.render() == "FinPt1(block=0, elem=0, excl=[s:0])\nSingletonPt(s:0)"

    ball = Ball(RationalBall(1, Fraction(1, 2), Fraction(1, 4), excluded={(Fraction(3, 8), 1), (Fraction(2, 5), 0)}))
    assert ball.render() == "Ball(x=1,q=1/2,d=1/4,excl=[(3/8,1),(2/5,0)])"


def test_open_render_sorted_exclusions():
    o = CofInBlock(BlockRef(I, 0), frozenset({pt("i:0:5"), pt("i:0:2")}))
    assert o.render() == "CofInBlock(block=i:0, excl=[i:0:2,i:0:5])"


# --- value types: specs, opens, certificates, the demo report, finite partitions and topologies ---

_BALL = RationalBall(1, Fraction(1, 2), Fraction(1, 4))
# (build, repr): build() makes a new equal value on each call
VALUES = [
    (lambda: Count(3), "Count(3)"),
    (lambda: FiniteBlocks((2, 3)), "FiniteBlocks(sizes=(2, 3), cyclic=False)"),
    (lambda: parse_spec("singletons=omega;fin=cycle[2];inf=0"),
     "PartitionSpec(singletons=Count(omega), fin=FiniteBlocks(sizes=(2,), cyclic=True), inf=Count(0))"),
    (lambda: SingletonPt(pt("s:3")), "SingletonPt(point=PointAddr(cls=<BlockClass.SINGLETON: 0>, block=3, elem=0))"),
    (lambda: CofInBlock(BlockRef(I, 1), frozenset({pt("i:1:2")})),
     "CofInBlock(block=BlockRef(cls=<BlockClass.INFINITE: 2>, index=1), "
     "excluded=frozenset({PointAddr(cls=<BlockClass.INFINITE: 2>, block=1, elem=2)}))"),
    (lambda: _FinPt(0, 1), "_FinPt(block=0, elem=1, excluded=frozenset())"),
    (lambda: FinPt1(0, 1, frozenset({pt("s:3")})),
     "FinPt1(block=0, elem=1, excluded=frozenset({PointAddr(cls=<BlockClass.SINGLETON: 0>, block=3, elem=0)}))"),
    (lambda: FinPt2(1, 0, frozenset({4})), "FinPt2(block=1, elem=0, excluded=frozenset({4}))"),
    (lambda: Ball(_BALL), "Ball(ball=ball(x=1,q=1/2,d=1/4,excl=[]))"),
    (lambda: ExtPt(2, 3, _BALL), "ExtPt(block=2, elem=3, ball=ball(x=1,q=1/2,d=1/4,excl=[]))"),
    (lambda: SatPair(pt("i:0:2")), "SatPair(point=PointAddr(cls=<BlockClass.INFINITE: 2>, block=0, elem=2))"),
    (lambda: BlockOpen(BlockRef(F, 2)), "BlockOpen(block=BlockRef(cls=<BlockClass.FINITE: 1>, index=2))"),
    (lambda: CofOmega(frozenset({5})), "CofOmega(excluded=frozenset({5}))"),
    (lambda: CofInD(2, frozenset({7})), "CofInD(index=2, excluded=frozenset({7}))"),
    (lambda: Certificate(CofInD(2), CofInD(1)),
     "Certificate(open_a=CofInD(index=2, excluded=frozenset()), open_b=CofInD(index=1, excluded=frozenset()))"),
    (lambda: CrossCheckReport(3, 5, 0), "CrossCheckReport(n=3, partitions_checked=5, failures=0)"),
    (lambda: MonotonicityReport(2, 3, 7, 0), "MonotonicityReport(n=2, topologies=3, comparable_pairs=7, failures=0)"),
    (lambda: NonTransitiveReport((), None, None, None, "none"),
     "NonTransitiveReport(designated=(), construction=None, triple=None, certificate=None, message='none')"),
    (lambda: FinitePartition(3, [[2], [1, 0]]), "FinitePartition(n=3, blocks=((0, 1), (2,)))"),
    (lambda: tau_r(FinitePartition(3, [[2], [1, 0]])), "FiniteTopology(n=3, opens=[(), (2,), (0, 1), (0, 1, 2)])"),
    (lambda: FiniteRelation.from_pairs(3, [(2, 0)]), "FiniteRelation(n=3, off_diagonal=[(2, 0)])"),
    (lambda: Preorder(3, (0b011, 0b010, 0b100)), "Preorder(n=3, up=[(0, 1), (1,), (2,)])"),
    (lambda: RationalBall(1, Fraction(1, 2), Fraction(1, 4), [(Fraction(5, 8), 0)]), "ball(x=1,q=1/2,d=1/4,excl=[(5/8,0)])"),
    (lambda: CatalogRecord(2, "1", 3, 2, True, True, "2"),
     "CatalogRecord(n=2, relation_code='1', labeled_topology_count=3, t0_topology_count=2, transitive=True, "
     "equivalence=True, example_preorder_code='2')"),
    (lambda: Catalog(1, (CatalogRecord(1, "0", 1, 1, True, True, "0"),), 1, 1),
     "Catalog(n=1, records=(CatalogRecord(n=1, relation_code='0', labeled_topology_count=1, t0_topology_count=1, "
     "transitive=True, equivalence=True, example_preorder_code='0'),), total_topologies=1, total_t0=1)"),
]


@pytest.mark.parametrize("build, text", VALUES, ids=[text.partition("(")[0] for _, text in VALUES])
def test_value_types_compare_hash_and_show_by_their_fields(build, text):
    v, w = build(), build()
    assert v is not w and v == w and not v != w
    assert repr(v) == text
    assert v != object() and v.__eq__(text) is NotImplemented
    assert pickle.loads(pickle.dumps(v)) == v
    assert hash(v) == hash(w)
    field = text[text.index("(") + 1:].partition("=")[0]
    with pytest.raises(AttributeError):
        setattr(v, field, None)
    with pytest.raises(AttributeError):
        delattr(v, field)
    assert v == w


def test_every_tuple_value_class_has_a_row_in_values():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    package = {cls for cls in subclasses(_TupleValue) if cls.__module__.startswith("diagclosure.")}
    assert {Count, FiniteTopology, CatalogRecord, RationalBall, _FinPt} <= package
    shared_bases = {constructions._Named, constructions._Cofinite}  # they name no fields of their own
    assert package - shared_bases - {type(build()) for build, _ in VALUES} == set()


def test_catalog_records_are_frozen_dataclass_tuple_values():
    # perfbench/faults.py and tests/test_enumeration.py copy records with dataclasses.replace
    rec = CatalogRecord(2, "1", 3, 2, True, True, "2")
    assert dataclasses.is_dataclass(rec)
    assert [f.name for f in dataclasses.fields(rec)] == [
        "n", "relation_code", "labeled_topology_count", "t0_topology_count", "transitive", "equivalence",
        "example_preorder_code",
    ]
    assert dataclasses.replace(rec, labeled_topology_count=4) == CatalogRecord(2, "1", 4, 2, True, True, "2")
    assert rec.labeled_topology_count == 3 and not hasattr(rec, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.n = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        del rec.relation_code
    with pytest.raises(TypeError, match=r"^CatalogRecord\.__new__\(\) missing 1 required positional argument"):
        CatalogRecord(2, "1", 3, 2, True, True)
    # the hash of the field tuple, as the frozen dataclass had; but never equal to that tuple
    assert hash(rec) == hash((2, "1", 3, 2, True, True, "2"))
    assert rec != tuple(rec) and not rec == tuple(rec)
    assert len(rec) == 7 and rec[1] == "1" and tuple(rec) == (2, "1", 3, 2, True, True, "2")


def test_replace_on_a_catalog_record_changes_the_named_field_alone():
    rec = CatalogRecord(2, "1", 3, 2, True, True, "2")
    names = [f.name for f in dataclasses.fields(rec)]
    assert CatalogRecord._fields == tuple(names)  # the value's fields are the dataclass's
    for i, name in enumerate(names):
        changed = dataclasses.replace(rec, **{name: "x"})
        assert type(changed) is CatalogRecord and changed[i] == "x"
        assert changed[:i] + changed[i + 1:] == rec[:i] + rec[i + 1:]
    given = dict(zip(names, rec))
    del given["t0_topology_count"]
    with pytest.raises(TypeError, match=r"^CatalogRecord\.__new__\(\) missing 1 required positional argument: "
                                        r"'t0_topology_count'$"):
        CatalogRecord(**given)


def test_catalog_records_built_and_read_past_their_constructor_are_records():
    cat = build_catalog(3)
    back = read_catalog(render_catalog(cat))
    for rec in (cat.records[1], back.records[1]):
        assert type(rec) is CatalogRecord
        bumped = dataclasses.replace(rec, labeled_topology_count=rec.labeled_topology_count + 1)
        assert type(bumped) is CatalogRecord and bumped != rec
        assert tuple(bumped) == (*rec[:2], rec[2] + 1, *rec[3:])
    assert all(type(r) is CatalogRecord for r in cat.records + back.records)


def test_relations_and_balls_refuse_assignment_and_keep_their_hashes():
    r = FiniteRelation.diagonal(3)
    p = Preorder(3, (0b011, 0b010, 0b100))
    b = RationalBall(1, Fraction(1, 2), Fraction(1, 4), [(Fraction(5, 8), 0)])
    held = {r, p, b}
    with pytest.raises(AttributeError):
        r.rows = (7, 7, 7)
    with pytest.raises(AttributeError):
        p.n = 2
    for name in ("x_index", "_x", "_cn", "_cd", "_rn", "_rd", "_excl"):
        with pytest.raises(AttributeError):
            setattr(b, name, 7)
    assert r in held and p in held and b in held and len(held) == 3
    # each value is the tuple of its fields, and hashes as that tuple
    assert tuple(r) == (3, (1, 2, 4)) and hash(r) == hash((r.n, r.rows))
    assert tuple(p) == (3, (0b011, 0b010, 0b100)) and hash(p) == hash(FiniteRelation(3, p.rows))
    assert tuple(b) == (1, 1, 2, 1, 4, frozenset({(5, 8, 0)})) and hash(b) == hash(tuple(b))
    # but equals only a value of its own class, never its fields
    assert r != (3, (1, 2, 4)) and (3, (1, 2, 4)) != r and b != tuple(b) and not b == tuple(b)
    assert p != FiniteRelation(3, p.rows) and FiniteRelation(3, p.rows) != p
    for v in (r, p, b):
        for twin in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert type(twin) is type(v) and twin == v and hash(twin) == hash(v)


def test_value_types_are_equal_only_within_one_class():
    p, ref = pt("f:0:0"), BlockRef(F, 0)
    assert FinPt1(0, 0) != FinPt2(0, 0) and FinPt1(0, 0) != _FinPt(0, 0)
    assert SingletonPt(p) != SatPair(p) and SatPair(p) != SingletonPt(p)
    assert SingletonPt(p).__eq__(SatPair(p)) is False and SatPair(p).__eq__(SingletonPt(p)) is False
    assert BlockOpen(ref) != CofInBlock(ref) and CofOmega() != CofInD(0)
    assert Ball(_BALL) != ExtPt(0, 0, _BALL)
    assert len({FinPt1(0, 0), FinPt2(0, 0), FinPt1(0, 0)}) == 2


def test_value_types_take_keywords_and_defaults():
    ref = BlockRef(I, 0)
    assert CofInBlock(block=ref) == CofInBlock(ref, frozenset()) and CofInBlock(ref).excluded == frozenset()
    assert FinPt1(block=0, elem=1).excluded == frozenset() and FinPt2(elem=1, block=0) == FinPt2(0, 1)
    assert CofOmega().excluded == frozenset() and CofInD(index=2) == CofInD(2, frozenset())
    assert ExtPt(block=2, elem=3, ball=_BALL) == ExtPt(2, 3, _BALL) and Ball(ball=_BALL).ball is _BALL
    assert Certificate(open_b=CofOmega(), open_a=CofInD(1)) == Certificate(CofInD(1), CofOmega())
    assert SingletonPt(point=pt("s:0")) == SingletonPt(pt("s:0")) and BlockOpen(block=ref).block is ref
    rep = NonTransitiveReport(designated=(), construction=None, triple=(1, 2, 3), certificate=None, message="")
    assert rep.triple == (1, 2, 3) and rep.ok


# Each open and report class takes its fields, in order and with its defaults,
# by _TupleValue's one __new__: the parameters its hand-written __init__ had.
GENERATED_INITS = [
    (SingletonPt, "(self, point)"),
    (CofInBlock, "(self, block, excluded=frozenset())"),
    (FinPt1, "(self, block, elem, excluded=frozenset())"),
    (FinPt2, "(self, block, elem, excluded=frozenset())"),
    (Ball, "(self, ball)"),
    (ExtPt, "(self, block, elem, ball)"),
    (SatPair, "(self, point)"),
    (BlockOpen, "(self, block)"),
    (CofOmega, "(self, excluded=frozenset())"),
    (CofInD, "(self, index, excluded=frozenset())"),
    (Certificate, "(self, open_a, open_b)"),
    (NonTransitiveReport, "(self, designated, construction, triple, certificate, message)"),
]


@pytest.mark.parametrize("cls, params", GENERATED_INITS, ids=[cls.__name__ for cls, _ in GENERATED_INITS])
def test_open_and_report_inits_keep_their_parameters(cls, params):
    assert cls.__new__ is _TupleValue.__new__  # none writes its own
    shown = [f"{f}={cls._defaults[f]!r}" if f in cls._defaults else f for f in cls._fields]
    assert f"(self, {', '.join(shown)})" == params
    items = range(len(cls._fields))
    value = cls(*items)
    assert tuple(value) == tuple(items) and cls(**dict(zip(cls._fields, items))) == value
    assert [getattr(value, f) for f in cls._fields] == list(items)
    if cls._fields[0] not in cls._defaults:
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__new__\(\) missing 1 required positional argument: '{cls._fields[0]}'$"):
            cls(**dict.fromkeys(cls._fields[1:]))


def test_meet_unions_the_exclusions_and_keeps_the_class():
    a, b, c = pt("i:0:1"), pt("i:0:2"), pt("s:4")
    ref = BlockRef(I, 0)
    assert CofInBlock(ref, frozenset({a})).meet(CofInBlock(ref, frozenset({b}))) == CofInBlock(ref, frozenset({a, b}))
    met = FinPt1(0, 1, frozenset({c})).meet(FinPt1(0, 1, frozenset({a})))
    assert type(met) is FinPt1 and met == FinPt1(0, 1, frozenset({a, c}))
    met = FinPt2(3, 0, frozenset({1})).meet(FinPt2(3, 0))
    assert type(met) is FinPt2 and met == FinPt2(3, 0, frozenset({1}))
    assert CofInD(2, frozenset({5})).meet(CofOmega(frozenset({8}))) == CofInD(2, frozenset({5, 8}))
    assert CofOmega().meet(CofOmega(frozenset({8}))) == CofOmega(frozenset({8}))


# --- the demo ---

def test_nontransitive_demo_default():
    rep = nontransitive_demo()
    assert rep.triple == (2, 3, 4)
    assert rep.certificate == Certificate(CofInD(2), CofInD(1))
    assert rep.ok
    lines = rep.render().splitlines()
    assert lines[0] == "designated: {3n+1}, {3n+2}"
    assert "triple: (2,3,4)" in lines


def test_nontransitive_demo_builds_the_triple_from_the_offsets():
    # {4n+1}, {4n+2}: no consecutive triple, so the triple is (offset 1, least undesignated b, offset 2)
    rep = nontransitive_demo([ResidueClassSet(1, 4), ResidueClassSet(2, 4)])
    assert rep.triple == (1, 0, 2)
    assert rep.certificate == Certificate(CofInD(1), CofInD(2))
    assert rep.render().splitlines()[1:4] == ["inseparable: (1,0)", "inseparable: (0,2)", "separable: (1,2)"]


def test_nontransitive_demo_empty_and_invalid():
    rep = nontransitive_demo([])
    assert not rep.ok
    assert rep.message == "closure is total, no triple exists"

    with pytest.raises(NotDisjointError):
        nontransitive_demo([ResidueClassSet(0, 2), ResidueClassSet(2, 4)])


def test_nontransitive_demo_transitive_closure_case():
    # evens and odds cover everything: the closure is an equivalence, no triple
    rep = nontransitive_demo([ResidueClassSet(0, 2), ResidueClassSet(1, 2)])
    assert not rep.ok
    assert "no non-transitivity witness" in rep.message


def test_nontransitive_demo_rechecks_its_certificate(monkeypatch):
    monkeypatch.setattr(constructions, "check_certificate", lambda c, a, b, cert: False)
    with pytest.raises(AssertionError, match="^separation certificate failed re-checking$"):
        nontransitive_demo()


def test_pair_cache_stays_bounded():
    from diagclosure import constructions

    c = realise_t1(parse_spec("singletons=0;fin=cycle[2,3];inf=0"))
    base = 10**9
    for j in range(20_000):
        c.basic_nbhd(PointAddr(F, base + j, 0))
    info = constructions._xq.cache_info()
    assert info.maxsize == constructions._XQ_CACHE_SIZE
    assert info.currsize <= constructions._XQ_CACHE_SIZE


@pytest.mark.parametrize(
    "text",
    ["singletons=0;fin=cycle[2,3];inf=0", "singletons=0;fin=cycle[2];inf=0", "singletons=1;fin=cycle[2,3];inf=2"],
)
def test_internally_built_balls_pass_the_public_checks(text):
    # the pair system builds its balls without validation; the public
    # constructor must accept every one of them and rebuild it equal, with
    # the same hash
    spec = parse_spec(text)
    c = realise_t1(spec)
    rng = random.Random(3)

    def point(block=None):
        j = rng.choice((rng.randrange(40), rng.randrange(10**9))) if block is None else block
        return PointAddr(F, j, rng.randrange(spec.fin.size_of(j)))

    nbhds, refined, other = [], [], []
    for _ in range(600):
        p = point()
        q = point(p.block if rng.random() < 0.3 else None)
        nbhds.append(c.basic_nbhd(p))
        if p != q:
            nbhds.append(c.basic_nbhd(p, q))
            other.append(c.t1_witness(p, q))
            cert = c.witness(p, q)
            if cert is not None:
                other += [cert.open_a, cert.open_b]
        o1, o2 = c.sample_open(p, rng), c.sample_open(p, rng)
        other += [o1, o2]
        refined.append(c.refine(o1, o2, p))
    for group in (nbhds, refined):
        assert any(o.ball.excluded for o in group)  # the exclusion paths ran
    for o in nbhds + refined + other:
        assert isinstance(o, (Ball, ExtPt))
        b = o.ball
        assert type(b.center) is Fraction and type(b.radius) is Fraction
        assert all(type(q) is Fraction for q, _ in b.excluded)
        rebuilt = RationalBall(b.x_index, b.center, b.radius, b.excluded)
        assert rebuilt == b and hash(rebuilt) == hash(b)  # both compare stored integers: reduced form is kept


def test_pair_systems_verify_without_fraction_arithmetic(monkeypatch):
    # balls keep reduced integers, so the verify loops of the three ball
    # kinds build, hash and compare no Fraction, even at wide block bounds
    texts = ("singletons=0;fin=cycle[2];inf=0", "singletons=0;fin=cycle[2,3];inf=0", "singletons=1;fin=cycle[2,3];inf=2")
    built = [(realise_t1(parse_spec(t)), parse_spec(t)) for t in texts]
    calls = []
    for name in ("__new__", "__hash__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        orig = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda *a, _orig=orig, _name=name, **k: calls.append(_name) or _orig(*a, **k))
    reports = [verify_construction(c, spec, 2000, (10**12, 50), 1, 300) for c, spec in built]
    monkeypatch.undo()
    assert calls == [] and all(r.passed() for r in reports)


# --- argument checks: every public call rejects what it must, with its message ---

NINE_KINDS = (
    ("InfBlocks", realise_t1, "singletons=0;fin=[];inf=3"),
    ("InfOrSingleton", realise_t1, "singletons=omega;fin=[];inf=2"),
    ("FinTwoCase1", realise_t1, "singletons=omega;fin=[3,2];inf=1"),
    ("FinTwoCase2", realise_t1, "singletons=2;fin=[2,3];inf=omega"),
    ("PairBlocks", realise_t1, "singletons=0;fin=cycle[2];inf=0"),
    ("SplitUnion", realise_t1, "singletons=1;fin=cycle[2,3];inf=2"),
    ("T0Sat", realise_t0, "singletons=1;fin=[2];inf=1"),
    ("TauR", realise_tau_r, "singletons=1;fin=[2];inf=1"),
    ("ExtendPairs", realise_t1, "singletons=0;fin=cycle[2,3];inf=0"),
)


def _guard_setup(realise, text):
    """The construction, two valid points of one block, and labelled bad addresses."""
    spec = parse_spec(text)
    c = realise(spec)
    cls = F if not spec.fin.is_empty else I
    p0, p1 = PointAddr(cls, 0, 0), PointAddr(cls, 0, 1)
    bad = {
        "negative block": PointAddr(cls, -1, 0),
        "negative element": PointAddr(cls, 0, -1),
        "singleton with elem=1": PointAddr(S, 0, 1),
        "plain tuple": tuple(p0),
    }
    if cls is F:
        bad["element beyond the block"] = PointAddr(F, 0, spec.fin.size_of(0))
    if not spec.fin.cyclic:
        bad["finite block beyond the list"] = PointAddr(F, len(spec.fin.sizes), 0)
    if spec.singletons.is_finite:
        bad["block beyond the count"] = PointAddr(S, spec.singletons.finite(), 0)
    elif spec.inf.is_finite:
        bad["block beyond the count"] = PointAddr(I, spec.inf.finite(), 0)
    for a in (p0, p1):
        assert spec.valid_addr(a)
    return spec, c, p0, p1, bad


@pytest.mark.parametrize("kind, realise, text", NINE_KINDS, ids=[k for k, _, _ in NINE_KINDS])
def test_public_calls_reject_bad_addresses(kind, realise, text):
    spec, c, p0, p1, bad = _guard_setup(realise, text)
    assert c.kind == kind
    for label, a in bad.items():
        # a point that parse_point could have read is named as typed, anything else by its repr
        typed = label in ("element beyond the block", "finite block beyond the list", "block beyond the count")
        message = f"no such point for {spec.render()}: {a.render() if typed else repr(a)}"
        calls = [
            lambda: c.basic_nbhd(a),
            lambda: c.basic_nbhd(a, p0),
            lambda: c.sample_open(a, random.Random(0), (50, 50)),
        ]
        pair_calls = [c.separable, c.witness, c.answer_pair] + ([c.t1_witness] if c.is_t1 else [])
        for f in pair_calls:
            calls += [lambda f=f: f(a, p0), lambda f=f: f(p0, a), lambda f=f: f(a, a)]
        for call in calls:
            with pytest.raises(InvalidAddressError) as info:
                call()
            assert str(info.value) == message, label
    for f in [c.separable, c.witness, c.answer_pair] + ([c.t1_witness] if c.is_t1 else []):
        with pytest.raises(InvalidAddressError, match="^query points must be distinct$"):
            f(p1, PointAddr(*p1))
    if not c.is_t1:
        with pytest.raises(NotT1ConstructionError):
            c.t1_witness(p0, p1)
        assert c.answer_pair(p0, p1) == (False, None, None, None)


@pytest.mark.parametrize("kind, realise, text", NINE_KINDS, ids=[k for k, _, _ in NINE_KINDS])
def test_public_calls_reject_foreign_opens(kind, realise, text):
    spec, c, p0, p1, _ = _guard_setup(realise, text)
    native = c.basic_nbhd(p0)
    other = SatPair(p0) if kind == "TauR" else BlockOpen(BlockRef(p0.cls, 0))
    for foreign in (CofOmega(), other):
        message = f"{type(foreign).__name__} does not belong to {kind}"
        calls = (
            lambda: c.member(foreign, p0),
            lambda: c.disjoint(foreign, native),
            lambda: c.disjoint(native, foreign),
            lambda: c.contains(foreign, native),
            lambda: c.contains(native, foreign),
            lambda: c.refine(foreign, native, p0),
            lambda: c.refine(native, foreign, p0),
            lambda: check_certificate(c, p0, p1, Certificate(foreign, native)),
        )
        for call in calls:
            with pytest.raises(ForeignVariantError) as info:
                call()
            assert str(info.value) == message
    assert c.member(native, p0) and not c.disjoint(native, native) and c.contains(native, native)


def test_subbasis_example_rejects_non_naturals():
    c = SubbasisExample(DEFAULT_DESIGNATED)
    for a in (-1, True, 2.0, "3", PointAddr(I, 0, 0)):
        message = f"points of this construction are naturals: {a!r}"
        for call in (lambda: c.separable(a, 1), lambda: c.witness(1, a), lambda: c.t1_witness(a, 1),
                     lambda: c.answer_pair(a, 1), lambda: c.answer_pair(1, a),
                     lambda: c.basic_nbhd(a), lambda: c.sample_open(a, random.Random(0), (50, 50))):
            with pytest.raises(InvalidAddressError) as info:
                call()
            assert str(info.value) == message
    for f in (c.separable, c.answer_pair):
        with pytest.raises(InvalidAddressError, match="^query points must be distinct$"):
            f(4, 4)
    assert c.separable(1, 2) and not c.separable(0, 1)


# --- one entry per pair: answer_pair answers as the single calls do, checking each point once ---

def _agreement_pairs(spec, rng, n, bounds=(1000, 20)):
    """n distinct point pairs of spec, every other one inside one block."""
    points, pairs = _samplers(spec, rng, bounds)
    multi = [points[tag] for tag in ("f", "i") if tag in points]
    out = []
    while len(out) < n:
        if len(out) % 2 == 0:
            point = multi[rng.randrange(len(multi))]
            p = point()
            out.append((p, point(p.block, p.elem)))
        else:
            p, q = pairs[rng.randrange(len(pairs))]()
            if not same_block(spec, p, q):
                out.append((p, q))
    return out


def _assert_answers_agree(c, p, q):
    sep, cert, o_p, o_q = c.answer_pair(p, q)
    assert sep == c.separable(p, q)
    w = c.witness(p, q)
    assert (cert is None) == (w is None) == (not sep)
    if cert is not None:
        assert cert.render() == w.render()
    if c.is_t1:
        assert o_p == c.t1_witness(p, q) and o_q == c.t1_witness(q, p)
    else:
        assert o_p is None and o_q is None
    return sep


@pytest.mark.parametrize("kind, realise, text", NINE_KINDS, ids=[k for k, _, _ in NINE_KINDS])
def test_answer_pair_agrees_with_the_single_calls(kind, realise, text):
    spec = parse_spec(text)
    c = realise(spec)
    rng = random.Random(11)
    answers = [_assert_answers_agree(c, p, q) for p, q in _agreement_pairs(spec, rng, 400)]
    assert any(answers) and not all(answers)


# The faults that change a witness or a T1 open and answer through the base
# answer_pair: sharing opens between the certificate and the T1 answers must
# not show a different witness than ``witness`` does.
WITNESS_FAULTS = [
    fault for fault in vars(faults).values()
    if isinstance(fault, type) and fault.__module__ == faults.__name__ and issubclass(fault, Construction)
    and fault.answer_pair is Construction.answer_pair
    and any(getattr(fault, hook) is not getattr(getattr(constructions, fault.kind), hook)
            for hook in ("_witness_opens", "_basic_nbhd"))
]
KIND_SPECS = {kind: text for kind, _, text in NINE_KINDS}


@pytest.mark.parametrize("fault", WITNESS_FAULTS, ids=[f.__name__ for f in WITNESS_FAULTS])
def test_answer_pair_agrees_with_the_single_calls_on_witness_faults(fault):
    spec = parse_spec(KIND_SPECS[fault.kind])
    c = fault(spec)
    rng = random.Random(11)
    answers = [_assert_answers_agree(c, p, q) for p, q in _agreement_pairs(spec, rng, 400)]
    assert any(answers) and not all(answers)


def test_the_witness_faults_cover_both_hooks():
    assert {fault.__name__ for fault in WITNESS_FAULTS} == {
        "NextBlockWitnessInfBlocks", "OffByOneInfBlocks", "OffByOneInfOrSingleton", "OffByOneSplitUnion",
        "OffByOneTauR", "SelfExcludingT1InfBlocks", "SwappedRepExtendPairs", "SwappedRepPairBlocks", "SwappedRepT0Sat",
    }


def test_the_certificate_is_the_t1_pair_on_the_cofinite_and_reservoir_kinds():
    """On a T1 kind that keeps the base witness the certificate is the two T1
    opens themselves.  The pair-system kinds build their own from separating
    balls for two finite-block points; for a pair with a point outside the
    finite blocks SplitUnion takes the base witness, whose opens are the
    interned canonical opens and so the T1 opens too."""
    shared, apart = set(), set()
    for kind, realise, text in NINE_KINDS:
        spec = parse_spec(text)
        c = realise(spec)
        for p, q in _agreement_pairs(spec, random.Random(3), 40):
            _, cert, o_p, o_q = c.answer_pair(p, q)
            if cert is None:
                continue
            both_finite = p.cls is F and q.cls is F
            if cert.open_a is o_p and cert.open_b is o_q:
                shared.add((kind, both_finite))
            else:
                apart.add((kind, both_finite))
    assert shared == {
        ("InfBlocks", False), ("InfOrSingleton", False), ("FinTwoCase1", False), ("FinTwoCase1", True),
        ("FinTwoCase2", False), ("FinTwoCase2", True), ("SplitUnion", False),
    }
    assert apart == {
        ("PairBlocks", True), ("ExtendPairs", True), ("SplitUnion", True), ("T0Sat", False), ("TauR", False),
    }


def _excludes(o) -> bool:
    """Whether a basic open carries an exclusion."""
    if isinstance(o, (Ball, ExtPt)):
        return bool(o.ball.excluded)
    return bool(getattr(o, "excluded", ()))


@pytest.mark.parametrize("kind, realise, text", NINE_KINDS, ids=[k for k, _, _ in NINE_KINDS])
def test_basic_nbhd_is_the_old_rule(kind, realise, text):
    """The interned canonical opens and the opens with an exclusion equal a
    build of the rule from scratch, for avoid None, p itself, a point of p's
    block and points of other blocks, and every T1 witness with them."""
    spec = parse_spec(text)
    c = realise(spec)
    seen = set()
    for p, q in _agreement_pairs(spec, random.Random(kind), 300):
        for a, b in ((p, q), (q, p)):
            for avoid in (None, a, b):
                o = c.basic_nbhd(a, avoid)
                ref = basic_nbhd_by_old_rule(c, a, avoid)
                assert o == ref and o.render() == ref.render(), (a, avoid)
                seen.add(_excludes(o))
            if c.is_t1:
                assert c.t1_witness(a, b) == basic_nbhd_by_old_rule(c, a, b)
    assert seen == ({False, True} if c.is_t1 else {False})


def test_addresses_are_exactly_what_parse_point_builds():
    """An address whose class is not a ``BlockClass`` member, or whose index is
    not an int, is refused, though it may equal a valid address and would
    share that address's interned open."""
    odd = (
        ("InfOrSingleton", PointAddr(S, 1, 0), PointAddr(0, 1, 0)),  # a plain 0 was read as an infinite class
        ("InfOrSingleton", PointAddr(I, 0, 0), PointAddr(7, 0, 0)),
        ("InfOrSingleton", PointAddr(I, 1, 0), PointAddr(I, True, 0)),
        ("InfOrSingleton", PointAddr(I, 1, 0), PointAddr(I, "1", 0)),
        ("FinTwoCase1", PointAddr(F, 1, 0), PointAddr(F, True, 0)),
        ("ExtendPairs", PointAddr(F, 1, 2), PointAddr(F, True, 2)),
    )
    kinds = {kind: (realise, text) for kind, realise, text in NINE_KINDS}
    for kind, good, bad in odd:
        realise, text = kinds[kind]
        spec = parse_spec(text)
        c = realise(spec)
        assert spec.valid_addr(good) and not spec.valid_addr(bad), bad
        c.basic_nbhd(good)
        for call in (lambda: c.basic_nbhd(bad), lambda: c.separable(bad, good)):
            with pytest.raises(InvalidAddressError, match=f"^no such point for {re.escape(text)}: "):
                call()


T1_KIND_SPECS = tuple(k for k in NINE_KINDS if k[1] is realise_t1)


@pytest.mark.parametrize("kind, realise, text", T1_KIND_SPECS, ids=[k for k, _, _ in T1_KIND_SPECS])
def test_an_open_returned_earlier_is_unchanged_by_later_exclusions(kind, realise, text):
    """A canonical open is shared by every later call on its point; the calls
    that exclude other points around that point leave it as it was."""
    spec = parse_spec(text)
    c = realise(spec)
    window = [a for a in map(PointAddr._make, product((S, F, I), range(30), range(4))) if spec.valid_addr(a)]
    for p in window[::7]:
        o = c.basic_nbhd(p)
        kept, shown = pickle.loads(pickle.dumps(o)), o.render()
        excluded = 0
        for avoid in window:
            excluded += _excludes(c.basic_nbhd(p, avoid))
            if avoid != p:
                c.t1_witness(p, avoid)
                c.answer_pair(p, avoid)
        assert o == kept and o.render() == shown
        assert c.basic_nbhd(p) is o
        assert excluded or p.cls is S


def test_the_open_caches_stay_within_their_bounds():
    """5,000 distinct blocks through the public calls cannot grow a cache past its bound."""
    n = 5_000
    cofinite = realise_t1(parse_spec("singletons=omega;fin=[];inf=omega"))
    reservoirs = realise_t1(parse_spec(f"singletons=omega;fin=[{','.join(['3'] * n)}];inf=0"))
    pairs = realise_t1(parse_spec("singletons=0;fin=cycle[2,3];inf=0"))
    for block in range(n):
        for p in (PointAddr(S, block, 0), PointAddr(I, block, 1)):
            cofinite.basic_nbhd(p)
        reservoirs.basic_nbhd(PointAddr(F, block, block % 3))
        for elem in range(2 + block % 2):
            pairs.basic_nbhd(PointAddr(F, block, elem))
    for cache in (constructions._cofinite_home, constructions._reservoir_home, constructions._pair_home, constructions._xq):
        info = cache.cache_info()
        assert info.currsize == info.maxsize  # filled, and no further


def test_answer_pair_agrees_on_the_subbasis_example():
    c = SubbasisExample(DEFAULT_DESIGNATED)
    rng = random.Random(11)
    answers = []
    for t in range(400):
        p = rng.randrange(300)
        q = p + 3 * rng.randint(1, 20) if t % 2 == 0 else rng.choice([x for x in range(300) if x != p])
        answers.append(_assert_answers_agree(c, p, q))
    assert any(answers) and not all(answers)


@pytest.mark.parametrize("kind, realise, text", NINE_KINDS, ids=[k for k, _, _ in NINE_KINDS])
def test_verify_checks_each_point_once(kind, realise, text):
    """Two address checks per pair (one ``answer_pair``) and one per basis sample."""
    spec = parse_spec(text)
    c = realise(spec)
    calls = 0
    valid = c._valid

    def counting(p):
        nonlocal calls
        calls += 1
        return valid(p)

    c._valid = counting
    for n_pairs, basis_samples in ((400, 60), (150, 0), (0, 40)):
        calls = 0
        report = verify_construction(c, spec, n_pairs=n_pairs, basis_samples=basis_samples, seed=5)
        assert report.passed()
        assert calls == 2 * n_pairs + basis_samples, (n_pairs, basis_samples)


# --- the sample_open draws: pinned on every kind, with every branch reached ---

SAMPLE_OPEN_CALLS = 2_000


def _open_branch(p, o):
    """Which branch of ``_sample_open`` drew o around p: the open's variant,
    starred when it is anchored at a point other than p, and how many
    exclusions (0, 1 or 2) it carries."""
    anchor = getattr(o, "point", None)
    if isinstance(o, (FinPt1, FinPt2, ExtPt)):
        anchor = PointAddr(F, o.block, o.elem)
    excluded = o.ball.excluded if isinstance(o, (Ball, ExtPt)) else getattr(o, "excluded", ())
    return type(o).__name__ + ("*" if anchor is not None and anchor != p else ""), len(excluded)


def _sample_open_draws(c, points):
    """The renders of one ``sample_open`` call per point, all from one seeded
    generator, hashed with its final state; and the branches taken, as
    ``"variant counts, ..."``."""
    rng = random.Random(7)
    renders, branches = [], {}
    for p in points:
        o = c.sample_open(p, rng, (50, 50))
        renders.append(o.render())
        variant, n_excluded = _open_branch(p, o)
        branches.setdefault(variant, set()).add(str(n_excluded))
    text = "\n".join(renders) + "\n" + repr(rng.getstate())
    summary = ", ".join(f"{variant} {''.join(sorted(counts))}" for variant, counts in sorted(branches.items()))
    return hashlib.sha256(text.encode()).hexdigest(), summary


def _kind_points(spec, n):
    """n points of spec, the address classes in turn, drawn by the reference sampler."""
    tags = [t for t, count in (("s", spec.singletons), ("f", spec.fin.count), ("i", spec.inf)) if count >= 1]
    rng = random.Random(3)
    return [sample_point(tags[t % len(tags)], spec, rng, (50, 50)) for t in range(n)]


SAMPLE_OPEN_DIGESTS = {
    "InfBlocks": "7ef89fbd9af815fe68c7223dbe84050bd4038ddf3f6525a07208a4e2b4b36bf7",
    "InfOrSingleton": "48e3357ec10251013542201c1a353437c1f822dcfd44fcd65974cbd294973591",
    "FinTwoCase1": "bc1ee1f7611a80282ad76bc570298df9f2c164ddb0bf2a5df987815e96d5a2cc",
    "FinTwoCase2": "4dd49da3aaff559a0a1b7356e0b34145a87851385f63a0648e55d609bbc3414b",
    "PairBlocks": "bc650dd9e31364ef7d0acb8f0caf567b6c0cc31ed94b4542c7349ab222d6b2ae",
    "SplitUnion": "63af8182e5315fd2209e74c15f76128f21e8d44f67ebad8283053258dc859486",
    "T0Sat": "a72c2f9dadc39e722e3161cbf48f184490e241491059b4818bfe9d0d00e9e4ca",
    "TauR": "26151047f20eacb40c6ba271bce36970878e78a65a9e271e83462f91956c7176",
    "ExtendPairs": "7807b7d4db2b1e7b929d2653dfa19948bfa7645efe117dd1145d206457a7146e",
    "SubbasisExample": "394bdcdeee84c24e2183040207133afd0491eb90393a8df389b4a2bd5f790a73",
}

# the branches each kind's _sample_open must reach: each variant (starred when
# anchored at another point) with the exclusion counts drawn
SAMPLE_OPEN_BRANCHES = {
    "InfBlocks": "CofInBlock 012",
    "InfOrSingleton": "CofInBlock 012, SingletonPt 0",
    "FinTwoCase1": "CofInBlock 012, FinPt1 012, FinPt1* 012, SingletonPt 0",
    "FinTwoCase2": "CofInBlock 012, FinPt2 012, FinPt2* 012, SingletonPt 0",
    "PairBlocks": "Ball 012",
    "SplitUnion": "Ball 012, CofInBlock 012, ExtPt 012, ExtPt* 0, SingletonPt 0",
    "T0Sat": "SatPair 0, SatPair* 0",
    "TauR": "BlockOpen 0",
    "ExtendPairs": "Ball 012, ExtPt 012, ExtPt* 0",
    "SubbasisExample": "CofInD 012, CofOmega 012",
}


@pytest.mark.parametrize("kind, realise, text", NINE_KINDS, ids=[k for k, _, _ in NINE_KINDS])
def test_sample_open_draws_are_pinned(kind, realise, text):
    spec = parse_spec(text)
    digest, branches = _sample_open_draws(realise(spec), _kind_points(spec, SAMPLE_OPEN_CALLS))
    assert digest == SAMPLE_OPEN_DIGESTS[kind]
    assert branches == SAMPLE_OPEN_BRANCHES[kind]


def test_sample_open_draws_are_pinned_on_the_subbasis_example():
    rng = random.Random(3)
    points = [rng.randint(0, 200) for _ in range(SAMPLE_OPEN_CALLS)]
    digest, branches = _sample_open_draws(SubbasisExample(DEFAULT_DESIGNATED), points)
    assert digest == SAMPLE_OPEN_DIGESTS["SubbasisExample"]
    assert branches == SAMPLE_OPEN_BRANCHES["SubbasisExample"]
