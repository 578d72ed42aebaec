"""Exact symbolic set algebra: residues, balls, the pairing."""

import random
from fractions import Fraction

import pytest

from diagclosure import symbolic_sets
from diagclosure.errors import BoundExceededError
from diagclosure.symbolic_sets import (
    RationalBall,
    ResidueClassSet,
    ball_disjoint,
    ball_member,
    ball_refine,
    cantor_pair,
    cantor_unpair,
    format_rational,
    in_interval,
    pair_decode,
    pair_encode,
    rational_at,
    rational_index,
    residues_disjoint,
    separating_radius,
)
from reference import positive_rational_index_by_steps


# --- residue classes ---

def test_residues_examples():
    d1 = ResidueClassSet(1, 3)
    d2 = ResidueClassSet(2, 3)
    assert residues_disjoint(d1, d2) is True
    assert residues_disjoint(ResidueClassSet(0, 2), ResidueClassSet(2, 4)) is False  # 2 in both
    assert residues_disjoint(d1, d1) is False
    with pytest.raises(ValueError, match="^modulus must be >= 1$"):
        residues_disjoint(ResidueClassSet(0, 0), d1)


def test_residues_against_enumeration():
    rng = random.Random(5)
    for _ in range(300):
        a = ResidueClassSet(rng.randrange(12), rng.randrange(1, 8))
        b = ResidueClassSet(rng.randrange(12), rng.randrange(1, 8))
        bound = a.offset + b.offset + a.modulus * b.modulus + 1
        brute = any(a.contains(x) and b.contains(x) for x in range(bound))
        assert residues_disjoint(a, b) == (not brute)


def test_residue_render():
    assert ResidueClassSet(1, 3).render() == "{3n+1}"
    assert ResidueClassSet(0, 2).render() == "{2n}"


# --- rational balls ---

def test_ball_examples():
    one = Fraction(1)
    b0 = RationalBall(0, Fraction(0), one)
    assert ball_disjoint(b0, RationalBall(1, Fraction(0), one)) is True
    assert ball_disjoint(b0, RationalBall(0, Fraction(3), one)) is True
    noisy = RationalBall(0, Fraction(1), one, excluded={(Fraction(1, 2), 0), (Fraction(3, 2), 1)})
    assert ball_disjoint(b0, noisy) is False  # exclusions never matter


def test_ball_membership():
    b = RationalBall(2, Fraction(1, 2), Fraction(1, 4), excluded={(Fraction(2, 5), 1)})
    assert ball_member(b, (2, Fraction(1, 2), 0))
    assert ball_member(b, (2, Fraction(2, 5), 0))
    assert not ball_member(b, (2, Fraction(2, 5), 1))  # excluded
    assert not ball_member(b, (2, Fraction(3, 4), 0))  # on the boundary: strict
    assert not ball_member(b, (1, Fraction(1, 2), 0))


def test_ball_symmetry_and_validation():
    rng = random.Random(13)
    balls = []
    for _ in range(40):
        balls.append(
            RationalBall(rng.randrange(3), Fraction(rng.randrange(-8, 9), 4), Fraction(rng.randrange(1, 9), 4))
        )
    for a in balls:
        for b in balls:
            assert ball_disjoint(a, b) == ball_disjoint(b, a)
    with pytest.raises(ValueError):
        RationalBall(0, Fraction(0), Fraction(0))
    with pytest.raises(ValueError):
        RationalBall(0, Fraction(0), Fraction(1), excluded={(Fraction(2), 0)})
    with pytest.raises(ValueError):
        RationalBall(0, Fraction(0), Fraction(1), excluded={(Fraction(1, 2), 7)})
    with pytest.raises(ValueError, match="^x_index must be a natural$"):
        RationalBall(-1, Fraction(0), Fraction(1))
    for bad in (1.5, "1", None):  # refused, not stored: equality and hashing compare stored integers
        with pytest.raises(ValueError, match="^x_index must be an integer, got "):
            RationalBall(bad, Fraction(1, 2), 1)
        with pytest.raises(ValueError, match="^level must be an integer, got "):
            RationalBall(0, Fraction(0), Fraction(1), excluded={(Fraction(1, 2), bad)})
    with pytest.raises(ValueError, match="^level must be an integer, got 0.5$"):  # not cut to 0 by int()
        RationalBall(0, Fraction(0), Fraction(1), excluded={(Fraction(1, 2), 0.5)})
    b = RationalBall(True, Fraction(0), Fraction(1), excluded={(Fraction(1, 2), True)})
    assert type(b.x_index) is int and b == RationalBall(1, Fraction(0), Fraction(1), excluded={(Fraction(1, 2), 1)})
    assert b.render() == "ball(x=1,q=0/1,d=1/1,excl=[(1/2,1)])"


def test_ball_refine_refuses_a_point_outside_either_ball():
    b1, b2 = RationalBall(0, Fraction(0), Fraction(1)), RationalBall(0, Fraction(1), Fraction(1))
    assert ball_refine(b1, b2, (0, Fraction(1, 2), 0)).radius == Fraction(1, 2)
    for q in (Fraction(-1, 2), Fraction(3, 2), Fraction(1)):  # outside b2, outside b1, on b1's boundary
        with pytest.raises(ValueError, match="^radius must be positive$"):
            ball_refine(b1, b2, (0, q, 0))


def test_ball_x_index_is_read_only():
    b = RationalBall(2, Fraction(1, 2), Fraction(1, 4))
    h, held = hash(b), {b}
    with pytest.raises(AttributeError):
        b.x_index = 3
    with pytest.raises(AttributeError):
        del b.x_index
    assert b.x_index == 2 and hash(b) == h and b in held


def test_ball_calls_read_floats_as_the_constructor_does():
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    b = RationalBall(0, 0.5, 0.25, excluded={(0.375, 1)})
    assert b == RationalBall(0, half, quarter, excluded={(Fraction(3, 8), 1)})
    for q in (0.5, 0.375, 0.75, 0.3, 1):
        exact = Fraction(q)
        for level in (0, 1):
            assert ball_member(b, (0, q, level)) == ball_member(b, (0, exact, level))
        assert in_interval(q, 0.5, 0.25) == in_interval(exact, half, quarter)
        assert separating_radius(q, 0.25) == separating_radius(exact, quarter)
    assert ball_refine(b, b, (0, 0.5, 0)) == ball_refine(b, b, (0, half, 0))
    assert in_interval("1/2", "3/4", "1/3") and separating_radius(1, "1/3") == Fraction(1, 3)


def test_ball_render():
    b = RationalBall(0, Fraction(1, 2), Fraction(1, 4), excluded={(Fraction(3, 8), 1)})
    assert b.render() == "ball(x=0,q=1/2,d=1/4,excl=[(3/8,1)])"
    many = {(Fraction(3, 8), 1), (Fraction(-1, 3), 0), (Fraction(3, 8), 0), (Fraction(1, 3), 1), (Fraction(-3, 8), 1)}
    b = RationalBall(0, Fraction(0), Fraction(1), excluded=many)  # sorted by rational, then by level
    assert b.render() == "ball(x=0,q=0/1,d=1/1,excl=[(-3/8,1),(-1/3,0),(1/3,1),(3/8,0),(3/8,1)])"


def test_rational_render_parse():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-2)) == "-2/1"
    for q in (Fraction(3, 4), Fraction(-2), Fraction(0), Fraction(-7, 12)):
        assert Fraction(format_rational(q)) == q


# --- the fixed pairing ---

def test_cantor_pairing_round_trip():
    for n in range(1000):
        a, b = cantor_unpair(n)
        assert cantor_pair(a, b) == n


def test_pair_encode_zero_is_frozen():
    # first element of the fixed enumeration
    assert pair_encode(0) == (0, Fraction(0))


def test_rational_enumeration_interleaves():
    seq = [rational_at(k) for k in range(7)]
    assert seq[0] == 0
    assert seq[1] == -seq[2] or seq[1] == -seq[2] * -1  # sign interleaving
    assert seq[1] > 0 and seq[2] < 0 and seq[3] > 0 and seq[4] < 0
    assert abs(seq[1]) == abs(seq[2]) and abs(seq[3]) == abs(seq[4])
    for k in range(4000):
        assert rational_index(rational_at(k)) == k


def test_rational_index_closed_forms():
    # 1/n and n lie n - 1 steps down the left and the right spine of the tree; -1/n follows 1/n
    for n in [*range(1, 300), 10**5]:
        assert rational_index(Fraction(1, n)) == 2**n - 1
        assert rational_index(Fraction(n)) == 2**(n + 1) - 3
        assert rational_index(Fraction(-1, n)) == 2**n
    assert rational_at(2**10**5 - 1) == Fraction(1, 10**5)
    assert rational_at(2**(10**5 + 1) - 3) == 10**5


@pytest.mark.parametrize("q", [Fraction(10**30), Fraction(1, 10**19), Fraction(-10**30, 7)])
def test_rational_index_refuses_an_index_beyond_its_bit_limit(q):
    with pytest.raises(BoundExceededError, match=f"refuses {format_rational(q)}: .* more than 33554432 bits"):
        rational_index(q)
    with pytest.raises(BoundExceededError, match=format_rational(q)):
        pair_decode((3, q))


def test_rational_index_bit_limit_is_the_sum_of_the_terms(monkeypatch):
    # the limit lies above the ten-million-bit index that CI times both ways
    assert symbolic_sets._INDEX_BITS_LIMIT > 10**7
    monkeypatch.setattr(symbolic_sets, "_INDEX_BITS_LIMIT", 100)
    # n and 1/n take runs of n - 1 bits; 60 + 1/k takes runs of 60 and k - 1
    assert rational_index(Fraction(101)) == 2**102 - 3
    assert rational_index(Fraction(-1, 101)) == 2**101
    q = Fraction(60 * 41 + 1, 41)
    assert rational_index(q) == 2 * positive_rational_index_by_steps(q) + 1
    for q in (Fraction(102), Fraction(1, 102), Fraction(60 * 42 + 1, 42)):
        with pytest.raises(BoundExceededError, match="more than 100 bits"):
            rational_index(q)


def test_pairing_round_trip_first_1000():
    for k in range(1000):
        assert pair_decode(pair_encode(k)) == k


def test_pair_encode_injective_to_1e5():
    seen = set()
    for k in range(100_000):
        seen.add(pair_encode(k))
    assert len(seen) == 100_000
