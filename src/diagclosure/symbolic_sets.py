"""Decidable representations of the infinite sets used by the constructions.

Everything here is exact: residue-class subsets of the naturals, rational
balls with finitely many excluded points, and a fixed bijection between the
naturals and (natural, rational) pairs.  Rationals are stored as
``fractions.Fraction`` values (unbounded integers, always reduced); the alias
:data:`Rational` names that choice in signatures.  This module owns all ball
arithmetic (member, disjoint, contains, refine, separating radius): one
integer primitive, ``_excess``, decides every comparison of a distance with a
radius by cross-multiplying numerators and denominators, so none builds a
``Fraction``.  The ball rules know no construction: one that removes points
from a ball passes a ball with those points among its exclusions.
``RationalBall._unchecked`` skips the constructor's checks for
balls whose invariants the caller has just established; it is internal to
the package, and the public ``RationalBall(...)`` validates every input.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "Rational",
    "RationalBall",
    "ResidueClassSet",
    "ball_contains",
    "ball_disjoint",
    "ball_member",
    "ball_refine",
    "cantor_pair",
    "cantor_unpair",
    "format_rational",
    "in_interval",
    "pair_decode",
    "pair_encode",
    "rational_at",
    "rational_index",
    "residues_disjoint",
    "separating_radius",
]

Rational = Fraction


def format_rational(q: Fraction) -> str:
    """Render as ``p/q`` with the denominator always shown."""
    return f"{q.numerator}/{q.denominator}"


class ResidueClassSet(NamedTuple):
    """The arithmetic progression ``{offset + modulus*k : k natural}``."""

    offset: int
    modulus: int

    def contains(self, x: int) -> bool:
        return x >= self.offset and (x - self.offset) % self.modulus == 0

    def render(self) -> str:
        if self.offset == 0:
            return f"{{{self.modulus}n}}"
        return f"{{{self.modulus}n+{self.offset}}}"


def residues_disjoint(d1: ResidueClassSet, d2: ResidueClassSet) -> bool:
    """Whether two residue-class sets share no element.

    A common element exists iff the congruence system is solvable, i.e. the
    offsets agree modulo gcd of the moduli; solutions form an upward-infinite
    progression, so one always lies above both offsets.
    """
    if d1.modulus < 1 or d2.modulus < 1:
        raise ValueError("modulus must be >= 1")
    g = math.gcd(d1.modulus, d2.modulus)
    return (d1.offset - d2.offset) % g != 0


class RationalBall:
    """A cofinite subset of ``{x} x B_delta(center) x {0,1}``.

    ``B_delta(center)`` is the open rational interval of radius ``radius``
    around ``center``.  ``excluded`` is a finite set of (rational, level)
    pairs, all strictly inside the ball.  The represented set is always
    infinite.
    """

    __slots__ = ("x_index", "center", "radius", "excluded")

    @classmethod
    def _unchecked(cls, x_index: int, center: Fraction, radius: Fraction, excluded: frozenset) -> "RationalBall":
        """A ball built without validation (internal).

        The caller guarantees what ``__init__`` would check: a natural
        ``x_index``, ``Fraction`` centre and radius with a positive radius,
        and a frozenset of (``Fraction``, 0 or 1) pairs strictly inside.
        """
        b = object.__new__(cls)
        b.x_index = x_index
        b.center = center
        b.radius = radius
        b.excluded = excluded
        return b

    def __init__(self, x_index: int, center: Fraction, radius: Fraction, excluded=()):
        center = Fraction(center)
        radius = Fraction(radius)
        if x_index < 0:
            raise ValueError("x_index must be a natural")
        if radius <= 0:
            raise ValueError("radius must be positive")
        excluded = frozenset((Fraction(q), int(level)) for q, level in excluded)
        for q, level in excluded:
            if level not in (0, 1):
                raise ValueError(f"level must be 0 or 1: {level}")
            if abs(q - center) >= radius:
                raise ValueError(f"excluded point outside the ball: {format_rational(q)}")
        self.x_index = x_index
        self.center = center
        self.radius = radius
        self.excluded = excluded

    def __eq__(self, other):
        return (
            isinstance(other, RationalBall)
            and (self.x_index, self.center, self.radius, self.excluded)
            == (other.x_index, other.center, other.radius, other.excluded)
        )

    def __hash__(self):
        return hash((self.x_index, self.center, self.radius, self.excluded))

    def render_args(self) -> str:
        """The fields as ``x=..,q=..,d=..,excl=[..]``, exclusions sorted."""
        excl = ",".join(f"({format_rational(q)},{level})" for q, level in sorted(self.excluded))
        return f"x={self.x_index},q={format_rational(self.center)},d={format_rational(self.radius)},excl=[{excl}]"

    def render(self) -> str:
        return f"ball({self.render_args()})"

    __repr__ = render


def _excess(a: Fraction, b: Fraction, rn: int, rd: int) -> int:
    """``|a - b| - rn/rd`` scaled by the positive ``a.denominator * b.denominator * rd``;
    its sign decides every comparison of a distance with a radius."""
    ad, bd = a.denominator, b.denominator
    return abs(a.numerator * bd - b.numerator * ad) * rd - rn * ad * bd


def in_interval(q: Fraction, center: Fraction, radius: Fraction) -> bool:
    """``|q - center| < radius``, decided in integers."""
    return _excess(q, center, radius.numerator, radius.denominator) < 0


def separating_radius(q1: Fraction, q2: Fraction) -> Fraction:
    """``|q1 - q2| / 2``: balls of this radius around q1 and q2 are disjoint."""
    return Fraction(_excess(q1, q2, 0, 1), 2 * q1.denominator * q2.denominator)


def ball_member(b: RationalBall, point: tuple[int, Fraction, int]) -> bool:
    x, q, level = point
    r = b.radius
    if x != b.x_index or _excess(q, b.center, r.numerator, r.denominator) >= 0:
        return False
    for e, lev in b.excluded:  # a scan of the few exclusions: hashing a Fraction costs more
        if lev == level and e == q:
            return False
    return True


def ball_disjoint(b1: RationalBall, b2: RationalBall) -> bool:
    """Exact disjointness of two balls: ``|c1 - c2| >= r1 + r2``.

    Exclusions never matter: overlapping open rational intervals share
    infinitely many points while exclusion sets are finite.
    """
    if b1.x_index != b2.x_index:
        return True
    r1, r2 = b1.radius, b2.radius
    rd1, rd2 = r1.denominator, r2.denominator
    return _excess(b1.center, b2.center, r1.numerator * rd2 + r2.numerator * rd1, rd1 * rd2) >= 0


def ball_contains(outer: RationalBall, inner: RationalBall) -> bool:
    """Exact containment: ``|ci - co| + ri <= ro`` and every outer exclusion
    inside the inner ball is excluded there too."""
    if outer.x_index != inner.x_index:
        return False
    ro, ri = outer.radius, inner.radius
    rod, rid = ro.denominator, ri.denominator
    if _excess(inner.center, outer.center, ro.numerator * rid - ri.numerator * rod, rod * rid) > 0:
        return False
    return all(e in inner.excluded for e in outer.excluded if in_interval(e[0], inner.center, ri))


def _room(b: RationalBall, q: Fraction) -> tuple[int, int]:
    """``b.radius - |q - b.center|`` as an unreduced (numerator, denominator) pair."""
    r = b.radius
    return -_excess(q, b.center, r.numerator, r.denominator), q.denominator * b.center.denominator * r.denominator


def ball_refine(b1: RationalBall, b2: RationalBall, z) -> RationalBall:
    """A ball around z inside both arguments, inheriting relevant exclusions."""
    x, q, _ = z
    (n1, d1), (n2, d2) = _room(b1, q), _room(b2, q)
    num, den = (n1, d1) if n1 * d2 <= n2 * d1 else (n2, d2)
    if num <= 0:
        raise ValueError("radius must be positive")
    rad = Fraction(num, den)
    excl = frozenset(e for e in b1.excluded | b2.excluded if in_interval(e[0], q, rad))
    return RationalBall._unchecked(x, q, rad, excl)


# --- fixed bijection between the naturals and (natural, rational) pairs ---

def cantor_pair(a: int, b: int) -> int:
    s = a + b
    return s * (s + 1) // 2 + b

def cantor_unpair(n: int) -> tuple[int, int]:
    w = (math.isqrt(8 * n + 1) - 1) // 2
    b = n - w * (w + 1) // 2
    return w - b, b


def _positive_rational_at(k: int) -> Fraction:
    # Node k+1 of the Calkin-Wilf tree in heap numbering: root 1/1,
    # left child a/(a+b), right child (a+b)/b.
    v = k + 1
    a, b = 1, 1
    for shift in range(v.bit_length() - 2, -1, -1):
        if v >> shift & 1:
            a = a + b
        else:
            b = a + b
    return Fraction(a, b)


def _positive_rational_index(q: Fraction) -> int:
    a, b = q.numerator, q.denominator
    if a <= 0:
        raise ValueError("positive rational required")
    bits = []
    while (a, b) != (1, 1):
        if a > b:
            bits.append(1)
            a -= b
        else:
            bits.append(0)
            b -= a
    v = 1
    for bit in reversed(bits):
        v = v << 1 | bit
    return v - 1


def rational_at(k: int) -> Fraction:
    """The k-th rational: 0 first, then positives and negatives interleaved."""
    if k == 0:
        return Fraction(0)
    t, sign = divmod(k - 1, 2)
    q = _positive_rational_at(t)
    return q if sign == 0 else -q


def rational_index(q: Fraction) -> int:
    """Position of a rational in the fixed enumeration; inverse of rational_at."""
    q = Fraction(q)
    if q == 0:
        return 0
    t = _positive_rational_index(abs(q))
    return 2 * t + 1 if q > 0 else 2 * t + 2


def pair_encode(n: int) -> tuple[int, Fraction]:
    """The fixed bijection from naturals to (natural, rational) pairs."""
    a, b = cantor_unpair(n)
    return a, rational_at(b)


def pair_decode(pair: tuple[int, Fraction]) -> int:
    a, q = pair
    return cantor_pair(a, rational_index(q))
