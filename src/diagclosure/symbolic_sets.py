"""Decidable representations of the infinite sets used by the constructions.

Everything here is exact: residue-class subsets of the naturals, rational
balls with finitely many excluded points, and a fixed bijection between the
naturals and (natural, rational) pairs.  The public calls give rationals
as ``fractions.Fraction`` values, and take them as the ``RationalBall``
constructor does: an int or a ``Fraction`` as it is, anything else by its
exact value (``_terms``); the alias :data:`Rational` names that choice in
signatures.

A :class:`RationalBall` is the tuple ``(x, cn, cd, rn, rd, excl)``: its
natural, its centre ``cn/cd`` and radius ``rn/rd`` as reduced integer pairs
(lowest terms, positive denominator) and a frozenset of reduced
``(numerator, denominator, level)`` exclusions, so equality, hashing and
exclusion lookup compare integers, and the ball rules unpack the tuple; its
``center``, ``radius`` and ``excluded`` are read-only ``Fraction`` views.
This module owns all ball arithmetic (member, disjoint, contains, refine,
separating radius): one integer primitive, ``_excess``, decides every
comparison of a distance with a radius by cross-multiplying numerators and
denominators.  A ``Fraction`` is built only where a public call takes or
returns one, and ``fractions`` is imported only there, inside those calls:
the pair system's own rules, which the command line runs, work in integers
and never load it.  ``Rational`` resolves on first use.

The pair system reaches the balls through named operations on block
images, each image the pair of a block as integers ``(x, numerator,
denominator)`` from ``_image``: a ball around an image (``_image_ball``,
``_separating_balls``), a ball with one more excluded image
(``_ball_excluding``), membership of an image at a level
(``_image_member``) and refinement at an image (``_image_refine``).  So
only this module knows the number format.  These operations build their
balls without the public constructor's checks, by ``_new`` from the six
fields, from invariants they establish themselves: a natural ``x``, reduced
pairs with a positive radius, and exclusions strictly inside.  The public
``RationalBall(...)`` validates every input.  The ball rules know no construction: one that
removes points from a ball passes a ball with those points among its
exclusions.
"""

from __future__ import annotations

import functools
import math
from operator import index
from typing import NamedTuple

from .errors import BoundExceededError
from .values import _new, _TupleValue

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


def __getattr__(name):
    if name == "Rational":  # the type every public call gives its rationals as
        from fractions import Fraction

        return Fraction
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


_NO_EXCL = frozenset()


def _integer(field: str, value) -> int:
    """``value`` as the int ``operator.index`` gives, or ValueError naming the field."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{field} must be an integer, got {value!r}") from None


def _terms(q) -> tuple[int, int]:
    """The rational ``q`` as its reduced (numerator, denominator) pair, read
    as the ``RationalBall`` constructor reads it: an int, a ``Fraction``, a
    float or a ``Decimal`` by its exact ratio, anything else through
    ``Fraction(q)``.  Ints and Fractions give their own terms unconverted."""
    try:
        return q.as_integer_ratio()
    except AttributeError:
        from fractions import Fraction

        return Fraction(q).as_integer_ratio()


def _reduced(n: int, d: int) -> tuple[int, int]:
    """``n/d`` (``d`` positive) in lowest terms."""
    g = math.gcd(n, d)
    return n // g, d // g


class RationalBall(_TupleValue):
    """A cofinite subset of ``{x} x B_delta(center) x {0,1}``.

    ``B_delta(center)`` is the open rational interval of radius ``radius``
    around ``center``.  ``excluded`` is a finite set of (rational, level)
    pairs, all strictly inside the ball.  The represented set is always
    infinite.

    The value is the tuple ``(x, cn, cd, rn, rd, excl)``: the centre and
    radius as reduced integer pairs and a frozenset of reduced (numerator,
    denominator, level) exclusions.  It hashes as that tuple, is equal only
    to another ball with the same six fields, and refuses assignment;
    ``x_index`` and the ``Fraction`` views ``center``, ``radius`` and
    ``excluded``, built on each read, are read-only.  The constructor takes
    anything ``Fraction`` accepts for the rationals and integers for
    ``x_index`` and the levels.
    """

    _fields = ("x_index",)  # the items after it are read by the views below

    def __new__(cls, x_index: int, center: Fraction, radius: Fraction, excluded=()):
        from fractions import Fraction

        x_index = _integer("x_index", x_index)
        center = Fraction(center)
        radius = Fraction(radius)
        if x_index < 0:
            raise ValueError("x_index must be a natural")
        if radius <= 0:
            raise ValueError("radius must be positive")
        excl = set()
        for q, level in excluded:
            q, level = Fraction(q), _integer("level", level)
            if level not in (0, 1):
                raise ValueError(f"level must be 0 or 1: {level}")
            if abs(q - center) >= radius:
                raise ValueError(f"excluded point outside the ball: {format_rational(q)}")
            excl.add((q.numerator, q.denominator, level))
        return _new(cls, (x_index, center.numerator, center.denominator, radius.numerator, radius.denominator, frozenset(excl)))

    @property
    def center(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self[1], self[2])

    @property
    def radius(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self[3], self[4])

    @property
    def excluded(self) -> frozenset:
        from fractions import Fraction

        return frozenset((Fraction(n, d), level) for n, d, level in self[5])

    def render_args(self) -> str:
        """The fields as ``x=..,q=..,d=..,excl=[..]``, exclusions sorted."""
        x, cn, cd, rn, rd, excl = self
        excl = ",".join(f"({n}/{d},{level})" for n, d, level in sorted(excl, key=_BY_VALUE)) if excl else ""
        return f"x={x},q={cn}/{cd},d={rn}/{rd},excl=[{excl}]"

    def render(self) -> str:
        return f"ball({self.render_args()})"

    __repr__ = render


def _compare(e1: tuple[int, int, int], e2: tuple[int, int, int]) -> int:
    """The order of two exclusions, by rational and then by level, in integers."""
    return e1[0] * e2[1] - e2[0] * e1[1] or e1[2] - e2[2]


_BY_VALUE = functools.cmp_to_key(_compare)


def _excess(an: int, ad: int, bn: int, bd: int, rn: int, rd: int) -> int:
    """``|an/ad - bn/bd| - rn/rd`` scaled by the positive ``ad * bd * rd``;
    its sign decides every comparison of a distance with a radius."""
    return abs(an * bd - bn * ad) * rd - rn * ad * bd


def in_interval(q: Fraction, center: Fraction, radius: Fraction) -> bool:
    """``|q - center| < radius``, decided in integers."""
    return _excess(*_terms(q), *_terms(center), *_terms(radius)) < 0


def _half_distance(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """``|an/ad - bn/bd| / 2`` as a reduced pair."""
    return _reduced(_excess(an, ad, bn, bd, 0, 1), 2 * ad * bd)


def separating_radius(q1: Fraction, q2: Fraction) -> Fraction:
    """``|q1 - q2| / 2``: balls of this radius around q1 and q2 are disjoint."""
    from fractions import Fraction

    return Fraction(*_half_distance(*_terms(q1), *_terms(q2)))


def _image_member(b: RationalBall, z: tuple[int, int, int], level: int) -> bool:
    """Whether the image ``z = (x, numerator, denominator)`` at ``level`` lies in ``b``."""
    x, n, d = z
    bx, cn, cd, rn, rd, excl = b
    return x == bx and _excess(n, d, cn, cd, rn, rd) < 0 and not (excl and (n, d, level) in excl)


def ball_member(b: RationalBall, point: tuple[int, Fraction, int]) -> bool:
    x, q, level = point
    n, d = _terms(q)
    return _image_member(b, (x, n, d), level)


def ball_disjoint(b1: RationalBall, b2: RationalBall) -> bool:
    """Exact disjointness of two balls: ``|c1 - c2| >= r1 + r2``.

    Exclusions never matter: overlapping open rational intervals share
    infinitely many points while exclusion sets are finite.
    """
    x1, cn1, cd1, rn1, rd1, _ = b1
    x2, cn2, cd2, rn2, rd2, _ = b2
    return x1 != x2 or _excess(cn1, cd1, cn2, cd2, rn1 * rd2 + rn2 * rd1, rd1 * rd2) >= 0


def ball_contains(outer: RationalBall, inner: RationalBall) -> bool:
    """Exact containment: ``|ci - co| + ri <= ro`` and every outer exclusion
    inside the inner ball is excluded there too."""
    xo, con, cod, ron, rod, outside = outer
    x, cn, cd, rn, rd, inside = inner
    if xo != x or _excess(cn, cd, con, cod, ron * rd - rn * rod, rod * rd) > 0:
        return False
    return all(e in inside for e in outside if _excess(e[0], e[1], cn, cd, rn, rd) < 0)


def _image_refine(b1: RationalBall, b2: RationalBall, z: tuple[int, int, int]) -> RationalBall:
    """A ball around the image z inside both arguments, inheriting relevant exclusions."""
    x, n, d = z
    # each ball's room around z, radius - |z - centre|, as an unreduced pair
    _, cn1, cd1, rn1, rd1, excl1 = b1
    _, cn2, cd2, rn2, rd2, excl2 = b2
    n1, d1 = -_excess(n, d, cn1, cd1, rn1, rd1), d * cd1 * rd1
    n2, d2 = -_excess(n, d, cn2, cd2, rn2, rd2), d * cd2 * rd2
    rn, rd = (n1, d1) if n1 * d2 <= n2 * d1 else (n2, d2)
    if rn <= 0:
        raise ValueError("radius must be positive")
    rn, rd = _reduced(rn, rd)
    excl = excl1 | excl2
    if excl:
        excl = frozenset([e for e in excl if _excess(e[0], e[1], n, d, rn, rd) < 0])
    return _new(RationalBall, (x, n, d, rn, rd, excl))


def ball_refine(b1: RationalBall, b2: RationalBall, z) -> RationalBall:
    """A ball around z inside both arguments, inheriting relevant exclusions."""
    x, q, _ = z
    return _image_refine(b1, b2, (x, *_terms(q)))


def _image_ball(z: tuple[int, int, int], eighths: int = 8, shift: int = 0, excluded=()) -> RationalBall:
    """The ball of radius ``eighths/8`` around the rational of the image z
    moved by ``shift/8``, minus each (shift, level) of ``excluded`` at that
    shift from z's rational; the caller keeps every exclusion inside."""
    x, n, d = z
    g = math.gcd(eighths, 8)
    cn, cd = _reduced(8 * n + shift * d, 8 * d) if shift else (n, d)
    excl = frozenset([(*_reduced(8 * n + s * d, 8 * d), level) for s, level in excluded]) if excluded else _NO_EXCL
    return _new(RationalBall, (x, cn, cd, eighths // g, 8 // g, excl))


def _separating_balls(z1: tuple[int, int, int], z2: tuple[int, int, int]) -> tuple[RationalBall, RationalBall]:
    """Disjoint balls of one radius around the images of two distinct blocks:
    radius 1 on different naturals, else half the distance of the rationals."""
    (x1, n1, d1), (x2, n2, d2) = z1, z2
    rn, rd = (1, 1) if x1 != x2 else _half_distance(n1, d1, n2, d2)
    return _new(RationalBall, (x1, n1, d1, rn, rd, _NO_EXCL)), _new(RationalBall, (x2, n2, d2, rn, rd, _NO_EXCL))


def _ball_excluding(b: RationalBall, z: tuple[int, int, int], level: int) -> RationalBall:
    """``b`` minus the image z at ``level`` as well; z must lie strictly inside."""
    _, n, d = z
    x, cn, cd, rn, rd, excl = b
    return _new(RationalBall, (x, cn, cd, rn, rd, excl | {(n, d, level)}))


# --- fixed bijection between the naturals and (natural, rational) pairs ---

def cantor_pair(a: int, b: int) -> int:
    s = a + b
    return s * (s + 1) // 2 + b

def cantor_unpair(n: int) -> tuple[int, int]:
    w = (math.isqrt(8 * n + 1) - 1) // 2
    b = n - w * (w + 1) // 2
    return w - b, b


def _positive_rational_at(k: int) -> tuple[int, int]:
    # Node k+1 of the Calkin-Wilf tree in heap numbering: root 1/1,
    # left child a/(a+b), right child (a+b)/b; every node is in lowest terms.
    # The bits of k+1 below its leading one spell the path from the root.
    a = b = 1
    for bit in bin(k + 1)[3:]:
        if bit == "1":
            a += b
        else:
            b += a
    return a, b


# The most run bits ``_positive_rational_index`` builds, about the bit length
# of the index: 4 MiB, above the ten-million-bit index of 1/10**7 that CI
# times both ways.
_INDEX_BITS_LIMIT = 1 << 25


def _positive_rational_index(q: Fraction) -> int:
    # The path back to the root from |q|, one continued-fraction term at a
    # time: a node a/b with a > b is reached from ((a-1) mod b + 1)/b by
    # (a-1) // b right steps in a row, and a node with a < b alike by left
    # steps.  The runs are gathered leaf first: they are the bits of k+1
    # after its leading one, read backwards, and their lengths are the
    # continued-fraction terms of |q|, the last less one.  Its one caller
    # passes q != 0.
    a, b = abs(q.numerator), q.denominator
    runs, bits = [], 0
    while a != b:  # only the root 1/1 has a == b
        if a > b:
            m, a = divmod(a - 1, b)
            bit = "1"
            a += 1
        else:
            m, b = divmod(b - 1, a)
            bit = "0"
            b += 1
        bits += m
        if bits > _INDEX_BITS_LIMIT:
            raise BoundExceededError(
                f"rational_index refuses {format_rational(q)}: its index would have more than {_INDEX_BITS_LIMIT} bits"
            )
        runs.append(bit * m)
    return int("1" + "".join(reversed(runs)), 2) - 1


def _rational_terms(k: int) -> tuple[int, int]:
    """The k-th rational as a reduced (numerator, denominator) pair."""
    if k == 0:
        return 0, 1
    t, sign = divmod(k - 1, 2)
    a, b = _positive_rational_at(t)
    return (a, b) if sign == 0 else (-a, b)


def rational_at(k: int) -> Fraction:
    """The k-th rational: 0 first, then positives and negatives interleaved."""
    from fractions import Fraction

    return Fraction(*_rational_terms(k))


def rational_index(q: Fraction) -> int:
    """Position of a rational in the fixed enumeration; inverse of rational_at.

    The index has about as many bits as the continued-fraction terms of q
    add up to; a rational whose index would pass ``_INDEX_BITS_LIMIT`` bits
    is refused with ``BoundExceededError``, before the index is built.
    """
    from fractions import Fraction

    q = Fraction(q)
    if q == 0:
        return 0
    t = _positive_rational_index(q)
    return 2 * t + 1 if q > 0 else 2 * t + 2


def _image(n: int) -> tuple[int, int, int]:
    """The pair of n as integers: (natural, numerator, denominator), reduced."""
    a, b = cantor_unpair(n)
    return (a, *_rational_terms(b))


def pair_encode(n: int) -> tuple[int, Fraction]:
    """The fixed bijection from naturals to (natural, rational) pairs."""
    from fractions import Fraction

    x, num, den = _image(n)
    return x, Fraction(num, den)


def pair_decode(pair: tuple[int, Fraction]) -> int:
    a, q = pair
    return cantor_pair(a, rational_index(q))
