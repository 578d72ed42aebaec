"""The subbasis example on the naturals and the non-transitive closure demonstration.

``SubbasisExample`` takes as its basic opens the cofinite subsets of the
naturals (``CofOmega``) and of each designated residue class (``CofInD``);
``nontransitive_demo`` finds a triple whose diagonal closure is not
transitive.  It needs no partition spec: the ``example`` command loads
neither :mod:`diagclosure.relations` nor another family.  The shared
parts live in :mod:`diagclosure.constructions`.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .constructions import _NOTHING, Construction, _Cofinite, _draw_excl, check_certificate
from .errors import InvalidAddressError, InvalidSizeError, NotDisjointError
from .symbolic_sets import ResidueClassSet, residues_disjoint
from .values import _new, _TupleValue


class CofOmega(_Cofinite):
    """A cofinite subset of the naturals."""

    _fields = ("excluded",)


class CofInD(_Cofinite):
    """A cofinite subset of one designated residue-class set (1-based index)."""

    _fields = ("index", "excluded")
    _head = ("d",)


# --------------------------------------------------------------------------
# the subbasis example on the naturals

class SubbasisExample(Construction):
    """The naturals under the cofinite sets plus designated residue classes.

    Points are plain naturals here.  The generated basis consists of the
    cofinite subsets of the whole ground set and the cofinite subsets of
    each designated set; two points are separable iff they lie in two
    distinct designated sets, which makes the diagonal closure
    non-transitive as soon as two designated sets and an undesignated
    point exist.
    """

    kind = "SubbasisExample"
    _variants = (CofOmega, CofInD)

    def __init__(self, designated: Sequence[ResidueClassSet]):
        super().__init__(None)
        designated = tuple(designated)
        for d in designated:
            if d.modulus < 2:
                raise InvalidSizeError(f"designated set {d.render()} does not have an infinite complement")
        for d1, d2 in itertools.combinations(designated, 2):
            if not residues_disjoint(d1, d2):
                raise NotDisjointError(f"designated sets overlap: {d1.render()} and {d2.render()}")
        self.designated = designated

    @staticmethod
    def _valid(p) -> bool:
        return isinstance(p, int) and not isinstance(p, bool) and p >= 0

    def _reject(self, p):
        raise InvalidAddressError(f"points of this construction are naturals: {p!r}")

    def _designated_index(self, x: int) -> Optional[int]:
        for i, d in enumerate(self.designated, start=1):
            if d.contains(x):
                return i
        return None

    def _separable(self, p, q):
        ip, iq = self._designated_index(p), self._designated_index(q)
        return ip is not None and iq is not None and ip != iq

    def _witness_opens(self, p, q):
        return _new(CofInD, (self._designated_index(p), _NOTHING)), _new(CofInD, (self._designated_index(q), _NOTHING))

    def _member(self, o, p):
        if type(o) is CofOmega:
            return p not in o.excluded
        return self.designated[o.index - 1].contains(p) and p not in o.excluded

    def _disjoint(self, o1, o2):
        if type(o1) is CofInD and type(o2) is CofInD:
            return o1.index != o2.index
        return False  # a cofinite set meets every infinite set

    def _basic_nbhd(self, p, avoid=None):
        excl = frozenset((avoid,)) if isinstance(avoid, int) and avoid != p else _NOTHING
        return _new(CofOmega, (excl,))

    def _sample_open(self, p, rng, bounds):
        excl = _draw_excl(rng, 3 * (bounds[0] + 1), int, p)
        i = self._designated_index(p)
        if i is not None and rng.random() < 0.5:
            return _new(CofInD, (i, excl))
        return _new(CofOmega, (excl,))

    def _refine(self, o1, o2, p):
        # the overlap lies in a designated set if either open does
        return o2.meet(o1) if type(o2) is CofInD and type(o1) is not CofInD else o1.meet(o2)

    def _contains(self, outer, inner):
        if type(inner) is CofOmega:
            return type(outer) is CofOmega and inner.within(outer, lambda u: type(u) is int and u < 0)  # no natural
        if type(outer) is CofInD and outer.index != inner.index:
            return False
        dset = self.designated[inner.index - 1]
        return all(e in inner.excluded or not dset.contains(e) for e in outer.excluded)


# --------------------------------------------------------------------------
# the non-transitive closure demonstration

DEFAULT_DESIGNATED = (ResidueClassSet(1, 3), ResidueClassSet(2, 3))
_SEARCH_BOUND = 400


class NonTransitiveReport(_TupleValue):
    """Outcome of the non-transitivity demonstration."""

    _fields = ("designated", "construction", "triple", "certificate", "message")

    @property
    def ok(self) -> bool:
        return self.triple is not None

    def render(self) -> str:
        shown = ", ".join(d.render() for d in self.designated) if self.designated else "(none)"
        lines = [f"designated: {shown}"]
        if self.triple is None:
            lines.append(self.message)
        else:
            a, b, c = self.triple
            lines.append(f"inseparable: ({a},{b})")
            lines.append(f"inseparable: ({b},{c})")
            lines.append(f"separable: ({a},{c})")
            lines.append("certificate:")
            lines.append(self.certificate.render())
            lines.append(f"triple: ({a},{b},{c})")
        return "\n".join(lines)


def nontransitive_demo(designated=None) -> NonTransitiveReport:
    """Exhibit a non-transitive triple of the subbasis-example closure.

    Looks for the smallest consecutive triple (a, a+1, a+2) with the ends
    separable but both adjacent pairs inseparable.  When there is none below
    ``_SEARCH_BOUND``, the triple is built from the rule every such triple
    obeys: b is the least undesignated point below ``_SEARCH_BOUND``, and a
    and c are the offsets of the first two designated sets.  The found
    certificate is re-checked before it is reported; failure there would be
    a library defect.
    """
    if designated is None:
        designated = DEFAULT_DESIGNATED
    designated = tuple(designated)
    c = SubbasisExample(designated)
    if not designated:
        return NonTransitiveReport(designated, c, None, None, "closure is total, no triple exists")

    def pattern(a, b, cc):
        return (not c.separable(a, b)) and (not c.separable(b, cc)) and c.separable(a, cc)

    triple = next(((a, a + 1, a + 2) for a in range(_SEARCH_BOUND) if pattern(a, a + 1, a + 2)), None)
    if triple is None and len(designated) >= 2:
        b = next((x for x in range(_SEARCH_BOUND) if c._designated_index(x) is None), None)
        if b is not None:
            triple = (designated[0].offset, b, designated[1].offset)
    if triple is None:
        return NonTransitiveReport(
            designated, c, None, None, "no non-transitivity witness found (closure may be transitive)"
        )
    a, b, cc = triple
    cert = c.witness(a, cc)
    if cert is None or not check_certificate(c, a, cc, cert):
        raise AssertionError("separation certificate failed re-checking")
    return NonTransitiveReport(designated, c, triple, cert, "")
