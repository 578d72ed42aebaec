"""Property-verification harness for the symbolic and finite realisations.

The harness ties each construction to the relation it claims to realise.
Each sampled pair goes through one call, ``Construction.answer_pair``,
which checks both points once and returns the separability, the
certificate and, on T1 constructions, both one-sided T1 opens.  On the
cofinite and reservoir kinds, whose classes keep the base witness, the
certificate of a separable pair is those two T1 opens, built once and
checked both as a certificate and as T1 witnesses; the pair-system kinds,
``SubbasisExample`` and any class with a ``_witness_opens`` of its own
build the certificate apart.  The separability is compared with the
relation itself - the points are related iff they lie in one block (same
class, same block index) - worked out here from the addresses, not by
asking the construction.  That comparison is independent of the
construction only where ``separable`` is computed from the open families
(the reservoir constructions and ``SubbasisExample``), since elsewhere
``separable`` is the block test itself.  The other checks go through the
opens: the certificate checker re-verifies every witness through the exact
membership/disjointness rules, T1 witnesses are checked pointwise through
``member``, and basis-axiom refinements are checked by exact containment
plus membership probing, each basis point checked once for both opens
drawn around it.  When the checker has just accepted a certificate whose
opens are the pair's T1 opens, the same objects (the cofinite and reservoir
kinds, and ``SplitUnion`` whenever a point lies outside the finite blocks,
whose canonical opens are interned), the T1 check reuses its answers that
each open holds its own point, and asks ``member`` only whether each open
misses the other point; each T1 check can still fail on its own.

Sampling is deterministic: the PRNG is the standard library's
``random.Random`` seeded with an integer derived from the report seed, and
pairs are drawn round-robin from the strata of address-class combinations
the spec admits, so every stratum gets an equal share.  One sampler per
address class the strata name and one per stratum are built at the start
of each run, with the spec's limits and their bit widths fixed in them;
all three classes share one point rule, and the strata two pair rules: a
second point of p's block, or one of another block, drawn again at most
``_MAX_REDRAWS`` times.  Every index is drawn straight from the
generator's ``getrandbits``, by the rejection rule of ``randrange`` that
:func:`~diagclosure.constructions.draw_below` follows (written out inline
in the point samplers), so the draws are those of ``randrange`` and
``randint`` without their argument checks.  ``tests/reference.py`` keeps the plain sampling functions, drawing
through ``randint``, that they must match draw for draw.  Bounds and
sample counts must be integers; others are refused before any draw.

Documented fault-injection modes, which this harness must catch; each is a
subclass in ``tests/faults.py`` that the test suite runs through it: a
wrong residue-class assignment (reservoirs or pools that are not pairwise
disjoint), swapped representatives (witnesses aimed at the wrong canonical
element), off-by-one exclusion sets (witnesses excluding a neighbor of the
intended point), a separability rule that calls every pair separable,
certificates dropped, invented or aimed at the wrong block, T1 witnesses
that miss their own point, and refinements that are not inside both opens.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields

from .constructions import Construction, check_certificate, draw_below
from .errors import BoundExceededError, InvalidSizeError, SpecMismatchError, check_bounds, require_integers
from .relations import (
    BlockClass,
    PartitionSpec,
    PointAddr,
    _new,
    _TupleValue,
    all_partitions,
    eq_of_partition,
)

__all__ = [
    "CrossCheckReport",
    "MonotonicityReport",
    "VerifyReport",
    "finite_cross_check",
    "monotonicity_check",
    "verify_construction",
]

_S, _F, _I = BlockClass.SINGLETON, BlockClass.FINITE, BlockClass.INFINITE

@dataclass(frozen=True)
class VerifyReport:
    """Counters of one verification run; all failure counters must be zero.

    The report is a pure function of (spec, construction, sizes, bounds,
    seed): two runs with the same inputs render byte-identically.
    """

    spec: str
    construction: str
    pairs_checked: int
    mismatches: int
    certificates_checked: int
    certificate_failures: int
    t1_checks: int
    t1_failures: int
    basis_checks: int
    basis_failures: int
    seed: int
    bounds: tuple[int, int]

    def passed(self) -> bool:
        return (
            self.mismatches == 0
            and self.certificate_failures == 0
            and self.t1_failures == 0
            and self.basis_failures == 0
        )

    def _items(self):
        """(name, value) in field order; the order is part of the text and JSON output."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "bounds":
                value = f"{value[0]},{value[1]}"
            yield f.name, value

    def render_text(self) -> str:
        items = list(self._items())
        width = max(len(name) for name, _ in items) + 2
        return "\n".join(f"{name:<{width}}{value}" for name, value in items)

    def render_json_line(self) -> str:
        return json.dumps(dict(self._items()))


def _strata_for(spec: PartitionSpec) -> list[tuple]:
    out = []
    m_fin = spec.fin.count
    if spec.singletons >= 2:
        out.append(("s", "s"))
    if spec.singletons >= 1 and m_fin >= 1:
        out.append(("s", "f"))
    if spec.singletons >= 1 and spec.inf >= 1:
        out.append(("s", "i"))
    if m_fin >= 1:
        out.append(("f", "f", "same"))
    if m_fin >= 2:
        out.append(("f", "f", "diff"))
    if m_fin >= 1 and spec.inf >= 1:
        out.append(("f", "i"))
    if spec.inf >= 1:
        out.append(("i", "i", "same"))
    if spec.inf >= 2:
        out.append(("i", "i", "diff"))
    return out


def _point_sampler(tag, spec, getrandbits, bounds):
    """The sampler ``point(block=None, not_elem=None)`` of one address class.

    The block and element limits, and their bit widths, are fixed here, once
    per verification run; each index is drawn below its limit as
    ``draw_below(getrandbits, limit)`` draws it, inline, which takes the
    draws of ``randint(0, limit - 1)``.  A given ``block`` is kept, and an
    element equal to ``not_elem`` is drawn again.  The element's limit and
    width come from a table indexed by the block modulo its length: one
    entry per finite size, one for an infinite block, and for a singleton
    one entry of width 0, since ``getrandbits(0)`` is 0 and draws nothing.
    """
    block_bound, elem_bound = bounds

    def below(limit):  # a limit and its bit width
        return limit, limit.bit_length()

    def block_limit(count):  # the limit of a block index; a count of None is omega
        return below(block_bound + 1 if count is None else min(block_bound, count - 1) + 1)

    if tag == "s":
        cls, (blocks, block_bits), elems = _S, block_limit(spec.singletons.value), ((1, 0),)
    elif tag == "f":
        cls, sizes = _F, spec.fin.sizes
        blocks, block_bits = block_limit(None if spec.fin.cyclic else len(sizes))
        elems = tuple(below(min(elem_bound, size - 1) + 1) for size in sizes)
    else:
        cls, (blocks, block_bits) = _I, block_limit(spec.inf.value)
        elems = (below(elem_bound + 1),)
    period = len(elems)

    def point(block=None, not_elem=None):
        if block is None:
            block = getrandbits(block_bits)
            while block >= blocks:
                block = getrandbits(block_bits)
        limit, bits = elems[block % period]
        while True:
            e = getrandbits(bits)
            while e >= limit:
                e = getrandbits(bits)
            if e != not_elem:
                return _new(PointAddr, (cls, block, e))

    return point


# Draws of q per pair before a different-block stratum gives up: a correct
# sampler lands in p's block with probability at most 1/2 per draw.
_MAX_REDRAWS = 1_000


def _pair_sampler(stratum, points):
    """The sampler ``pair()`` of one stratum, over the class samplers ``points``.

    A ``"same"`` stratum draws q in p's block, other than p; every other
    stratum draws q again until it lies in another block than p, and raises
    ``RuntimeError`` naming the stratum when ``_MAX_REDRAWS`` draws all fell
    in p's block, which only a faulty point sampler does.
    """
    first, second = points[stratum[0]], points[stratum[1]]
    if stratum[-1] == "same":

        def pair():
            p = first()
            return p, first(p.block, p.elem)

    else:

        def pair():
            p = first()
            for _ in range(_MAX_REDRAWS):
                q = second()
                if q.block != p.block or q.cls is not p.cls:
                    return p, q
            raise RuntimeError(f"stratum {stratum}: {_MAX_REDRAWS} draws of q all fell in the block of {p.render()}")

    return pair


def _samplers(spec, rng, bounds):
    """The point samplers by class, keyed by tag, and the pair samplers in
    stratum order, all drawing from ``rng``."""
    strata = _strata_for(spec)
    tags = [tag for tag in "sfi" if any(tag in stratum[:2] for stratum in strata)]
    points = {tag: _point_sampler(tag, spec, rng.getrandbits, bounds) for tag in tags}
    return points, [_pair_sampler(stratum, points) for stratum in strata]


def verify_construction(
    c: Construction,
    spec: PartitionSpec,
    n_pairs: int = 10_000,
    bounds: tuple[int, int] = (50, 50),
    seed: int = 0,
    basis_samples: int = 2_000,
) -> VerifyReport:
    """Sample point pairs and basic opens, checking every oracle contract.

    For each pair, one ``answer_pair`` call: separability must match the
    relation (separable iff the blocks differ); a separable pair must yield
    a certificate that the checker accepts, an inseparable one must yield
    none; on T1 constructions both one-sided T1 witnesses are checked.
    Basis samples draw two random opens around a common point and check the
    refined open by exact containment and membership probing.
    """
    if c.spec != spec:
        raise SpecMismatchError("construction was not built from this spec")
    require_integers("sample counts", n_pairs, basis_samples)
    if n_pairs < 0 or basis_samples < 0:
        raise InvalidSizeError(f"sample counts must be >= 0, got n_pairs={n_pairs}, basis_samples={basis_samples}")
    check_bounds(bounds, 1)  # with a bound of 0 the rejection sampling can never draw a second point
    rng = random.Random(seed * 1_000_003 + 17)
    points, pairs = _samplers(spec, rng, bounds)
    class_points = list(points.values())
    n_strata, n_classes = len(pairs), len(class_points)
    answer_pair, member, is_t1 = c.answer_pair, c.member, c.is_t1

    mismatches = certs_checked = cert_fail = t1_checks = t1_fail = 0
    for t in range(n_pairs):
        p, q = pairs[t % n_strata]()
        got, cert, o_p, o_q = answer_pair(p, q)  # the only call that checks p and q
        if got == (p.cls is q.cls and p.block == q.block):  # the relation: one block
            mismatches += 1
        held = False  # whether an accepted certificate showed o_p holds p and o_q holds q
        if got:
            if cert is None:
                cert_fail += 1
            else:
                certs_checked += 1
                if check_certificate(c, p, q, cert):
                    held = cert.open_a is o_p and cert.open_b is o_q
                else:
                    cert_fail += 1
        elif cert is not None:
            cert_fail += 1
        if is_t1:
            t1_checks += 2
            if not ((held or member(o_p, p)) and not member(o_p, q)):
                t1_fail += 1
            if not ((held or member(o_q, q)) and not member(o_q, p)):
                t1_fail += 1

    getrandbits, class_bits = rng.getrandbits, n_classes.bit_length()
    check_point, sample_open = c._check_point, c._sample_open
    refine, contains = c.refine, c.contains
    basis_checks = basis_fail = 0
    for t in range(basis_samples):
        p = class_points[t % n_classes]()
        check_point(p)  # once for both opens drawn around it
        o1 = sample_open(p, rng, bounds)
        o2 = sample_open(p, rng, bounds)
        o3 = refine(o1, o2, p)
        basis_checks += 1
        ok = member(o3, p) and contains(o1, o3) and contains(o2, o3)
        if ok:
            for _ in range(4):
                probe = class_points[draw_below(getrandbits, n_classes, class_bits)]()
                if member(o3, probe) and not (member(o1, probe) and member(o2, probe)):
                    ok = False
                    break
        if not ok:
            basis_fail += 1

    return VerifyReport(
        spec=spec.render(),
        construction=c.kind,
        pairs_checked=n_pairs,
        mismatches=mismatches,
        certificates_checked=certs_checked,
        certificate_failures=cert_fail,
        t1_checks=t1_checks,
        t1_failures=t1_fail,
        basis_checks=basis_checks,
        basis_failures=basis_fail,
        seed=seed,
        bounds=tuple(bounds),
    )


class CrossCheckReport(_TupleValue):
    """Exhaustive finite check of the two saturation topologies."""

    _fields = ("n", "partitions_checked", "failures")

    def passed(self) -> bool:
        return self.failures == 0


def finite_cross_check(n: int) -> CrossCheckReport:
    """For every partition of n points: both saturation topologies close the
    diagonal to exactly the partition's relation, the representative-based
    one is T0, and the block-based one is not T0 once a block has >= 2
    elements."""
    from .finite_topology import cl_delta, is_t0, t0_saturation, tau_r

    if n > 5:
        raise BoundExceededError(f"finite cross-check is exhaustive and limited to n <= 5, got {n}")
    checked = failures = 0
    for part in all_partitions(n):
        rel = eq_of_partition(part)
        t_block = tau_r(part)
        t_sat = t0_saturation(part)
        ok = cl_delta(t_block) == rel and cl_delta(t_sat) == rel and is_t0(t_sat)
        if ok and any(len(b) >= 2 for b in part.blocks):
            ok = not is_t0(t_block)
        checked += 1
        if not ok:
            failures += 1
    return CrossCheckReport(n, checked, failures)


class MonotonicityReport(_TupleValue):
    """Closure containment over all comparable topology pairs."""

    _fields = ("n", "topologies", "comparable_pairs", "failures")

    def passed(self) -> bool:
        return self.failures == 0


def monotonicity_check(n: int) -> MonotonicityReport:
    """Finer topologies have smaller diagonal closures, exhaustively."""
    from .enumeration import enumerate_preorders
    from .finite_topology import cl_delta, topology_of_preorder

    if n > 3:
        raise BoundExceededError(f"monotonicity check is exhaustive and limited to n <= 3, got {n}")
    topologies = []
    enumerate_preorders(n, lambda p: topologies.append(topology_of_preorder(p)))
    closures = [cl_delta(t) for t in topologies]
    pairs = failures = 0
    for i, sigma in enumerate(topologies):
        for j, tau in enumerate(topologies):
            if sigma.opens >= tau.opens:
                pairs += 1
                if not closures[i].issubset(closures[j]):
                    failures += 1
    return MonotonicityReport(n, len(topologies), pairs, failures)
