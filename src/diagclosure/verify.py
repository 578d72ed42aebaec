"""Property-verification harness for the symbolic and finite realisations.

The harness ties each construction to the relation it claims to realise.
The block profile decides what separability must be; that comparison is
independent of the construction only where ``separable`` is computed from
the open families (the reservoir constructions and ``SubbasisExample``),
since elsewhere ``separable`` is the block test itself.  The other checks
go through the opens: the certificate checker re-verifies every witness
through the exact membership/disjointness rules, T1 witnesses are checked
pointwise, and basis-axiom refinements are checked by exact containment
plus membership probing.

Sampling is deterministic: the PRNG is the standard library's
``random.Random`` seeded with an integer derived from the report seed, and
pairs are drawn round-robin from the strata of address-class combinations
the spec admits, so every stratum gets an equal share.

Documented fault-injection modes (exercised by the test suite, which this
harness must catch): a wrong residue-class assignment (reservoirs or pools
that are not pairwise disjoint), swapped representatives (witnesses aimed
at the wrong canonical element), and off-by-one exclusion sets (witnesses
excluding a neighbor of the intended point).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields

from .constructions import Construction, check_certificate
from .enumeration import enumerate_preorders
from .errors import BoundExceededError, InvalidSizeError, SpecMismatchError
from .finite_topology import (
    cl_delta,
    is_t0,
    t0_saturation,
    tau_r,
    topology_of_preorder,
)
from .relations import (
    BlockClass,
    PartitionSpec,
    PointAddr,
    all_partitions,
    eq_of_partition,
    same_block,
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


def _sample_point(tag, spec, rng, bounds, block=None, not_elem=None):
    block_bound, elem_bound = bounds
    if tag == "s":
        hi = block_bound if spec.singletons.is_omega else min(block_bound, spec.singletons.finite() - 1)
        return PointAddr(_S, rng.randint(0, hi), 0)
    if tag == "f":
        if block is None:
            hi = block_bound if spec.fin.cyclic else min(block_bound, len(spec.fin.sizes) - 1)
            block = rng.randint(0, hi)
        size = spec.fin.size_of(block)
        while True:
            e = rng.randint(0, min(elem_bound, size - 1))
            if e != not_elem:
                return PointAddr(_F, block, e)
    if block is None:
        hi = block_bound if spec.inf.is_omega else min(block_bound, spec.inf.finite() - 1)
        block = rng.randint(0, hi)
    while True:
        e = rng.randint(0, elem_bound)
        if e != not_elem:
            return PointAddr(_I, block, e)


def _sample_pair(stratum, spec, rng, bounds):
    if len(stratum) == 3:
        tag, _, mode = stratum
        p = _sample_point(tag, spec, rng, bounds)
        if mode == "same":
            q = _sample_point(tag, spec, rng, bounds, block=p.block, not_elem=p.elem)
        else:
            while True:
                q = _sample_point(tag, spec, rng, bounds)
                if q.block != p.block:
                    break
        return p, q
    t1, t2 = stratum
    p = _sample_point(t1, spec, rng, bounds)
    while True:
        q = _sample_point(t2, spec, rng, bounds)
        if q != p:
            return p, q


def _point_classes(spec: PartitionSpec) -> list[str]:
    out = []
    if spec.singletons >= 1:
        out.append("s")
    if spec.fin.count >= 1:
        out.append("f")
    if spec.inf >= 1:
        out.append("i")
    return out


def verify_construction(
    c: Construction,
    spec: PartitionSpec,
    n_pairs: int = 10_000,
    bounds: tuple[int, int] = (50, 50),
    seed: int = 0,
    basis_samples: int = 2_000,
) -> VerifyReport:
    """Sample point pairs and basic opens, checking every oracle contract.

    For each pair: separability must match the block-profile oracle; a
    separable pair must yield a certificate that the checker accepts, an
    inseparable one must yield none; on T1 constructions both one-sided T1
    witnesses are checked.  Basis samples draw two random opens around a
    common point and check the refined open by exact containment and
    membership probing.
    """
    if c.spec != spec:
        raise SpecMismatchError("construction was not built from this spec")
    if n_pairs < 0 or basis_samples < 0:
        raise InvalidSizeError(f"sample counts must be >= 0, got n_pairs={n_pairs}, basis_samples={basis_samples}")
    if min(bounds) < 1:
        # with a bound of 0 the rejection sampling can never draw a second point
        raise InvalidSizeError(f"sampling bounds must be >= 1, got {bounds[0]},{bounds[1]}")
    strata = _strata_for(spec)
    if not strata:
        raise ValueError("spec admits no point pairs to sample")
    classes = _point_classes(spec)
    rng = random.Random(seed * 1_000_003 + 17)

    mismatches = certs_checked = cert_fail = t1_checks = t1_fail = 0
    for t in range(n_pairs):
        p, q = _sample_pair(strata[t % len(strata)], spec, rng, bounds)
        expected = not same_block(spec, p, q)
        got = c.separable(p, q)
        if got != expected:
            mismatches += 1
        cert = c.witness(p, q)
        if got:
            if cert is None:
                cert_fail += 1
            else:
                certs_checked += 1
                if not check_certificate(c, p, q, cert):
                    cert_fail += 1
        elif cert is not None:
            cert_fail += 1
        if c.is_t1:
            for a, b in ((p, q), (q, p)):
                o = c.t1_witness(a, b)
                t1_checks += 1
                if not (c.member(o, a) and not c.member(o, b)):
                    t1_fail += 1

    basis_checks = basis_fail = 0
    for t in range(basis_samples):
        p = _sample_point(classes[t % len(classes)], spec, rng, bounds)
        o1 = c.sample_open(p, rng, bounds)
        o2 = c.sample_open(p, rng, bounds)
        o3 = c.refine(o1, o2, p)
        basis_checks += 1
        ok = c.member(o3, p) and c.contains(o1, o3) and c.contains(o2, o3)
        if ok:
            for _ in range(4):
                probe = _sample_point(classes[rng.randrange(len(classes))], spec, rng, bounds)
                if c.member(o3, probe) and not (c.member(o1, probe) and c.member(o2, probe)):
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


@dataclass(frozen=True)
class CrossCheckReport:
    """Exhaustive finite check of the two saturation topologies."""

    n: int
    partitions_checked: int
    failures: int

    def passed(self) -> bool:
        return self.failures == 0


def finite_cross_check(n: int) -> CrossCheckReport:
    """For every partition of n points: both saturation topologies close the
    diagonal to exactly the partition's relation, the representative-based
    one is T0, and the block-based one is not T0 once a block has >= 2
    elements."""
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


@dataclass(frozen=True)
class MonotonicityReport:
    """Closure containment over all comparable topology pairs."""

    n: int
    topologies: int
    comparable_pairs: int
    failures: int

    def passed(self) -> bool:
        return self.failures == 0


def monotonicity_check(n: int) -> MonotonicityReport:
    """Finer topologies have smaller diagonal closures, exhaustively."""
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
