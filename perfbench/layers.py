"""Per-layer timings for the traced run.

The benchmark times the public calls of each module from its own code;
nothing inside ``src/`` is changed.  A traced run records what its
workload's own traffic shows (see ``trace_extras`` in :mod:`workloads`)
and then runs :func:`sweep`, which times every layer on small inputs drawn
from the seed, so that each traced run reports every per-layer metric.
Where both exist, the workload's own value wins.
"""

from __future__ import annotations

import random
import statistics
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

from diagclosure import enumeration
from diagclosure.constructions import SubbasisExample, check_certificate, nontransitive_demo
from diagclosure.finite_topology import (
    Preorder,
    cl_delta,
    cl_delta_open_family,
    is_t2,
    t0_saturation,
    tau_r,
    topology_of_preorder,
)
from diagclosure.relations import FinitePartition, is_t1_realisable, parse_point, parse_spec, same_block
from diagclosure.symbolic_sets import RationalBall, ResidueClassSet, ball_disjoint, ball_member, pair_encode
from diagclosure.verify import verify_construction

import checks
import workloads
from clock import Clock
from workloads import BALL_KINDS, KINDS, REALISERS, SPECS, T1_KINDS


class Tracer:
    """Spans aggregated by name (total seconds, calls, units of work) plus set values."""

    def __init__(self):
        self.total = defaultdict(float)
        self.calls = defaultdict(int)
        self.units = defaultdict(int)
        self.values = {}

    def add(self, name, seconds, units=1):
        self.total[name] += seconds
        self.calls[name] += 1
        self.units[name] += units

    def batch(self, name, fn, args_list):
        """Time ``fn(*args)`` over a list of argument tuples as one span."""
        started = perf_counter()
        for args in args_list:
            fn(*args)
        self.add(name, perf_counter() - started, len(args_list))

    def count(self, name, value):
        self.values[name] = self.values.get(name, 0) + value

    def set(self, name, value):
        self.values[name] = value

    def mean_us(self, name):
        return 1e6 * self.total[name] / self.calls[name]

    def per_unit_us(self, name):
        return 1e6 * self.total[name] / self.units[name]

    def set_per_unit(self, name):
        self.values[name + "_us"] = self.per_unit_us(name)


def verify_derived(tr):
    """Per-kind us/pair and the ball/block group rates from ``verify.<kind>`` spans."""
    for kind in KINDS:
        tr.set(f"verify.{kind}.us_per_pair", tr.per_unit_us(f"verify.{kind}"))
    for group, kinds in (("ball", BALL_KINDS), ("block", tuple(k for k in KINDS if k not in BALL_KINDS))):
        seconds = sum(tr.total[f"verify.{k}"] for k in kinds)
        pairs = sum(tr.units[f"verify.{k}"] for k in kinds)
        tr.set(f"verify.{group}_pairs_per_s", pairs / seconds)


# --------------------------------------------------------------------------
# one function per module

def relations_layer(tr, rng):
    texts = [text for _, _, text in SPECS] * 100
    specs = [parse_spec(text) for _, _, text in SPECS]
    shapes = [workloads.spec_shape(text) for _, _, text in SPECS]
    points, pairs = [], []
    for t in range(2000):
        i = t % len(SPECS)
        p, q = workloads.draw_pair(rng, shapes[i], same_block=t % 4 == 0)
        points.append((workloads.point_text(p),))
        pairs.append((specs[i], workloads.to_addr(p), workloads.to_addr(q)))
    tr.batch("relations.parse_spec", parse_spec, [(t,) for t in texts])
    tr.batch("relations.parse_point", parse_point, points)
    tr.batch("relations.same_block", same_block, pairs)
    tr.batch("relations.is_t1_realisable", is_t1_realisable, [(s,) for s in specs] * 200)
    for name in ("parse_spec", "parse_point", "same_block", "is_t1_realisable"):
        tr.set_per_unit(f"relations.{name}")


def symbolic_layer(tr, rng):
    narrow = [(rng.randrange(51),) for _ in range(2000)]
    wide = [(workloads.log_uniform(rng),) for _ in range(2000)]
    tr.batch("symbolic_sets.pair_encode", pair_encode, narrow)
    tr.batch("symbolic_sets.pair_encode_wide", pair_encode, wide)
    ball_args, probes = [], []
    for (j,) in narrow:
        x, q = pair_encode(j)
        radius = (Fraction(1, 2), Fraction(1))[rng.randrange(2)]
        excl = {(q + radius * Fraction(k, 4), rng.randrange(2)) for k in range(rng.randrange(3))}
        ball_args.append((x, q, radius, excl))
        probes.append((x, q + radius * Fraction(rng.randrange(-5, 6), 4), rng.randrange(2)))
    tr.batch("symbolic_sets.ball_new", RationalBall, ball_args)
    balls = [RationalBall(*args) for args in ball_args]
    tr.batch("symbolic_sets.ball_member", ball_member, list(zip(balls, probes)))
    tr.batch("symbolic_sets.ball_disjoint", ball_disjoint, list(zip(balls, balls[1:] + balls[:1])))
    tr.batch("symbolic_sets.ball_render", RationalBall.render, [(b,) for b in balls])
    for name in ("pair_encode", "pair_encode_wide", "ball_new", "ball_member", "ball_disjoint", "ball_render"):
        tr.set_per_unit(f"symbolic_sets.{name}")


def window_pairs(rng, shape, count, bound=50):
    """Point pairs in the small block window used by verify (indices <= bound)."""
    def clip(p):
        cls, block, elem = p
        return (cls, block % (bound + 1), elem % (bound + 1) if cls == "i" else elem)

    out = []
    while len(out) < count:
        p, q = workloads.draw_pair(rng, shape, same_block=len(out) % 4 == 0)
        p, q = clip(p), clip(q)
        if checks.block_size(shape, p[0], p[1]) is not None and p[2] >= checks.block_size(shape, p[0], p[1]):
            continue
        if checks.block_size(shape, q[0], q[1]) is not None and q[2] >= checks.block_size(shape, q[0], q[1]):
            continue
        if p != q:
            out.append((workloads.to_addr(p), workloads.to_addr(q)))
    return out


def constructions_layer(tr, rng, per_kind=300):
    for (kind, axiom, text), c in zip(SPECS, workloads.realise_all()):
        pairs = window_pairs(rng, workloads.spec_shape(text), per_kind)
        tr.batch(f"constructions.{kind}.separable", c.separable, pairs)
        tr.batch(f"constructions.{kind}.witness", c.witness, pairs)
        certs = [(c, p, q, c.witness(p, q)) for p, q in pairs if c.separable(p, q)]
        tr.batch(f"constructions.{kind}.check_certificate", check_certificate, certs)
        ops = ["separable", "witness", "check_certificate", "basis"]
        if kind in T1_KINDS:
            tr.batch(f"constructions.{kind}.t1_witness", c.t1_witness, pairs + [(q, p) for p, q in pairs])
            ops.append("t1_witness")
        basis_rng = random.Random(rng.random())

        def basis(p, c=c):
            o1 = c.sample_open(p, basis_rng)
            o2 = c.sample_open(p, basis_rng)
            o3 = c.refine(o1, o2, p)
            return c.contains(o1, o3) and c.contains(o2, o3)

        tr.batch(f"constructions.{kind}.basis", basis, [(p,) for p, _ in pairs])
        for op in ops:
            tr.set_per_unit(f"constructions.{kind}.{op}")
    sub = SubbasisExample([ResidueClassSet(1, 3), ResidueClassSet(2, 3)])
    nat_pairs = [(a, b) for a in range(40) for b in range(40) if a != b]
    tr.batch("constructions.SubbasisExample.separable", sub.separable, nat_pairs)
    tr.batch("constructions.SubbasisExample.witness", sub.witness, nat_pairs)
    tr.batch("constructions.nontransitive_demo", nontransitive_demo, [()] * 50)
    specs = [(REALISERS[axiom], parse_spec(text)) for _, axiom, text in SPECS]
    tr.batch("constructions.realise", lambda f, s: f(s), specs * 100)
    for name in ("SubbasisExample.separable", "SubbasisExample.witness", "nontransitive_demo", "realise"):
        tr.set_per_unit(f"constructions.{name}")


def verify_layer(tr, seed, n_pairs=2_000, n_basis=200):
    for (kind, axiom, text), c in zip(SPECS, workloads.realise_all()):
        started = perf_counter()
        report = verify_construction(c, c.spec, n_pairs, (50, 50), seed, n_basis)
        tr.add(f"verify.{kind}", perf_counter() - started, n_pairs)
        checks.check_verify_report(report, kind, text, n_pairs, n_basis, axiom == "t1")
        for field in ("pairs_checked", "certificates_checked", "t1_checks", "basis_checks"):
            tr.count(f"verify.{field}", getattr(report, field))
    verify_derived(tr)


def enumeration_leaves(tr, n):
    """Leaves per second through the consumer API, and closure/code per leaf."""
    started = perf_counter()
    leaves = enumeration.enumerate_preorders(n, lambda p: None)
    tr.set("enumeration.iter_leaves_per_s", leaves / (perf_counter() - started))
    closure_of_preorder, relation_code = enumeration.closure_of_preorder, enumeration.relation_code
    spent = [0.0, 0.0]

    def consumer(p):
        t0 = perf_counter()
        rel = closure_of_preorder(p)
        t1 = perf_counter()
        relation_code(rel)
        spent[0] += t1 - t0
        spent[1] += perf_counter() - t1

    enumeration.enumerate_preorders(n, consumer)
    tr.set("enumeration.closure_us", 1e6 * spent[0] / leaves)
    tr.set("enumeration.relation_code_us", 1e6 * spent[1] / leaves)


def enumeration_layer(tr, n=5):
    workloads.run_catalog_round(n, workloads.CatalogN6.ORDER, Clock(), tr)
    enumeration_leaves(tr, n)


def finite_layer(tr, rng, n=5, count=40):
    preorders = [Preorder(n, workloads.random_preorder(rng, n)) for _ in range(count)]
    partitions = []
    for _ in range(count):
        labels = [rng.randrange(3) for _ in range(n)]
        partitions.append(FinitePartition(n, [[x for x in range(n) if labels[x] == b] for b in set(labels)]))
    tr.batch("finite_topology.topology_of_preorder", topology_of_preorder, [(p,) for p in preorders])
    tops = [(topology_of_preorder(p),) for p in preorders]
    tr.batch("finite_topology.cl_delta", cl_delta, tops)
    tr.batch("finite_topology.cl_delta_open_family", cl_delta_open_family, tops)
    tr.batch("finite_topology.is_t2", is_t2, tops)
    tr.batch("finite_topology.tau_r", tau_r, [(p,) for p in partitions])
    tr.batch("finite_topology.t0_saturation", t0_saturation, [(p,) for p in partitions])
    for op in ("topology_of_preorder", "cl_delta", "cl_delta_open_family", "is_t2", "tau_r", "t0_saturation"):
        tr.set_per_unit(f"finite_topology.{op}")


SWEEP_CLI = (
    ["separable", "--spec", SPECS[8][2], "-p", "f:12345:2", "-q", "f:777:0"],
    ["example", "nontransitive"],
    ["finite", "--partition", "0,1;2;3,4"],
    ["enumerate", "--n", "3"],
    ["realise", "--spec", SPECS[5][2], "--pairs", "200"],
)


def cli_layer(tr, argvs=SWEEP_CLI, repeats=3):
    """Interpreter floor, package import, and ``cli.main`` run in-process per command."""
    env = workloads.child_env()
    floor = []
    for _ in range(repeats):
        child = workloads.spawn([sys.executable, "-c", "pass"], env)
        floor.append(child.end - child.start)
    code = "import time; t = time.perf_counter(); import diagclosure.cli; print(time.perf_counter() - t)"
    imports = []
    for _ in range(repeats):
        child = workloads.spawn([sys.executable, "-c", code], env)
        checks.require(child.code == 0, f"import child exited {child.code}")
        imports.append(float(child.out))
    tr.set("cli.interpreter_s", statistics.median(floor))
    tr.set("cli.import_s", statistics.median(imports))
    for argv in argvs:
        started = perf_counter()
        rc = workloads.run_cli_in_process(argv)
        tr.add(f"cli.main_us.{argv[0]}", perf_counter() - started)
        checks.require(rc in (0, 1), f"cli.main({argv}) returned {rc}")
    for cmd in ("separable", "example", "finite", "enumerate", "realise"):
        tr.set(f"cli.main_us.{cmd}", tr.mean_us(f"cli.main_us.{cmd}"))


def sweep(seed):
    """Every layer on small inputs; returns a fresh tracer."""
    tr = Tracer()
    rng = random.Random(seed ^ 0x5EED)
    relations_layer(tr, rng)
    symbolic_layer(tr, rng)
    constructions_layer(tr, rng)
    verify_layer(tr, seed)
    enumeration_layer(tr, 5)
    finite_layer(tr, rng)
    cli_layer(tr)
    return tr
