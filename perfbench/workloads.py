"""The four benchmark workloads.

Each workload generates its inputs from the run seed (outside any timed
region), builds what it needs, then runs whole *rounds*: a fixed list of
operations, each timed on its own, whose outputs are checked by
:mod:`checks`.  ``round(r, clock, tr)`` hands each operation's start and
end (on the :func:`clock.now` timeline) to ``clock``, the running clock
its ``new_clock()`` made, and returns the number of operations that raised,
whose outputs go unchecked; with a tracer ``tr`` it also records per-layer
timings.

verify-sweep   9 ``verify_construction`` calls at the acceptance sizes
point-queries  text queries parse -> separable -> witness -> check -> render
catalog-n6     the n=6 count and catalogs (plain, T0, 2 workers, iso) + TSV
cli-cold       fresh ``diagclosure`` processes, one at a time
"""

from __future__ import annotations

import collections
import contextlib
import io
import os
import random
import statistics
import subprocess
import sys
import threading

from diagclosure import cli, enumeration
from diagclosure.constructions import (
    Certificate,
    SubbasisExample,
    check_certificate,
    realise_t0,
    realise_t1,
    realise_tau_r,
)
from diagclosure.relations import BlockClass, PointAddr, parse_point, parse_spec
from diagclosure.symbolic_sets import ResidueClassSet
from diagclosure.verify import verify_construction

import checks
from checks import require
from clock import Clock, ProcessClock, now

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# (kind, axiom, spec): the 8 acceptance specs plus the ExtendPairs branch
SPECS = (
    ("InfBlocks", "t1", "singletons=0;fin=[];inf=3"),
    ("InfOrSingleton", "t1", "singletons=omega;fin=[];inf=2"),
    ("FinTwoCase1", "t1", "singletons=omega;fin=[3,2];inf=1"),
    ("FinTwoCase2", "t1", "singletons=2;fin=[2,3];inf=omega"),
    ("PairBlocks", "t1", "singletons=0;fin=cycle[2];inf=0"),
    ("SplitUnion", "t1", "singletons=1;fin=cycle[2,3];inf=2"),
    ("T0Sat", "t0", "singletons=1;fin=[2];inf=1"),
    ("TauR", "taur", "singletons=1;fin=[2];inf=1"),
    ("ExtendPairs", "t1", "singletons=0;fin=cycle[2,3];inf=0"),
)
KINDS = tuple(kind for kind, _, _ in SPECS)
T1_KINDS = tuple(kind for kind, axiom, _ in SPECS if axiom == "t1")
BALL_KINDS = ("PairBlocks", "ExtendPairs", "SplitUnion")  # opens are rational balls
REALISERS = {"t1": realise_t1, "t0": realise_t0, "taur": realise_tau_r}

# disjoint residue-class families for SubbasisExample, each with a consecutive triple
SUBBASIS_FAMILIES = (
    ((1, 3), (2, 3)),
    ((0, 4), (1, 4), (2, 4)),
    ((5, 6), (0, 3)),
    ((0, 4), (2, 4)),
    ((3, 7), (5, 7)),
    ((1, 4), (3, 4)),
)

_CLS = {"s": BlockClass.SINGLETON, "f": BlockClass.FINITE, "i": BlockClass.INFINITE}


def realise_all():
    return [REALISERS[axiom](parse_spec(text)) for _, axiom, text in SPECS]


def spec_shape(text: str) -> dict:
    """The benchmark's own reading of a spec: counts (None = omega) and finite sizes."""
    fields = dict(part.split("=", 1) for part in text.split(";"))
    fin = fields["fin"]
    cyclic = fin.startswith("cycle")
    body = fin[fin.index("[") + 1 : -1]
    sizes = tuple(int(s) for s in body.split(",")) if body else ()

    def count(v):
        return None if v == "omega" else int(v)

    return {"s": count(fields["singletons"]), "fin": (sizes, cyclic), "i": count(fields["inf"])}


def log_uniform(rng: random.Random, top: int = 10**9) -> int:
    """An index drawn log-uniformly from [0, top)."""
    return min(top - 1, int(top ** rng.random()) - 1)


def point_text(p) -> str:
    cls, block, elem = p
    return f"s:{block}" if cls == "s" else f"{cls}:{block}:{elem}"


def to_addr(p) -> PointAddr:
    return PointAddr(_CLS[p[0]], p[1], p[2])


def _classes(shape):
    return [cls for cls in "sfi" if (shape["fin"][0] if cls == "f" else shape[cls] != 0)]


def _draw_block(rng, shape, cls):
    if cls == "f":
        sizes, cyclic = shape["fin"]
        return log_uniform(rng) if cyclic else rng.randrange(len(sizes))
    return log_uniform(rng) if shape[cls] is None else rng.randrange(shape[cls])


def _draw_elem(rng, shape, cls, block):
    size = checks.block_size(shape, cls, block)
    return log_uniform(rng) if size is None else rng.randrange(size)


def draw_point(rng, shape):
    cls = rng.choice(_classes(shape))
    block = _draw_block(rng, shape, cls)
    return (cls, block, _draw_elem(rng, shape, cls, block))


def draw_pair(rng, shape, same_block: bool):
    """Two distinct points; with ``same_block`` both in one multi-element block."""
    if same_block:
        cls = rng.choice([c for c in _classes(shape) if c != "s"])
        block = _draw_block(rng, shape, cls)
        while True:
            e1, e2 = _draw_elem(rng, shape, cls, block), _draw_elem(rng, shape, cls, block)
            if e1 != e2:
                return (cls, block, e1), (cls, block, e2)
    p = draw_point(rng, shape)
    while True:
        q = draw_point(rng, shape)
        if q != p:
            return p, q


Child = collections.namedtuple("Child", "start end code out rss_mb crashed")

CHILD_TIMEOUT_S = 60.0


def spawn(argv, env=None, timeout=CHILD_TIMEOUT_S):
    """Run one child to completion, killing it after ``timeout`` seconds.

    ``start`` and ``end`` are on the :func:`clock.now` timeline; ``crashed``
    is true when the child was killed (a time-out included) or ended in a
    Python traceback.
    """
    start = now()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, env=env)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    out = proc.stdout.read()
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    end = now()
    killer.cancel()
    killer.join()
    proc.stdout.close()
    proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    crashed = proc.returncode < 0 or b"Traceback (most recent call last)" in err
    if err and (crashed or proc.returncode == 0):
        sys.stderr.write(err.decode("utf-8", "replace"))
    return Child(start, end, proc.returncode, out.decode("utf-8", "replace"), usage.ru_maxrss / 1024.0, crashed)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONIOENCODING"] = "utf-8"
    return env


# --------------------------------------------------------------------------

class VerifySweep:
    """``verify_construction`` at the acceptance sizes, one call per spec.

    This is what ``realise`` does.  The constructions live for the whole
    run, so their per-block caches are warm over the small block window.
    Round r uses verify seed ``1000 * seed + r``.
    """

    name = "verify-sweep"
    TRACE_PAIRS = 1
    N_PAIRS, N_BASIS, BOUNDS = 20_000, 2_000, (50, 50)
    SETUP_CODE = (
        "from diagclosure.relations import parse_spec\n"
        "from diagclosure.constructions import realise_t0, realise_t1, realise_tau_r\n"
        "R = {'t1': realise_t1, 't0': realise_t0, 'taur': realise_tau_r}\n"
        f"for _, a, t in {SPECS!r}: R[a](parse_spec(t))\n"
    )
    setup_argv = ("-c", SETUP_CODE)

    def __init__(self, seed: int):
        self.seed = seed
        self.specs = [parse_spec(text) for _, _, text in SPECS]
        self.constructions = realise_all()
        self.first_reports = None

    def new_clock(self):
        return Clock()

    def round(self, r: int, clock, tr=None):
        vseed = 1000 * self.seed + r
        reports = []
        for (kind, axiom, text), spec, c in zip(SPECS, self.specs, self.constructions):
            started = now()
            try:
                report = verify_construction(c, spec, self.N_PAIRS, self.BOUNDS, vseed, self.N_BASIS)
            except Exception:
                clock.fail()
                reports.append(None)
                continue
            ended = now()
            clock.add(started, ended)
            reports.append(report)
            if tr is not None:
                tr.add(f"verify.{kind}", ended - started, self.N_PAIRS)
                for field in ("pairs_checked", "certificates_checked", "t1_checks", "basis_checks"):
                    tr.count(f"verify.{field}", getattr(report, field))
        for (kind, axiom, text), report in zip(SPECS, reports):
            if report is not None:
                checks.check_verify_report(report, kind, text, self.N_PAIRS, self.N_BASIS, axiom == "t1")
        if self.first_reports is None:
            self.first_reports = [rep and rep.render_text() for rep in reports]
        return reports.count(None)

    def finish(self):
        """Determinism: rerun one spec (chosen by the seed) at round 0's seed."""
        i = self.seed % len(SPECS)
        if self.first_reports[i] is None:
            return  # that call raised; the failure is counted
        try:
            again = verify_construction(self.constructions[i], self.specs[i], self.N_PAIRS, self.BOUNDS, 1000 * self.seed, self.N_BASIS).render_text()
        except Exception as exc:
            again = f"raised {exc!r}"
        require(again == self.first_reports[i], f"verify {KINDS[i]}: rerun at one seed renders differently")

    def close(self):
        pass

    def trace_extras(self, tr):
        from layers import verify_derived

        verify_derived(tr)


# --------------------------------------------------------------------------

class PointQueries:
    """Single queries given as text, on wide block indices with cold caches.

    Per kind, every fourth pair lies in one block; block (and infinite-block
    element) indices are log-uniform below 1e9.  Each round builds fresh
    constructions, so the per-block caches start empty every round.
    """

    name = "point-queries"
    TRACE_PAIRS = 5
    PER_KIND = 1_500
    PER_FAMILY = 500
    FAMILIES = SUBBASIS_FAMILIES[:3]
    setup_argv = ("-c", VerifySweep.SETUP_CODE + (
        "from diagclosure.constructions import SubbasisExample\n"
        "from diagclosure.symbolic_sets import ResidueClassSet\n"
        f"for fam in {SUBBASIS_FAMILIES[:3]!r}: SubbasisExample([ResidueClassSet(*d) for d in fam])\n"
    ))

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.shapes = [spec_shape(text) for _, _, text in SPECS]
        queries = []
        for ci, shape in enumerate(self.shapes):
            for t in range(self.PER_KIND):
                p, q = draw_pair(rng, shape, same_block=t % 4 == 0)
                queries.append((ci, point_text(p), point_text(q), p, q, checks.expected_separable(p, q)))
        for fi, fam in enumerate(self.FAMILIES):
            for _ in range(self.PER_FAMILY):
                p = log_uniform(rng)
                q = p
                while q == p:
                    q = log_uniform(rng)
                queries.append((len(SPECS) + fi, str(p), str(q), p, q, checks.expected_subbasis_separable(fam, p, q)))
        rng.shuffle(queries)
        self.queries = queries
        self.kind_names = list(KINDS) + ["SubbasisExample"] * len(self.FAMILIES)

    def _fresh(self):
        subs = [SubbasisExample([ResidueClassSet(*d) for d in fam]) for fam in self.FAMILIES]
        cons = realise_all() + subs
        parsers = [parse_point] * len(SPECS) + [int] * len(subs)
        return cons, parsers

    def new_clock(self):
        return Clock()

    def round(self, r: int, clock, tr=None):
        cons, parsers = self._fresh()
        failed = 0
        for n, (ci, pt, qt, p_own, q_own, expected) in enumerate(self.queries):
            c, parse = cons[ci], parsers[ci]
            try:
                if tr is None:
                    started = now()
                    p, q = parse(pt), parse(qt)
                    sep = c.separable(p, q)
                    cert = c.witness(p, q)
                    accepted = text = None
                    if cert is not None:
                        accepted = check_certificate(c, p, q, cert)
                        text = cert.render()
                    clock.add(started, now())
                else:
                    p, q, sep, cert, accepted, text = self._traced_query(tr, c, parse, pt, qt, self.kind_names[ci], clock)
            except Exception:
                failed += 1
                clock.fail()
                continue
            self._check(c, ci, p_own, q_own, p, q, expected, sep, cert, accepted, text, f"query {n} ({self.kind_names[ci]} {pt} {qt})")
        return failed

    def _traced_query(self, tr, c, parse, pt, qt, kind, clock):
        t0 = now()
        p, q = parse(pt), parse(qt)
        t1 = now()
        sep = c.separable(p, q)
        t2 = now()
        cert = c.witness(p, q)
        t3 = now()
        accepted = text = None
        t4 = t5 = t3
        if cert is not None:
            accepted = check_certificate(c, p, q, cert)
            t4 = now()
            text = cert.render()
            t5 = now()
            tr.add(f"constructions.{kind}.check_certificate", t4 - t3)
        clock.add(t0, t5)
        if kind != "SubbasisExample":
            tr.add("relations.parse_point", t1 - t0, 2)
        tr.add(f"constructions.{kind}.separable", t2 - t1)
        tr.add(f"constructions.{kind}.witness", t3 - t2)
        return p, q, sep, cert, accepted, text

    def _check(self, c, ci, p_own, q_own, p, q, expected, sep, cert, accepted, text, where):
        if ci >= len(SPECS):
            require((p, q) == (p_own, q_own), f"{where}: parsed points {p}, {q}")
            checks.check_query(c, check_certificate, Certificate, expected, p, q, sep, cert, accepted, text,
                               checks.subbasis_window(p, q), where)
            return
        require((p.cls.name[0].lower(), p.block, p.elem) == p_own and (q.cls.name[0].lower(), q.block, q.elem) == q_own,
                f"{where}: parse_point gave {p}, {q}")
        window = [to_addr(w) for w in checks.address_window(self.shapes[ci], p_own, q_own)]
        checks.check_query(c, check_certificate, Certificate, expected, p, q, sep, cert, accepted, text, window, where)

    def finish(self):
        pass

    def close(self):
        pass

    def trace_extras(self, tr):
        for kind in set(self.kind_names):
            for op in ("separable", "witness", "check_certificate"):
                if tr.calls.get(f"constructions.{kind}.{op}"):
                    tr.set(f"constructions.{kind}.{op}_us", tr.mean_us(f"constructions.{kind}.{op}"))
        tr.set_per_unit("relations.parse_point")


# --------------------------------------------------------------------------

def catalog_ops(n: int, order):
    """The catalog round: count, four catalogs in ``order``, then the TSV round trip."""
    variants = {
        "catalog": {},
        "catalog_t0": {"t0_only": True},
        "catalog_workers2": {"workers": 2},
        "catalog_iso": {"up_to_iso": True},
    }
    ops = [("count", lambda: enumeration.enumerate_preorders(n))]
    for name in order:
        ops.append((name, lambda kw=variants[name]: enumeration.build_catalog(n, **kw)))
    return ops


class CanonicalSpy:
    """Times every ``canonical_code`` call the iso catalog makes (traced runs only)."""

    def __init__(self, tr):
        self.tr = tr
        self.real = enumeration.canonical_code

    def __enter__(self):
        real, tr = self.real, self.tr

        def timed(rel):
            started = now()
            out = real(rel)
            tr.add("enumeration.canonical_code", now() - started)
            return out

        enumeration.canonical_code = timed
        return self

    def __exit__(self, *exc):
        enumeration.canonical_code = self.real


def run_catalog_round(n: int, order, clock, tr=None):
    """The catalog outputs by name; an operation that raised gives None (the TSV round trip
    of a catalog that could not be built counts as failed too)."""
    out = {}
    for name, fn in catalog_ops(n, order):
        spy = CanonicalSpy(tr) if tr is not None and name == "catalog_iso" else contextlib.nullcontext()
        started = now()
        try:
            with spy:
                out[name] = fn()
        except Exception:
            out[name] = None
            clock.fail()
            continue
        ended = now()
        clock.add(started, ended)
        if tr is not None:
            tr.set(f"enumeration.{name}_s", ended - started)
    out["round_trip"] = None
    started = now()
    try:
        text = enumeration.render_catalog(out["catalog"])
        rendered = now()
        out["round_trip"] = enumeration.read_catalog(text)
    except Exception:
        clock.fail()
        return out
    done = now()
    clock.add(started, done)
    if tr is not None:
        tr.set("enumeration.render_catalog_ms", 1e3 * (rendered - started))
        tr.set("enumeration.read_catalog_ms", 1e3 * (done - rendered))
        if out["count"] is not None:
            tr.set("enumeration.count_leaves_per_s", out["count"] / tr.values["enumeration.count_s"])
        tr.set("enumeration.distinct_closures", len(out["catalog"].records))
        if out["catalog_iso"] is not None:
            tr.set("enumeration.iso_classes", len(out["catalog_iso"].records))
            tr.set("enumeration.canonical_calls", tr.calls.get("enumeration.canonical_code", 0))
            tr.set("enumeration.canonical_code_us", tr.mean_us("enumeration.canonical_code"))
    return out


class CatalogN6:
    """All topologies on 6 points: the count and four catalogs, then a TSV round trip.

    The inputs are fixed by n, so the seed changes nothing; the order of the
    catalog builds is fixed too, because it moves their times (each build
    starts from the heap the previous one left).
    """

    name = "catalog-n6"
    TRACE_PAIRS = 1
    N = 6
    setup_argv = ("-c", "import diagclosure.enumeration")

    ORDER = ("catalog", "catalog_t0", "catalog_workers2", "catalog_iso")

    def __init__(self, seed: int):
        pass

    def new_clock(self):
        return Clock()

    def round(self, r: int, clock, tr=None):
        out = run_catalog_round(self.N, self.ORDER, clock, tr)
        checks.check_catalog_set(out["count"], out["catalog"], out["catalog_t0"], out["catalog_workers2"],
                                 out["catalog_iso"], out["round_trip"], self.N)
        return list(out.values()).count(None)

    def finish(self):
        pass

    def close(self):
        pass

    def trace_extras(self, tr):
        from layers import enumeration_leaves

        enumeration_leaves(tr, self.N)


# --------------------------------------------------------------------------

def random_preorder(rng, n: int, density: float = 0.2):
    rows = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                rows[i] |= 1 << j
    for k in range(n):  # transitive closure
        for i in range(n):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    return rows


def up_set_opens(rows):
    n = len(rows)
    return [m for m in range(1 << n) if all(rows[i] & ~m == 0 for i in range(n) if m >> i & 1)]


def opens_text(opens) -> str:
    return "".join((",".join(str(i) for i in range(m.bit_length()) if m >> i & 1) or "-") + "\n" for m in opens)


def cli_mix(seed: int, opens_path: str):
    """The fixed command mix of one cli-cold round, with each command's expectation."""
    rng = random.Random(seed)
    mix = []
    ext = spec_shape("singletons=0;fin=cycle[2,3];inf=0")
    p, q = draw_pair(rng, ext, same_block=False)
    mix.append((["separable", "--spec", SPECS[8][2], "-p", point_text(p), "-q", point_text(q)],
                {"code": 0, "first": "separable" if checks.expected_separable(p, q) else "inseparable",
                 "line_count": 3 if checks.expected_separable(p, q) else 1}))
    block = rng.randrange(2)
    e1 = log_uniform(rng)
    e2 = e1 + 1 + log_uniform(rng, 1000)
    mix.append((["separable", "--spec", SPECS[5][2], "-p", f"i:{block}:{e1}", "-q", f"i:{block}:{e2}"],
                {"code": 0, "lines": ["inseparable"]}))
    j = rng.randrange(2)
    fin_pt = ("f", j, rng.randrange((3, 2)[j]))
    sing_pt = ("s", log_uniform(rng), 0)
    mix.append((["separable", "--spec", SPECS[2][2], "-p", point_text(fin_pt), "-q", point_text(sing_pt)],
                {"code": 0, "first": "separable", "line_count": 3}))
    # the default demo uses {3n+1}, {3n+2} and must print the triple (2,3,4)
    fam = SUBBASIS_FAMILIES[rng.randrange(len(SUBBASIS_FAMILIES))]
    for args, family in ((["example", "nontransitive"], SUBBASIS_FAMILIES[0]),
                         (["example", "nontransitive", *(f"--d={off},{mod}" for off, mod in fam)], fam)):
        a, b, c = checks.nontransitive_triple(family)
        lines = [f"inseparable: ({a},{b})", f"inseparable: ({b},{c})", f"separable: ({a},{c})", f"triple: ({a},{b},{c})"]
        mix.append((args, {"code": 0, "contains": lines}))
    require(checks.nontransitive_triple(SUBBASIS_FAMILIES[0]) == (2, 3, 4), "default demo family")
    labels = [rng.randrange(4) for _ in range(6)]
    blocks = {}
    for x, lab in enumerate(labels):
        blocks.setdefault(lab, []).append(x)
    literal = ";".join(",".join(str(x) for x in blk) for blk in blocks.values())
    mix.append((["finite", "--partition", literal], {"code": 0, "lines": checks.expected_finite(checks.partition_rows(labels))}))
    rows = random_preorder(rng, 5)
    with open(opens_path, "w", encoding="utf-8") as fh:
        fh.write(opens_text(up_set_opens(rows)))
    mix.append((["finite", "--opens", opens_path], {"code": 0, "lines": checks.expected_finite(rows)}))
    total, distinct, nontrans, iso, iso_nontrans = checks.small_catalog_summary(4)
    mix.append((["enumerate", "--n", "4"], {"code": 0, "lines": [f"topologies: {total}", f"distinct closures: {distinct}",
                                                                 f"non-transitive closures: {nontrans}"]}))
    mix.append((["enumerate", "--n", "4", "--iso"], {"code": 0, "lines": [f"topologies: {total}", f"distinct closures: {iso}",
                                                                          f"non-transitive closures: {iso_nontrans}"]}))
    mix.append((["realise", "--spec", SPECS[5][2], "--pairs", "2000", "--seed", str(seed % 1000)],
                {"code": 0, "contains": ["construction: SplitUnion", "pairs_checked 2000", "mismatches 0",
                                         "certificate_failures 0", "t1_failures 0", "basis_failures 0", "result: PASS"]}))
    mix.append((["realise", "--spec", "singletons=0;fin=[2];inf=3", "--pairs", "2000"],
                {"code": 1, "line_count": 1, "first": "not T1-realisable: Part(R) finite with a finite block of size ≥ 2"}))
    return mix


class CliCold:
    """Fresh ``diagclosure`` processes run one after another (closed loop, one client)."""

    name = "cli-cold"
    TRACE_PAIRS = 3
    setup_argv = ("-m", "diagclosure.cli", "--help")

    def __init__(self, seed: int):
        os.makedirs(WORK, exist_ok=True)
        self.opens_path = os.path.join(WORK, f"opens-{os.getpid()}.txt")
        self.mix = cli_mix(seed, self.opens_path)
        self.env = child_env()
        self.rss = []

    def new_clock(self):
        return ProcessClock(lambda argv: spawn(argv, self.env))

    def round(self, r: int, clock, tr=None):
        rss, failed = [0.0], 0
        for argv, expect in self.mix:
            child = spawn([sys.executable, "-m", "diagclosure.cli", *argv], self.env)
            if child.crashed:
                clock.fail()
                failed += 1
                continue
            clock.add(child.start, child.end)
            rss.append(child.rss_mb)
            check_cli(expect, child.code, child.out, " ".join(argv))
        self.rss.append(max(rss))
        return failed

    def peak_rss_mb(self):
        return statistics.median(self.rss)

    def finish(self):
        pass

    def close(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.opens_path)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)

    def trace_extras(self, tr):
        from layers import cli_layer

        cli_layer(tr, [argv for argv, _ in self.mix])


def check_cli(expect, code, out, where):
    """``checks.check_transcript`` with whitespace runs collapsed (report columns are padded)."""
    normal = "\n".join(" ".join(line.split()) for line in out.splitlines())
    checks.check_transcript(expect, code, normal, where)


def run_cli_in_process(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


WORKLOADS = {w.name: w for w in (VerifySweep, PointQueries, CatalogN6, CliCold)}
