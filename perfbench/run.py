#!/usr/bin/env python3
"""Benchmark of diagclosure: one workload per run, every output checked.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
there.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the ``end_to_end`` ones of ``BENCHMARK.json``; with ``--trace 1`` they
are its ``per_layer`` ones, measured in a separate run that also reports
the tracing overhead.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

from clock import ProcessClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# An operation is one verify call, one query, one catalog step or one CLI
# process; a round is the workload's fixed list of operations.

SETUP_REPEATS = 9


def measure_setup(workload_cls, spawn, env):
    """Median scaled time of cold processes that import the package and build the workload's needs."""
    from checks import require

    argv = [sys.executable, *workload_cls.setup_argv]
    spawn(argv, env)  # first start writes the byte-code caches, which users pay once
    with ProcessClock(lambda a: spawn(a, env)) as clock:
        for _ in range(SETUP_REPEATS):
            child = spawn(argv, env)
            require(child.code == 0 and not child.crashed, f"set-up child exited {child.code}")
            clock.add(child.start, child.end)
    return statistics.median(clock.scaled())


class Tally:
    """Operations attempted and failed over the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def round(self, w, r, tr=None):
        """Run one round; the scaled times of the operations that did not fail."""
        with w.new_clock() as clock:
            self.failed += w.round(r, clock, tr)
        times = clock.scaled()
        self.attempted += len(times)
        return [x for x in times if x == x]  # failed operations are NaN


def untraced(w, seconds, tally):
    rounds, p50s = [], []
    started = perf_counter()
    r = 0
    while True:
        ok = tally.round(w, r)
        rounds.append(sum(ok))
        if ok:
            p50s.append(statistics.median(ok))
        r += 1
        if perf_counter() - started >= seconds:
            break
    w.finish()
    rss = w.peak_rss_mb() if hasattr(w, "peak_rss_mb") else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "peak_rss_mb": rss,
        "round_s": statistics.median(rounds),
        "op_p50_s": statistics.median(p50s),
    }


def traced(w, seed, tally):
    """Alternate untraced and traced rounds; the overhead compares their medians."""
    import layers

    tr = layers.Tracer()
    plain, spent = [], []
    for k in range(w.TRACE_PAIRS):
        plain.append(sum(tally.round(w, 2 * k)))
        spent.append(sum(tally.round(w, 2 * k + 1, tr)))
    w.trace_extras(tr)
    w.finish()
    values = {**layers.sweep(seed).values, **tr.values}
    values["trace.overhead_pct"] = 100.0 * (statistics.median(spent) / statistics.median(plain) - 1.0)
    return values


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "diagclosure", "__init__.py")):
        print(f"error: no diagclosure sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import diagclosure

    if os.path.dirname(os.path.dirname(os.path.abspath(diagclosure.__file__))) != SRC:
        print(f"error: diagclosure imported from {diagclosure.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from checks import CheckFailed
    from workloads import WORKLOADS, child_env, spawn

    cls = WORKLOADS[args.workload]
    tally = Tally()
    correct = True
    values = {}
    w = None
    try:
        if args.trace:
            w = cls(args.seed)
            values = traced(w, args.seed, tally)
        else:
            setup_s = measure_setup(cls, spawn, child_env())
            w = cls(args.seed)
            values = {"setup_s": setup_s, **untraced(w, args.seconds, tally)}
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    finally:
        if w is not None:
            w.close()
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if correct and missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 2
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics if m["name"] in values},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
