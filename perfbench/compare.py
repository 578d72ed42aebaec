#!/usr/bin/env python3
"""Run two sets of benchmark runs and say whether they agree within the bounds.

    python3 perfbench/compare.py                                    # all workloads, 10 runs a set
    python3 perfbench/compare.py --runs 5 --workloads catalog-n6

Set A uses seeds 1 .. runs, set B the next ``runs`` seeds, at
``run_seconds`` from ``BENCHMARK.json``.  For every workload and end-to-end
metric it prints each set's median and spread (quartile distance over the
median, as ``statistics.quantiles(values, n=4)`` gives the quartiles) and
the verdict:

* ``spread``: each set's spread is within the metric's bound, and
  ``steady`` when it is below a third of it;
* ``agree``: the two medians differ by no more than the bound, in either
  direction (both sets run the same code);
* the share of failed operations is the same in both sets.

Runs go one at a time.  Exit code 1 if anything disagrees.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric, a, b):
    """How much worse b is than a, as a share of a (negative when better)."""
    return (b - a) / a if metric["better"] == "lower" else (a - b) / a


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--workloads", default=",".join(names))
    args = ap.parse_args(argv)

    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for k in range(2):
            results = []
            for seed in range(1 + k * args.runs, 1 + (k + 1) * args.runs):
                results.append(one_run(workload, seed, bench["run_seconds"]))
                print(f"{workload} set {'AB'[k]} seed {seed}: done", file=sys.stderr, flush=True)
            sets.append(results)
        print(f"\n{workload}")
        shares = []
        for k, results in enumerate(sets):
            attempted = sum(r["attempted"] for r in results)
            shares.append(sum(r["failed"] for r in results) / attempted)
            correct = all(r["correct"] for r in results)
            ok &= correct
            print(f"  set {'AB'[k]}: correct {correct}, attempted {attempted}, failed share {shares[k]:.6g}")
        ok &= shares[0] == shares[1]
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cols, medians = [], []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                s = spread(values)
                ok &= s <= bound
                medians.append(statistics.median(values))
                cols.append(f"median {medians[-1]:.6g} spread {s:.3f}{'' if s <= bound else ' WIDE'}"
                            f"{' steady' if s < bound / 3 else ''}")
            d = worse_by(metric, *medians)
            agree = abs(d) <= bound
            ok &= agree
            print(f"  {name:12s} " + " | ".join(cols) + f" | B worse by {d:+.3f} (bound {bound}) {'agree' if agree else 'DISAGREE'}")
    print("\nall agree" if ok else "\nDISAGREEMENT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
