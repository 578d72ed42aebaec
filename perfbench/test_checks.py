"""The benchmark's own tests: its checks pass real outputs and reject corrupted ones.

    python3 -m pytest -q perfbench/test_checks.py     (from the repository root)
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import faults  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from clock import Clock, ProcessClock, _reference_loop, now  # noqa: E402
from diagclosure import enumeration  # noqa: E402
from diagclosure.relations import parse_spec  # noqa: E402


class SmallQueries(workloads.PointQueries):
    PER_KIND = 40
    PER_FAMILY = 20

    def __init__(self, seed, replace=None):
        super().__init__(seed)
        self.replace = replace or {}

    def _fresh(self):
        cons, parsers = super()._fresh()
        for kind, cls in self.replace.items():
            i = workloads.KINDS.index(kind)
            cons[i] = cls(parse_spec(workloads.SPECS[i][2]))
        return cons, parsers


def test_queries_pass_on_the_real_constructions():
    with Clock() as clock:
        assert SmallQueries(3).round(0, clock) == 0
    times = clock.scaled()
    assert len(times) == 9 * 40 + 3 * 20 and all(t > 0 for t in times)


def test_a_query_that_raises_is_counted_as_failed():
    with Clock() as clock:
        assert SmallQueries(3, {"InfBlocks": faults.RaisingWitness}).round(0, clock) == 40
    assert sum(t != t for t in clock.scaled()) == 40


@pytest.mark.parametrize("kind, fault", [("InfBlocks", faults.WrongBlockWitness), ("ExtendPairs", faults.LaxDisjoint)])
def test_queries_reject_a_corrupted_construction(kind, fault):
    with pytest.raises(CheckFailed):
        SmallQueries(3, {kind: fault}).round(0, Clock())


def test_lax_disjoint_is_caught_by_the_window_and_not_by_the_certificate_checker():
    c = faults.LaxDisjoint(parse_spec(workloads.SPECS[8][2]))
    p, q = workloads.to_addr(("f", 7, 0)), workloads.to_addr(("f", 7, 1))
    bogus = workloads.Certificate(c.basic_nbhd(p), c.basic_nbhd(q))
    assert workloads.check_certificate(c, p, q, bogus)  # the program is fooled
    window = [workloads.to_addr(w) for w in checks.address_window(workloads.spec_shape(workloads.SPECS[8][2]), ("f", 7, 0), ("f", 7, 1))]
    with pytest.raises(CheckFailed, match="share the window point"):
        checks.check_query(c, workloads.check_certificate, workloads.Certificate, False, p, q, False, None, None, None, window, "probe")


@pytest.fixture(scope="module")
def catalogs_n4():
    return workloads.run_catalog_round(4, workloads.CatalogN6.ORDER, Clock())


def _check_n4(out, **changed):
    out = {**out, **changed}
    checks.check_catalog_set(out["count"], out["catalog"], out["catalog_t0"], out["catalog_workers2"],
                             out["catalog_iso"], out["round_trip"], 4)


def test_catalogs_pass(catalogs_n4):
    _check_n4(catalogs_n4)


@pytest.mark.parametrize("which", ["catalog", "catalog_t0", "catalog_workers2", "catalog_iso", "round_trip"])
def test_catalog_with_one_count_changed_is_rejected(catalogs_n4, which):
    with pytest.raises(CheckFailed):
        _check_n4(catalogs_n4, **{which: faults.bump_one_count(catalogs_n4[which], index=1)})


def test_wrong_preorder_count_is_rejected(catalogs_n4):
    with pytest.raises(CheckFailed):
        _check_n4(catalogs_n4, count=catalogs_n4["count"] - 1)


@pytest.fixture(scope="module")
def cli_transcripts(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "opens.txt")
    out = []
    for argv, expect in workloads.cli_mix(5, path):
        done = subprocess.run([sys.executable, "-m", "diagclosure.cli", *argv], capture_output=True, text=True,
                              env=workloads.child_env(), timeout=120)
        out.append((argv, expect, done.returncode, done.stdout))
    return out


def test_cli_transcripts_pass(cli_transcripts):
    for argv, expect, code, stdout in cli_transcripts:
        workloads.check_cli(expect, code, stdout, " ".join(argv))


def test_cli_transcript_with_one_answer_flipped_is_rejected(cli_transcripts):
    for argv, expect, code, stdout in cli_transcripts:
        with pytest.raises(CheckFailed):
            workloads.check_cli(expect, code, faults.flip_first_answer(stdout), " ".join(argv))


def test_cli_wrong_exit_code_is_rejected(cli_transcripts):
    argv, expect, code, stdout = cli_transcripts[-1]
    with pytest.raises(CheckFailed):
        workloads.check_cli(expect, 0, stdout, " ".join(argv))


def test_verify_report_with_a_failure_is_rejected():
    spec = parse_spec(workloads.SPECS[0][2])
    c = workloads.realise_all()[0]
    report = workloads.verify_construction(c, spec, 200, (50, 50), 0, 20)
    checks.check_verify_report(report, "InfBlocks", workloads.SPECS[0][2], 200, 20, True)
    with pytest.raises(CheckFailed):
        checks.check_verify_report(dataclasses.replace(report, mismatches=1), "InfBlocks", workloads.SPECS[0][2], 200, 20, True)


def test_own_small_catalog_matches_known_counts():
    total, distinct, nontrans, iso, iso_nontrans = checks.small_catalog_summary(3)
    assert total == checks.TOPOLOGIES[3] == enumeration.enumerate_preorders(3)
    assert distinct == len(enumeration.build_catalog(3).records)
    assert iso == len(enumeration.build_catalog(3, up_to_iso=True).records)


def test_a_catalog_step_that_raises_is_counted_as_failed(monkeypatch):
    real = enumeration.build_catalog

    def no_iso(n, **kw):
        if kw.get("up_to_iso"):
            raise RuntimeError("iso build broken")
        return real(n, **kw)

    monkeypatch.setattr(enumeration, "build_catalog", no_iso)
    with Clock() as clock:
        out = workloads.run_catalog_round(4, workloads.CatalogN6.ORDER, clock)
    assert out["catalog_iso"] is None and list(out.values()).count(None) == 1
    assert sum(t != t for t in clock.scaled()) == 1
    _check_n4(out)  # the outputs that exist still pass their checks


def test_a_hanging_or_crashing_child_is_killed_and_marked(tmp_path):
    hang = workloads.spawn([sys.executable, "-c", "import time; time.sleep(30)"], timeout=0.5)
    assert hang.crashed and hang.code < 0 and hang.end - hang.start < 10
    crash = workloads.spawn([sys.executable, "-c", "raise SystemExit(int('x'))"])
    assert crash.crashed and crash.code == 1
    assert not workloads.spawn([sys.executable, "-c", "raise SystemExit(1)"]).crashed


def test_clock_scales_by_the_reference_speed():
    with Clock() as clock:
        for _ in range(20):
            t = now()
            _reference_loop()
            clock.add(t, now())
    assert 0.5 < statistics.median(clock.scaled()) / Clock.NOMINAL_S < 2.0


def test_process_clock_scales_by_the_interpreter_start():
    env = workloads.child_env()
    with ProcessClock(lambda argv: workloads.spawn(argv, env)) as clock:
        for _ in range(5):
            child = workloads.spawn(list(ProcessClock.FLOOR_ARGV), env)
            clock.add(child.start, child.end)
    assert len(clock.samples) == 6
    assert 0.5 < statistics.median(clock.scaled()) / ProcessClock.NOMINAL_S < 2.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-cold", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
