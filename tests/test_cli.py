"""Command-line interface: exit codes and golden outputs."""

import json
import os
import subprocess
import sys

import pytest

from diagclosure.cli import MAX_BOUND, MAX_PAIRS, main
from diagclosure.enumeration import SOFT_LIMIT

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- realise ---

def test_realise_pass(capsys):
    code, out, err = run(
        capsys, "realise", "--spec", "singletons=omega;fin=[3];inf=0",
        "--axiom", "t1", "--pairs", "500", "--seed", "7",
    )
    assert code == 0
    assert out.startswith("construction: FinTwoCase1\n")
    assert "mismatches            0" in out
    assert out.rstrip().endswith("result: PASS")


def test_realise_not_realisable(capsys):
    code, out, err = run(capsys, "realise", "--spec", "singletons=0;fin=[2];inf=1", "--axiom", "t1")
    assert code == 1
    assert out.strip() == "not T1-realisable: Part(R) finite with a finite block of size ≥ 2"


def test_realise_t0_succeeds_where_t1_fails(capsys):
    code, out, _ = run(
        capsys, "realise", "--spec", "singletons=0;fin=[2];inf=1",
        "--axiom", "t0", "--pairs", "500",
    )
    assert code == 0
    assert "construction: T0Sat" in out


def test_realise_bad_spec(capsys):
    code, _, err = run(capsys, "realise", "--spec", "singletons=3;fin=[2,3];inf=0")
    assert code == 2
    assert "finite ground set" in err
    code, _, err = run(capsys, "realise", "--spec", "nonsense")
    assert code == 2


def test_realise_refuses_an_unclosed_cyclic_clause(capsys):
    code, out, err = run(capsys, "realise", "--spec", "singletons=0;fin=cycle[2;inf=0")
    assert (code, out, err) == (2, "", "error: bad finite-block clause: 'cycle[2'\n")


def test_finite_block_rules_have_one_wording(capsys):
    # FiniteBlocks owns the size and non-empty-family rules; the parser only reads digits
    for fin, message in (
        ("[1]", "error: finite block sizes must be naturals >= 2: 1"),
        ("cycle[]", "error: a cyclic finite-block family needs at least one size"),
        ("cycle[ ]", "error: a cyclic finite-block family needs at least one size"),
    ):
        code, out, err = run(capsys, "realise", "--spec", f"singletons=omega;fin={fin};inf=0")
        assert (code, out, err) == (2, "", message + "\n")


def test_realise_json_lines(capsys):
    code, out, _ = run(
        capsys, "realise", "--spec", "singletons=0;fin=[];inf=3",
        "--pairs", "300", "--json-lines",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["construction"] == "InfBlocks"
    assert payload["mismatches"] == 0


def test_realise_golden_byte_equality(capsys):
    args = ("realise", "--spec", "singletons=omega;fin=[3,2];inf=1", "--pairs", "400", "--seed", "3")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_realise_refuses_negative_pair_count(capsys):
    code, out, err = run(capsys, "realise", "--spec", "singletons=0;fin=cycle[2];inf=0", "--pairs", "-5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "-5" in err


def test_realise_refuses_malformed_bounds(capsys):
    code, out, err = run(capsys, "realise", "--spec", "singletons=0;fin=[];inf=3", "--bounds", "5")
    assert code == 2
    assert out == ""
    assert err == "error: bad bounds (expected 'B,E'): '5'\n"


def test_realise_refuses_zero_bounds_without_hanging():
    # run in a child process: a regression here spins forever in the sampler
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = ["realise", "--spec", "singletons=0;fin=cycle[2];inf=0", "--pairs", "10"]
    for bounds in ("0,0", "0,5", "5,0"):
        done = subprocess.run(
            [sys.executable, "-m", "diagclosure.cli", *argv, "--bounds", bounds],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert done.returncode == 2, (bounds, done.stderr)
        assert done.stderr.startswith("error: ")


def test_realise_ceilings_and_force(capsys):
    spec = "singletons=0;fin=cycle[2];inf=0"
    over = str(MAX_BOUND + 1)
    for option, argv in (
        ("--pairs", ["--pairs", str(MAX_PAIRS + 1)]),
        ("--pairs", ["--pairs", "100000000000"]),
        ("--bounds", ["--bounds", f"{over},5"]),
        ("--bounds", ["--bounds", f"5,{'9' * 4300}"]),
    ):
        code, out, err = run(capsys, "realise", "--spec", spec, *argv)
        assert (code, out) == (2, "")
        ceiling = MAX_PAIRS if option == "--pairs" else MAX_BOUND
        assert err == f"error: {option} above {ceiling} may take extremely long; pass --force to proceed\n"
    # --force lifts the ceilings; a pair count at the ceiling passes the check
    # and only then meets a relation that is not realisable
    code, out, err = run(capsys, "realise", "--spec", spec, "--pairs", "20", "--bounds", f"{over},{over}", "--force")
    assert (code, err) == (0, "") and out.rstrip().endswith("result: PASS")
    code, out, _ = run(capsys, "realise", "--spec", "singletons=0;fin=[2];inf=3", "--pairs", str(MAX_PAIRS),
                       "--bounds", f"{MAX_BOUND},{MAX_BOUND}")
    assert code == 1 and out.startswith("not T1-realisable")


# --- separable ---

def test_separable_certificate(capsys):
    code, out, _ = run(
        capsys, "separable", "--spec", "singletons=0;fin=[];inf=3",
        "-p", "i:0:0", "-q", "i:1:0",
    )
    assert code == 0
    assert out == "separable\nCofInBlock(block=i:0, excl=[])\nCofInBlock(block=i:1, excl=[])\n"


def test_separable_inseparable(capsys):
    code, out, _ = run(
        capsys, "separable", "--spec", "singletons=0;fin=[];inf=3",
        "-p", "i:0:0", "-q", "i:0:5",
    )
    assert code == 0
    assert out == "inseparable\n"


def test_separable_bad_address(capsys):
    code, _, err = run(
        capsys, "separable", "--spec", "singletons=0;fin=[];inf=3", "-p", "x:bad", "-q", "i:0:0"
    )
    assert code == 2
    code, _, err = run(
        capsys, "separable", "--spec", "singletons=0;fin=[];inf=3", "-p", "i:9:0", "-q", "i:0:0"
    )
    assert code == 2
    assert err == "error: no such point for singletons=0;fin=[];inf=3: i:9:0\n"


# --- enumerate ---

def test_enumerate_summary(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3")
    assert code == 0
    assert "topologies: 29" in out

    code, out, _ = run(capsys, "enumerate", "--n", "2")
    assert out.splitlines() == ["topologies: 4", "distinct closures: 2", "non-transitive closures: 0"]


def test_enumerate_n5_count(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "5")
    assert code == 0
    assert "topologies: 6942" in out


@pytest.mark.parametrize("flags", [(), ("--t0",), ("--iso",), ("--t0", "--iso")])
def test_enumerate_summary_is_read_off_the_catalog_records(tmp_path, capsys, flags):
    # the summary, by arithmetic or with --out from the walk, is the one the records give
    from diagclosure.enumeration import build_catalog

    for k in range(6):
        cat = build_catalog(k, t0_only="--t0" in flags, up_to_iso="--iso" in flags)
        want = [
            f"topologies: {sum(r.labeled_topology_count for r in cat.records)}",
            f"distinct closures: {len(cat.records)}",
            f"non-transitive closures: {sum(not r.transitive for r in cat.records)}",
        ]
        for out in ((), ("--out", str(tmp_path / "cat.tsv"))):
            code, stdout, err = run(capsys, "enumerate", "--n", str(k), *flags, *out)
            assert (code, err) == (0, "")
            assert stdout.splitlines() == want, (k, flags, out)


def test_enumerate_out_writes_the_rendered_catalog(tmp_path, capsys):
    from diagclosure.enumeration import build_catalog, render_catalog

    target = tmp_path / "cat.tsv"
    for flags in ((), ("--t0",), ("--iso",), ("--t0", "--iso")):
        for k in range(5):
            assert run(capsys, "enumerate", "--n", str(k), *flags, "--out", str(target))[0] == 0
            cat = build_catalog(k, t0_only="--t0" in flags, up_to_iso="--iso" in flags)
            assert target.read_bytes() == render_catalog(cat).encode(), (k, flags)


def test_enumerate_writes_catalog(tmp_path, capsys):
    target = tmp_path / "cat.tsv"
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--t0", "--out", str(target))
    assert code == 0
    text = target.read_text()
    assert text.startswith("n\trelation\tlabeled\tt0\ttransitive\tequivalence\texample\n")
    assert text.rstrip().splitlines()[-1].startswith("# total_topologies=")


def test_enumerate_refuses_an_unwritable_out_path_before_building(tmp_path, capsys, monkeypatch):
    import diagclosure.enumeration as enumeration

    def no_build(*args, **kwargs):
        raise AssertionError("the catalog was built before the output was opened")

    monkeypatch.setattr(enumeration, "_count_structures", no_build)
    monkeypatch.setattr(enumeration, "_count_types", no_build)
    for target in (tmp_path / "missing" / "cat.tsv", tmp_path):
        code, out, err = run(capsys, "enumerate", "--n", "2", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(target) in err


def test_enumerate_out_is_replaced_on_success_and_kept_on_failure(tmp_path, capsys):
    target = tmp_path / "cat.tsv"
    run(capsys, "enumerate", "--n", "2", "--out", str(target))
    once = target.read_text()
    run(capsys, "enumerate", "--n", "2", "--out", str(target))
    assert target.read_text() == once
    code, _, err = run(capsys, "enumerate", "--n", "-1", "--out", str(target))
    assert code == 2 and err.startswith("error: ")
    assert target.read_text() == once


def test_enumerate_out_refuses_a_walk_that_disagrees_with_the_arithmetic(tmp_path, capsys, monkeypatch):
    import diagclosure.enumeration as enumeration

    def one_short(walk):
        def short(n):
            counts = walk(n)
            del counts[max(counts)]  # the closure relating every point
            return counts
        return short

    target = tmp_path / "cat.tsv"
    assert run(capsys, "enumerate", "--n", "3", "--out", str(target))[0] == 0
    before = target.read_bytes()
    for walk in ("_count_structures", "_count_types"):
        monkeypatch.setattr(enumeration, walk, one_short(getattr(enumeration, walk)))
    for flags, walked, summed in (
        ((), (13, 7, 3), (29, 8, 3)),  # the dropped closure has 16 topologies, 9 of them T0
        (("--t0", "--iso"), (10, 3, 1), (19, 4, 1)),
    ):
        code, out, err = run(capsys, "enumerate", "--n", "3", *flags, "--out", str(target))
        assert (code, out) == (1, "")
        assert err == (f"error: the walk counts {walked} topologies, closures and non-transitive closures,"
                       f" the arithmetic {summed}; {target} is left as it was\n")
        assert target.read_bytes() == before


def test_enumerate_guard(capsys):
    code, _, err = run(capsys, "enumerate", "--n", str(SOFT_LIMIT + 1))
    assert code == 2
    assert "--force" in err and f"soft limit {SOFT_LIMIT}" in err


def test_enumerate_refuses_negative_n(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_enumerate_refuses_workers(capsys):
    # catalogs are built in one process; the option is gone
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--n", "3", "--workers", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --workers 2" in captured.err


def test_cli_import_leaves_multiprocessing_out():
    # a fresh interpreter, since this test process may have imported it already
    probe = "import sys, diagclosure.cli; print('multiprocessing' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=30, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


# Runs one command in a fresh interpreter and prints the loaded module names
# as the last line of stderr, after the command's own output and exit.
MODULE_PROBE = (
    "import atexit, json, sys\n"
    "atexit.register(lambda: print(json.dumps(sorted(sys.modules)), file=sys.stderr))\n"
    "import diagclosure.cli\n"
    "sys.exit(diagclosure.cli.main(sys.argv[1:]))\n"
)
# The construction families, one module each; a symbolic command loads the one it runs.
FAMILIES = {f"diagclosure.{m}" for m in ("cofinite", "reservoirs", "pair_system", "saturation", "subbasis")}
SYMBOLIC = {"diagclosure.constructions", "diagclosure.symbolic_sets", "diagclosure.verify", "fractions"} | FAMILIES
# The ball rules, which only the pair system uses, and the Fraction type, which no command builds.
BALLS = {"diagclosure.symbolic_sets", "fractions"}
FINITE = {"diagclosure.enumeration", "diagclosure.finite_topology", "diagclosure.verify"}
# Costly to import and needed only by the dataclasses of enumeration and verify.
COLD = {"dataclasses", "inspect"}
# The layers of a catalog walk; a summary is arithmetic and loads none of them.
CATALOG = {"diagclosure.enumeration", "diagclosure.relations", "diagclosure.finite_topology"}


def _families_but(*kept):
    return FAMILIES - {f"diagclosure.{m}" for m in kept}


def _loaded_modules(code, argv=(), returncode=0):
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, timeout=30, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert done.returncode == returncode, done.stderr
    return set(json.loads(done.stderr.splitlines()[-1]))


@pytest.mark.parametrize("argv, code, absent", [
    (["--help"], 0, None),
    (["finite", "--partition", "0,1;2"], 0, SYMBOLIC | COLD | {"diagclosure.relations"}),
    (["enumerate", "--n", "3"], 0, SYMBOLIC),
    (["separable", "--spec", "singletons=omega;fin=[];inf=2", "-p", "i:0:1", "-q", "i:1:1"], 0,
     FINITE | COLD | BALLS | _families_but("cofinite")),
    (["example", "nontransitive"], 0, FINITE | COLD | {"diagclosure.relations", "fractions"} | _families_but("subbasis")),
    (["realise", "--spec", "singletons=0;fin=[2];inf=3"], 1, SYMBOLIC | COLD),
    (["separable", "--spec", "singletons=0;fin=[2];inf=3", "-p", "f:0:0", "-q", "f:0:1"], 1, SYMBOLIC | COLD),
    (["enumerate", "--n", "3"], 0, SYMBOLIC | CATALOG | COLD),
    (["enumerate", "--n", "3", "--iso"], 0, SYMBOLIC | CATALOG | COLD),
    (["separable", "--spec", "singletons=omega;fin=[3,2];inf=1", "-p", "f:0:0", "-q", "s:5"], 0,
     FINITE | COLD | BALLS | _families_but("cofinite", "reservoirs")),
    (["separable", "--spec", "singletons=0;fin=cycle[2,3];inf=0", "-p", "f:0:0", "-q", "f:1:1"], 0,
     FINITE | COLD | {"fractions"} | _families_but("cofinite", "pair_system")),
    (["separable", "--spec", "singletons=1;fin=[2];inf=1", "--axiom", "t0", "-p", "i:0:3", "-q", "f:0:1"], 0,
     FINITE | COLD | BALLS | _families_but("saturation")),
], ids=["help", "finite", "enumerate", "separable", "example", "realise-not-realisable", "separable-not-realisable",
        "enumerate-summary", "enumerate-summary-iso", "separable-reservoirs", "separable-pair-system", "separable-t0"])
def test_each_subcommand_loads_only_its_own_layers(argv, code, absent):
    loaded = _loaded_modules(MODULE_PROBE, argv, code)
    if absent is None:  # --help: the parser and the error types, nothing else of the package
        assert {m for m in loaded if m.startswith("diagclosure")} == {"diagclosure", "diagclosure.cli", "diagclosure.errors"}
    else:
        # what the interpreter loads before any command runs is not the command's doing
        bare = _loaded_modules(MODULE_PROBE.partition("import diagclosure")[0])
        assert not loaded & (absent - bare)


def test_every_cli_annotation_resolves():
    # the annotations are strings, evaluated in the module's globals, where a
    # name imported inside a function is absent
    import inspect
    import typing

    from diagclosure import cli

    functions = [f for _, f in inspect.getmembers(cli, inspect.isfunction) if f.__module__ == cli.__name__]
    assert len(functions) >= 5
    for f in functions:
        typing.get_type_hints(f)


# --- example ---

def test_example_default(capsys):
    code, out, _ = run(capsys, "example", "nontransitive")
    assert code == 0
    assert out == (
        "designated: {3n+1}, {3n+2}\n"
        "inseparable: (2,3)\n"
        "inseparable: (3,4)\n"
        "separable: (2,4)\n"
        "certificate:\n"
        "CofInD(d=2, excl=[])\n"
        "CofInD(d=1, excl=[])\n"
        "triple: (2,3,4)\n"
    )


def test_example_explicit_designated_matches_default(capsys):
    code, out1, _ = run(capsys, "example", "nontransitive", "--d", "1,3", "--d", "2,3")
    assert code == 0
    _, out2, _ = run(capsys, "example", "nontransitive")
    assert out1 == out2


def test_example_builds_the_triple_when_both_scans_miss(capsys):
    # the consecutive scan stops below the second designated set; b is the least undesignated point
    code, out, _ = run(capsys, "example", "nontransitive", "--d", "0,1000", "--d", "500,1000")
    assert code == 0
    assert out == (
        "designated: {1000n}, {1000n+500}\n"
        "inseparable: (0,1)\n"
        "inseparable: (1,500)\n"
        "separable: (0,500)\n"
        "certificate:\n"
        "CofInD(d=1, excl=[])\n"
        "CofInD(d=2, excl=[])\n"
        "triple: (0,1,500)\n"
    )
    code, out, _ = run(capsys, "example", "nontransitive", "--d", "99999999999999999999,3", "--d", "1,3")
    assert code == 0
    assert out.endswith("triple: (99999999999999999999,0,1)\n")
    # every point designated: no triple exists
    code, out, _ = run(capsys, "example", "nontransitive", "--d", "0,2", "--d", "1,2")
    assert code == 1
    assert "no non-transitivity witness found" in out


def test_example_builds_the_triple_from_the_offsets_when_none_is_consecutive(capsys):
    # no consecutive triple: 0 and 5 are the only designated points below 10
    code, out, _ = run(capsys, "example", "nontransitive", "--d", "0,10", "--d", "5,10")
    assert code == 0
    assert out.endswith("separable: (0,5)\ncertificate:\nCofInD(d=1, excl=[])\nCofInD(d=2, excl=[])\ntriple: (0,1,5)\n")


def test_example_no_designated(capsys):
    code, out, _ = run(capsys, "example", "nontransitive", "--d", "")
    assert code == 1
    assert "closure is total" in out


def test_example_rejects_overlapping(capsys):
    code, _, err = run(capsys, "example", "nontransitive", "--d", "0,2", "--d", "2,4")
    assert code == 2
    assert "overlap" in err


# --- finite ---

def test_finite_opens_file(tmp_path, capsys):
    f = tmp_path / "sier.txt"
    f.write_text("-\n0\n0,1\n")
    code, out, _ = run(capsys, "finite", "--opens", str(f))
    assert code == 0
    assert out == "closure:\n11\n11\naxioms: T0=true T1=false T2=false\n"


def test_finite_opens_file_skips_comments_and_blank_lines(tmp_path, capsys):
    f = tmp_path / "sier.txt"
    f.write_text("# the Sierpinski space\n-\n\n   \n0\n  # a comment after blanks\n0,1\n")
    code, out, _ = run(capsys, "finite", "--opens", str(f))
    assert code == 0
    assert out == "closure:\n11\n11\naxioms: T0=true T1=false T2=false\n"


def test_finite_partition_literal(capsys):
    code, out, _ = run(capsys, "finite", "--partition", "0,1;2", "--show", "closure")
    assert code == 0
    assert out == "closure:\n110\n110\n001\n"

    code, out, _ = run(capsys, "finite", "--partition", "0;1;2", "--show", "axioms")
    assert out == "axioms: T0=true T1=true T2=true\n"


def test_finite_rejects_non_topology(capsys):
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        f = pathlib.Path(d) / "bad.txt"
        f.write_text("-\n0\n1\n0,1,2\n")
        code, _, err = run(capsys, "finite", "--opens", str(f))
    assert code == 2
    assert "{0}" in err and "{1}" in err  # the offending pair is named


def test_finite_refuses_a_partition_with_too_many_blocks(capsys):
    code, out, err = run(capsys, "finite", "--partition", ";".join(str(x) for x in range(22)))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "22 blocks" in err


def test_finite_refuses_a_partition_literal_with_a_huge_point(capsys):
    code, out, err = run(capsys, "finite", "--partition", "0;1000000000000")
    assert code == 2
    assert err.startswith("error: ")


def test_finite_refuses_an_opens_file_beyond_the_point_limit(tmp_path, capsys):
    f = tmp_path / "wide.txt"
    f.write_text("-\n" + ",".join(str(x) for x in range(2000)) + "\n")
    code, out, err = run(capsys, "finite", "--opens", str(f))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_finite_refuses_an_opens_file_with_too_many_opens(tmp_path, capsys):
    f = tmp_path / "many.txt"
    f.write_text("\n".join(",".join(str(x) for x in range(13) if m >> x & 1) or "-" for m in range(1 << 13)) + "\n")
    code, out, err = run(capsys, "finite", "--opens", str(f))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "more than 4096 opens" in err


def test_finite_missing_file(capsys):
    code, _, err = run(capsys, "finite", "--opens", "/no/such/file")
    assert code == 2


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["realise"])  # missing required --spec
    assert exc.value.code == 2


# --- natural numbers: one reader, refusals exit 2 ---

NINES = "9" * 5000
_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_over_int_limit = pytest.mark.skipif(
    not 0 < _INT_DIGITS < len(NINES), reason="int() converts 5,000 digits on this interpreter"
)
_SPEC = "singletons=0;fin=[];inf=3"


def _long(argv, field):
    return pytest.param(argv, field, marks=_over_int_limit)


# how a refusal of NINES ends: it names the setting a shell user can change,
# not a Python call
AT_INT_LIMIT = (f": {len(NINES)} digits, more than the {_INT_DIGITS} this interpreter reads"
                " (the environment variable PYTHONINTMAXSTRDIGITS sets that limit)")

# argv and the field the one error line must name (an argv holding NINES
# must end with AT_INT_LIMIT too); an "--opens" value is the file's
# content, written to a file first
NUMBER_PROBES = {
    "spec-count-superscript": (["realise", "--spec", "singletons=²;fin=[];inf=3"], "count"),
    "spec-count-long": _long(["realise", "--spec", f"singletons={NINES};fin=[];inf=3"], "count"),
    "spec-size-superscript": (["realise", "--spec", "singletons=0;fin=[²];inf=3"], "finite block size"),
    "spec-size-arabic": (["realise", "--spec", "singletons=0;fin=cycle[٢,3];inf=0"], "finite block size"),
    "point-long": _long(["separable", "--spec", _SPEC, "-p", f"i:{NINES}:0", "-q", "i:0:0"], "point address"),
    "point-arabic": (["separable", "--spec", "singletons=0;fin=cycle[2];inf=0", "-p", "f:١:0", "-q", "f:0:0"],
                     "point address"),
    "bounds-superscript": (["realise", "--spec", _SPEC, "--bounds", "²,5"], "bounds"),
    "bounds-long": _long(["realise", "--spec", _SPEC, "--bounds", f"{NINES},5"], "bounds"),
    "pairs-arabic": (["realise", "--spec", _SPEC, "--pairs", "١٠"], "--pairs"),
    "pairs-negative": (["realise", "--spec", _SPEC, "--pairs", "-5"], "--pairs"),
    "partition-superscript": (["finite", "--partition", "²"], "point in partition literal"),
    "partition-long": _long(["finite", "--partition", f"0,{NINES}"], "point in partition literal"),
    "opens-superscript": (["finite", "--opens", "-\n²\n"], "point on line 2"),
    "opens-long": _long(["finite", "--opens", f"-\n{NINES}\n"], "point on line 2"),
    "designated-superscript": (["example", "nontransitive", "--d", "²,3"], "designated set"),
    "designated-long": _long(["example", "nontransitive", "--d", f"{NINES},3"], "designated set"),
    "designated-arabic": (["example", "nontransitive", "--d", "١,3"], "designated set"),
    "n-arabic": (["enumerate", "--n", "١"], "--n"),
    "n-underscore": (["enumerate", "--n", "1_0"], "--n"),
    "n-plus": (["enumerate", "--n", "+3"], "--n"),
    "n-negative": (["enumerate", "--n", "-1"], "--n"),
}


def _with_opens_file(tmp_path, argv):
    if "--opens" not in argv:
        return argv
    at = argv.index("--opens") + 1
    f = tmp_path / "opens.txt"
    f.write_text(argv[at], encoding="utf-8")
    return [*argv[:at], str(f), *argv[at + 1:]]


@pytest.mark.parametrize("argv, field", NUMBER_PROBES.values(), ids=NUMBER_PROBES.keys())
def test_cli_refuses_a_number_that_is_not_ascii_digits(tmp_path, capsys, argv, field):
    code, out, err = run(capsys, *_with_opens_file(tmp_path, argv))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: bad {field}"), err[:200]
    if any(NINES in arg for arg in argv):
        assert err.endswith(f"{AT_INT_LIMIT}\n"), err


@pytest.mark.parametrize("padded, plain", [
    (["enumerate", "--n", " 3"], ["enumerate", "--n", "3"]),
    (["realise", "--spec", _SPEC, "--bounds", " 5 , 5 ", "--pairs", "50"],
     ["realise", "--spec", _SPEC, "--bounds", "5,5", "--pairs", "50"]),
    (["finite", "--partition", " 0 , 1 "], ["finite", "--partition", "0,1"]),
    (["example", "nontransitive", "--d", " 1 , 3 "], ["example", "nontransitive", "--d", "1,3"]),
    (["finite", "--opens", "-\n0\n0, 1\n"], ["finite", "--opens", "-\n0\n0,1\n"]),
], ids=["n", "bounds", "partition", "designated", "opens"])
def test_cli_ignores_whitespace_around_a_number(tmp_path, capsys, padded, plain):
    got = run(capsys, *_with_opens_file(tmp_path, padded))
    assert got == run(capsys, *_with_opens_file(tmp_path, plain))
    assert got[0] in (0, 1) and got[2] == ""


def test_cli_reads_digits_up_to_the_interpreters_int_limit():
    # the reader has no length constant of its own: PYTHONINTMAXSTRDIGITS moves its cap
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("int() has no digit limit on this interpreter")
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONINTMAXSTRDIGITS="640")
    spec = "singletons=0;fin=[];inf=omega"
    for digits, code in ((640, 0), (641, 2)):
        done = subprocess.run(
            [sys.executable, "-m", "diagclosure.cli", "separable", "--spec", spec, "-p", f"i:{'9' * digits}:0", "-q", "i:0:0"],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert done.returncode == code, done.stderr[-300:]
        assert "Traceback" not in done.stderr
    assert done.stdout == "" and done.stderr.startswith("error: bad point address: 641 digits, more than the 640 ")
    assert "PYTHONINTMAXSTRDIGITS" in done.stderr


def test_seed_stays_a_signed_integer(capsys):
    code, out, _ = run(capsys, "realise", "--spec", _SPEC, "--pairs", "20", "--seed", "-3")
    assert code == 0 and out.rstrip().endswith("result: PASS")


def test_example_refuses_a_designated_set_without_an_infinite_complement(capsys):
    for d in ("1,1", "0,0"):
        code, out, err = run(capsys, "example", "nontransitive", "--d", d)
        assert (code, out) == (2, "")
        assert err.startswith("error: designated set ") and err.endswith("does not have an infinite complement\n")


def test_finite_refuses_an_opens_file_that_is_not_utf8(tmp_path, capsys):
    f = tmp_path / "latin1.txt"
    f.write_bytes(b"-\n0\xff\n")
    code, out, err = run(capsys, "finite", "--opens", str(f))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_pairs_is_read_before_the_relation_is_realised(capsys):
    code, out, err = run(capsys, "realise", "--spec", "singletons=0;fin=[2];inf=1", "--pairs", "-5")
    assert (code, out, err) == (2, "", "error: bad --pairs: '-5'\n")
