"""Property tests: code, catalog, spec, point and topology round trips, the point reader against its regex reference, canonical-code invariance, integer ball arithmetic, and CLI exit codes."""

import contextlib
import io
import signal
import sys
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import bounded_walk, count_below_by_walk, parse_point_by_regex, preorders_by_filter

from diagclosure.cli import main
from diagclosure.enumeration import (
    Catalog,
    CatalogRecord,
    _count_below,
    canonical_code,
    decode_preorder,
    decode_relation,
    enumerate_preorders,
    preorder_code,
    read_catalog,
    relation_code,
    render_catalog,
)
from diagclosure.errors import DiagClosureError, GroundSetFiniteError, SpecSyntaxError, read_natural, read_naturals
from diagclosure.finite_topology import generate_from_subbasis, parse_topology, render_topology
from diagclosure.relations import (
    BlockClass,
    Count,
    FiniteBlocks,
    FiniteRelation,
    PartitionSpec,
    PointAddr,
    parse_point,
    parse_spec,
)
from diagclosure.symbolic_sets import (
    RationalBall,
    ball_contains,
    ball_disjoint,
    ball_member,
    ball_refine,
    in_interval,
    separating_radius,
)

PREORDERS = {}
for _n in range(5):
    PREORDERS[_n] = []
    enumerate_preorders(_n, PREORDERS[_n].append)

preorders = st.integers(0, 4).flatmap(lambda n: st.sampled_from(PREORDERS[n]))


@st.composite
def relations(draw, max_n=6):
    """A reflexive symmetric relation, built from its pairs (not from a code)."""
    n = draw(st.integers(0, max_n))
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = [pair for pair in upper if draw(st.booleans())]
    return FiniteRelation.from_pairs(n, chosen + [(j, i) for i, j in chosen])


@st.composite
def catalogs(draw):
    n = draw(st.integers(0, 6))

    def hex_codes(cells):  # codes that fit the cells of n points, as read_catalog requires
        return st.integers(0, 2**cells - 1).map(lambda v: format(v, "x"))

    counts = st.integers(0, 10**6)
    record = st.builds(
        lambda rel, lab, t0c, transitive, example: CatalogRecord(n, rel, lab, t0c, transitive, transitive, example),
        hex_codes(n * (n - 1) // 2), counts, counts, st.booleans(), hex_codes(n * (n - 1)),
    )
    records = draw(st.lists(record, min_size=1, max_size=8))
    return Catalog(n, tuple(records), draw(counts), draw(counts))


@given(preorders)
def test_preorder_code_round_trip(p):
    assert decode_preorder(preorder_code(p), p.n) == p


@given(relations())
def test_relation_code_round_trip(r):
    assert decode_relation(relation_code(r), r.n) == r


@given(catalogs())
def test_catalog_text_round_trip(cat):
    assert read_catalog(render_catalog(cat)) == cat


@settings(max_examples=50, deadline=None)
@given(relations().flatmap(lambda r: st.tuples(st.just(r), st.permutations(range(r.n)))))
def test_canonical_code_is_invariant_and_minimal(case):
    r, sigma = case
    relabelled = FiniteRelation.from_pairs(r.n, [(sigma[i], sigma[j]) for i, j in r.pairs()])
    canon = canonical_code(r)
    assert canonical_code(relabelled) == canon
    assert int(canon, 16) <= int(relation_code(r), 16)
    assert int(canon, 16) <= int(relation_code(relabelled), 16)


@st.composite
def row_bounds(draw):
    """Upper bounds for the rows of a preorder on up to 4 points; about one
    in ten misses its own point, which leaves no preorder."""
    n = draw(st.integers(0, 4))
    bounds = []
    for i in range(n):
        b = draw(st.integers(0, (1 << n) - 1))
        bounds.append(b if draw(st.integers(0, 9)) == 0 else b | 1 << i)
    return bounds


@settings(max_examples=100, deadline=None)
@given(row_bounds())
def test_bounded_dfs_matches_a_brute_force_filter(bounds):
    assert list(bounded_walk(len(bounds), bounds)) == preorders_by_filter(len(bounds), bounds)


# up to 6 points, labels from a pool of 8 so that points often share one
point_labels = st.lists(st.integers(0, 7), max_size=6)


@settings(max_examples=60, deadline=None)
@given(point_labels)
def test_label_recursion_matches_the_bounded_walk(labels):
    assert _count_below(tuple(sorted(labels)), {}) == count_below_by_walk(labels)


counts = st.one_of(st.none(), st.integers(0, 6)).map(Count)


@st.composite
def specs(draw):
    sizes = draw(st.lists(st.integers(2, 6), max_size=6))
    fin = FiniteBlocks(sizes, cyclic=bool(sizes) and draw(st.booleans()))
    try:
        return PartitionSpec(draw(counts), fin, draw(counts))
    except GroundSetFiniteError:
        assume(False)


@st.composite
def points(draw):
    cls = draw(st.sampled_from(list(BlockClass)))
    elem = 0 if cls is BlockClass.SINGLETON else draw(st.integers(0, 10**9))
    return PointAddr(cls, draw(st.integers(0, 10**9)), elem)


@st.composite
def topologies(draw, max_n=6):
    """The topology generated by a few random subsets of at most six points."""
    n = draw(st.integers(0, max_n))
    return generate_from_subbasis(n, draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6)))


@given(specs())
def test_spec_text_round_trip(spec):
    assert parse_spec(spec.render()) == spec


@given(points())
def test_point_text_round_trip(p):
    assert parse_point(p.render()) == p


def point_outcome(parse, text):
    """What ``parse`` makes of ``text``: the address and its type, or the
    type and message of the error it raises."""
    try:
        point = parse(text)
    except DiagClosureError as exc:
        return type(exc), str(exc)
    return type(point), point, tuple(map(type, point))


POINT_EDGE_TEXTS = (
    "s:3", " f:0:1 ", "\ti:2:7\n", "s:1\n", "\u3000i:007:08", "i:0:0\n\n",
    "f: 1:0", "f:1 :0", "s :1", "s 1",
    "s:+1", "i:1_0:0", "f:\u0661:0", "s:\u00b2", "S:1", "x:1", "s:-1", "f:a:b", "s:1.0",
    "", ":", "s", "s:", "f::0", "f:0:", "s::", "f:1:2:3", "s:1:0", "f:1", "i:0",
    "i:" + "9" * 4301 + ":0", "i:0:" + "9" * 4301, "s:" + "9" * 4301, "s:" + "9" * 4301 + ":0",
    "i:" + "9" * 4300 + ":1", "f:" + "9" * 4301 + ":" + "9" * 4302,
)


@pytest.mark.parametrize("text", POINT_EDGE_TEXTS, ids=range(len(POINT_EDGE_TEXTS)))
def test_parse_point_matches_the_regex_reader(text):
    assert point_outcome(parse_point, text) == point_outcome(parse_point_by_regex, text)


@settings(deadline=None)
@given(st.text(alphabet="sfi:0123456789 +_", max_size=12))
def test_parse_point_matches_the_regex_reader_on_drawn_texts(text):
    assert point_outcome(parse_point, text) == point_outcome(parse_point_by_regex, text)


@given(topologies())
def test_topology_text_round_trip(t):
    assert parse_topology(render_topology(t)) == t


# --- ball tests in integers agree with Fraction arithmetic ---

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=24)
radii = st.fractions(min_value=Fraction(1, 24), max_value=8, max_denominator=24)
signs = st.sampled_from((1, -1))


@given(c=rationals, r=radii, q=rationals, edge=st.sampled_from((None, 1, -1, 0)), level=st.integers(0, 1))
def test_in_ball_test_matches_fractions(c, r, q, edge, level):
    if edge is not None:
        q = c + edge * r  # on the boundary |q - c| = r, or the centre itself
    inside = abs(q - c) < r
    assert in_interval(q, c, r) == inside
    assert ball_member(RationalBall(0, c, r), (0, q, level)) == inside
    assert not ball_member(RationalBall(1, c, r), (0, q, level))
    if inside:  # an exclusion removes its own level only
        assert not ball_member(RationalBall(0, c, r, {(q, level)}), (0, q, level))
        assert ball_member(RationalBall(0, c, r, {(q, 1 - level)}), (0, q, level))


@given(c1=rationals, r1=radii, c2=rationals, r2=radii, mode=st.sampled_from(("free", "same centre", "touch")),
       sign=signs, x2=st.integers(0, 1))
def test_ball_disjoint_matches_fractions(c1, r1, c2, r2, mode, sign, x2):
    if mode == "same centre":
        c2 = c1
    elif mode == "touch":
        c2 = c1 + sign * (r1 + r2)  # distance exactly r1 + r2
    b1, b2 = RationalBall(0, c1, r1), RationalBall(x2, c2, r2)
    expected = x2 != 0 or abs(c1 - c2) >= r1 + r2
    assert ball_disjoint(b1, b2) == ball_disjoint(b2, b1) == expected
    assert separating_radius(c1, c2) == separating_radius(c2, c1) == abs(c1 - c2) / 2


@st.composite
def nested_balls(draw):
    """An outer and an inner ball, often tangent inside or concentric, with exclusions."""
    co, ro = draw(rationals), draw(radii)
    ri = draw(radii)
    mode = draw(st.sampled_from(("free", "same centre", "tangent")))
    if mode == "same centre":
        ci = co
    elif mode == "tangent" and ri < ro:
        ci = co + draw(signs) * (ro - ri)  # |ci - co| + ri = ro
    else:
        ci = draw(rationals)
    inside = st.fractions(min_value=-1, max_value=1, max_denominator=12).filter(lambda t: abs(t) < 1)
    levels = st.integers(0, 1)
    outer_excl = {(co + t * ro, lev) for t, lev in draw(st.lists(st.tuples(inside, levels), max_size=3))}
    inner_excl = {(ci + t * ri, lev) for t, lev in draw(st.lists(st.tuples(inside, levels), max_size=3))}
    inner_excl |= {e for e in outer_excl if abs(e[0] - ci) < ri and draw(st.booleans())}
    x = draw(st.integers(0, 1))
    return RationalBall(0, co, ro, outer_excl), RationalBall(x, ci, ri, inner_excl)


@given(nested_balls())
def test_ball_contains_matches_fractions(balls):
    outer, inner = balls
    expected = (
        outer.x_index == inner.x_index
        and abs(inner.center - outer.center) + inner.radius <= outer.radius
        and all(e in inner.excluded for e in outer.excluded if abs(e[0] - inner.center) < inner.radius)
    )
    assert ball_contains(outer, inner) == expected


@settings(deadline=None)
@given(c1=rationals, r1=radii, c2=rationals, r2=radii, t=st.fractions(min_value=0, max_value=1, max_denominator=12))
def test_refined_radius_matches_fractions(c1, r1, c2, r2, t):
    lo, hi = max(c1 - r1, c2 - r2), min(c1 + r1, c2 + r2)
    assume(lo < hi)
    q = lo + t * (hi - lo)
    assume(lo < q < hi)  # a common point of both balls
    b = ball_refine(RationalBall(0, c1, r1), RationalBall(0, c2, r2), (0, q, 0))
    assert b.radius == min(r1 - abs(q - c1), r2 - abs(q - c2))
    assert b.center == q and b.excluded == frozenset()


# --- the command line never ends in a traceback ---

_CALL_SECONDS = 20


def _overrun(signum, frame):
    # pytest.fail raises an exception that no handler of the CLI catches
    pytest.fail(f"a CLI call ran over {_CALL_SECONDS} s")


def _run(argv):
    """The exit code, stdout and stderr of ``main(argv)``; a call that runs over the bound fails the test (SIGALRM, POSIX only)."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(_CALL_SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def _exit_code(argv):
    return _run(argv)[0]


def _digits(max_value):
    return st.integers(0, max_value).map(str)


# number texts the reader must refuse or accept: other scripts' digits,
# '_' and signs that int() takes, padding, and where int() has a digit
# limit, one digit more than it converts
_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_ODD_NUMBERS = ["²", "١", "٢", "1_0", "+3", "-1", "", " "] + (["9" * (_INT_DIGITS + 1)] if _INT_DIGITS else [])


def _numbers(max_value):
    return st.one_of(
        _digits(max_value),
        st.sampled_from(_ODD_NUMBERS),
        st.builds("{}{}{}".format, st.sampled_from(["", " ", "\t"]), _digits(max_value), st.sampled_from(["", " "])),
    )


_junk = st.text(alphabet="0123456789,;:=[]-sfiomegacylnt ", max_size=12)
_point_lists = st.lists(_numbers(9), min_size=1, max_size=3).map(",".join)
_partition_literals = st.one_of(_junk, st.lists(_point_lists, min_size=1, max_size=4).map(";".join))
_opens_files = st.lists(st.one_of(st.just("-"), _point_lists, _junk), max_size=5).map("\n".join)
_counts_text = st.one_of(_numbers(3), st.just("omega"))
_spec_texts = st.one_of(
    _junk,
    st.builds(
        "singletons={};fin={}{};inf={}".format,
        _counts_text,
        st.sampled_from(["", "cycle"]),
        st.lists(_numbers(4), max_size=3).map(lambda sizes: "[" + ",".join(sizes) + "]"),
        _counts_text,
    ),
)
_point_texts = st.one_of(
    _junk,
    st.builds("s:{}".format, _numbers(5)),
    st.builds("{}:{}:{}".format, st.sampled_from("fi"), _numbers(5), _numbers(5)),
)
_designated = st.one_of(_junk, st.builds("{},{}".format, _numbers(30), _numbers(12)))
_bounds = st.one_of(_junk, st.builds("{},{}".format, _numbers(60), _numbers(60)))

# the only stdout of an exit 1: a failed verify, a relation the axiom cannot
# realise, or a designated family with no non-transitive triple
_EXIT_1 = ("result: FAIL", "-realisable: ", "no non-transitivity witness found", "closure is total")


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.builds(lambda lit: ["finite", "--partition", lit], _partition_literals),
    st.builds(lambda text: ["finite", "--opens", text], _opens_files),
    st.builds(lambda spec, p, q, axiom: ["separable", "--spec", spec, "-p", p, "-q", q, "--axiom", axiom],
              _spec_texts, _point_texts, _point_texts, st.sampled_from(["t0", "t1"])),
    st.builds(lambda spec, pairs, bounds, axiom: ["realise", "--spec", spec, f"--pairs={pairs}", f"--bounds={bounds}",
                                                 "--axiom", axiom],
              _spec_texts, _numbers(50), _bounds, st.sampled_from(["t0", "t1"])),
    st.builds(lambda n: ["enumerate", f"--n={n}"], st.one_of(_numbers(5), st.just("9"))),
    st.builds(lambda ds: ["example", "nontransitive", *(f"--d={d}" for d in ds)],
              st.lists(_designated, max_size=3)),
))
def test_cli_exits_0_1_or_2(tmp_path_factory, argv):
    if argv[1] == "--opens":  # the drawn text is the file's content
        f = tmp_path_factory.mktemp("opens") / "opens.txt"
        f.write_text(argv[2], encoding="utf-8")
        argv = [argv[0], argv[1], str(f)]
    code, out, err = _run(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert any(line in out for line in _EXIT_1), out
    if code == 2:
        assert out == ""
        assert err.startswith("usage: ") or (err.startswith("error: ") and err.count("\n") == 1), err[:300]


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="0123456789, \t²١_+-", max_size=12), st.one_of(st.none(), st.integers(1, 3)))
def test_read_naturals_reads_each_item_as_read_natural_does(text, count):
    try:
        got = read_naturals(text, "x", count)
    except SpecSyntaxError:
        got = None
    try:
        want = [read_natural(item, "x") for item in text.split(",")]
    except SpecSyntaxError:
        want = None
    if want is not None and count is not None and len(want) != count:
        want = None
    assert got == want


@settings(max_examples=30, deadline=None)
@given(n=st.integers(-1, 3), target=st.sampled_from(["cat.tsv", "missing/cat.tsv", ".", "missing/deeper/"]),
       flags=st.lists(st.sampled_from(["--t0", "--iso"]), unique=True))
def test_cli_enumerate_exits_0_1_or_2(tmp_path_factory, n, target, flags):
    out = tmp_path_factory.mktemp("enumerate") / target
    assert _exit_code(["enumerate", "--n", str(n), "--out", str(out), *flags]) in (0, 1, 2)
