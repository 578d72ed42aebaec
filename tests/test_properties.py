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
from reference import (
    bounded_walk,
    count_below_by_walk,
    parse_point_by_regex,
    positive_rational_at_by_bits,
    positive_rational_index_by_steps,
    preorders_by_filter,
    unchecked_catalog_text,
)

from diagclosure.cli import main
from diagclosure.counting import _count_below
from diagclosure.enumeration import (
    Catalog,
    CatalogRecord,
    canonical_code,
    decode_preorder,
    decode_relation,
    enumerate_preorders,
    preorder_code,
    read_catalog,
    relation_code,
    render_catalog,
)
from diagclosure.errors import (
    DiagClosureError,
    GroundSetFiniteError,
    InvalidCatalogError,
    SpecSyntaxError,
    read_natural,
    read_naturals,
)
from diagclosure.finite_topology import FiniteRelation, generate_from_subbasis, parse_topology, render_topology
from diagclosure.relations import BlockClass, Count, FiniteBlocks, PartitionSpec, PointAddr, parse_point, parse_spec
from diagclosure.symbolic_sets import (
    RationalBall,
    _positive_rational_at,
    _positive_rational_index,
    ball_contains,
    ball_disjoint,
    ball_member,
    ball_refine,
    in_interval,
    rational_at,
    rational_index,
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
    """Catalogs as ``render_catalog`` writes them: rows in ascending relation
    code, one per code, codes that fit the cells of n points, and totals that
    are the column sums."""
    n = draw(st.integers(0, 6))
    cells = n * (n - 1) // 2
    counts = st.integers(0, 10**6)
    codes = draw(st.lists(st.integers(0, 2**cells - 1), min_size=1, max_size=8, unique=True))
    records = []
    for code in sorted(codes):
        lab, t0c, transitive, example = draw(st.tuples(counts, counts, st.booleans(), st.integers(0, 2 ** (2 * cells) - 1)))
        records.append(CatalogRecord(n, format(code, "x"), lab, t0c, transitive, transitive, format(example, "x")))
    totals = sum(r.labeled_topology_count for r in records), sum(r.t0_topology_count for r in records)
    return Catalog(n, tuple(records), *totals)


@given(preorders)
def test_preorder_code_round_trip(p):
    assert decode_preorder(preorder_code(p), p.n) == p


@given(relations())
def test_relation_code_round_trip(r):
    assert decode_relation(relation_code(r), r.n) == r


@given(catalogs())
def test_catalog_text_round_trip(cat):
    assert read_catalog(render_catalog(cat)) == cat


@given(catalogs(), st.sampled_from(["total_topologies", "total_t0"]), st.data())
def test_catalog_with_one_total_changed_is_refused(cat, total, data):
    wrong = data.draw(st.integers(0, 10**7).filter(lambda v: v != getattr(cat, total)))
    totals = {"total_topologies": cat.total_topologies, "total_t0": cat.total_t0, total: wrong}
    lines = render_catalog(cat).splitlines()
    lines[-1] = f"# total_topologies={totals['total_topologies']} total_t0={totals['total_t0']}"
    with pytest.raises(SpecSyntaxError, match=f"^bad catalog line {len(cat.records) + 2}: '# total_topologies="):
        read_catalog("\n".join(lines) + "\n")


@st.composite
def loose_catalogs(draw):
    """Catalogs that ``render_catalog`` may have to refuse: codes out of order,
    repeated, spelled with a leading zero or in upper case, or beyond the cells
    of n points; counts that are negative, bools or floats; records of another
    point count, flags that differ or are ints, records that are plain
    tuples; no records; and totals off the column sums."""
    n = draw(st.integers(0, 6))
    cells = n * (n - 1) // 2
    codes = draw(st.lists(st.integers(0, 2**cells - 1), max_size=8, unique=True))
    if codes and draw(st.integers(0, 3)) == 0:
        codes.append(draw(st.sampled_from(codes)))
    if draw(st.integers(0, 3)):
        codes.sort()
    # at most two faults, each (record index, what goes wrong)
    faults = draw(st.sets(st.tuples(st.integers(0, max(len(codes) - 1, 0)), st.integers(0, 9)), max_size=2))
    odd_counts = st.integers(-3, -1) | st.sampled_from([True, False, 1.0])
    odd_spelling = st.sampled_from(["0{:x}", "{:X}"])

    def odd(fault, usual, strategy):
        return draw(strategy) if fault in faults else usual

    records = []
    for i, code in enumerate(codes):
        lab, t0c, tr, example = draw(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.booleans(),
                                               st.integers(0, 2 ** (2 * cells) - 1)))
        code = odd((i, 0), code, st.just(code | 1 << cells))
        example = odd((i, 1), example, st.just(example | 1 << 2 * cells))
        fields = (odd((i, 2), n, st.just(n + 1)), odd((i, 3), "{:x}", odd_spelling).format(code),
                  odd((i, 4), lab, odd_counts), odd((i, 5), t0c, odd_counts), odd((i, 6), tr, st.integers(0, 2)),
                  odd((i, 7), tr, st.integers(0, 2)), odd((i, 8), "{:x}", odd_spelling).format(example))
        records.append(odd((i, 9), CatalogRecord(*fields), st.just(fields)))
    sums = sum(r[2] for r in records), sum(r[3] for r in records)
    wrong = st.tuples(st.integers(0, 10**7), st.integers(0, 10**7)) | st.just((sums[0], sums[1] + 1))
    totals = sums if draw(st.integers(0, 3)) else draw(wrong)
    return Catalog(n, tuple(records), *totals)


@given(loose_catalogs())
def test_render_catalog_refuses_exactly_what_does_not_read_back(cat):
    text = unchecked_catalog_text(cat)
    try:
        back = read_catalog(text)
    except SpecSyntaxError:
        back = None
    if back == cat:
        assert render_catalog(cat) == text
    else:
        with pytest.raises(InvalidCatalogError):
            render_catalog(cat)


@st.composite
def edited_catalog_texts(draw):
    """The text of a catalog with one edit: its totals reordered or respaced,
    two lines swapped, one character changed, or a blank line inserted."""
    lines = render_catalog(draw(catalogs())).splitlines()
    edit = draw(st.sampled_from(["reorder totals", "respace totals", "swap lines", "change a character", "insert a blank"]))
    if edit == "reorder totals":
        lines[-1] = "# " + " ".join(reversed(lines[-1][2:].split(" ")))
    elif edit == "respace totals":
        at = draw(st.integers(1, len(lines[-1])))
        lines[-1] = lines[-1][:at] + draw(st.sampled_from([" ", "  ", "\t"])) + lines[-1][at:]
    elif edit == "swap lines":
        i, j = draw(st.lists(st.integers(0, len(lines) - 1), min_size=2, max_size=2, unique=True))
        lines[i], lines[j] = lines[j], lines[i]
    elif edit == "change a character":
        i = draw(st.integers(0, len(lines) - 1))
        at = draw(st.integers(0, len(lines[i]) - 1))
        char = draw(st.sampled_from("0123456789abcdefABCDEF-+_.=# \tTrueFalsn\n") | st.characters())
        lines[i] = lines[i][:at] + char + lines[i][at + 1:]
    else:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t"])))
    return "\n".join(lines) + "\n"


@given(edited_catalog_texts())
def test_read_catalog_reads_only_what_render_catalog_writes(text):
    try:
        cat = read_catalog(text)
    except SpecSyntaxError:
        return
    assert render_catalog(cat) == "\n".join(ln for ln in text.splitlines() if ln.strip()) + "\n"


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
    "\x1cs:1\x1c", "F:1:0", "f:1:\u00b2", "i:\u0661:\u0661", "s:1\u3000", "s:1:", "i:0:0:",
    "s:\u0661", "i:0:\u0661", "f:\u0661\u0662:1",
)


@pytest.mark.parametrize("text", POINT_EDGE_TEXTS, ids=range(len(POINT_EDGE_TEXTS)))
def test_parse_point_matches_the_regex_reader(text):
    assert point_outcome(parse_point, text) == point_outcome(parse_point_by_regex, text)


@settings(deadline=None)
@given(st.text(alphabet="sfi:0123456789 +_\t\n\x1c\u3000\u0661\u00b2F", max_size=16))
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


@st.composite
def overlapping_balls(draw):
    """Centres and radii (c1, r1, c2, r2) of two balls drawn to share a point:
    the second is around a point of the first.  Every pair of balls from
    ``rationals`` and ``radii`` that overlap can be drawn, with the common
    point at the middle of their overlap."""
    c1, r1, r2 = draw(rationals), draw(radii), draw(radii)
    shares = st.fractions(min_value=-1, max_value=1)
    p = c1 + draw(shares) * r1
    return c1, r1, p + draw(shares) * r2, r2


# The shares t of an overlap that place a point strictly inside it: every
# rational of (0, 1) with a denominator up to 12, never an endpoint.
inner_shares = st.integers(2, 12).flatmap(lambda d: st.builds(Fraction, st.integers(1, d - 1), st.just(d)))


@settings(deadline=None)
@given(balls=overlapping_balls(), t=inner_shares)
def test_refined_radius_matches_fractions(balls, t):
    c1, r1, c2, r2 = balls
    lo, hi = max(c1 - r1, c2 - r2), min(c1 + r1, c2 + r2)
    assume(lo < hi)
    q = lo + t * (hi - lo)
    assume(lo < q < hi)  # a common point of both balls
    b = ball_refine(RationalBall(0, c1, r1), RationalBall(0, c2, r2), (0, q, 0))
    assert b.radius == min(r1 - abs(q - c1), r2 - abs(q - c2))
    assert b.center == q and b.excluded == frozenset()


@settings(deadline=None)
@given(balls=overlapping_balls(), t=inner_shares, data=st.data())
def test_refined_exclusions_match_fractions(balls, t, data):
    c1, r1, c2, r2 = balls
    lo, hi = max(c1 - r1, c2 - r2), min(c1 + r1, c2 + r2)
    assume(lo < hi)
    q = lo + t * (hi - lo)
    assume(lo < q < hi)
    rad = min(r1 - abs(q - c1), r2 - abs(q - c2))
    shares = st.lists(st.tuples(st.fractions(min_value=-1, max_value=1, max_denominator=12), st.integers(0, 1)),
                      max_size=3)

    def exclusions(c, r):
        # inside the refined ball, or on its edge at a share of +-1; then anywhere in the ball's own interval
        near = {(q + s * rad, level) for s, level in data.draw(shares)}
        far = {(c + s * r, level) for s, level in data.draw(shares)}
        return {e for e in near | far if abs(e[0] - c) < r}

    e1, e2 = exclusions(c1, r1), exclusions(c2, r2)
    b = ball_refine(RationalBall(0, c1, r1, e1), RationalBall(0, c2, r2, e2), (0, q, 0))
    assert b.radius == rad and b.center == q
    assert b.excluded == {e for e in e1 | e2 if abs(e[0] - q) < rad}


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


# --- the rational enumeration agrees with the walk one tree step at a time ---

@given(st.one_of(st.integers(0, 2**40), st.integers(0, 2**400)))
def test_positive_rational_at_matches_the_per_bit_walk(k):
    assert _positive_rational_at(k) == positive_rational_at_by_bits(k)


@given(st.integers(1, 10**3), st.integers(1, 10**3))
def test_positive_rational_index_matches_the_per_step_walk(a, b):
    q = Fraction(a, b)
    assert _positive_rational_index(q) == positive_rational_index_by_steps(q)
    assert Fraction(*_positive_rational_at(_positive_rational_index(q))) == q


@given(st.integers(0, 2**200))
def test_rational_index_inverts_rational_at(k):
    assert rational_index(rational_at(k)) == k
