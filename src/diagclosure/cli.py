"""Command-line front end.

Exit codes: 0 success; 1 only for ``result: FAIL`` from ``realise``, a
relation that is not realisable under the requested axiom, an ``example``
with no non-transitive triple, or an ``enumerate --out`` walk whose counts
disagree with the arithmetic; 2 for usage and parse errors.
Every natural number in the arguments is read by ``errors.read_natural``
or ``errors.read_naturals``, and ``main`` alone turns a library error into
exit 2.  Sizes that could run far past 20 s are refused with exit 2 unless
``--force`` is given: ``enumerate --n`` above the soft limit, ``realise
--pairs`` above ``MAX_PAIRS`` and ``--bounds`` above ``MAX_BOUND``.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .errors import BoundExceededError, DiagClosureError, NotRealisableError, SpecSyntaxError, read_natural, read_naturals

# realise's ceilings, lifted by --force: at 200,000 pairs with both bounds at
# 10**18 the slowest acceptance specs (the pair systems) verified in 4.8-5.8 s
# on 2 vCPUs, under a third of the 20 s that one command may take.
MAX_PAIRS = 200_000
MAX_BOUND = 10**18


def _construction(spec, axiom: str):
    """The construction realising ``spec`` under ``axiom`` (``t0`` or ``t1``).

    A relation that is not T1-realisable is refused before the import, so
    the refusal exits without loading the constructions.
    """
    from .relations import check_t1_realisable

    if axiom == "t1":
        check_t1_realisable(spec)
    from .constructions import realise_t0, realise_t1

    return realise_t1(spec) if axiom == "t1" else realise_t0(spec)


def _cmd_realise(args) -> int:
    from .relations import parse_spec

    spec = parse_spec(args.spec)
    bounds = tuple(read_naturals(args.bounds, "bounds (expected 'B,E')", count=2))
    n_pairs = read_natural(args.pairs, "--pairs")
    for option, value, ceiling in (("--pairs", n_pairs, MAX_PAIRS), ("--bounds", max(bounds), MAX_BOUND)):
        if value > ceiling and not args.force:
            raise BoundExceededError(f"{option} above {ceiling} may take extremely long; pass --force to proceed")
    c = _construction(spec, args.axiom)
    from .verify import verify_construction

    report = verify_construction(c, spec, n_pairs=n_pairs, bounds=bounds, seed=args.seed)
    if args.json_lines:
        print(report.render_json_line())
    else:
        print(f"construction: {c.kind}")
        print(report.render_text())
        print(f"result: {'PASS' if report.passed() else 'FAIL'}")
    return 0 if report.passed() else 1


def _cmd_separable(args) -> int:
    from .relations import parse_point, parse_spec

    spec = parse_spec(args.spec)
    p = parse_point(args.p)
    q = parse_point(args.q)
    cert = _construction(spec, args.axiom).witness(p, q)  # None exactly when the pair is inseparable
    if cert is None:
        print("inseparable")
    else:
        print("separable")
        print(cert.render())
    return 0


def _cmd_enumerate(args) -> int:
    from .counting import SOFT_LIMIT, summary

    n = read_natural(args.n, "--n")
    if n > SOFT_LIMIT and not args.force:
        raise BoundExceededError(f"n={n} is above the soft limit {SOFT_LIMIT}; pass --force to proceed")
    # The summary is arithmetic; only --out builds the catalog, and its records
    # and totals must agree with the arithmetic before the file is written.
    # The file is opened first, so a bad path fails at once and not after the
    # build; in append mode, so a build that fails or disagrees leaves it as it was.
    with open(args.out, "a", encoding="utf-8") if args.out else contextlib.nullcontext() as out:
        lines = summary(n, args.t0, args.iso)
        if args.out:
            from .enumeration import build_catalog, render_catalog

            catalog = build_catalog(n, args.t0, args.iso, force=True)
            walked = catalog.total_topologies, len(catalog.records), sum([not r.transitive for r in catalog.records])
            if walked != lines:
                print(f"error: the walk counts {walked} topologies, closures and non-transitive closures,"
                      f" the arithmetic {lines}; {args.out} is left as it was", file=sys.stderr)
                return 1
            out.truncate(0)
            out.write(render_catalog(catalog))
    for name, value in zip(("topologies", "distinct closures", "non-transitive closures"), lines):
        print(f"{name}: {value}")
    return 0


def _parse_designated(items):
    from .symbolic_sets import ResidueClassSet

    if items is None:
        return None
    out = []
    for item in items:
        item = item.strip()
        if not item:
            continue
        out.append(ResidueClassSet(*read_naturals(item, "designated set (expected 'offset,modulus')", count=2)))
    return out


def _cmd_example(args) -> int:
    from .subbasis import nontransitive_demo

    report = nontransitive_demo(_parse_designated(args.d))
    print(report.render())
    return 0 if report.ok else 1


def _parse_partition_literal(text: str):
    """The ``FinitePartition`` a literal like ``0,1;2`` names (no return
    annotation: ``finite_topology`` is imported only here, so the name would
    not resolve in this module)."""
    from .finite_topology import FinitePartition

    blocks = []
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise SpecSyntaxError(f"empty block in partition literal: {text!r}")
        block = read_naturals(chunk, "point in partition literal")
        blocks.append(block)
        points.extend(block)
    n = max(points) + 1
    try:
        return FinitePartition(n, blocks)
    except ValueError as exc:
        raise SpecSyntaxError(str(exc)) from exc


def _cmd_finite(args) -> int:
    from .finite_topology import cl_delta, is_t0, is_t1, is_t2, parse_topology, tau_r

    if args.opens:
        with open(args.opens, "r", encoding="utf-8") as fh:
            topology = parse_topology(fh.read())
    else:
        topology = tau_r(_parse_partition_literal(args.partition))
    if args.show in ("closure", "all"):
        closure = cl_delta(topology)
        print("closure:")
        for row in closure.rows:
            print(format(row, f"0{closure.n}b")[::-1])  # bit j is column j
    if args.show in ("axioms", "all"):
        flags = (is_t0(topology), is_t1(topology), is_t2(topology))
        print("axioms: " + " ".join(f"T{i}={'true' if f else 'false'}" for i, f in enumerate(flags)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagclosure",
        description="Diagonal closures of topologies: realisation oracles, finite catalogs, demos.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("realise", help="build a realisation and verify it by sampling")
    p.add_argument("--spec", required=True, help="partition spec, e.g. 'singletons=omega;fin=[3];inf=0'")
    p.add_argument("--axiom", choices=("t0", "t1"), default="t1")
    p.add_argument("--pairs", default="10000")
    p.add_argument("--bounds", default="50,50", help="max block,element index sampled")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json-lines", action="store_true")
    p.add_argument("--force", action="store_true", help=f"allow --pairs above {MAX_PAIRS} and --bounds above {MAX_BOUND}")
    p.set_defaults(func=_cmd_realise)

    p = sub.add_parser("separable", help="decide one point pair and print the certificate")
    p.add_argument("--spec", required=True)
    p.add_argument("--axiom", choices=("t0", "t1"), default="t1")
    p.add_argument("-p", required=True, help="first point, e.g. i:0:5")
    p.add_argument("-q", required=True, help="second point")
    p.set_defaults(func=_cmd_separable)

    p = sub.add_parser("enumerate", help="classify diagonal closures over all topologies on n points")
    p.add_argument("--n", required=True)
    p.add_argument("--t0", action="store_true", help="restrict to T0 topologies")
    p.add_argument("--iso", action="store_true", help="canonicalise closures up to point permutation")
    p.add_argument("--out", help="write the catalog TSV here")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("example", help="worked demonstrations")
    p.add_argument("demo", choices=("nontransitive",))
    p.add_argument(
        "--d",
        action="append",
        help="designated residue class 'offset,modulus'; repeatable; pass --d '' for none",
    )
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("finite", help="diagonal closure and axioms of a finite topology")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--opens", help="file with one open set per line ('-' for the empty set)")
    group.add_argument("--partition", help="partition literal like '0,1;2' (block topology)")
    p.add_argument("--show", choices=("closure", "axioms", "all"), default="all")
    p.set_defaults(func=_cmd_finite)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotRealisableError as exc:  # a well-formed relation the axiom cannot realise
        print(exc)
        return 1
    except (DiagClosureError, OSError, UnicodeDecodeError) as exc:  # refused input, or a file that cannot be read
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
