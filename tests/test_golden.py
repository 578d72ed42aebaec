"""Golden outputs of every construction kind, pinned byte for byte.

The expected file holds, for each benchmark spec, the verify report at
seeds 0-2 and the rendered answers on a fixed sampled window: witnesses,
T1 witnesses, basic neighbourhoods, and sample/refine/contains/disjoint
results.  A refactor of the construction layer must leave all of it
unchanged.  Regenerate (only for a deliberate change of outputs) with

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import random

from faults import SharedFinTwoCase1, SharedFinTwoCase2

from diagclosure.constructions import realise_t0, realise_t1, realise_tau_r
from diagclosure.relations import BlockClass, PointAddr, parse_spec
from diagclosure.subbasis import DEFAULT_DESIGNATED, SubbasisExample, nontransitive_demo
from diagclosure.verify import verify_construction

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "constructions.txt")

# (axiom, spec): one spec per construction kind, and SplitUnion over pairs only
# and over infinite blocks only
SPECS = (
    ("t1", "singletons=0;fin=[];inf=3"),
    ("t1", "singletons=omega;fin=[];inf=2"),
    ("t1", "singletons=omega;fin=[3,2];inf=1"),
    ("t1", "singletons=2;fin=[2,3];inf=omega"),
    ("t1", "singletons=0;fin=cycle[2];inf=0"),
    ("t1", "singletons=1;fin=cycle[2,3];inf=2"),
    ("t0", "singletons=1;fin=[2];inf=1"),
    ("taur", "singletons=1;fin=[2];inf=1"),
    ("t1", "singletons=0;fin=cycle[2,3];inf=0"),
    ("t1", "singletons=omega;fin=cycle[2];inf=0"),
    ("t1", "singletons=0;fin=cycle[3];inf=omega"),
)
REALISERS = {"t1": realise_t1, "t0": realise_t0, "taur": realise_tau_r}
# reservoirs that share a residue: not a realisation, but every rule still answers
SHARED_RESERVOIRS = (
    ("shared", SharedFinTwoCase1, "singletons=omega;fin=[3,2];inf=1", (0, 0)),
    ("shared", SharedFinTwoCase2, "singletons=2;fin=[2,3];inf=omega", (1, 1)),
)
SEEDS = (0, 1, 2)
WINDOW = 40
BOUNDS = (50, 50)
_CLS = {"s": BlockClass.SINGLETON, "f": BlockClass.FINITE, "i": BlockClass.INFINITE}


def _index(rng, count=None):
    """A block or element index: mostly small, sometimes wide, below ``count``."""
    i = rng.randrange(6) if rng.random() < 0.7 else rng.randrange(10**6)
    return i if count is None else i % count


def _draw_point(spec, rng, same=None):
    """A point of the spec; with ``same``, another point of that point's block."""
    if same is None:
        tags = [tag for tag, n in (("s", spec.singletons), ("f", spec.fin.count), ("i", spec.inf)) if n >= 1]
        cls = _CLS[tags[rng.randrange(len(tags))]]
    else:
        cls = same.cls

    def count(c):
        return None if c.is_omega else c.finite()

    if cls is BlockClass.SINGLETON:
        return PointAddr(cls, _index(rng, count(spec.singletons)), 0)
    if cls is BlockClass.FINITE:
        j = same.block if same else _index(rng, None if spec.fin.cyclic else len(spec.fin.sizes))
        return PointAddr(cls, j, rng.randrange(spec.fin.size_of(j)))
    j = same.block if same else _index(rng, count(spec.inf))
    return PointAddr(cls, j, _index(rng))


def _draw_pair(spec, rng):
    while True:
        p = _draw_point(spec, rng)
        same = rng.random() < 0.4 and p.cls is not BlockClass.SINGLETON
        q = _draw_point(spec, rng, p if same else None)
        if q != p:
            return p, q


def _r(o):
    return "-" if o is None else o.render().replace("\n", " | ")


def _construction_lines(label, c):
    spec = c.spec
    text = spec.render()
    out = [f"== {c.kind} {label} {text}"]
    for seed in SEEDS:
        out.append(verify_construction(c, spec, n_pairs=2_000, bounds=BOUNDS, seed=seed, basis_samples=200).render_json_line())
    rng = random.Random(f"golden {text}")
    for _ in range(WINDOW):
        p, q = _draw_pair(spec, rng)
        out.append(f"pair {p.render()} {q.render()} sep={c.separable(p, q)} witness={_r(c.witness(p, q))}")
        out.append(f"  nbhd {_r(c.basic_nbhd(p))} avoid={_r(c.basic_nbhd(p, q))}")
        if c.is_t1:
            out.append(f"  t1 {_r(c.t1_witness(p, q))} ; {_r(c.t1_witness(q, p))}")
    for _ in range(WINDOW):
        p, q = _draw_pair(spec, rng)
        o1 = c.sample_open(p, rng, BOUNDS)
        o2 = c.sample_open(p, rng, BOUNDS)
        o3 = c.refine(o1, o2, p)
        nq = c.basic_nbhd(q)
        out.append(f"refine {p.render()} {_r(o1)} ; {_r(o2)} -> {_r(o3)}")
        out.append(
            f"  contains={c.contains(o1, o3)},{c.contains(o2, o3)},{c.contains(o3, o1)},{c.contains(o1, o2)}"
            f" member={c.member(o3, q)},{c.member(o1, q)} disjoint={c.disjoint(o1, nq)},{c.disjoint(nq, o3)}"
        )
    return out


def _subbasis_lines():
    c = SubbasisExample(DEFAULT_DESIGNATED)
    out = ["== SubbasisExample", nontransitive_demo().render()]
    rng = random.Random("golden subbasis")
    for _ in range(WINDOW):
        p, q = rng.randrange(40), rng.randrange(40)
        o1 = c.sample_open(p, rng, BOUNDS)
        o2 = c.sample_open(p, rng, BOUNDS)
        o3 = c.refine(o1, o2, p)
        out.append(
            f"refine {p} {_r(o1)} ; {_r(o2)} -> {_r(o3)} contains={c.contains(o1, o3)},{c.contains(o2, o3)},"
            f"{c.contains(o3, o1)},{c.contains(o1, o2)} member={c.member(o3, q)} disjoint={c.disjoint(o1, o2)}"
        )
    return out


def golden_text() -> str:
    lines = []
    for axiom, text in SPECS:
        lines.extend(_construction_lines(axiom, REALISERS[axiom](parse_spec(text))))
    for label, cls, text, residues in SHARED_RESERVOIRS:
        lines.extend(_construction_lines(label, cls(parse_spec(text), block_residues=residues)))
    lines.extend(_subbasis_lines())
    return "\n".join(lines) + "\n"


def test_golden_outputs_unchanged():
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = fh.read().splitlines()
    got = golden_text().splitlines()
    for i, (a, b) in enumerate(zip(expected, got), start=1):
        assert b == a, f"{GOLDEN} line {i} differs"
    assert len(got) == len(expected)


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(golden_text())
