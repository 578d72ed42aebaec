"""Golden catalogs, pinned byte for byte.

The expected file holds ``render_catalog`` for n = 0..5 in four variants:
labelled, T0 only, up to isomorphism, and T0 only up to isomorphism.
Counts, codes, flags and the example column must all stay unchanged by any
rework of the enumeration layer.  Regenerate (only for a deliberate change
of outputs) with

    PYTHONPATH=src python tests/test_catalog_golden.py
"""

import os

from diagclosure.enumeration import build_catalog, render_catalog

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "catalogs.txt")

VARIANTS = (
    ("plain", {}),
    ("t0", {"t0_only": True}),
    ("iso", {"up_to_iso": True}),
    ("t0+iso", {"t0_only": True, "up_to_iso": True}),
)
SIZES = range(6)


def golden_text() -> str:
    parts = []
    for name, kwargs in VARIANTS:
        for n in SIZES:
            parts.append(f"== {name} n={n}\n")
            parts.append(render_catalog(build_catalog(n, **kwargs)))
    return "".join(parts)


def test_golden_catalogs_unchanged():
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
