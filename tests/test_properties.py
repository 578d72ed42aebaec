"""Property tests: code and catalog round trips, and canonical-code invariance."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

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
from diagclosure.relations import FiniteRelation

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
    hex_codes = st.integers(0, 2**15 - 1).map(lambda v: format(v, "x"))
    counts = st.integers(0, 10**6)
    record = st.builds(CatalogRecord, st.just(n), hex_codes, counts, counts, st.booleans(), st.booleans(), hex_codes)
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
