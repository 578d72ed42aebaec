"""The summary counts by arithmetic, against the catalog walk and the
reference closed forms."""

import pytest
from reference import bell, iso_closure_count, labelled_closure_count

from diagclosure import counting, enumeration


@pytest.mark.parametrize("up_to_iso", [False, True], ids=["labelled", "iso"])
def test_summary_by_arithmetic_equals_the_walk(up_to_iso):
    # one walk per size: the T0 summary reads the same counts
    for n in range(8):
        counts = enumeration._closures(n, up_to_iso)
        for t0_only in (False, True):
            topologies, _, nontransitive = enumeration._totals(counts, t0_only)
            assert counting.summary(n, t0_only, up_to_iso) == (topologies, len(counts), nontransitive), (n, t0_only)


def test_closed_forms_equal_the_reference():
    # no label recursion here: at n >= 9 it takes seconds
    for n in range(11):
        assert counting.bell(n) == bell(n), n
        assert counting.closure_counts(n) == (labelled_closure_count(n), labelled_closure_count(n) - bell(n)), n
        assert counting.closure_counts(n, up_to_iso=True) == iso_closure_count(n), n


def test_enumeration_counts_with_the_moved_recursion():
    # the names stay importable from enumeration, as the same objects
    assert enumeration._count_below is counting._count_below
    assert enumeration.SOFT_LIMIT == counting.SOFT_LIMIT == 7
