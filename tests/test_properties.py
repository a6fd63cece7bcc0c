"""Structural invariants of the interval counts on random inputs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from sumfree.enumeration import (
    build_count_record,
    count_by_largest,
    count_sum_free,
    count_sum_free_sharded,
)
from sumfree.universe import IntervalUniverse


@st.composite
def intervals(draw):
    hi = draw(st.integers(1, 24))
    return IntervalUniverse(draw(st.integers(1, hi)), hi)


shard_counts = st.sampled_from([1, 2, 4, 8, 16, 32, 64])


@settings(max_examples=60, deadline=None)
@given(intervals())
def test_histogram_sums_to_count_and_maximal_at_most_count(u):
    rec = build_count_record(u, with_maximal=True, with_cardinality=True)
    assert rec.f == count_sum_free(u)
    assert sum(rec.by_cardinality.values()) == rec.f
    assert 1 <= rec.f_max <= rec.f


@settings(max_examples=60, deadline=None)
@given(intervals(), shard_counts)
def test_shard_totals_sum_to_count(u, k):
    f = count_sum_free(u)
    assert sum(count_sum_free_sharded(u, i, k) for i in range(k)) == f
    assert sum(count_by_largest(u, k)) == f
