"""Structural invariants of the counts and the mask predicates on random inputs."""

import json
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sumfree._interval_walkers import _interval_walk
from sumfree.enumeration import (
    build_count_record,
    count_by_largest,
    count_sum_free,
    count_sum_free_sharded,
)
from sumfree.groups import GroupSpec
from sumfree.universe import (
    ElemSet,
    GroupUniverse,
    IntervalUniverse,
    count_schur_triples,
    is_a_free,
    is_difference_free,
    is_maximal_sum_free,
    is_sum_free,
    is_two_wise_sum_free,
)


@st.composite
def intervals(draw):
    hi = draw(st.integers(1, 24))
    return IntervalUniverse(draw(st.integers(1, hi)), hi)


shard_counts = st.sampled_from([1, 2, 4, 8, 16, 32, 64])
groups = st.lists(st.integers(2, 6), min_size=1, max_size=3).map(
    lambda moduli: GroupSpec(tuple(moduli)))


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
    shards = [_interval_walk(u, i, k) for i in range(k)]
    assert [sum(column) for column in zip(*shards)] == count_by_largest(u)


def _coords(moduli, index):
    out = []
    for m in moduli:
        index, x = divmod(index, m)
        out.append(x)
    return out


def _index(moduli, coords):
    index = 0
    for m, x in zip(reversed(moduli), reversed(coords)):
        index = index * m + x
    return index


@settings(max_examples=200, deadline=None)
@given(groups, st.data())
def test_translate_is_the_coordinatewise_image(g, data):
    n = g.order
    mask = data.draw(st.integers(0, (1 << n) - 1))
    v = _coords(g.moduli, data.draw(st.integers(0, n - 1)))
    image = 0
    for i in range(n):
        if mask >> i & 1:
            c = [(x + y) % m for x, y, m in zip(_coords(g.moduli, i), v, g.moduli)]
            image |= 1 << _index(g.moduli, c)
    assert g.translate(mask, _index(g.moduli, v)) == image


small_universes = st.one_of(
    st.integers(1, 30).flatmap(lambda hi: st.integers(1, hi).map(
        lambda lo: IntervalUniverse(lo, hi))),
    groups.map(GroupUniverse),
)


def _small_set(draw, u):
    values = list(u.ground_values()) + ([0] if isinstance(u, GroupUniverse) else [])
    return ElemSet.from_values(u, draw(st.lists(st.sampled_from(values), max_size=9,
                                                unique=True)))


@st.composite
def small_sets(draw):
    u = draw(small_universes)
    return u, _small_set(draw, u)


def _pairs_summing_inside(u, s):
    members = s.members()
    sums = (u.sum_value(x, y) for x, y in product(members, members))
    return sum(1 for v in sums if v is not None and v in s)


@settings(max_examples=300, deadline=None)
@given(small_sets())
def test_mask_predicates_match_pairwise_scans(us):
    u, s = us
    sf = is_difference_free(s)
    triples = _pairs_summing_inside(u, s)
    assert is_sum_free(s) == sf == (triples == 0)
    assert count_schur_triples(s) == triples
    extensible = [g for g in u.ground_values()
                  if g not in s and is_difference_free(s.with_value(g))]
    assert is_maximal_sum_free(s) == (sf and not extensible)
    members = s.members()
    splits = (
        [[x for x, side in zip(members, sides) if side == part] for part in (0, 1)]
        for sides in product((0, 1), repeat=len(members))
    )
    two_wise = any(all(is_difference_free(ElemSet.from_values(u, part)) for part in split)
                   for split in splits)
    assert is_two_wise_sum_free(s) == two_wise


@settings(max_examples=200, deadline=None)
@given(small_sets(), st.data())
def test_a_free_matches_the_pairwise_scan(us, data):
    u, s = us
    a = _small_set(data.draw, u)
    assume(a != s)
    sums = (u.sum_value(x, y) for x, y in product(a.members(), s.members()))
    assert is_a_free(s, a) == all(v is None or v not in s for v in sums)


@settings(max_examples=200, deadline=None)
@given(small_universes, st.randoms(use_true_random=False))
def test_greedily_grown_sets_are_maximal(u, rnd):
    order = list(u.ground_values())
    rnd.shuffle(order)
    s = ElemSet.empty(u)
    for v in order:
        if is_difference_free(s.with_value(v)):
            s = s.with_value(v)
    assert is_maximal_sum_free(s)
    for v in s:  # s less one member extends by that member
        assert not is_maximal_sum_free(ElemSet(u, s.mask ^ 1 << u.slot_of(v)))


@st.composite
def value_lists(draw):
    """A universe, values drawn from it (some repeated) and one value outside
    it.  Intervals reach 2^20 elements, so that ElemSet's masks run from
    one machine word to many thousands."""
    if draw(st.booleans()):
        hi = draw(st.integers(1, 1 << 20))
        u = IntervalUniverse(draw(st.integers(1, hi)), hi)
        first, last = u.lo, u.hi
    else:
        u = draw(groups.map(GroupUniverse))
        first, last = 0, u.group.order - 1
    values = draw(st.lists(st.integers(first, last), max_size=40))
    outside = draw(st.integers(max_value=first - 1) | st.integers(min_value=last + 1))
    return u, values, outside


@settings(max_examples=200, deadline=None)
@given(value_lists())
@example((IntervalUniverse(1, 1 << 20), [1, 3000, 1 << 20, 3000], 0))
@example((IntervalUniverse(1, 18), [1, 3, 5, 18, 3], 19))
def test_elemset_round_trips(case):
    u, values, outside = case
    s = ElemSet.from_values(u, values)
    assert list(s.members()) == sorted(set(values))
    assert ElemSet.from_values(u, json.loads(json.dumps(s.to_json_list()))) == s
    with pytest.raises(ValueError):
        ElemSet.from_values(u, values + [outside])
