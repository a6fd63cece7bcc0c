import random

import pytest

from oracles import group_count_oracle, sum_free_table, two_wise_count_oracle
from sumfree.enumeration import (
    _GroupEngine,
    _IntervalEngine,
    build_count_record,
    count_by_cardinality,
    count_by_largest,
    count_maximal,
    count_sum_free,
    count_sum_free_sharded,
    count_two_wise,
    enumerate_maximal,
    enumerate_maximum,
    enumerate_naive,
    enumerate_sum_free,
)
from sumfree.errors import CapacityError
from sumfree.groups import abelian_groups_of_order, index2_subgroups, make_group
from sumfree.universe import (
    ElemSet,
    GroupUniverse,
    IntervalUniverse,
    is_maximal_sum_free,
    is_sum_free,
)


def test_naive_examples():
    u = IntervalUniverse(1, 3)
    seen = []
    assert enumerate_naive(u, seen.append) == 6
    assert {s.members() for s in seen} == {
        (), (1,), (2,), (3,), (1, 3), (2, 3),
    }
    assert enumerate_naive(IntervalUniverse(1, 1)) == 2
    z4 = GroupUniverse(make_group([4]))
    got = []
    assert enumerate_naive(z4, got.append) == 5
    assert {s.members() for s in got} == {(), (1,), (2,), (3,), (1, 3)}


def test_naive_cap():
    with pytest.raises(CapacityError):
        enumerate_naive(IntervalUniverse(1, 26))


def test_count_examples():
    assert count_sum_free(IntervalUniverse(1, 4)) == 9
    assert count_sum_free(IntervalUniverse(1, 3)) == 6
    assert count_sum_free(GroupUniverse(make_group([2, 2]))) == 7
    assert count_sum_free(GroupUniverse(make_group([]))) == 1


def test_count_matches_naive_small():
    for n in range(1, 15):
        u = IntervalUniverse(1, n)
        assert count_sum_free(u) == enumerate_naive(u)
    for order in range(1, 15):
        for g in abelian_groups_of_order(order):
            u = GroupUniverse(g)
            assert count_sum_free(u) == enumerate_naive(u)


def test_count_sub_intervals_match_naive():
    for lo in range(1, 8):
        for hi in range(lo, lo + 10):
            u = IntervalUniverse(lo, hi)
            assert count_sum_free(u) == enumerate_naive(u)


def test_enumerate_sum_free_visits_every_set_once():
    u = IntervalUniverse(1, 10)
    seen = []
    total = enumerate_sum_free(u, seen.append)
    assert total == len(seen) == count_sum_free(u)
    assert len({s.members() for s in seen}) == total
    assert all(is_sum_free(u, s) for s in seen)


def test_sharding():
    u = IntervalUniverse(1, 4)
    parts = [count_sum_free_sharded(u, i, 2) for i in range(2)]
    assert sum(parts) == 9
    for u in (
        IntervalUniverse(1, 12),
        IntervalUniverse(1, 20),
        IntervalUniverse(3, 17),
        GroupUniverse(make_group([4, 3])),
        GroupUniverse(make_group([2])),
    ):
        total = count_sum_free(u)
        for k in (1, 2, 4, 8):
            assert sum(count_sum_free_sharded(u, i, k) for i in range(k)) == total


def test_sharding_validation():
    u = IntervalUniverse(1, 6)
    with pytest.raises(ValueError):
        count_sum_free_sharded(u, 0, 3)
    with pytest.raises(ValueError):
        count_sum_free_sharded(u, 4, 4)


def test_group_counts_match_coordinate_oracle():
    for order in range(1, 25):
        for g in abelian_groups_of_order(order):
            u = GroupUniverse(g)
            got = (count_sum_free(u), count_maximal(u), count_by_cardinality(u))
            expected = group_count_oracle(g.moduli)
            assert got == expected, g.moduli
            # the branch and bound finds the top bucket of the histogram
            top = max(expected[2])
            maximum = enumerate_maximum(u)
            assert len(maximum) == expected[2][top], g.moduli
            assert {s.cardinality for s in maximum} == {top}, g.moduli


def test_count_cap():
    with pytest.raises(CapacityError):
        count_sum_free(IntervalUniverse(1, 41))
    assert count_sum_free(IntervalUniverse(1, 41), cap=41) > 0


def test_enumerate_maximum_examples():
    got = {s.members() for s in enumerate_maximum(IntervalUniverse(1, 4))}
    assert got == {(1, 3), (2, 3), (3, 4), (1, 4)}
    got = {s.members() for s in enumerate_maximum(IntervalUniverse(1, 6))}
    assert got == {(1, 3, 5), (3, 4, 5), (4, 5, 6), (2, 5, 6), (1, 4, 6)}
    got = enumerate_maximum(GroupUniverse(make_group([4])))
    assert [s.members() for s in got] == [(1, 3)]


def test_enumerate_maximum_matches_filtered_enumeration():
    for n in range(1, 15):
        u = IntervalUniverse(1, n)
        family = []
        enumerate_sum_free(u, family.append)
        best = max(s.cardinality for s in family)
        expected = {s.members() for s in family if s.cardinality == best}
        assert {s.members() for s in enumerate_maximum(u)} == expected
    for order in range(2, 15):
        for g in abelian_groups_of_order(order):
            u = GroupUniverse(g)
            family = []
            enumerate_sum_free(u, family.append)
            best = max(s.cardinality for s in family)
            expected = {s.members() for s in family if s.cardinality == best}
            assert {s.members() for s in enumerate_maximum(u)} == expected


def test_enumerate_maximum_order_64_is_the_index2_cosets():
    # the maximum is |G|/2 and the maximum sets are the nontrivial cosets
    # of the index-2 subgroups; without the matching bound Z_2^6 takes
    # over a minute
    for g in abelian_groups_of_order(64):
        got = [frozenset(s.members()) for s in enumerate_maximum(GroupUniverse(g))]
        cosets = {frozenset(range(64)) - h.members for h in index2_subgroups(g)}
        assert len(got) == len(cosets) and set(got) == cosets, g.moduli
    with pytest.raises(CapacityError):
        enumerate_maximum(GroupUniverse(make_group([5, 13])))


def _translation_pairs(u, c, x):
    """#{a in c: a + x in c}, from values (the group law by add_index)."""
    members = ElemSet(u, c).members()
    if isinstance(u, GroupUniverse):
        return sum(u.group.add_index(a, x) in members for a in members)
    return sum(a + x in members for a in members)


def _engines(max_order):
    for order in range(2, max_order + 1):
        for g in abelian_groups_of_order(order):
            yield GroupUniverse(g), _GroupEngine(g)
    for lo, hi in ((1, 12), (3, 14)):
        yield IntervalUniverse(lo, hi), _IntervalEngine(lo, hi)


def test_matching_bound_counts_translation_pairs():
    # E pairs a, a + x in C leave ceil(E/2) elements of C out, or E/2
    # when 2x = 0 and each pair is counted from both ends
    rng = random.Random(7)
    for u, engine in _engines(16):
        for slot in range(engine.first_slot, engine.first_slot + engine.ground_count):
            x = u.value_of(slot)
            involution = isinstance(u, GroupUniverse) and u.group.add_index(x, x) == 0
            for _ in range(6):
                c = rng.getrandbits(engine.ground_count) << engine.first_slot | 1 << slot
                e = _translation_pairs(u, c, x)
                assert engine.excluded(c, slot) == (e // 2 if involution else (e + 1) // 2)


def test_matching_bound_never_cuts_a_sum_free_set():
    # every sum-free A with s <= A <= C has |A| <= |C| - excluded(C, x), x in s
    rng = random.Random(11)
    for u, engine in _engines(10):
        family = []
        enumerate_sum_free(u, family.append)
        for s in rng.sample(family, min(len(family), 12)):
            for _ in range(4):
                c = s.mask | rng.getrandbits(engine.ground_count) << engine.first_slot
                best = max(a.cardinality for a in family if a.mask & ~c == 0
                           and a.mask & s.mask == s.mask)
                for x in s.members():
                    assert c.bit_count() - engine.excluded(c, u.slot_of(x)) >= best


def test_enumerate_maximal_examples():
    got = {s.members() for s in enumerate_maximal(IntervalUniverse(1, 3))}
    assert got == {(1, 3), (2, 3)}
    got = {s.members() for s in enumerate_maximal(IntervalUniverse(1, 2))}
    assert got == {(1,), (2,)}
    got = enumerate_maximal(IntervalUniverse(1, 1))
    assert [s.members() for s in got] == [(1,)]
    assert count_maximal(IntervalUniverse(1, 3)) == 2


def test_maximal_sets_verify_and_contain_maximum():
    for u in (
        IntervalUniverse(1, 12),
        GroupUniverse(make_group([12])),
        GroupUniverse(make_group([2, 2, 3])),
    ):
        maximal = enumerate_maximal(u)
        assert all(is_maximal_sum_free(u, s) for s in maximal)
        assert count_maximal(u) == len(maximal)
        maximum = {s.members() for s in enumerate_maximum(u)}
        assert maximum <= {s.members() for s in maximal}
        # every non-maximal sum-free set is excluded
        family = []
        enumerate_sum_free(u, family.append)
        expected = {s.members() for s in family if is_maximal_sum_free(u, s)}
        assert {s.members() for s in maximal} == expected


def test_count_by_cardinality_examples():
    assert count_by_cardinality(GroupUniverse(make_group([4]))) == {0: 1, 1: 3, 2: 1}
    assert count_by_cardinality(IntervalUniverse(1, 3)) == {0: 1, 1: 3, 2: 2}
    assert count_by_cardinality(IntervalUniverse(1, 1)) == {0: 1, 1: 1}
    for n in (6, 9, 13):
        u = IntervalUniverse(1, n)
        hist = count_by_cardinality(u)
        assert sum(hist.values()) == count_sum_free(u)


def test_count_two_wise_examples():
    assert count_two_wise(3) == 8
    assert count_two_wise(4) == 16
    assert count_two_wise(5) == 31
    for n in range(1, 5):
        assert count_two_wise(n) == 1 << n
    with pytest.raises(CapacityError):
        count_two_wise(19)


def test_count_two_wise_matches_oracle():
    for n in range(1, 11):
        assert count_two_wise(n) == two_wise_count_oracle(n)


def test_growth_invariants():
    prev = None
    for n in range(1, 21):
        u = IntervalUniverse(1, n)
        f = count_sum_free(u)
        if n >= 2:
            assert f > 1 << ((n + 1) // 2)
        if prev is not None:
            assert f > prev
        prev = f
        assert count_maximal(u) <= f


def test_build_count_record():
    rec = build_count_record(IntervalUniverse(1, 4), with_maximal=True,
                             with_cardinality=True, with_two_wise=True)
    assert rec.f == 9
    assert rec.f_max == 4
    assert rec.f_odd == 4
    assert rec.f_interval == 6
    assert rec.f_two_wise == 16
    assert rec.by_cardinality == {0: 1, 1: 4, 2: 4}
    rec2 = build_count_record(IntervalUniverse(1, 4), shard_count=4)
    assert rec2.f == 9
    with pytest.raises(ValueError):
        build_count_record(GroupUniverse(make_group([5])), with_two_wise=True)
    with pytest.raises(ValueError):
        build_count_record(IntervalUniverse(1, 4), shard_count=0)


def _filtered(u):
    """(count, maximal count, histogram, maximal sets) by filtering the walk."""
    family = []
    enumerate_sum_free(u, family.append)
    hist = {}
    for s in family:
        hist[s.cardinality] = hist.get(s.cardinality, 0) + 1
    maximal = {s.members() for s in family if is_maximal_sum_free(u, s)}
    return len(family), len(maximal), dict(sorted(hist.items())), maximal


def test_fused_pass_matches_filtered_enumeration():
    universes = [IntervalUniverse(lo, hi) for lo in (1, 2, 5) for hi in range(lo, 15)]
    universes += [GroupUniverse(g) for order in range(1, 17)
                  for g in abelian_groups_of_order(order)]
    for u in universes:
        f, f_max, hist, maximal = _filtered(u)
        rec = build_count_record(u, with_maximal=True, with_cardinality=True)
        assert (rec.f, rec.f_max, rec.by_cardinality) == (f, f_max, hist), u
        found = [s.members() for s in enumerate_maximal(u)]
        assert len(found) == len(maximal) and set(found) == maximal, u


def _prefix_counts(by_top):
    counts, total = [], 0
    for c in by_top:
        total += c
        counts.append(total)
    return counts


def test_single_pass_sweep_prefix_counts():
    prefix = _prefix_counts(count_by_largest(IntervalUniverse(1, 33)))
    for n in range(1, 34):
        assert prefix[n] == count_sum_free(IntervalUniverse(1, n)), n
    table = sum_free_table(20)
    for n in range(1, 21):
        assert prefix[n] == sum(table[:1 << (n + 1)]), n
    assert prefix[20] == 9583
    # sub-intervals: entry i counts the sets topped by lo + i - 1
    prefix = _prefix_counts(count_by_largest(IntervalUniverse(4, 20)))
    for hi in range(4, 21):
        assert prefix[hi - 3] == count_sum_free(IntervalUniverse(4, hi)), hi


def test_transfer_matches_fused_walk():
    # the transfer (count_sum_free, count_by_largest) against the fused
    # walk behind the maximal count, which visits sets one node at a time
    def walked(u):
        return build_count_record(u, with_maximal=True).f

    fused = {n: walked(IntervalUniverse(1, n)) for n in range(1, 31)}
    for n, f in fused.items():
        assert count_sum_free(IntervalUniverse(1, n)) == f, n
    assert count_sum_free(IntervalUniverse(1, 33)) == walked(IntervalUniverse(1, 33))
    prefix = _prefix_counts(count_by_largest(IntervalUniverse(1, 30)))
    assert prefix[1:] == [fused[n] for n in range(1, 31)]
    for hi in range(1, 21):
        for lo in range(1, hi + 1):
            u = IntervalUniverse(lo, hi)
            assert count_sum_free(u) == walked(u), (lo, hi)


def test_sharded_sweep_matches_unsharded():
    for u in (IntervalUniverse(1, 24), IntervalUniverse(3, 17), IntervalUniverse(1, 2)):
        plain = count_by_largest(u)
        for k in (2, 4, 8, 64):
            assert count_by_largest(u, k) == plain, (u, k)
    with pytest.raises(ValueError):
        count_by_largest(IntervalUniverse(1, 5), 3)
    with pytest.raises(CapacityError):
        count_by_largest(IntervalUniverse(1, 41))


def test_orbit_counts_match_plain_shards():
    # the shards walk every set from the empty root; Z_2^5 and Z_4 x Z_2^3
    # take seconds that way, and their generators are those of Z_2^4 and
    # Z_4 x Z_2^2, which the coordinate oracle covers
    for order in range(25, 33):
        for g in abelian_groups_of_order(order):
            if g.moduli in ((2, 2, 2, 2, 2), (4, 2, 2, 2)):
                continue
            u = GroupUniverse(g)
            shards = [count_sum_free_sharded(u, i, 2) for i in range(2)]
            assert count_sum_free(u) == sum(shards), g.moduli
