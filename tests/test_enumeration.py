import math
import random
import tracemalloc

import pytest

from oracles import (
    group_count_oracle,
    interval_tally_oracle,
    sum_free_table,
    two_wise_count_oracle,
    two_wise_split_walk,
)
import sumfree._group_walkers
import sumfree.enumeration
from sumfree._group_walkers import _orbit_tally
from sumfree._interval_walkers import _interval_walk
from sumfree.enumeration import (
    _maximum,
    _tally,
    _walk,
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
    maximal_sets_of_size,
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
    # the oracle steps through the ground's subset masks in ascending order
    for u in (IntervalUniverse(3, 14), GroupUniverse(make_group([4, 2]))):
        naive, walked = [], []
        enumerate_naive(u, lambda s: naive.append(s.mask))
        enumerate_sum_free(u, lambda s: walked.append(s.mask))
        assert naive == sorted(walked)


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
    assert all(is_sum_free(s) for s in seen)
    # a visit that returns True still sees every set
    assert enumerate_sum_free(u, lambda s: True) == total


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


def test_count_cap(monkeypatch):
    with pytest.raises(CapacityError):
        count_sum_free(IntervalUniverse(1, 41))
    monkeypatch.setattr(sumfree.enumeration, "DEFAULT_GROUND_CAP", 41)
    assert count_sum_free(IntervalUniverse(1, 41)) > 0


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
        cosets = {frozenset(range(64)) - set(h.members()) for h in index2_subgroups(g)}
        assert len(got) == len(cosets) and set(got) == cosets, g.moduli
    with pytest.raises(CapacityError):
        enumerate_maximum(GroupUniverse(make_group([5, 13])))


def test_maximum_witness_is_the_first_maximum_set():
    # with slack 1 the search drops ties and finds one witness; the list
    # keeps them all: on an even order, the nontrivial cosets of the
    # index-2 subgroups
    for order in range(1, 33):
        for g in abelian_groups_of_order(order):
            u = GroupUniverse(g)
            maxima = enumerate_maximum(u)
            assert _maximum(u, 1) == maxima[:1], g.moduli
            if order % 2 == 0:
                cosets = {frozenset(range(order)) - set(h.members())
                          for h in index2_subgroups(g)}
                assert {frozenset(s.members()) for s in maxima} == cosets, g.moduli
    for n in range(1, 21):
        u = IntervalUniverse(1, n)
        assert _maximum(u, 1) == enumerate_maximum(u)[:1], n


def _translation_pairs(u, c, x):
    """#{a in c: a + x in c}, from values (the group law by add_index)."""
    members = ElemSet(u, c).members()
    if isinstance(u, GroupUniverse):
        return sum(u.group.add_index(a, x) in members for a in members)
    return sum(a + x in members for a in members)


def _universes(max_order):
    for order in range(2, max_order + 1):
        for g in abelian_groups_of_order(order):
            yield GroupUniverse(g)
    for lo, hi in ((1, 12), (3, 14)):
        yield IntervalUniverse(lo, hi)


def test_forbid_marks_exactly_the_candidates_that_break_sum_freeness():
    # s grows by forbid steps from the empty set, in any order in a group and
    # ascending in an interval, as the walks take them; then a candidate x
    # (in an interval, above max s) is in f exactly when s | {x} is not sum-free
    rng = random.Random(13)
    for u in _universes(16):
        slots = range(u.first_slot, u.first_slot + u.ground_size)
        for _ in range(8):
            s = f = 0
            while True:
                top = s.bit_length() if isinstance(u, IntervalUniverse) else 0
                candidates = [x for x in slots if x >= top and not s >> x & 1]
                for x in candidates:
                    blocked = not is_sum_free(ElemSet(u, s | 1 << x))
                    assert bool(f >> x & 1) == blocked, (u.describe(), s, x)
                free = [x for x in candidates if not f >> x & 1]
                if not free:
                    break
                slot = rng.choice(free)
                s, f = s | 1 << slot, u.forbid(s, f, slot)


def test_matching_bound_counts_translation_pairs():
    # E pairs a, a + x in C leave ceil(E/2) elements of C out, or E/2
    # when 2x = 0 and each pair is counted from both ends
    rng = random.Random(7)
    for u in _universes(16):
        for slot in range(u.first_slot, u.first_slot + u.ground_size):
            x = u.value_of(slot)
            involution = isinstance(u, GroupUniverse) and u.group.add_index(x, x) == 0
            for _ in range(6):
                c = rng.getrandbits(u.ground_size) << u.first_slot | 1 << slot
                e = _translation_pairs(u, c, x)
                assert u.excluded(c, slot) == (e // 2 if involution else (e + 1) // 2)


def test_matching_bound_never_cuts_a_sum_free_set():
    # every sum-free A with s <= A <= C has |A| <= |C| - excluded(C, x), x in s
    rng = random.Random(11)
    for u in _universes(10):
        family = []
        enumerate_sum_free(u, family.append)
        for s in rng.sample(family, min(len(family), 12)):
            for _ in range(4):
                c = s.mask | rng.getrandbits(u.ground_size) << u.first_slot
                best = max(a.cardinality for a in family if a.mask & ~c == 0
                           and a.mask & s.mask == s.mask)
                for x in s.members():
                    assert c.bit_count() - u.excluded(c, u.slot_of(x)) >= best


def test_maximal_sets_of_size_refuses_intervals():
    # an interval's forbidden mask holds only the sums above s, not the
    # differences and halves the maximality test reads
    with pytest.raises(TypeError, match="needs a group universe"):
        maximal_sets_of_size(IntervalUniverse(1, 5), 2)
    got = [s.members() for s in maximal_sets_of_size(GroupUniverse(make_group([5])), 2)]
    assert got == [(1, 4), (2, 3)]


def test_maximal_sets_of_size_bounds_its_input():
    with pytest.raises(ValueError, match="size must be >= 0"):
        maximal_sets_of_size(GroupUniverse(make_group([29])), -1)
    # past order // 2 (A and A + a are disjoint), or past the cover bound at
    # the root, no walk runs: at once even on order 64
    for moduli, size in (([5], 3), ([64], 33), ([2] * 6, 40), ([64], 3), ([2] * 6, 3)):
        u = GroupUniverse(make_group(moduli))
        assert maximal_sets_of_size(u, size) == [], (moduli, size)
    assert [s.members() for s in maximal_sets_of_size(GroupUniverse(make_group([])), 0)] == [()]


def test_maximal_scan_refuses_exactly_the_groups_past_its_cover_bound():
    # a member b joining j members covers at most 3j + 2 elements and the
    # |G[2]| halves of b if b is one of the |2G| - 1 nonzero elements of 2G,
    # so a group of more than sum_{j < size} (3j + 2) + |G[2]| *
    # min(size, |2G| - 1) nonzero elements has no maximal set of that size,
    # and (like a size past order // 2) it never builds its translation
    # tables; Z_4 x Z_3 (size 2) and Z_19 (size 3) sit on the bound
    on_bound = set()
    for order in range(2, 65):
        for g in abelian_groups_of_order(order):
            torsion = 1 << sum(m % 2 == 0 for m in g.moduli)
            for size in (1, 2, 3):
                u = GroupUniverse(g)
                found = maximal_sets_of_size(u, size)
                budget = sum(3 * j + 2 for j in range(size)) + torsion * min(
                    size, order // torsion - 1)
                walked = size <= order // 2 and order - 1 <= budget
                assert ("_plans" in vars(u)) == walked, (g.moduli, size)
                assert order - 1 <= budget or not found
                if order - 1 == budget:
                    on_bound.add((g.moduli, size))
    assert {((4, 3), 2), ((19,), 3)} <= on_bound


def test_maximal_scans_match_the_predicate_past_order_24():
    for order in range(25, 33):
        for g in abelian_groups_of_order(order):
            u = GroupUniverse(g)
            singles = [1 << x for x in range(1, order)]
            pairs = [1 << x | 1 << y for x in range(1, order) for y in range(x + 1, order)]
            for size, sets in ((1, singles), (2, pairs)):
                expected = sorted(m for m in sets if is_maximal_sum_free(ElemSet(u, m)))
                got = [s.mask for s in maximal_sets_of_size(u, size)]
                assert got == expected, (g.moduli, size)


def test_counting_walk_steps_cells_and_strides_maximal_sets():
    # a counting walk files each set at the sum of its members' steps, plus
    # the stride if it is maximal in the whole ground; walked here in part
    # of the ground, against a visit that works the cell out per set
    for order in range(2, 17):
        for g in abelian_groups_of_order(order):
            u = GroupUniverse(g)
            whole = u.ground_mask
            # a set maximal in this ground but not in the whole one gets no stride
            ground = whole & ~(1 << order - 1)
            steps = [(7 * y) % 11 + 1 for y in range(order)]
            stride = 11 * order
            expected = [0] * (2 * stride)

            def visit(s, forbidden):
                cell = sum(steps[y] for y in range(order) if s >> y & 1)
                expected[cell + stride * (not whole & ~(s | forbidden))] += 1

            _walk(u.forbid, visit, ground, 0, 0, 0, True)
            for stride_used in (0, stride):
                counts = [0] * (2 * stride)
                _walk(u.forbid, None, ground, 0, 0, 0, counts=counts, steps=steps,
                      stride=stride_used, whole=whole)
                if stride_used:
                    assert counts == expected, g.moduli
                else:  # no stride: maximal or not, a set stays at its members' cell
                    assert counts[:stride] == [a + b for a, b in zip(expected[:stride],
                                                                   expected[stride:])]


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
        assert all(is_maximal_sum_free(s) for s in maximal)
        assert count_maximal(u) == len(maximal)
        maximum = {s.members() for s in enumerate_maximum(u)}
        assert maximum <= {s.members() for s in maximal}
        # every non-maximal sum-free set is excluded
        family = []
        enumerate_sum_free(u, family.append)
        expected = {s.members() for s in family if is_maximal_sum_free(s)}
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


def test_count_two_wise_matches_split_walk():
    # past the submask oracle's reach, the walk over the splits is the second algorithm
    for n in range(1, 17):
        assert count_two_wise(n) == two_wise_split_walk(n), n


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
    rec3 = build_count_record(IntervalUniverse(1, 4), with_maximal=True, shard_count=4)
    assert (rec3.f, rec3.f_max, rec3.shard_count) == (9, 4, 4)
    with pytest.raises(ValueError):
        build_count_record(GroupUniverse(make_group([5])), with_two_wise=True)
    with pytest.raises(ValueError):
        build_count_record(IntervalUniverse(1, 4), shard_count=0)


def test_sharded_count_checked_against_the_fused_count(monkeypatch):
    sharded = sumfree.enumeration.count_sum_free_sharded

    def off_by_one(u, i, k):
        return sharded(u, i, k) + (i == 0)

    monkeypatch.setattr(sumfree.enumeration, "count_sum_free_sharded", off_by_one)
    for flags in ({"with_maximal": True}, {"with_cardinality": True}):
        with pytest.raises(RuntimeError, match="the 4 shards total 1955, the fused count is 1954"):
            build_count_record(IntervalUniverse(1, 16), shard_count=4, **flags)
    # unfused, the shard total is the count
    assert build_count_record(IntervalUniverse(1, 16), shard_count=4).f == 1955


def _filtered(u):
    """(count, maximal count, histogram, maximal sets) by filtering the walk."""
    family = []
    enumerate_sum_free(u, family.append)
    hist = {}
    for s in family:
        hist[s.cardinality] = hist.get(s.cardinality, 0) + 1
    maximal = {s.members() for s in family if is_maximal_sum_free(s)}
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


def test_orbit_tally_matches_plain_walk():
    # orders 17-31, past the filtered enumeration: the orbit tally and the
    # maximal listings against one uncut _walk, which makes one node per set
    for order in range(17, 32):
        for g in abelian_groups_of_order(order):
            u = GroupUniverse(g)
            ground = u.ground_mask
            hist = [0] * (order + 1)
            maximal = []

            def visit(s, forbidden):
                hist[s.bit_count()] += 1
                if not ground & ~(s | forbidden):
                    maximal.append(s)

            f = _walk(u.forbid, visit, ground, 0, 0, 0, True)
            hist = {k: c for k, c in enumerate(hist) if c}
            assert _tally(u) == (f, len(maximal), hist), g.moduli
            # the same sets in the same, ascending lexicographic, order
            assert [s.mask for s in enumerate_maximal(u)] == maximal, g.moduli
            for size in (1, 2, 3):
                got = [s.mask for s in maximal_sets_of_size(u, size)]
                assert got == [s for s in maximal if s.bit_count() == size], (g.moduli, size)


def test_orbit_tally_files_the_empty_set_of_the_trivial_group():
    # the empty set is the only sum-free set of the trivial group, and it
    # is maximal there: entry 2k + x, with x = 0 unless maximality is asked
    u = GroupUniverse(make_group([]))
    assert _orbit_tally(u, False) == [1, 0]
    assert _orbit_tally(u, True) == [0, 1]


def test_orbit_tally_checks_each_division(monkeypatch):
    # an orbit split in two is no orbit: the sets rooted at one of its
    # halves do not divide evenly among its elements
    orbits = sumfree._group_walkers._orbits
    for moduli, message in (
        ([7], r"\(7,\): 1 sum-free sets hold \(1,\) and 2 of the 3 elements of its block: "
              r"3 \* 1 is not a multiple of 2"),
        ([4, 4], r"\(4, 4\): 1 sum-free sets hold \(1, 4\) and 3 of the 8 elements of its "
                 r"block: 8 \* 1 is not a multiple of 3"),
    ):
        g = make_group(moduli)

        def split(gens, elements):
            blocks = orbits(gens, elements)
            if gens is not g.automorphisms:  # a stabiliser's: below the empty set
                return blocks
            first, *rest = blocks
            return (first[:len(first) // 2], first[len(first) // 2:], *rest)

        monkeypatch.setattr(sumfree._group_walkers, "_orbits", split)
        with pytest.raises(RuntimeError, match=message):
            _orbit_tally(GroupUniverse(g), False)


def test_orbit_tally_is_exact_on_any_stabiliser_subgroup(monkeypatch):
    # the rooting is exact for any group of automorphisms that fix the
    # rooted set, so the generator cap can cost speed but not the count:
    # cut the stabiliser's generators to the first one, then to none, at
    # every level, against one uncut _walk
    stabiliser = sumfree._group_walkers._stabiliser
    for moduli in ([2, 2, 2, 2], [4, 2, 2], [3, 3], [4, 4]):
        u = GroupUniverse(make_group(moduli))
        ground = u.ground_mask
        plain = [0] * (2 * u.group.order)

        def visit(s, forbidden):
            plain[2 * s.bit_count() + (not ground & ~(s | forbidden))] += 1

        _walk(u.forbid, visit, ground, 0, 0, 0, True)
        merged = [c for k in range(u.group.order) for c in (plain[2 * k] + plain[2 * k + 1], 0)]
        for keep in (1, 0):
            cut = []

            def fewer(gens, q):
                full = stabiliser(gens, q)
                cut.append(len(full) > keep)
                return full[:keep]

            monkeypatch.setattr(sumfree._group_walkers, "_stabiliser", fewer)
            assert _orbit_tally(u, True) == plain, (moduli, keep)
            assert _orbit_tally(u, False) == merged, (moduli, keep)
            assert any(cut), (moduli, keep)  # the cut dropped generators


def test_orbit_tally_memory_is_bounded():
    # a rooting step holds only the cells its sets reach: as dense lists,
    # the index spaces of Z_8 x Z_2 x Z_2's nested steps pass 512 KB
    for moduli, f in (([4, 4, 2], 509826), ([8, 2, 2], 531234)):
        u = GroupUniverse(make_group(moduli))
        tracemalloc.start()
        try:
            tally = _orbit_tally(u, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(tally) == f, moduli
        assert peak < 512 << 10, (moduli, peak)


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


def test_transfer_matches_plain_walk():
    # the transfer (count_sum_free, count_by_largest, the packed histogram)
    # against _walk, which makes one node per set and shares nothing with it;
    # the sets of [1, n] are the sets of [1, 33] with largest element <= n
    u = IntervalUniverse(1, 33)
    tally = [[0] * 35 for _ in range(34)]  # [largest element][cardinality]

    def visit(s, _):
        tally[s.bit_length()][s.bit_count()] += 1

    _walk(u.forbid, visit, u.ground_mask, 0, 0, 0)
    assert count_by_largest(u) == [sum(row) for row in tally]
    hist = [0] * 35
    for n in range(34):
        hist = [a + b for a, b in zip(hist, tally[n])]
        if n:
            assert count_sum_free(IntervalUniverse(1, n)) == sum(hist), n
        if n in (20, 30, 33):
            rec = build_count_record(IntervalUniverse(1, n), with_cardinality=True)
            assert rec.by_cardinality == {k: c for k, c in enumerate(hist) if c}, n


def test_interval_tally_matches_oracle():
    windows = [(lo, hi) for hi in range(1, 21) for lo in range(1, hi + 1)]
    for lo, hi in windows + [(1, n) for n in range(21, 25)]:
        u = IntervalUniverse(lo, hi)
        f, f_max, hist, maximal = interval_tally_oracle(lo, hi)
        rec = build_count_record(u, with_maximal=True, with_cardinality=True)
        assert (rec.f, rec.f_max, rec.by_cardinality) == (f, f_max, hist), (lo, hi)
        assert count_sum_free(u) == f, (lo, hi)
        # the same sets in the same, ascending lexicographic, order
        assert [s.members() for s in enumerate_maximal(u)] == maximal, (lo, hi)


def test_sharded_sweep_matches_unsharded():
    # entry by entry, the shards' counts by largest element add up to the sweep's
    for u in (IntervalUniverse(1, 24), IntervalUniverse(3, 17), IntervalUniverse(1, 2)):
        plain = count_by_largest(u)
        for k in (2, 4, 8, 64):
            shards = [_interval_walk(u, i, k) for i in range(k)]
            assert [sum(column) for column in zip(*shards)] == plain, (u, k)
    with pytest.raises(ValueError):
        count_sum_free_sharded(IntervalUniverse(1, 5), 0, 3)
    with pytest.raises(CapacityError):
        count_by_largest(IntervalUniverse(1, 41))
    with pytest.raises(TypeError, match=r"interval universe, got group\[5\]"):
        count_by_largest(GroupUniverse(make_group([5])))


def test_root_count_grows_with_the_ground():
    # from n = 30 on the transfer runs from more than 8 roots (64 at n = 30
    # and 33, 128 at n = 35); shard i still joins the roots = i (mod shards)
    for n, f in ((30, 415_543), (33, 1_311_244), (35, 2_630_061)):
        u = IntervalUniverse(1, n)
        plain = count_by_largest(u)
        assert sum(plain) == f, n
        for k in (1, 8, 64):
            shards = [_interval_walk(u, i, k) for i in range(k)]
            assert [sum(column) for column in zip(*shards)] == plain, (n, k)


def test_wide_windows_match_closed_forms():
    # below 2 * lo no two members sum inside the window, so every subset is
    # sum-free; at hi = 2 * lo the one sum is lo + lo, so a set fails exactly
    # when it holds lo and 2 * lo: f = 3 * 2^(size - 2), with the window
    # minus lo and minus 2 * lo the maximal sets
    for lo, hi in ((13, 25), (20, 39), (33, 50), (40, 79), (13, 26), (20, 40), (25, 50)):
        u, size = IntervalUniverse(lo, hi), hi - lo + 1
        rec = build_count_record(u, with_maximal=True, with_cardinality=True)
        if hi < 2 * lo:
            assert count_by_largest(u) == [1] + [1 << i for i in range(size)], (lo, hi)
            hist = {k: math.comb(size, k) for k in range(size + 1)}
            assert (rec.f, rec.f_max, rec.by_cardinality) == (1 << size, 1, hist), (lo, hi)
        else:
            hist = {k: c for k in range(size + 1)
                    if (c := math.comb(size, k) - (math.comb(size - 2, k - 2) if k > 1 else 0))}
            assert (rec.f, rec.f_max, rec.by_cardinality) == (3 << size - 2, 2, hist), (lo, hi)
        for k in (2, 8, 64):
            total = sum(count_sum_free_sharded(u, i, k) for i in range(k))
            assert total == rec.f, (lo, hi, k)


def test_windows_far_from_one_build_window_wide_masks():
    # every sum of two members of [lo, lo + 3] lies above the window, so all
    # 16 subsets are sum-free and the whole window is the one maximal (and
    # maximum) set; shifted by the value, each mask would be lo bits wide
    lo = 10 ** 8
    u = IntervalUniverse(lo, lo + 3)
    window = tuple(range(lo, lo + 4))
    calls = (
        (lambda: count_sum_free(u), 16),
        (lambda: count_maximal(u), 1),
        (lambda: [s.members() for s in enumerate_maximum(u)], [window]),
        (lambda: [s.members() for s in enumerate_maximal(u)], [window]),
        (lambda: is_maximal_sum_free(ElemSet(u, 0b1)), False),
    )
    for call, expected in calls:
        tracemalloc.start()
        try:
            got = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == expected
        assert peak < 1 << 20, (expected, peak)


def test_orbit_counts_match_plain_shards():
    # the shards walk every set from the empty root
    for order in range(25, 33):
        for g in abelian_groups_of_order(order):
            u = GroupUniverse(g)
            shards = [count_sum_free_sharded(u, i, 2) for i in range(2)]
            assert count_sum_free(u) == sum(shards), g.moduli
