import random
import time

import pytest

from oracles import two_wise_backtrack
from sumfree.enumeration import enumerate_sum_free
from sumfree.errors import DEFAULT_MAX_ORDER, CapacityError
from sumfree.groups import GroupSpec, abelian_groups_of_order
from sumfree.universe import (
    ElemSet,
    GroupUniverse,
    IntervalUniverse,
    _blocks,
    _positions,
    count_schur_triples,
    is_a_free,
    is_difference_free,
    is_maximal_sum_free,
    is_sum_free,
    is_two_wise_sum_free,
)


def _iset(lo, hi, values):
    u = IntervalUniverse(lo, hi)
    return u, ElemSet.from_values(u, values)


def test_universe_validation():
    with pytest.raises(ValueError):
        IntervalUniverse(0, 5)
    with pytest.raises(ValueError):
        IntervalUniverse(4, 3)
    u = IntervalUniverse(2, 9)
    assert u.ground_size == 8
    with pytest.raises(ValueError):
        ElemSet.from_values(u, [1])
    g = GroupUniverse(GroupSpec((4,)))
    assert g.ground_size == 3
    with pytest.raises(ValueError):
        ElemSet.from_values(g, [4])


def test_interval_universe_refuses_more_elements_than_the_cap():
    assert IntervalUniverse(7, DEFAULT_MAX_ORDER + 6).ground_size == DEFAULT_MAX_ORDER
    for lo, hi in ((1, DEFAULT_MAX_ORDER + 1), (10, DEFAULT_MAX_ORDER + 10), (1, 10 ** 14)):
        with pytest.raises(CapacityError) as info:
            IntervalUniverse(lo, hi)
        size = hi - lo + 1
        assert str(info.value) == (f"interval[{lo},{hi}] has {size} elements, "
                                   f"cap is {DEFAULT_MAX_ORDER}")


def test_universe_mismatch_error():
    _, s = _iset(1, 4, [1, 4])
    _, a = _iset(1, 5, [1])
    with pytest.raises(ValueError, match=r"interval\[1,4\] and interval\[1,5\]"):
        is_a_free(s, a)


def test_elemset_basics():
    u, s = _iset(1, 10, [3, 1, 7])
    assert s.members() == (1, 3, 7)
    assert s.cardinality == 3 and len(s) == 3
    assert 3 in s and 4 not in s and 99 not in s
    assert s.with_value(4).members() == (1, 3, 4, 7)
    assert s.to_json_list() == [1, 3, 7]
    assert list(s) == [1, 3, 7]


def test_is_sum_free_examples():
    _, s = _iset(1, 4, [1, 4])
    assert is_sum_free(s)
    _, s = _iset(1, 4, [1, 2])
    assert not is_sum_free(s)
    g = GroupUniverse(GroupSpec((4,)))
    assert not is_sum_free(ElemSet.from_values(g, [0]))
    assert is_sum_free(ElemSet.empty(g))


def test_is_a_free_examples():
    u = IntervalUniverse(1, 5)
    s = ElemSet.from_values(u, [2, 5])
    assert not is_a_free(s, ElemSet.from_values(u, [3]))  # 2 + 3 = 5
    assert is_a_free(s, ElemSet.empty(u))
    # a = s is plain sum-freeness
    rng = random.Random(99)
    for _ in range(500):
        vals = [v for v in range(1, 13) if rng.random() < 0.4]
        t = ElemSet.from_values(IntervalUniverse(1, 12), vals)
        assert is_a_free(t, t) == is_sum_free(t)


def test_is_difference_free_examples():
    u, s = _iset(1, 4, [1, 4])
    assert is_difference_free(s)
    u, s = _iset(1, 4, [1, 2])
    assert not is_difference_free(s)
    u = IntervalUniverse(1, 9)
    assert is_difference_free(ElemSet.empty(u))


def test_schur_triples_examples():
    u, s = _iset(1, 3, [1, 2, 3])
    assert count_schur_triples(s) == 3  # (1,1,2), (1,2,3), (2,1,3)
    assert count_schur_triples(ElemSet.empty(u)) == 0
    u, s = _iset(1, 9, [1, 3, 5])
    assert count_schur_triples(s) == 0


def _random_universes():
    universes = [IntervalUniverse(1, 16)]
    for order in range(2, 17):
        universes += [GroupUniverse(g) for g in abelian_groups_of_order(order)]
    return universes


def test_equivalence_of_the_three_characterizations():
    rng = random.Random(7)
    u16 = IntervalUniverse(1, 16)
    samples = [(u16, 10_000)] + [(u, 300) for u in _random_universes()[1:]]
    for u, count in samples:
        values = list(u.ground_values())
        for _ in range(count):
            picked = [v for v in values if rng.random() < 0.35]
            s = ElemSet.from_values(u, picked)
            sf = is_sum_free(s)
            assert sf == is_difference_free(s)
            assert sf == (count_schur_triples(s) == 0)


def test_equivalence_exhaustive_small():
    universes = [IntervalUniverse(1, 12)]
    for order in range(2, 11):
        universes += [GroupUniverse(g) for g in abelian_groups_of_order(order)]
    for u in universes:
        values = list(u.ground_values())
        for pattern in range(1 << len(values)):
            picked = [values[j] for j in range(len(values)) if (pattern >> j) & 1]
            s = ElemSet.from_values(u, picked)
            sf = is_sum_free(s)
            assert sf == is_difference_free(s)
            assert sf == (count_schur_triples(s) == 0)


def test_downward_and_intersection_closure():
    u = IntervalUniverse(1, 14)
    family = []
    enumerate_sum_free(u, family.append)
    rng = random.Random(11)
    for _ in range(400):
        s = rng.choice(family)
        sub = ElemSet.from_values(u, [v for v in s.members() if rng.random() < 0.5])
        assert is_sum_free(sub)
        a, b = rng.choice(family), rng.choice(family)
        inter = ElemSet.from_values(u, set(a.members()) & set(b.members()))
        assert is_sum_free(inter)


def test_is_maximal_examples():
    u = IntervalUniverse(1, 3)
    assert is_maximal_sum_free(ElemSet.from_values(u, [2, 3]))
    assert not is_maximal_sum_free(ElemSet.from_values(u, [1]))  # {1,3} extends it
    for n in range(2, 41):
        un = IntervalUniverse(1, n)
        odd = ElemSet.from_values(un, range(1, n + 1, 2))
        assert is_maximal_sum_free(odd)
    # masks many machine words wide
    wide = IntervalUniverse(1, 5000)
    odd = range(1, 5001, 2)
    assert is_maximal_sum_free(ElemSet.from_values(wide, odd))
    assert not is_maximal_sum_free(ElemSet.from_values(wide, set(odd) - {2501}))
    z = GroupUniverse(GroupSpec((3000,)))
    assert is_maximal_sum_free(ElemSet.from_values(z, range(1001, 2001)))
    assert not is_maximal_sum_free(ElemSet.from_values(z, range(1001, 2000)))
    # non-sum-free sets are never maximal
    assert not is_maximal_sum_free(ElemSet.from_values(u, [1, 2]))


def test_two_wise_examples():
    u = IntervalUniverse(1, 3)
    assert is_two_wise_sum_free(ElemSet.from_values(u, [1, 2, 3]))
    u5 = IntervalUniverse(1, 5)
    assert not is_two_wise_sum_free(ElemSet.from_values(u5, [1, 2, 3, 4, 5]))
    assert is_two_wise_sum_free(ElemSet.empty(u5))
    # any sum-free set splits (one empty part)
    assert is_two_wise_sum_free(ElemSet.from_values(u5, [3, 4, 5]))
    # a group set containing the identity cannot be split
    g = GroupUniverse(GroupSpec((5,)))
    assert not is_two_wise_sum_free(ElemSet.from_values(g, [0, 1]))


def test_two_wise_large_sets_get_an_answer():
    # more members than the default recursion limit allows frames
    u = IntervalUniverse(1, 2200)
    odds = list(range(1, 2201, 2))
    assert is_two_wise_sum_free(ElemSet.from_values(u, odds))
    # 1 + 1 = 2: not sum-free, but {2} and the odds split it
    planted = ElemSet.from_values(u, odds + [2])
    assert not is_sum_free(planted)
    assert is_two_wise_sum_free(planted)
    # [1, 5] has no 2-coloring, so no superset has one
    assert not is_two_wise_sum_free(ElemSet.from_values(u, range(1, 1201)))


def test_two_wise_blocks_match_whole_set_backtracking():
    rng = random.Random(31)
    universes = [IntervalUniverse(1, n) for n in (12, 20, 30)]
    universes += [IntervalUniverse(5, 40), IntervalUniverse(30, 90)]
    universes += [GroupUniverse(g) for order in (12, 16, 21, 30)
                  for g in abelian_groups_of_order(order)]
    for u in universes:
        values = list(u.ground_values())
        if isinstance(u, GroupUniverse):
            values.append(0)  # a group set may hold the identity, which no part can
        for _ in range(40):
            s = ElemSet.from_values(u, rng.sample(values, rng.randint(0, min(14, len(values)))))
            assert is_two_wise_sum_free(s) == two_wise_backtrack(s), (u.describe(), s.members())
            # the blocks are disjoint, hold exactly the members of the triples,
            # and each triple lies inside one of them
            blocks = _blocks(s)
            triples = [(x, y, z) for x in s.members() for y in s.members()
                       for z in [u.sum_value(x, y)] if z is not None and z in s]
            linked = {v for triple in triples for v in triple}
            members = [[u.value_of(i) for i in _positions(b)] for b in blocks]
            assert sum(map(len, members)) == len(linked) == len(set().union(*members))
            for triple in triples:
                assert any(set(triple) <= set(block) for block in members), triple


def _late_obstruction(members):
    # {m, 2m, 3m, 4m, 5m} has no 2-coloring (the Schur number S(2) is 4); it
    # comes after every other member, which the triples leave independent
    return ElemSet.from_values(IntervalUniverse(1, 5 * members[1]), members[0] + [
        k * members[1] for k in range(1, 6)])


def _late_obstruction_sets():
    # 40 odd members below 2001 lie in no triple
    free = _late_obstruction((list(range(1001, 1081, 2)), 2001))
    # 20 triples a + b = c, each its own block: a = 1001 + 4i, b = 3002 + 400i
    a = [1001 + 4 * i for i in range(20)]
    b = [3002 + 400 * i for i in range(20)]
    return free, _late_obstruction((a + b + [x + y for x, y in zip(a, b)], 20000))


def test_two_wise_late_obstruction_is_decided_by_its_block():
    # a whole-set search recolors every free member after each failure
    # (k = 18 of them took 5 s)
    free, triples = _late_obstruction_sets()
    assert count_schur_triples(free) == 10  # the obstruction's own ordered pairs
    assert count_schur_triples(triples) == 2 * 20 + 10
    assert [len(_blocks(s)) for s in (free, triples)] == [1, 21]
    for s in (free, triples):
        start = time.perf_counter()
        assert not is_two_wise_sum_free(s)
        assert time.perf_counter() - start < 1.0
        # without the obstruction's last member, every block splits
        assert is_two_wise_sum_free(ElemSet(s.universe, s.mask ^ 1 << s.mask.bit_length() - 1))


def test_two_wise_translates_each_member_once_and_never_back(monkeypatch):
    # one path: _blocks makes one plus per member, only the blocks are
    # 2-colored, and nothing translates a set by -x
    odds = ElemSet.from_values(IntervalUniverse(1, 2200), range(1, 2201, 2))
    late = _late_obstruction_sets()
    calls = {"plus": 0, "minus": 0}
    for cls in (IntervalUniverse, GroupUniverse):
        for name in calls:
            def counted(self, mask, x, _name=name, _orig=getattr(cls, name)):
                calls[_name] += 1
                return _orig(self, mask, x)
            monkeypatch.setattr(cls, name, counted)
    assert is_two_wise_sum_free(odds)
    assert calls == {"plus": len(odds), "minus": 0}
    for s in late:
        assert not is_two_wise_sum_free(s)
        assert calls["minus"] == 0
