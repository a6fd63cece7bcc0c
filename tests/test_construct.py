import random

import pytest

from sumfree.arith import is_prime
from sumfree.construct import (
    coset,
    extremal_intervals,
    lift_residues,
    middle_block,
    middle_third,
    odds,
    outer_bands,
    periodic_residues,
)
from sumfree.enumeration import enumerate_sum_free
from sumfree.groups import GroupSpec, abelian_groups_of_order, generated_subgroup
from sumfree.universe import ElemSet, GroupUniverse, is_sum_free


def test_odds_examples():
    assert odds(5).members() == (1, 3, 5)
    assert odds(1).members() == (1,)
    assert odds(6).members() == (1, 3, 5)
    assert odds(6).cardinality == 3
    with pytest.raises(ValueError):
        odds(0)


def test_extremal_intervals_examples():
    assert [s.members() for s in extremal_intervals(7)] == [(4, 5, 6, 7)]
    assert [s.members() for s in extremal_intervals(6)] == [(3, 4, 5), (4, 5, 6)]
    assert [s.members() for s in extremal_intervals(1)] == [(1,)]


def test_odds_and_extremals_are_sum_free_with_half_cardinality():
    for n in range(1, 201):
        half = (n + 1) // 2
        o = odds(n)
        assert o.cardinality == half and is_sum_free(o)
        for s in extremal_intervals(n):
            assert s.cardinality == half and is_sum_free(s)


def test_middle_third_examples():
    assert middle_third(6).members() == (3, 4)
    assert middle_third(3).members() == (2,)
    s = middle_third(6)
    assert is_sum_free(s)
    for n in range(2, 201):
        s = middle_third(n)
        assert is_sum_free(s)
    for n in range(2, 300):  # the bounds as the defining inequalities
        assert middle_third(n).members() == tuple(
            x for x in range(1, n) if 3 * x > n and 3 * x <= 2 * n), n


def test_outer_bands_examples():
    assert outer_bands(6).members() == (2, 5)
    s6 = outer_bands(6)
    assert is_sum_free(s6)
    s12 = outer_bands(12)
    assert s12.members() == (3, 4, 9, 10, 11)
    # the literal set is not sum-free here: 10 + 11 = 9 (mod 12)
    assert not is_sum_free(s12)
    for n in range(2, 300):  # the bounds as the defining inequalities
        assert outer_bands(n).members() == tuple(
            x for x in range(1, n) if (6 * x > n and 3 * x <= n) or 3 * x > 2 * n), n


def test_coset_examples():
    z6 = GroupSpec((6,))
    h = generated_subgroup(z6, [2])
    c = coset(h, 1)
    assert c.members() == (1, 3, 5)
    z4 = GroupSpec((4,))
    h4 = generated_subgroup(z4, [2])
    assert coset(h4, 1).members() == (1, 3)


def test_coset_errors_and_properties():
    z6 = GroupSpec((6,))
    h = generated_subgroup(z6, [2])
    with pytest.raises(ValueError):
        coset(h, 4)  # member of h
    with pytest.raises(ValueError, match="6 is not an element index"):
        coset(h, 6)  # would alias the identity, a member of h
    whole = generated_subgroup(z6, [1])
    with pytest.raises(ValueError):
        coset(whole, 3)
    rng = random.Random(5)
    for order in range(2, 33):
        for g in abelian_groups_of_order(order):
            gen = rng.randrange(1, order)
            h = generated_subgroup(g, [gen])
            if h.order == order:
                continue
            outside = [i for i in range(order) if i not in h.members()]
            pick = rng.choice(outside)
            c = coset(h, pick)
            assert c.cardinality == h.order
            assert not (set(c.members()) & set(h.members()))
            assert is_sum_free(c)


def test_coset_is_one_translation_of_the_subgroup_mask():
    for order in range(2, 17):
        for g in abelian_groups_of_order(order):
            for x in range(order):
                h = generated_subgroup(g, [x])
                if h.order == order:
                    continue
                for y in range(order):
                    if y in h.members():
                        continue
                    c = coset(h, y)
                    assert c.mask == g.translate(h.mask, y)
                    assert set(c.members()) == {g.add_index(a, y) for a in h.members()}


def test_periodic_residues_examples():
    assert periodic_residues(2, 5, 12).members() == (2, 7, 12)
    assert periodic_residues(1, 2, 9).members() == odds(9).members()
    with pytest.raises(ValueError):
        periodic_residues(0, 5, 10)
    with pytest.raises(ValueError):
        periodic_residues(5, 5, 10)
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(2, 24)
        m = rng.randint(1, n - 1)
        s = periodic_residues(m, n, rng.randint(1, 500))
        assert is_sum_free(s)


def test_lift_residues_examples():
    z5 = GroupUniverse(GroupSpec((5,)))
    a = ElemSet.from_values(z5, [1, 4])
    assert lift_residues(a, 10).members() == (1, 4, 6, 9)
    b = ElemSet.from_values(z5, [2, 3])
    assert lift_residues(b, 8).members() == (2, 3, 7, 8)
    bad = ElemSet.from_values(z5, [1, 2])  # 1 + 1 = 2
    with pytest.raises(ValueError):
        lift_residues(bad, 10)


@pytest.mark.parametrize("construction, args, message", [
    (extremal_intervals, (0,), "need n >= 1, got 0"),
    (middle_third, (1,), "need n >= 2, got 1"),
    (outer_bands, (1,), "need n >= 2, got 1"),
    (periodic_residues, (1, 3, 0), "need window_hi >= 1, got 0"),
    (lift_residues, (ElemSet.from_values(GroupUniverse(GroupSpec((2, 2))), [1]), 5),
     "base set must live in a cyclic group universe Z_n"),
    (lift_residues, (ElemSet.from_values(GroupUniverse(GroupSpec((5,))), [1, 4]), 0),
     "need window_hi >= 1, got 0"),
])
def test_constructions_check_their_input(construction, args, message):
    with pytest.raises(ValueError, match=message):
        construction(*args)


def test_lift_residues_always_sum_free():
    rng = random.Random(17)
    for n in range(2, 25):
        zn = GroupUniverse(GroupSpec((n,)))
        family = []
        enumerate_sum_free(zn, family.append)
        for _ in range(6):
            base = rng.choice(family)
            lifted = lift_residues(base, rng.randint(1, 300))
            assert is_sum_free(lifted)


def test_middle_block_examples():
    assert middle_block(5).members() == (2, 3)
    assert middle_block(11).members() == (4, 5, 6, 7)
    with pytest.raises(ValueError):
        middle_block(7)  # 7 = 1 (mod 3)
    with pytest.raises(ValueError):
        middle_block(35)  # 2 (mod 3) but composite
    for p in (2, 5, 11, 17, 23, 29, 41, 53):
        b = middle_block(p)
        assert 3 * b.cardinality > p - 1
        assert is_sum_free(b)
    for p in range(2, 500, 3):  # the block of p = 3k + 2 is its middle third
        if is_prime(p):
            k = (p - 2) // 3
            assert middle_block(p) == middle_third(p), p
            assert middle_third(p).members() == tuple(range(k + 1, 2 * k + 2)), p
