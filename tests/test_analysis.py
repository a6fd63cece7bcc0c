from fractions import Fraction

import pytest

from sumfree.analysis import (
    coset_floor_check,
    decomposition_ratio,
    density_formula,
    density_report,
    even_order_leading_term,
    pair_maximal_groups,
    singleton_maximal_groups,
    structure_verdict,
    verify_index2_structure,
    weighted_density_check,
)
from sumfree.construct import odds
from sumfree.enumeration import enumerate_sum_free
from sumfree.errors import CapacityError
from sumfree.groups import abelian_groups_of_order, make_group
from sumfree.universe import ElemSet, GroupUniverse, IntervalUniverse, is_maximal_sum_free


def test_density_formula_examples():
    assert density_formula(make_group([2])) == (Fraction(1, 2), 1)
    assert density_formula(make_group([9])) == (Fraction(1, 3), 2)
    assert density_formula(make_group([7])) == (Fraction(2, 7), 3)
    with pytest.raises(ValueError):
        density_formula(make_group([]))


def test_density_formula_times_order_is_integer():
    for order in range(2, 1001):
        for g in abelian_groups_of_order(order):
            v, case = density_formula(g)
            assert (v * order).denominator == 1
            assert Fraction(2, 7) <= v <= Fraction(1, 2)
            assert case in (1, 2, 3)


def test_density_report_examples():
    rep = density_report(make_group([5]))
    assert rep.mu == Fraction(2, 5) and rep.witness.members() == (1, 4)
    assert rep.agree
    rep = density_report(make_group([4]))
    assert rep.mu == Fraction(1, 2) and rep.witness.members() == (1, 3)
    rep = density_report(make_group([7]))
    assert rep.mu == Fraction(2, 7)


def test_mu_matches_formula_small_orders():
    for order in range(2, 17):
        for g in abelian_groups_of_order(order):
            rep = density_report(g)
            assert rep.agree, (g.moduli, rep.mu, rep.v)
            assert Fraction(2, 7) <= rep.mu <= Fraction(1, 2)
            assert (rep.mu == Fraction(1, 2)) == (order % 2 == 0)


def test_index2_structure_examples():
    assert verify_index2_structure(make_group([4])) is True
    assert verify_index2_structure(make_group([2, 2])) is True
    assert verify_index2_structure(make_group([6])) is True
    assert verify_index2_structure(make_group([9])) is None


def test_coset_floor_examples():
    assert coset_floor_check(make_group([6]))
    assert coset_floor_check(make_group([9]))
    assert coset_floor_check(make_group([5]))
    with pytest.raises(ValueError, match="nontrivial"):
        coset_floor_check(abelian_groups_of_order(1)[0])


def test_weighted_density_n6():
    rep = weighted_density_check(6)
    assert rep.ok
    assert rep.slack_by_divisor == {
        1: Fraction(1, 21),
        2: Fraction(1, 21),
        3: Fraction(0),
    }
    assert rep.tight_divisors == (3,)
    assert rep.min_slack == 0


def test_weighted_density_prime_modulus():
    rep = weighted_density_check(5)
    assert list(rep.slack_by_divisor) == [1]
    assert rep.ok


def test_weighted_density_sweep_small():
    for n in range(2, 301):
        assert weighted_density_check(n).ok, n


def test_structure_verdict_examples():
    s = odds(19)
    v = structure_verdict(s)
    assert v.status == "pass" and v.detail == "all-odd"
    u = IntervalUniverse(1, 4)
    assert structure_verdict(ElemSet.from_values(u, [1, 4])).status == "vacuous"
    with pytest.raises(ValueError):
        structure_verdict(ElemSet.from_values(u, [1, 2]))


def test_structure_verdict_small_sweep():
    # below k = 19 every sum-free set is under the cardinality threshold
    u = IntervalUniverse(1, 14)
    statuses = set()

    def check(s):
        statuses.add(structure_verdict(s).status)

    enumerate_sum_free(u, check)
    assert statuses == {"vacuous"}
    # the first non-vacuous sets appear at maximum 19; both satisfy the law
    u19 = IntervalUniverse(1, 19)
    verdicts = []

    def check19(s):
        v = structure_verdict(s)
        if v.status != "vacuous":
            verdicts.append((s.members(), v.status, v.detail))

    enumerate_sum_free(u19, check19)
    assert verdicts == [
        ((1, 3, 5, 7, 9, 11, 13, 15, 17, 19), "pass", "all-odd"),
        ((10, 11, 12, 13, 14, 15, 16, 17, 18, 19), "pass", "mixed"),
    ]


def test_decomposition_ratio_example():
    assert decomposition_ratio(3) == Fraction(6, 10)
    with pytest.raises(CapacityError):  # count_sum_free's ground cap of 40
        decomposition_ratio(41)


@pytest.mark.parametrize("check, arg, message", [
    (weighted_density_check, 1, "need n >= 2, got 1"),
    (structure_verdict, ElemSet.from_values(GroupUniverse(make_group([5])), [1, 4]),
     "structure law applies to integer interval sets"),
    (decomposition_ratio, 0, "need n >= 1, got 0"),
])
def test_analyses_check_their_input(check, arg, message):
    with pytest.raises(ValueError, match=message):
        check(arg)


def test_singleton_scan():
    hits = singleton_maximal_groups(16)
    assert [g.moduli for g, _ in hits] == [(2,), (3,), (4,)]
    by_moduli = {g.moduli: wits for g, wits in hits}
    assert list(by_moduli[(4,)]) == [2]
    c4 = make_group([4])
    assert c4.element_order(by_moduli[(4,)][0]) == 2
    c3 = make_group([3])
    assert set(by_moduli[(3,)]) == {1, 2}
    assert all(c3.element_order(w) == 3 for w in by_moduli[(3,)])


def test_pair_scan():
    pairs = pair_maximal_groups(8)
    moduli = {g.moduli for g, _ in pairs}
    assert (4,) in moduli
    c4_pairs = [s.members() for g, s in pairs if g.moduli == (4,)]
    assert c4_pairs == [(1, 3)]
    for _, s in pairs:
        assert s.cardinality == 2
        assert is_maximal_sum_free(s)


def test_scans_match_the_predicate_on_every_singleton_and_pair():
    singles, pairs = [], []
    for order in range(2, 25):
        for g in abelian_groups_of_order(order):
            u = GroupUniverse(g)
            wits = tuple(x for x in range(1, order)
                         if is_maximal_sum_free(ElemSet.from_values(u, [x])))
            if wits:
                singles.append((g, wits))
            pairs += [(g, (x, y)) for x in range(1, order) for y in range(x + 1, order)
                      if is_maximal_sum_free(ElemSet.from_values(u, [x, y]))]
    assert singleton_maximal_groups(24) == singles
    assert [(g, s.members()) for g, s in pair_maximal_groups(24)] == pairs


def test_leading_term_examples():
    leading, ratio = even_order_leading_term(make_group([2, 2]))
    assert leading == 12 and ratio == Fraction(7, 12)
    leading, ratio = even_order_leading_term(make_group([4]))
    assert leading == 4 and ratio == Fraction(5, 4)
    leading, ratio = even_order_leading_term(make_group([2]))
    assert leading == 2 and ratio == 1
    with pytest.raises(ValueError):
        even_order_leading_term(make_group([9]))
