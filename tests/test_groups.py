import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import index2_kernel_oracle
from sumfree._group_walkers import _orbits, _stabiliser
from sumfree.arith import partitions, prime_factors
from sumfree.errors import CapacityError
from sumfree.groups import (
    GroupSpec,
    Subgroup,
    abelian_groups_of_order,
    generated_subgroup,
    index2_subgroups,
)


def test_group_spec_examples():
    g = GroupSpec((6,))
    assert g.order == 6 and g.decomposition == (2, 3)
    g = GroupSpec((2, 4))
    assert g.order == 8 and g.decomposition == (2, 4)
    g = GroupSpec(())
    assert g.order == 1 and g.decomposition == ()


def test_group_spec_errors():
    with pytest.raises(ValueError):
        GroupSpec((1,))
    with pytest.raises(ValueError):
        GroupSpec((3, 0))
    with pytest.raises(CapacityError):
        GroupSpec((2,) * 21)  # order 2^21 over the default 2^20 cap


def test_group_spec_rejects_non_integer_moduli():
    with pytest.raises(ValueError, match="must be an integer"):
        GroupSpec((4.7,))  # not truncated to Z_4
    with pytest.raises(ValueError, match="must be an integer"):
        GroupSpec(("3",))  # not parsed


@pytest.mark.parametrize("moduli", [(0,), (1,), (-3,), ("3",), (3.0,), (True, 2), [2, 3]])
def test_group_spec_refuses_bad_moduli(moduli):
    # no public path builds a group past these checks: the constructor is the one path
    with pytest.raises(ValueError):
        GroupSpec(moduli)


@pytest.mark.parametrize("moduli", [(2 ** 21,), (2,) * 21])
def test_group_spec_refuses_an_order_over_the_cap(moduli):
    with pytest.raises(CapacityError, match="group order 2097152 exceeds cap 1048576"):
        GroupSpec(moduli)


def test_abelian_groups_of_order_obeys_the_cap():
    with pytest.raises(CapacityError, match="group order 2097152 exceeds cap 1048576"):
        abelian_groups_of_order(2 ** 21)  # refused at its first class, Z_(2^21)


@given(st.lists(st.integers(-2, 9), max_size=4))
def test_group_spec_builds_exactly_when_every_modulus_is_at_least_2(moduli):
    moduli = tuple(moduli)
    if all(m >= 2 for m in moduli):
        assert GroupSpec(moduli).order == math.prod(moduli)
    else:
        with pytest.raises(ValueError, match="must be an integer >= 2"):
            GroupSpec(moduli)


def test_add_neg_identity_examples():
    z5 = GroupSpec((5,))
    assert z5.add_index(z5.element([3]), z5.element([4])) == 2
    z23 = GroupSpec((2, 3))
    s = z23.add_index(z23.element([1, 2]), z23.element([1, 2]))
    assert z23.index_to_coords(s) == (0, 1)
    for g in (z5, z23):
        for a in range(g.order):
            assert g.add_index(a, 0) == a
            assert g.add_index(a, g.neg_index(a)) == 0


def test_element_validation():
    z6 = GroupSpec((6,))
    with pytest.raises(ValueError):
        z6.element([6])
    with pytest.raises(ValueError):
        z6.element([1, 1])


def test_index_arguments_are_range_checked():
    # out of range, index_to_coords would alias another element: 6 reads as 0
    z6 = GroupSpec((6,))
    for bad in (6, -1):
        with pytest.raises(ValueError, match=rf"invalid element index {bad} for order 6"):
            z6.element_order(bad)
        with pytest.raises(ValueError, match=rf"invalid element index {bad} for order 6"):
            generated_subgroup(z6, [2, bad])


def test_index_coords_bijection():
    g = GroupSpec((3, 4, 2))
    seen = set()
    for i in range(g.order):
        c = g.index_to_coords(i)
        assert g.coords_to_index(c) == i
        seen.add(c)
    assert len(seen) == g.order
    # first modulus is least significant
    assert g.index_to_coords(1) == (1, 0, 0)
    assert g.index_to_coords(3) == (0, 1, 0)


def test_group_laws_random_triples():
    rng = random.Random(2024)
    for order in range(2, 65):
        for g in abelian_groups_of_order(order):
            for _ in range(1000 // order + 5):
                a, b, c = (rng.randrange(order) for _ in range(3))
                assert g.add_index(a, b) == g.add_index(b, a)
                ab_c = g.add_index(g.add_index(a, b), c)
                a_bc = g.add_index(a, g.add_index(b, c))
                assert ab_c == a_bc


def test_order_times_element_is_identity():
    for order in range(2, 33):
        for g in abelian_groups_of_order(order):
            for a in range(order):
                k = g.element_order(a)
                assert order % k == 0
                acc = 0
                for _ in range(k):
                    acc = g.add_index(acc, a)
                assert acc == 0


def test_element_order_examples():
    z6 = GroupSpec((6,))
    assert z6.element_order(2) == 3
    assert z6.element_order(0) == 1
    z23 = GroupSpec((2, 3))
    assert z23.element_order(z23.element([1, 1])) == 6


def test_exponent_examples_and_bruteforce():
    assert GroupSpec((2, 3)).exponent() == 6
    assert GroupSpec((7, 7)).exponent() == 7
    assert GroupSpec((49,)).exponent() == 49
    for order in range(2, 65):
        for g in abelian_groups_of_order(order):
            brute = max(g.element_order(i) for i in range(order))
            assert g.exponent() == brute


def test_even_component_count():
    assert GroupSpec((2, 4)).even_component_count() == 2
    assert GroupSpec((9,)).even_component_count() == 0
    assert GroupSpec((6,)).even_component_count() == 1


def test_index2_examples():
    subs = index2_subgroups(GroupSpec((2, 2)))
    assert len(subs) == 3
    assert all(s.order == 2 for s in subs)
    assert index2_subgroups(GroupSpec((9,))) == []
    (only,) = index2_subgroups(GroupSpec((4,)))
    assert only.mask == 0b101 and only.members() == (0, 2)


def test_index2_count_matches_even_components():
    for order in range(2, 65):
        for g in abelian_groups_of_order(order):
            subs = index2_subgroups(g)
            assert len(subs) == (1 << g.even_component_count()) - 1
            for s in subs:
                assert s.order * 2 == g.order


def test_index2_parity_masks_match_coordinate_oracle():
    # the kernels come from whole-index parity masks; the oracle reads each
    # element's coordinates
    wide = [GroupSpec((2, 256)), GroupSpec((4, 2, 32)), GroupSpec((2,) * 8)]  # past one word
    for g in [g for order in range(1, 65) for g in abelian_groups_of_order(order)] + wide:
        got = [frozenset(s.members()) for s in index2_subgroups(g)]
        assert got == index2_kernel_oracle(g.moduli), g.moduli


def _all_subgroups(g: GroupSpec) -> set[frozenset[int]]:
    """Brute-force subgroup lattice by closure growth (test oracle)."""
    found = {frozenset({0})}
    frontier = [frozenset({0})]
    while frontier:
        h = frontier.pop()
        for x in range(g.order):
            if x in h:
                continue
            members = set(h)
            queue = [x]
            members.add(x)
            while queue:
                y = queue.pop()
                for z in list(members):
                    w = g.add_index(y, z)
                    if w not in members:
                        members.add(w)
                        queue.append(w)
                neg = g.neg_index(y)
                if neg not in members:
                    members.add(neg)
                    queue.append(neg)
            fs = frozenset(members)
            if fs not in found:
                found.add(fs)
                frontier.append(fs)
    return found


@pytest.mark.parametrize("order", range(2, 33))
def test_index2_against_lattice_oracle(order):
    for g in abelian_groups_of_order(order):
        lattice = _all_subgroups(g)
        expected = {h for h in lattice if len(h) * 2 == g.order}
        got = {frozenset(s.members()) for s in index2_subgroups(g)}
        assert got == expected


def test_generated_subgroup_examples():
    z6 = GroupSpec((6,))
    assert generated_subgroup(z6, [2]).members() == (0, 2, 4)
    assert generated_subgroup(z6, []).members() == (0,)
    v4 = GroupSpec((2, 2))
    whole = generated_subgroup(v4, [v4.element([1, 0]), v4.element([0, 1])])
    assert whole.members() == (0, 1, 2, 3) and whole.order == 4


def test_subgroup_validation():
    z6 = GroupSpec((6,))
    with pytest.raises(ValueError):
        Subgroup(z6, 0b110)  # no identity
    with pytest.raises(ValueError, match="negation"):
        Subgroup(z6, 0b11)  # not closed
    with pytest.raises(ValueError, match="addition"):
        Subgroup(z6, 0b100011)
    for outside in (1 | 1 << 6, -1):  # no index masks of z6
        with pytest.raises(ValueError, match=r"element indices in \[0, 6\)"):
            Subgroup(z6, outside)
    Subgroup(z6, 0b1001)  # fine


def test_abelian_groups_of_order_examples():
    assert [g.moduli for g in abelian_groups_of_order(8)] == [
        (8,),
        (4, 2),
        (2, 2, 2),
    ]
    assert [g.moduli for g in abelian_groups_of_order(6)] == [(2, 3)]
    assert [g.moduli for g in abelian_groups_of_order(12)] == [(4, 3), (2, 2, 3)]
    assert [g.moduli for g in abelian_groups_of_order(1)] == [()]
    with pytest.raises(ValueError, match="order must be >= 1, got 0"):
        abelian_groups_of_order(0)


def test_abelian_groups_count_and_distinctness():
    for n in range(1, 65):
        groups = abelian_groups_of_order(n)
        expected = math.prod(
            len(list(partitions(e))) for e in prime_factors(n).values()
        )
        assert len(groups) == max(expected, 1)
        decomps = {g.decomposition for g in groups}
        assert len(decomps) == len(groups)
        for g in groups:
            assert g.order == n


def test_automorphism_tables_are_automorphisms():
    for n in range(1, 25):
        for g in abelian_groups_of_order(n):
            for table in g.automorphisms:
                assert sorted(table) == list(range(n)), g.moduli
                assert table != tuple(range(n)), g.moduli
                for a in range(n):
                    for b in range(n):
                        assert table[g.add_index(a, b)] == g.add_index(table[a], table[b])


def test_orbits_partition_the_nonzero_elements():
    for n in range(1, 25):
        for g in abelian_groups_of_order(n):
            orbits = _orbits(g.automorphisms, range(1, n))
            assert sorted(x for orbit in orbits for x in orbit) == list(range(1, n))
            assert [len(o) for o in orbits] == sorted((len(o) for o in orbits), reverse=True)
            for orbit in orbits:
                for t in g.automorphisms:
                    assert {t[x] for x in orbit} == set(orbit)
                assert len({g.element_order(x) for x in orbit}) == 1
    # the generators reach the full automorphism orbits of these groups;
    # 2 generates the units modulo 37, so one dilation table suffices
    assert len(GroupSpec((37,)).automorphisms) == 1
    for moduli, sizes in (([37], [36]), ([2, 2, 2, 2, 2], [31]), ([4, 4, 2], [24, 4, 3])):
        g = GroupSpec(tuple(moduli))
        assert [len(o) for o in _orbits(g.automorphisms, range(1, g.order))] == sizes


def test_automorphism_check_rejects_a_non_automorphism():
    z4 = GroupSpec((4,))
    with pytest.raises(RuntimeError, match="no automorphism"):
        z4._automorphism_table([2])  # x -> 2x is not injective
    z2z4 = GroupSpec((2, 4))
    with pytest.raises(RuntimeError, match="no automorphism"):
        z2z4._automorphism_table([2, 2])  # e_1 has order 2, its image e_2 order 4


def _generated_group(tables, n: int) -> set[tuple[int, ...]]:
    """The permutation group the tables generate, by closure."""
    found = {tuple(range(n))}
    queue = list(found)
    for h in queue:  # grows while it is read
        for t in tables:
            g = tuple(map(t.__getitem__, h))
            if g not in found:
                found.add(g)
                queue.append(g)
    return found


def test_stabiliser_orbits():
    for n in range(1, 25):
        for g in abelian_groups_of_order(n):
            add = [[g.add_index(a, b) for b in range(n)] for a in range(n)]
            whole = _generated_group(g.automorphisms, n) if n <= 16 else None
            orbits = _orbits(g.automorphisms, range(1, n))
            for i, orbit in enumerate(orbits):
                r = orbit[0]
                gens = _stabiliser(g.automorphisms, r)
                assert all(h[r] == r for h in gens), (g.moduli, r)
                # the blocks split r's orbit and the later ones, r left out
                later = sorted(x for o in orbits[i:] for x in o if x != r)
                blocks = _orbits(gens, later)
                assert sorted(x for b in blocks for x in b) == later, (g.moduli, r)
                assert [len(b) for b in blocks] == sorted(map(len, blocks), reverse=True)
                # candidates of {r}: neither 2r nor a half of r
                candidates = [x for x in later if x != add[r][r] and add[x][x] != r]
                for b in blocks:
                    assert set(b) <= set(candidates) or len(b) == 1, (g.moduli, r, b)
                # _orbit_tally passes the candidates alone, which drops the
                # singletons 2r and the halves of r
                kept = tuple(b for b in blocks if set(b) <= set(candidates))
                assert _orbits(gens, candidates) == kept, (g.moduli, r)
                if whole:  # the orbits of the automorphisms that fix r
                    fixing = [h for h in whole if h[r] == r]
                    assert set(gens) <= set(fixing), (g.moduli, r)
                    expected = {frozenset(h[x] for h in fixing) for x in later}
                    assert set(map(frozenset, blocks)) == expected, (g.moduli, r)
                    # and of those that fix r and q too: the next rooting step
                    for q in candidates:
                        rest = [x for x in range(1, n) if x not in (r, q)]
                        pair = [h for h in fixing if h[q] == q]
                        expected = {frozenset(h[x] for h in pair) for x in rest}
                        got = _orbits(_stabiliser(gens, q), rest)
                        assert sorted(x for b in got for x in b) == rest, (g.moduli, r, q)
                        assert set(map(frozenset, got)) == expected, (g.moduli, r, q)
    # Z_41's units act regularly: every stabiliser is trivial, and of the
    # 39 other nonzero elements 2 and the half 21 of 1 are no candidates
    gens = _stabiliser(GroupSpec((41,)).automorphisms, 1)
    blocks = _orbits(gens, [x for x in range(2, 41) if x not in (2, 21)])
    assert len(blocks) == 37 and {len(b) for b in blocks} == {1}
