"""Density formulas, structure checks and desk-scale theorem verification.

All densities, slacks and thresholds are exact rationals; several of the
checked inequalities are tight (slack exactly zero), so nothing here may
go through floating point.
"""

from fractions import Fraction
from typing import Optional

from ._record import Record
from .arith import divisors, is_prime, prime_factors
from .enumeration import (_maximum, build_count_record, count_sum_free, enumerate_maximum,
                          maximal_sets_of_size)
from .groups import GroupSpec, Subgroup, abelian_groups_of_order, index2_subgroups
from .universe import (
    ElemSet,
    GroupUniverse,
    IntervalUniverse,
    is_maximal_sum_free,
    is_sum_free,
)


def density_formula(g: GroupSpec) -> tuple[Fraction, int]:
    """Closed-form maximum sum-free density of a finite abelian group.

    Three cases by the prime divisors of the order modulo 3:
      1. some prime divisor p = 2 (mod 3), p least such: 1/3 + 1/(3p)
      2. otherwise 3 divides the order: 1/3
      3. all prime divisors = 1 (mod 3): 1/3 - 1/(3m), m the exponent.
    The value times the order is always an integer.
    """
    order = g.order
    if order < 2:
        raise ValueError("density formula needs a nontrivial group")
    primes = sorted(prime_factors(order))
    low = [p for p in primes if p % 3 == 2]
    if low:
        return Fraction(1, 3) + Fraction(1, 3 * low[0]), 1
    if order % 3 == 0:
        return Fraction(1, 3), 2
    m = g.exponent()
    return Fraction(1, 3) - Fraction(1, 3 * m), 3


class DensityReport(Record):
    """Brute-force maximum density next to the closed-form value."""

    group: GroupSpec
    mu: Fraction
    witness: ElemSet
    v: Fraction
    v_case: int
    agree: bool


def density_report(g: GroupSpec) -> DensityReport:
    """Measure the maximum sum-free density by exhaustive search."""
    (witness,) = _maximum(GroupUniverse(g), 1)
    mu = Fraction(witness.cardinality, g.order)
    v, case = density_formula(g)
    return DensityReport(g, mu, witness, v, case, mu == v)


def verify_index2_structure(g: GroupSpec,
                            subgroups: Optional[list[Subgroup]] = None) -> Optional[bool]:
    """Check that the half-order sum-free sets are exactly the nontrivial
    cosets of the index-2 subgroups (subgroups, if the caller has them).

    Returns None for odd order (no index-2 subgroup, nothing to check).
    Asserts the two cardinality bounds on the way: no sum-free set
    exceeds half the order, and the coset construction reaches it.
    """
    order = g.order
    if order % 2 != 0:
        return None
    maxima = enumerate_maximum(GroupUniverse(g))
    max_card = maxima[0].cardinality
    if max_card > order // 2:
        raise AssertionError("sum-free set above half the group order")
    half_sets = {s.mask for s in maxima if s.cardinality == order // 2}
    cosets = {(1 << order) - 1 ^ h.mask
              for h in (index2_subgroups(g) if subgroups is None else subgroups)}
    if not cosets:
        raise AssertionError("even order but no index-2 subgroup")
    if max_card < order // 2:
        raise AssertionError("coset of an index-2 subgroup was missed")
    return half_sets == cosets


def coset_floor_check(g: GroupSpec) -> bool:
    """Maximum sum-free cardinality reaches order/q, q the least prime divisor."""
    if g.order < 2:
        raise ValueError("coset floor check needs a nontrivial group")
    q = sorted(prime_factors(g.order))[0]
    return _maximum(GroupUniverse(g), 1)[0].cardinality >= g.order // q


class WeightedDensityReport(Record):
    """Outcome of the two-band weighted density inequality for one modulus."""

    n: int
    ok: bool
    min_slack: Fraction
    tight_divisors: tuple[int, ...]
    slack_by_divisor: dict[int, Fraction]


def weighted_density_check(n: int) -> WeightedDensityReport:
    """Check 4/7 * d1 + 3/7 * d2 >= 2/7 over every proper divisor subgroup.

    d_i is the density of the i-th band of Z_n inside the subgroup of
    multiples of d, for each divisor d < n.  The identity is excluded
    from the second band, so the trivial subgroup case d = n is vacuous
    and skipped by convention.  Exact rational arithmetic throughout.
    """
    from .construct import middle_third, outer_bands

    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    band1, band2 = middle_third(n).mask, outer_bands(n).mask
    target = Fraction(2, 7)
    slacks: dict[int, Fraction] = {}
    for d in divisors(n):
        if d == n:
            continue
        sub_order = n // d
        c1 = sum(band1 >> x & 1 for x in range(d, n, d))
        c2 = sum(band2 >> x & 1 for x in range(d, n, d))
        lhs = Fraction(4 * c1, 7 * sub_order) + Fraction(3 * c2, 7 * sub_order)
        slacks[d] = lhs - target
    min_slack = min(slacks.values())
    tight = tuple(d for d, s in sorted(slacks.items()) if s == 0)
    return WeightedDensityReport(n, min_slack >= 0, min_slack, tight, slacks)


class StructureVerdict(Record):
    """pass, vacuous, or fail plus the violated clause."""

    status: str
    detail: Optional[str] = None


def structure_verdict(s: ElemSet) -> StructureVerdict:
    """Classify a sum-free set of integers against the large-set structure law.

    Sets with fewer than 5k/12 + 2 elements (k the maximum) are out of
    reach of the law: vacuous.  Above the threshold the set must consist
    solely of odd numbers, or mix parities with minimum at least the
    cardinality and at most (k - 2|S| + 3)/4 elements in [1, k/2].
    """
    u = s.universe
    if not isinstance(u, IntervalUniverse):
        raise ValueError("structure law applies to integer interval sets")
    if not is_sum_free(s):
        raise ValueError("set is not sum-free")
    members = s.members()
    if not members:
        return StructureVerdict("vacuous")
    k = members[-1]
    size = len(members)
    if 12 * size < 5 * k + 24:
        return StructureVerdict("vacuous")
    if all(x % 2 == 1 for x in members):
        return StructureVerdict("pass", "all-odd")
    if all(x % 2 == 0 for x in members):
        return StructureVerdict("fail", "parity")
    if members[0] < size:
        return StructureVerdict("fail", "minimum")
    low = sum(1 for x in members if 2 * x <= k)
    if 4 * low > k - 2 * size + 3:
        return StructureVerdict("fail", "low-half")
    return StructureVerdict("pass", "mixed")


def decomposition_ratio(n: int) -> Fraction:
    """f(n) against the odd-count plus top-interval-count decomposition.

    Exact value of f / (f_interval + f_odd) in build_count_record of
    [1, n], that is f(n) / (f(ceil(n/3), n) + 2^ceil(n/2)); the
    approximation it probes is asymptotic, so this is a trend readout,
    not an identity.  count_sum_free's cap bounds n (CapacityError).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rec = build_count_record(IntervalUniverse(1, n))
    return Fraction(rec.f, rec.f_interval + rec.f_odd)


def _maximal_of_size(g: GroupSpec, size: int) -> list[ElemSet]:
    """The group's maximal sum-free sets of the given cardinality, from the
    depth-limited walk, each confirmed by the predicate."""
    u = GroupUniverse(g)
    found = maximal_sets_of_size(u, size)
    for s in found:
        if not is_maximal_sum_free(s):
            raise AssertionError(f"walk and predicate disagree on {s.members()} in {g.moduli}")
    return found


def _singleton_witnesses(g: GroupSpec) -> tuple[int, ...]:
    """The elements (indices) whose singleton is maximal sum-free in g (each
    has prime order)."""
    witnesses = tuple(s.members()[0] for s in _maximal_of_size(g, 1))
    for w in witnesses:
        if not is_prime(g.element_order(w)):
            raise AssertionError(f"witness {w} in {g.moduli} has composite order")
    return witnesses


def singleton_maximal_groups(max_order: int) -> list[tuple[GroupSpec, tuple[int, ...]]]:
    """Abelian groups of order 2..max_order holding a maximal sum-free
    singleton, with their witnesses (each witness has prime order)."""
    return [(g, witnesses) for order in range(2, max_order + 1)
            for g in abelian_groups_of_order(order) if (witnesses := _singleton_witnesses(g))]


def pair_maximal_groups(max_order: int) -> list[tuple[GroupSpec, ElemSet]]:
    """All (abelian group, set) pairs with a maximal sum-free set of
    cardinality 2, for orders 2..max_order."""
    return [(g, s) for order in range(2, max_order + 1)
            for g in abelian_groups_of_order(order) for s in _maximal_of_size(g, 2)]


def even_order_leading_term(g: GroupSpec) -> tuple[int, Fraction]:
    """Leading count estimate (2^V - 1) * 2^(order/2) for even order,
    with the ratio of the exact count to it.  Report only; the estimate
    is asymptotic."""
    order = g.order
    if order % 2 != 0:
        raise ValueError("leading term applies to even order only")
    leading = ((1 << g.even_component_count()) - 1) * (1 << (order // 2))
    exact = count_sum_free(GroupUniverse(g))
    return leading, Fraction(exact, leading)
