"""Constructions of named sum-free (or claimed-sum-free) sets.

All boundary comparisons use exact integer cross-multiplication, never
floating point: boundary elements change sum-freeness.
"""

from .arith import is_prime
from .groups import Subgroup, make_group
from .universe import ElemSet, GroupUniverse, IntervalUniverse, is_sum_free


def odds(n: int) -> ElemSet:
    """All odd integers in [1, n]; sum-free, cardinality ceil(n/2)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    u = IntervalUniverse(1, n)
    return ElemSet.from_values(u, range(1, n + 1, 2))


def extremal_intervals(n: int) -> list[ElemSet]:
    """The top-interval sets of cardinality ceil(n/2) in [1, n].

    Odd n gives the single interval [(n+1)/2, n]; even n gives
    [n/2, n-1] and [n/2 + 1, n].
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    u = IntervalUniverse(1, n)
    if n % 2 == 1:
        return [ElemSet.from_values(u, range((n + 1) // 2, n + 1))]
    return [
        ElemSet.from_values(u, range(n // 2, n)),
        ElemSet.from_values(u, range(n // 2 + 1, n + 1)),
    ]


def middle_third(n: int) -> ElemSet:
    """Residues x of Z_n with n/3 < x <= 2n/3; always sum-free."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    u = GroupUniverse(make_group([n]))
    return ElemSet.from_values(u, range(n // 3 + 1, 2 * n // 3 + 1))


def outer_bands(n: int) -> ElemSet:
    """Residues x of Z_n with n/6 < x <= n/3 or 2n/3 < x < n.

    The identity residue (x = n = 0) is excluded, since any set holding it
    fails the sum test outright.  The result is NOT guaranteed sum-free:
    for n = 12 the set is {3, 4, 9, 10, 11} and 10 + 11 = 9 (mod 12).
    Callers that need sum-freeness must verify.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    u = GroupUniverse(make_group([n]))
    return ElemSet.from_values(
        u, [*range(n // 6 + 1, n // 3 + 1), *range(2 * n // 3 + 1, n)]
    )


def coset(h: Subgroup, g: int) -> ElemSet:
    """The coset h + g for g (an index) outside h; always sum-free,
    cardinality |h|."""
    parent = h.parent
    if h.order == parent.order:
        raise ValueError("subgroup is the whole group, no nontrivial coset exists")
    u = GroupUniverse(parent)
    if h.mask >> u.slot_of(g) & 1:
        raise ValueError(f"element {g} lies in the subgroup, coset would be trivial")
    return ElemSet(u, parent.translate(h.mask, g))


def periodic_residues(m: int, n: int, window_hi: int) -> ElemSet:
    """Integers in [1, window_hi] congruent to m (mod n), 0 < m < n.

    Sum-free in every window: two members sum to 2m (mod n), never m.
    """
    if not 0 < m < n:
        raise ValueError(f"need 0 < m < n, got m={m}, n={n}")
    if window_hi < 1:
        raise ValueError(f"need window_hi >= 1, got {window_hi}")
    u = IntervalUniverse(1, window_hi)
    return ElemSet.from_values(u, range(m, window_hi + 1, n))


def lift_residues(a: ElemSet, window_hi: int) -> ElemSet:
    """Lift a sum-free subset of Z_n to [1, window_hi] by congruence.

    Membership means x = a (mod n) for some a in the base set.  The lift
    is sum-free whenever the base set is; the precondition is checked.
    """
    base = a.universe
    if not isinstance(base, GroupUniverse) or len(base.group.moduli) != 1:
        raise ValueError("base set must live in a cyclic group universe Z_n")
    if not is_sum_free(a):
        raise ValueError("base set is not sum-free, the lift would not be either")
    if window_hi < 1:
        raise ValueError(f"need window_hi >= 1, got {window_hi}")
    n = base.group.moduli[0]
    u = IntervalUniverse(1, window_hi)
    return ElemSet.from_values(
        u, (x for x in range(1, window_hi + 1) if a.mask >> x % n & 1)
    )


def middle_block(p: int) -> ElemSet:
    """The block {k+1, ..., 2k+1} of Z_p for a prime p = 3k + 2.

    Sum-free (pairwise sums land in [2k+2, 4k+2], which misses the block
    mod p) and larger than (p-1)/3.
    """
    if not is_prime(p) or p % 3 != 2:
        raise ValueError(f"need a prime p = 2 (mod 3), got {p}")
    return middle_third(p)  # p/3 < x <= 2p/3 is k + 1 <= x <= 2k + 1
