"""Exhaustive enumeration and counting of sum-free subsets.

A naive binary-counter reference tests every subset mask with the generic
predicate (kept deliberately dumb, it is the oracle).  Everything else
walks the family of sum-free sets, which is closed under taking subsets:
a walk extends its set only by elements that keep it sum-free.

The walk maintains a "forbidden" bit mask per node, and the universe
gives its step (forbid, with excluded for the maximum search's bound;
see universe.py): the walkers here hold no mask arithmetic of their own,
and are handed the ground they walk in.  For intervals, elements are
taken in ascending order, so the only way a later candidate can break
sum-freeness is by being a sum of two chosen elements; the mask is just
the running sumset.  For groups, wraparound means a candidate can also
hit a chosen element by addition or halving, so the mask tracks the
sumset, the difference set and the half-set together, which also makes
the maximality test a single mask comparison.  Adding an element costs
two translations of index masks (GroupSpec.translation_steps).

The counts and the maximal listings walk by universe, each in its own
module, which a function imports where it dispatches, so that a run
compiles only the walkers of the universe it counts:
_interval_walkers.py holds the interval transfer and the interval
maximal walk, _group_walkers.py the orbit-rooted group counts and a
group's maximal sets.  The listings and the group shards walk from the
empty set on the one walker here, _walk: enumerate_sum_free, the shards,
and (from _group_walkers.py) a group's maximal sets and the orbit
tally's walks.  enumerate_maximum (pruned by a translation-matching
bound) keeps its own loop, which skips a hopeless child before computing
its mask; with ties pruned, it gives the density checks one witness.  No
walk builds a mask for a leaf unless it needs one.

Sharded counting fixes the first log2(shard_count) include/exclude
decisions from the bits of the shard index (bit j governs ground element
j, least significant bit first); shard totals add up to the plain count
for any power-of-two shard count.
"""

from functools import lru_cache
from typing import Callable, Optional, Sequence

from ._record import Record
from .universe import (
    ElemSet,
    GroupUniverse,
    IntervalUniverse,
    Universe,
    _mask_of,
    is_sum_free,
)
from .errors import DEFAULT_GROUND_CAP, DEFAULT_MAX_ORDER, MAXIMUM_CAP, CapacityError

NAIVE_CAP = 25
SHARD_CAP = 4096  # each shard costs a root and a result row, walked or not


def _require_ground(u: Universe, cap: int) -> None:
    if u.ground_size > cap:
        raise CapacityError(
            f"{u.describe()} has ground size {u.ground_size}, cap is {cap}"
        )


def _walk(forbid: Callable[[int, int, int], int],
          visit: Optional[Callable[[int, Optional[int]], Optional[bool]]],
          ground: int, s: int, f: int, min_slot: int, masks: bool = False,
          counts: Optional[dict[int, int]] = None, steps: Sequence[int] = (), cell: int = 0,
          stride: int = 0, whole: int = 0) -> int:
    """Count the sets below s inside ground, one node per set, stepping by
    forbid (a universe's); visit(s, forbidden) at each, or else add 1 to
    counts[cell]: a child's cell is its parent's plus steps[slot], plus
    stride if it is maximal in whole.  A visit that returns True cuts the
    sets below its node.  The child on a node's last candidate is a leaf,
    handled in place; unless masks (or stride) is set, it gets no mask and
    is visited with forbidden None.
    """
    if visit is not None:
        if visit(s, f):
            return 1
    elif counts is not None:
        counts[cell + stride if stride and not whole & ~(s | f) else cell] += 1
    total = 1
    avail = ground & ~f & (-1 << min_slot)
    while avail:
        b = avail & -avail
        avail ^= b
        slot = b.bit_length() - 1
        if avail:
            total += _walk(forbid, visit, ground, s | b, forbid(s, f, slot), slot + 1, masks,
                           counts, steps, cell + steps[slot] if steps else 0, stride, whole)
            continue
        total += 1  # the leaf: nothing outside f lies above b
        if visit is not None:
            visit(s | b, forbid(s, f, slot) if masks else None)
        elif counts is not None:
            leaf = cell + steps[slot]
            maximal = stride and not whole & ~(s | b | forbid(s, f, slot))
            counts[leaf + stride if maximal else leaf] += 1
    return total


def _tally(u: Universe, maximal: bool) -> tuple[int, Optional[int], dict[int, int]]:
    """(count, maximal count, {cardinality: count}); no maximal count, and
    no walk or tally of maximality, unless maximal is set."""
    _require_ground(u, DEFAULT_GROUND_CAP)
    if isinstance(u, IntervalUniverse):
        from ._interval_walkers import _interval_maximal, _interval_walk

        # no cardinality count reaches 2^(ground + 1)
        width = u.ground_size + 2
        packed = sum(_interval_walk(u, 0, 1, width))
        hist = [packed >> width * k & (1 << width) - 1 for k in range(u.ground_size + 1)]
        f_max = _interval_maximal(u, None) if maximal else None
    else:
        from ._group_walkers import _orbit_tally

        tally = _orbit_tally(u, maximal)
        hist = [tally[2 * k] + tally[2 * k + 1] for k in range(u.group.order)]
        f_max = sum(tally[1::2]) if maximal else None
    return sum(hist), f_max, {m: c for m, c in enumerate(hist) if c}


@lru_cache(maxsize=None)
def _interval_count(u: IntervalUniverse) -> int:
    from ._interval_walkers import _interval_walk

    return sum(_interval_walk(u, 0, 1))


@lru_cache(maxsize=None)
def _group_count(u: GroupUniverse) -> int:
    from ._group_walkers import _orbit_tally

    # keyed by the moduli; the caller's universe keeps the walk's tables for later walks
    return sum(_orbit_tally(u, False))


def enumerate_naive(u: Universe, visit: Optional[Callable[[ElemSet], None]] = None) -> int:
    """Reference count: every subset of the ground, taken as a mask, goes through is_sum_free."""
    if u.ground_size > NAIVE_CAP:
        raise CapacityError(
            f"naive enumeration over {u.ground_size} elements refused (cap {NAIVE_CAP})"
        )
    count = 0
    for pattern in range(1 << u.ground_size):
        s = ElemSet(u, pattern << u.first_slot)
        if is_sum_free(s):
            count += 1
            if visit is not None:
                visit(s)
    return count


def count_sum_free(u: Universe) -> int:
    """Number of sum-free subsets of the universe, empty set included."""
    _require_ground(u, DEFAULT_GROUND_CAP)
    return (_interval_count if isinstance(u, IntervalUniverse) else _group_count)(u)


def enumerate_sum_free(u: Universe, visit: Callable[[ElemSet], None]) -> int:
    """Invoke visit on every sum-free subset (ascending lexicographic order)."""
    _require_ground(u, DEFAULT_GROUND_CAP)

    def each(mask: int, _: Optional[int]) -> None:  # whatever visit returns, cut nothing
        visit(ElemSet(u, mask))

    return _walk(u.forbid, each, u.ground_mask, 0, 0, 0)


def _check_shard_count(shard_count: int) -> None:
    if shard_count < 1 or shard_count & (shard_count - 1):
        raise ValueError(f"shard_count must be a power of two, got {shard_count}")
    if shard_count > SHARD_CAP:
        raise CapacityError(f"shard_count {shard_count} refused, cap is {SHARD_CAP}")


def _shard_root(u: Universe, shard_index: int,
                shard_count: int) -> Optional[tuple[int, int, int]]:
    """(set, forbidden mask, first free slot) the shard's walk starts from.

    None when the shard's fixed elements are not sum-free or not there.
    """
    k = shard_count.bit_length() - 1
    s = f = 0
    for j in range(k):
        include = (shard_index >> j) & 1
        if j >= u.ground_size:
            if include:
                return None
            continue
        slot = u.first_slot + j
        if include:
            if (f >> slot) & 1:
                return None
            f = u.forbid(s, f, slot)
            s |= 1 << slot
    return s, f, u.first_slot + min(k, u.ground_size)


def count_sum_free_sharded(u: Universe, shard_index: int, shard_count: int) -> int:
    """Count the shard of sum-free sets selected by the shard index.

    The bits of shard_index fix the membership of the first
    log2(shard_count) ground elements, so the shards partition the family
    and their totals sum to count_sum_free.
    """
    _check_shard_count(shard_count)
    if not 0 <= shard_index < shard_count:
        raise ValueError(f"shard_index {shard_index} out of range for {shard_count}")
    _require_ground(u, DEFAULT_GROUND_CAP)
    if isinstance(u, IntervalUniverse):
        from ._interval_walkers import _interval_walk

        return sum(_interval_walk(u, shard_index, shard_count))
    root = _shard_root(u, shard_index, shard_count)
    return 0 if root is None else _walk(u.forbid, None, u.ground_mask, *root)


def count_by_largest(u: IntervalUniverse) -> list[int]:
    """Sum-free subsets of [lo, hi] by largest element, from one transfer.

    Entry 0 counts the empty set and entry i the sets whose largest
    element is lo + i - 1.  The sum-free subsets of [lo, n] are exactly
    those with largest element at most n, so the prefix sums are the
    counts of every [lo, n], n <= hi.  It is the transfer that
    count_sum_free sums, kept by largest element.
    """
    if not isinstance(u, IntervalUniverse):
        raise TypeError(f"count_by_largest needs an interval universe, got {u.describe()}")
    _require_ground(u, DEFAULT_GROUND_CAP)
    from ._interval_walkers import _interval_walk

    return _interval_walk(u, 0, 1)


def enumerate_maximum(u: Universe) -> list[ElemSet]:
    """All sum-free sets of maximum cardinality, ascending lexicographic.

    Branch and bound: the first descent builds the greedy set (for intervals,
    the odds), which seeds the best cardinality.  A sum-free A holding s
    inside C = s | candidates never holds both a and a + x (x in s), so a
    node is dropped when |C| - excluded(C, x) < best for some x; that bound
    is never below |C| // 2, so it is only computed when |C| // 2 < best.  A
    child whose set plus the candidates above it cannot reach the best is
    skipped before its forbidden mask is computed.  Ties stay: the list holds
    every maximum set (_maximum(u, 1) drops them, for one witness).
    """
    return _maximum(u, 0)


def _maximum(u: Universe, slack: int) -> list[ElemSet]:
    """enumerate_maximum's search, dropping a node whose bound is below
    best + slack.  Slack 1 drops ties too, so only the first maximum set
    is found: a node above a set larger than the best has a larger bound."""
    _require_ground(u, MAXIMUM_CAP)
    forbid, excluded, ground = u.forbid, u.excluded, u.ground_mask
    best = bar = -1  # the root, the empty set, sets both
    found: list[int] = []

    def rec(s: int, f: int, min_slot: int, card: int) -> None:
        nonlocal best, bar, found
        if card > best:
            best, bar = card, card + slack
            found = [s]
        elif card == best and not slack:
            found.append(s)
        avail = ground & ~f & (-1 << min_slot)
        size = card + avail.bit_count()
        if avail and size // 2 < bar:
            c, rest = s | avail, s
            while rest:
                b = rest & -rest
                rest ^= b
                if size - excluded(c, b.bit_length() - 1) < bar:
                    return
        while avail:
            b = avail & -avail
            avail ^= b
            # the child and every later one can add at most the candidates
            # above b
            if card + 1 + avail.bit_count() < bar:
                return
            slot = b.bit_length() - 1
            # the child on the last candidate is a leaf: all forbidden (-1)
            rec(s | b, forbid(s, f, slot) if avail else -1, slot + 1, card + 1)

    rec(0, 0, 0, 0)
    return [ElemSet(u, mask) for mask in found]


def enumerate_maximal(u: Universe) -> list[ElemSet]:
    """All maximal sum-free sets (no one-element extension), ascending lexicographic."""
    _require_ground(u, DEFAULT_GROUND_CAP)
    if isinstance(u, GroupUniverse):
        from ._group_walkers import _group_maximal

        return _group_maximal(u)
    from ._interval_walkers import _interval_maximal

    found: list[int] = []
    _interval_maximal(u, found)
    return [ElemSet(u, mask) for mask in found]


def maximal_sets_of_size(u: GroupUniverse, size: int) -> list[ElemSet]:
    """The maximal sum-free sets of one cardinality, ascending lexicographic;
    none past order // 2, as A and A + a are disjoint for a in A.

    An interval's forbidden mask holds only the sums above s, not the
    differences and halves the maximality test reads, so intervals are
    refused.
    """
    if not isinstance(u, GroupUniverse):
        raise TypeError(f"maximal_sets_of_size needs a group universe, got {u.describe()}")
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    from ._group_walkers import _group_maximal

    return [] if size > u.group.order // 2 else _group_maximal(u, size)


def count_maximal(u: Universe) -> int:
    """Number of maximal sum-free sets; an interval's comes from the maximal walk alone."""
    if isinstance(u, GroupUniverse):
        return _tally(u, True)[1]
    _require_ground(u, DEFAULT_GROUND_CAP)
    from ._interval_walkers import _interval_maximal

    return _interval_maximal(u, None)


def count_by_cardinality(u: Universe) -> dict[int, int]:
    """Histogram {m: number of sum-free sets of cardinality m}; sums to the count."""
    return _tally(u, False)[2]


def count_two_wise(n: int) -> int:
    """Subsets of [1, n] that split into two sum-free parts.

    Equals 2^n for n <= 4 (a two-part split of [1, 4] exists, so every
    subset inherits one); the first shortfall appears at n = 5.

    S splits exactly when S lies in M1 | M2 for two maximal sum-free sets
    (extend each part to a maximal set; conversely S & M1 and S - M1 are
    sum-free).  So the unions of the pairs of maximal sets (M1 = M2 too)
    are marked in a bit table over the 2^n subset masks, and the marks are
    closed downwards one slot at a time: a set with slot i marks the set
    without it.  sel_i, the masks with slot i, is a repeated byte pattern.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n >= DEFAULT_MAX_ORDER.bit_length():  # 2^n > the mask-width cap; 2^n is never built
        raise CapacityError(f"[1, {n}]: two-wise table of 2^{n} bits, cap is {DEFAULT_MAX_ORDER}")
    from ._interval_walkers import _interval_maximal

    found: list[int] = []
    _interval_maximal(IntervalUniverse(1, n), found)
    size = max(1 << n >> 3, 1)  # bytes; masks past 2^n stay clear
    bits = _mask_of((a | b for i, a in enumerate(found) for b in found[i:]), (1 << n) - 1)
    for i in range(n):
        if i < 3:
            pattern = bytes([(0xAA, 0xCC, 0xF0)[i]])
        else:
            half = 1 << (i - 3)
            pattern = bytes(half) + b"\xff" * half
        sel = int.from_bytes(pattern * (size // len(pattern)), "little")
        bits |= (bits & sel) >> (1 << i)
    return bits.bit_count()


class CountRecord(Record):
    """One row of a counting experiment."""

    universe: str
    size: int
    f: int
    f_max: Optional[int] = None
    f_odd: Optional[int] = None
    f_interval: Optional[int] = None
    f_two_wise: Optional[int] = None
    by_cardinality: Optional[dict[int, int]] = None
    ratio_half: Optional[float] = None
    shard_count: int = 1


def build_count_record(u: Universe, with_maximal: bool = False,
                       with_cardinality: bool = False,
                       with_two_wise: bool = False,
                       shard_count: int = 1) -> CountRecord:
    """Assemble a CountRecord for one universe, sharding the base count.

    The maximal count and the histogram come with the count; sharded, the
    shard total must equal it (RuntimeError, naming both, if not).
    """
    _check_shard_count(shard_count)
    f_two_wise = None
    if with_two_wise:  # first, so that its checks come before any other walk
        if not (isinstance(u, IntervalUniverse) and u.lo == 1):
            raise ValueError("two-wise counting is defined for [1, n] universes")
        f_two_wise = count_two_wise(u.hi)
    fused = with_maximal or with_cardinality
    if fused:
        f, f_max, hist = _tally(u, with_maximal)
    if shard_count > 1:
        total = sum(count_sum_free_sharded(u, i, shard_count) for i in range(shard_count))
        if fused and total != f:
            raise RuntimeError(f"{u.describe()}: the {shard_count} shards total {total}, "
                               f"the fused count is {f}")
        f = total
    elif not fused:
        f = count_sum_free(u)
    f_odd = f_interval = ratio_half = None
    if isinstance(u, IntervalUniverse) and u.lo == 1:
        n = u.hi
        f_odd = 1 << ((n + 1) // 2)
        f_interval = count_sum_free(IntervalUniverse((n + 2) // 3, n))
        ratio_half = f / 2 ** (n / 2)
    return CountRecord(universe=u.describe(), size=u.ground_size, f=f, f_odd=f_odd,
                       f_max=f_max if with_maximal else None, f_interval=f_interval,
                       f_two_wise=f_two_wise, by_cardinality=hist if with_cardinality else None,
                       ratio_half=ratio_half, shard_count=shard_count)
