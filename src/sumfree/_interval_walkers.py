"""The interval walkers: the counting transfer and the maximal walk.

Interval counts do not visit every set.  Members join in ascending order,
so sets that hold the same members x with x + v <= hi and forbid the same
slots from v on have the same extensions above slot v, and the count is a
forward transfer: each layer maps that state to its number of sets,
carried to the last slot.  It runs from many shard roots, more as the
ground grows, keeping the layers small.  Counting a set as x^|s|, x a
large power of two, packs the histogram into the same transfer.  The
maximal count walks only the sets that can still become maximal, and its
walk gives an interval's maximal sets.  Both hold their own mask
arithmetic; enumeration.py dispatches to them.
"""

from typing import Optional

from .enumeration import _shard_root
from .universe import IntervalUniverse


def _interval_walk(u: IntervalUniverse, shard_index: int, shard_count: int,
                   width: int = 0) -> list[int]:
    """One shard's sum-free sets of an interval, entry i: largest slot i - 1.

    The shard joins the sub-shards shard_index (mod shard_count) of
    max(shard_count, 2^clamp(ground // 5, 3, 12)) roots, each carried on
    from its root: the more ground, the more roots, so that one root's
    layers stay small.  Before slot t a layer maps keys to set counts; a
    key holds the forbidden slots from bit t and, below it, the members x
    with x + t + lo <= hi (at a root, all).  Each count is the sum of
    x^|s| over its sets at x = 2^width: with width 0 the number of sets,
    with a wide enough width their packed cardinality histogram.  A join
    multiplies by x and files the joined sets under slot t; every key is
    carried to the last slot.
    """
    lo, hi, window, size = u.lo, u.hi, u.ground_mask, u.ground_size
    by_top = [0] * (size + 1)
    roots = max(shard_count, 1 << min(max(size // 5, 3), 12))
    for j in range(shard_index, roots, shard_count):
        root = _shard_root(u, j, roots)
        if root is None:
            continue
        s, f, first = root
        n = 1 << width * s.bit_count()
        by_top[s.bit_length()] += n
        layer = {s | f & -(1 << first): n}
        for t in range(first, size):
            v, bit, new, joined = t + lo, 1 << t, {}, 0
            shift = min(v, size)  # a shift past the window lands nothing in it
            # the next key: members x with x + v < hi, forbidden slots above t
            mask = (1 << max(0, min(t + 1, hi - 2 * lo - t))) - 1 | window & -(bit << 1)
            low, out = bit - 1, mask & ~bit
            while layer:
                key, n = layer.popitem()
                k = key & out
                new[k] = new.get(k, 0) + n
                if not key & bit:
                    n <<= width
                    k = (key | bit | ((key & low | bit) << shift) & window) & mask
                    new[k] = new.get(k, 0) + n
                    joined += n
            by_top[t + 1] += joined
            layer = new
    return by_top


def _interval_maximal(u: IntervalUniverse, found: Optional[list[int]]) -> int:
    """Count the maximal sum-free sets of an interval, listing them into
    found (if given), ascending lexicographic.

    Members join in ascending order, so a candidate v left out stays
    pending until a later member b has b - v in s, or b = 2v (r holds bit
    hi - x per member x: shifted right by hi + lo - b, the slots of b - x).
    A node is dropped when a pending v has no candidate b with b - v in s
    or a candidate, nor 2v a candidate; with no candidates left, s is
    maximal when nothing is pending.
    """
    lo, hi, window = u.lo, u.hi, u.ground_mask
    # masks move by slot + near, not by the value slot + lo: the same while lo
    # is at most the ground size, and past it neither lands in the window
    near = min(lo, u.ground_size)
    count = 0

    def rec(s: int, m: int, r: int, avail: int, pending: int) -> None:
        nonlocal count
        pot, p = s | avail, pending
        while p:
            b = p & -p
            p ^= b
            slot = b.bit_length() - 1
            if not avail & pot << slot + near and not avail >> (2 * slot + lo) & 1:
                return
        skipped = 0
        while avail:
            b = avail & -avail
            avail ^= b
            slot = b.bit_length() - 1
            v, shift = slot + lo, slot + near
            s2 = s | b
            m2 = m | (s2 << shift) & window
            p = (pending | skipped) & ~(r >> (hi + lo - v))
            if not v & 1 and v >= 2 * lo:
                p &= ~(1 << (v // 2 - lo))
            if avail & ~m2:
                rec(s2, m2, r | 1 << (hi - v), avail & ~m2, p)
            elif not p:
                count += 1
                if found is not None:
                    found.append(s2)
            # the later children leave v out: stop once no later member can cover it
            if not avail & (s | avail) << shift and not avail >> (2 * v - lo) & 1:
                break
            skipped |= b

    rec(0, 0, 0, window, 0)
    return count
