"""Exhaustive enumeration and counting of sum-free subsets.

Two engines back everything here:

* a naive binary-counter reference that tests every subset with the
  generic predicate (kept deliberately dumb, it is the oracle);
* a backtracking walk of the family of sum-free sets.  The family is
  closed under taking subsets, so the walk extends the current set only
  by elements that keep it sum-free and never visits a set that is not
  sum-free.

The walk maintains a "forbidden" bit mask per node.  For intervals,
elements are taken in ascending order, so the only way a later candidate
can break sum-freeness is by being a sum of two chosen elements; the mask
is just the running sumset.  For groups, wraparound means a candidate can
also hit a chosen element by addition or halving, so the mask tracks the
sumset, the difference set and the half-set together, which also makes
the maximality test a single mask comparison.  Adding an element costs
two translations of index masks (GroupSpec.translation_steps).

Interval counts do not visit every set.  Sets that hold the same members
x with x + v <= hi and forbid the same slots from v on have the same
extensions above slot v, so the count is a forward transfer: each layer
maps that state to its number of sets, and a state with no such member
once 2v > hi counts the subsets of its free candidates at once.  It runs
from each of at least 8 shard roots, keeping the layers small.  The
maximal count and the histogram need all of s: their walk counts a free
tail (the candidates c with c + min(s | {c}) > hi) in one step.  Group
counts (with the maximal count and the histogram) use the symmetry
instead: one walk per orbit of a group of automorphisms
(GroupSpec.orbits), rooted at one element of the orbit, visits only the
sets holding that element, and each set found stands for |orbit| / m
sets, m being its members in the orbit.  The listings
(enumerate_sum_free, enumerate_maximal), the group shards,
enumerate_maximum (pruned by a translation-matching bound) and
maximal_sets_of_size (cut at a depth) walk from the empty set.  No walk
builds a mask for a leaf unless it needs one.

Sharded counting fixes the first log2(shard_count) include/exclude
decisions from the bits of the shard index (bit j governs ground element
j, least significant bit first); shard totals add up to the plain count
for any power-of-two shard count.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Callable, Optional

from .groups import GroupSpec, _rotate
from .universe import (
    ElemSet,
    GroupUniverse,
    IntervalUniverse,
    Universe,
    is_sum_free,
)
from .errors import CapacityError

NAIVE_CAP = 25
DEFAULT_GROUND_CAP = 40
MAXIMUM_CAP = 63  # the maximum search reaches every group of order 64
TWO_WISE_CAP = 18


class _IntervalEngine:
    """Mask arithmetic over slots v - lo for the interval [lo, hi]."""

    __slots__ = ("lo", "hi", "window", "ground_mask", "ground_count", "first_slot")

    def __init__(self, lo: int, hi: int):
        self.lo = lo
        self.hi = hi
        n = hi - lo + 1
        self.window = (1 << n) - 1
        self.ground_mask = self.window
        self.ground_count = n
        self.first_slot = 0  # slot of ground element 0

    def forbid(self, s_mask: int, f_mask: int, slot: int) -> int:
        # adding v puts every x + v (x in the new set, v included) off limits;
        # shifting a slot mask by the value v is exactly that
        v = slot + self.lo
        return f_mask | (((s_mask | (1 << slot)) << v) & self.window)

    def excluded(self, c: int, slot: int) -> int:
        # the pairs a, a + v in c form paths: ceil(E/2) for E pairs
        return ((c & (c << (slot + self.lo))).bit_count() + 1) // 2


class _GroupEngine:
    """Mask arithmetic over canonical indices of a group, by translation.

    Adding v to s forbids s' + v, s' - v and v - s' (s' = s | {v}), and
    the halves of v: one translation by v of s' | -s' and one by -v of
    s'.  The forbidden mask carries -s' above bit order, where the ground
    tests do not look.
    """

    __slots__ = ("order", "ground_mask", "ground_count", "first_slot", "plans")

    def __init__(self, group: GroupSpec):
        order, neg = group.order, group.negation
        halves = [0] * order
        for u in range(order):
            halves[group.add_index(u, u)] |= 1 << u
        steps = [group.translation_steps(v) for v in range(order)]
        self.order = order
        self.ground_mask = (1 << order) - 2
        self.ground_count = order - 1
        self.first_slot = 1  # the identity is not a candidate
        # per slot v: its halves and -v (above bit order), the rotations by
        # v and by -v; none by -v when v = -v, as then s' - v = s' + v
        self.plans = [
            (halves[v] | 1 << (order + neg[v]), steps[v], steps[neg[v]] if neg[v] != v else None)
            for v in range(order)
        ]

    def forbid(self, s_mask: int, f_mask: int, slot: int) -> int:
        own, plus, minus = self.plans[slot]
        s2 = s_mask | (1 << slot)
        nf = f_mask | own
        nf |= _rotate(s2 | (nf >> self.order), plus)
        return nf if minus is None else nf | _rotate(s2, minus)

    def excluded(self, c: int, slot: int) -> int:
        # the pairs a, a + v in c form paths and cycles, ceil(E/2) for E
        # pairs; when v = -v each pair is counted from both ends
        _, plus, minus = self.plans[slot]
        e = (c & _rotate(c, plus)).bit_count()
        return e // 2 if minus is None else (e + 1) // 2


def _engine_for(u: Universe):
    if isinstance(u, IntervalUniverse):
        return _IntervalEngine(u.lo, u.hi)
    if isinstance(u, GroupUniverse):
        return _GroupEngine(u.group)
    raise TypeError(f"unsupported universe {u!r}")


def _require_ground(u: Universe, cap: int) -> None:
    if u.ground_size > cap:
        raise CapacityError(
            f"{u.describe()} has ground size {u.ground_size}, cap is {cap}"
        )


def _walk(engine, visit: Optional[Callable[[int, Optional[int]], None]], s: int, f: int,
          min_slot: int, masks: bool = False) -> int:
    """Count the sets below s, one node per set; visit(s, forbidden) at each.

    The child on a node's last candidate is a leaf; unless masks is set,
    it gets no mask and is visited with forbidden None.
    """
    if visit is not None:
        visit(s, f)
    total = 1
    avail = engine.ground_mask & ~f & (-1 << min_slot)
    while avail:
        b = avail & -avail
        avail ^= b
        if avail or masks:
            slot = b.bit_length() - 1
            total += _walk(engine, visit, s | b, engine.forbid(s, f, slot), slot + 1, masks)
        else:
            total += 1
            if visit is not None:
                visit(s | b, None)
    return total


def _interval_walk(engine: _IntervalEngine, shard_index: int, shard_count: int) -> list[int]:
    """One shard's sum-free sets of an interval, entry i: largest slot i - 1.

    The shard joins the sub-shards shard_index (mod shard_count) of
    max(shard_count, 8), each carried on from its root.  Before slot t a
    layer maps keys to set counts; a key holds the forbidden slots from bit
    t and, below it, the members x with x + t + lo <= hi (at a root, all).
    """
    lo, hi, window, size = engine.lo, engine.hi, engine.window, engine.ground_count
    by_top = [0] * (size + 1)
    tails: dict[int, int] = {}  # keys no member can sum in: free slots -> sets
    roots = max(shard_count, 8)
    for j in range(shard_index, roots, shard_count):
        root = _shard_root(engine, j, roots)
        if root is None:
            continue
        s, f, first = root
        by_top[s.bit_length()] += 1
        layer = {s | f & -(1 << first): 1}
        for t in range(first, size):
            v, bit, new, joined = t + lo, 1 << t, {}, 0
            # the next key: members x with x + v < hi, forbidden slots above t
            mask = (1 << max(0, min(t + 1, hi - 2 * lo - t))) - 1 | window & -(bit << 1)
            low, tail, out = bit - 1, 2 * v > hi, mask & ~bit
            while layer:
                key, n = layer.popitem()
                if tail and not key & low:
                    free = window & ~key & -bit
                    tails[free] = tails.get(free, 0) + n
                    continue
                k = key & out
                new[k] = new.get(k, 0) + n
                if not key & bit:
                    k = (key | bit | ((key & low | bit) << v) & window) & mask
                    new[k] = new.get(k, 0) + n
                    joined += n
            by_top[t + 1] += joined
            layer = new
    for free, n in tails.items():
        while free:  # 2^i of the subsets have the i-th smallest candidate on top
            b = free & -free
            free ^= b
            by_top[b.bit_length()] += n
            n <<= 1
    return by_top


def _interval_tally(engine: _IntervalEngine,
                    found: Optional[list[int]]) -> tuple[int, int, list[int]]:
    """Count, maximal count and cardinality histogram of an interval, one walk.

    The mask m holds the sums, the differences and the halves of s, so
    "no element can join s" is ground & ~s & ~m == 0.  Above the largest
    member only sums occur, so m also gives the candidates.  r holds bit
    hi - x for each member x: shifted right by hi + lo - v it gives the
    new differences v - x.  Of a node and its free-tail sets only
    s | tail can be maximal, since any tail candidate can join the others.
    """
    lo, hi, window = engine.lo, engine.hi, engine.window
    width = engine.ground_count + 1
    pairs = [0] * (width * width)  # [node cardinality * width + tail size]
    f_max = 0

    def add_diffs(m: int, r: int, v: int) -> int:
        m |= r >> (hi + lo - v)
        if not v & 1 and v >= 2 * lo:
            m |= 1 << (v // 2 - lo)
        return m

    def rec(s: int, m: int, r: int, min_slot: int, head_mask: int, card: int) -> int:
        nonlocal f_max
        avail = window & ~m & (-1 << min_slot)
        head = avail & head_mask
        tail = avail ^ head
        pairs[card * width + tail.bit_count()] += 1
        if tail or not head:
            t, mt, rt = tail, m, r
            while t:  # tail sums leave the window, so only differences and halves
                b = t & -t
                t ^= b
                v = b.bit_length() - 1 + lo
                mt = add_diffs(mt, rt, v)
                rt |= 1 << (hi - v)
            if not window & ~(s | tail | mt):
                f_max += 1
                if found is not None:
                    found.append(s | tail)
        total = 1 << tail.bit_count()
        while head:
            b = head & -head
            head ^= b
            slot = b.bit_length() - 1
            v = slot + lo
            s2 = s | b
            total += rec(s2, add_diffs(m | ((s2 << v) & window), r, v),
                         r | (1 << (hi - v)), slot + 1,
                         head_mask if s else (1 << (hi - v - lo + 1)) - 1, card + 1)
        return total

    # head: slots c with c + min(s | {c}) <= hi, the rest is the free tail
    f = rec(0, 0, 0, 0, (1 << max(hi // 2 - lo + 1, 0)) - 1, 0)
    hist = [0] * width
    for i, n in enumerate(pairs):
        if n:
            card, k = divmod(i, width)
            for j in range(k + 1):
                hist[card + j] += n * comb(k, j)
    return f, f_max, hist


def _tally(u: Universe, cap: int,
           found: Optional[list[int]] = None) -> tuple[int, int, dict[int, int]]:
    """(count, maximal count, {cardinality: count}) from one walk.

    found, if given, collects the masks of the maximal sets; a group
    universe then gets the plain walk, which visits every set.
    """
    _require_ground(u, cap)
    if isinstance(u, IntervalUniverse):
        f, f_max, hist = _interval_tally(_IntervalEngine(u.lo, u.hi), found)
    elif found is None:
        tally = _orbit_tally(u.group, True)
        hist = [tally[2 * k] + tally[2 * k + 1] for k in range(u.group.order)]
        f, f_max = sum(hist), sum(tally[1::2])
    else:
        engine = _GroupEngine(u.group)
        ground = engine.ground_mask
        hist = [0] * (engine.order + 1)
        f_max = 0

        def visit(s: int, forbidden: int) -> None:
            # for groups the forbidden mask is exactly the elements that
            # cannot join s
            nonlocal f_max
            hist[s.bit_count()] += 1
            if not ground & ~(s | forbidden):
                f_max += 1
                found.append(s)

        f = _walk(engine, visit, 0, 0, 0, True)
    return f, f_max, {m: c for m, c in enumerate(hist) if c}


def _orbit_tally(group: GroupSpec, maximal: bool) -> list[int]:
    """The sum-free sets of a group, by cardinality k and maximality x
    (entry 2k + x; x = 0 throughout unless maximal is set).

    One rooted walk per orbit of the automorphisms.  Let O_1, O_2, ... be
    the orbits (GroupSpec.orbits, largest first) and A_i the sum-free sets
    that meet O_i but no earlier orbit.  The walk for O_i starts from {r},
    r in O_i, with the earlier orbits left out of the ground, and finds
    the N_i(k, x, m) sets holding r that have m members in O_i.  The
    automorphisms move r onto every element of O_i and map A_i onto
    itself, keeping k and x, so counting the pairs (y in s & O_i, s) both
    ways gives m * #{s in A_i: k, x, m} = |O_i| * N_i(k, x, m).
    """
    engine = _GroupEngine(group)
    ground = engine.ground_mask
    out = [0] * (2 * group.order)
    out[int(not ground)] = 1  # the empty set, maximal in the trivial group
    earlier = 0
    for orbit in group.orbits:
        size, r = len(orbit), orbit[0]
        omask = sum(1 << y for y in orbit)
        width = size + 1
        counts = [0] * (len(out) * width)  # [(2k + x) * width + m]

        if maximal:
            def visit(s: int, forbidden: Optional[int]) -> None:
                counts[(2 * s.bit_count() + (not ground & ~(s | forbidden))) * width
                       + (s & omask).bit_count()] += 1
        else:
            def visit(s: int, forbidden: Optional[int]) -> None:
                counts[2 * s.bit_count() * width + (s & omask).bit_count()] += 1

        engine.ground_mask = ground & ~earlier  # the walk offers no other candidates
        _walk(engine, visit, 1 << r, engine.forbid(0, 0, r) | 1 << r, 0, maximal)
        for i, n in enumerate(counts):
            if n:
                key, m = divmod(i, width)
                q, rem = divmod(size * n, m)
                if rem:
                    raise RuntimeError(
                        f"{n} sum-free sets of {group.moduli} hold {r} and {m} of its "
                        f"orbit of {size}: {size} * {n} is not a multiple of {m}")
                out[key] += q
        earlier |= omask
    return out


@lru_cache(maxsize=None)
def _interval_count(lo: int, hi: int) -> int:
    return sum(_interval_walk(_IntervalEngine(lo, hi), 0, 1))


@lru_cache(maxsize=None)
def _group_count(moduli: tuple[int, ...]) -> int:
    return sum(_orbit_tally(GroupSpec(moduli), False))


def enumerate_naive(u: Universe, visit: Optional[Callable[[ElemSet], None]] = None) -> int:
    """Reference count: test all 2^ground subsets with the generic predicate."""
    if u.ground_size > NAIVE_CAP:
        raise CapacityError(
            f"naive enumeration over {u.ground_size} elements refused (cap {NAIVE_CAP})"
        )
    ground = list(u.ground_values())
    count = 0
    for pattern in range(1 << len(ground)):
        values = [ground[j] for j in range(len(ground)) if (pattern >> j) & 1]
        s = ElemSet.from_values(u, values)
        if is_sum_free(u, s):
            count += 1
            if visit is not None:
                visit(s)
    return count


def count_sum_free(u: Universe, cap: int = DEFAULT_GROUND_CAP) -> int:
    """Number of sum-free subsets of the universe, empty set included."""
    _require_ground(u, cap)
    if isinstance(u, IntervalUniverse):
        return _interval_count(u.lo, u.hi)
    return _group_count(u.group.moduli)


def enumerate_sum_free(u: Universe, visit: Callable[[ElemSet], None],
                       cap: int = DEFAULT_GROUND_CAP) -> int:
    """Invoke visit on every sum-free subset (ascending lexicographic order)."""
    _require_ground(u, cap)
    engine = _engine_for(u)
    return _walk(engine, lambda mask, _: visit(ElemSet(u, mask)), 0, 0, 0)


def _check_shard_count(shard_count: int) -> None:
    if shard_count < 1 or shard_count & (shard_count - 1):
        raise ValueError(f"shard_count must be a power of two, got {shard_count}")


def _shard_root(engine, shard_index: int,
                shard_count: int) -> Optional[tuple[int, int, int]]:
    """(set, forbidden mask, first free slot) the shard's walk starts from.

    None when the shard's fixed elements are not sum-free or not there.
    """
    k = shard_count.bit_length() - 1
    s = f = 0
    for j in range(k):
        include = (shard_index >> j) & 1
        if j >= engine.ground_count:
            if include:
                return None
            continue
        slot = engine.first_slot + j
        if include:
            if (f >> slot) & 1:
                return None
            f = engine.forbid(s, f, slot)
            s |= 1 << slot
    return s, f, engine.first_slot + min(k, engine.ground_count)


def count_sum_free_sharded(u: Universe, shard_index: int, shard_count: int,
                           cap: int = DEFAULT_GROUND_CAP) -> int:
    """Count the shard of sum-free sets selected by the shard index.

    The bits of shard_index fix the membership of the first
    log2(shard_count) ground elements, so the shards partition the family
    and their totals sum to count_sum_free.
    """
    _check_shard_count(shard_count)
    if not 0 <= shard_index < shard_count:
        raise ValueError(f"shard_index {shard_index} out of range for {shard_count}")
    _require_ground(u, cap)
    engine = _engine_for(u)
    if isinstance(engine, _IntervalEngine):
        return sum(_interval_walk(engine, shard_index, shard_count))
    root = _shard_root(engine, shard_index, shard_count)
    return 0 if root is None else _walk(engine, None, *root)


def count_by_largest(u: IntervalUniverse, shard_count: int = 1,
                     cap: int = DEFAULT_GROUND_CAP) -> list[int]:
    """Sum-free subsets of [lo, hi] by largest element, one transfer per shard root.

    Entry 0 counts the empty set and entry i the sets whose largest
    element is lo + i - 1.  The sum-free subsets of [lo, n] are exactly
    those with largest element at most n, so the prefix sums are the
    counts of every [lo, n], n <= hi, whatever the shard_count.
    """
    _check_shard_count(shard_count)
    _require_ground(u, cap)
    engine = _IntervalEngine(u.lo, u.hi)
    shards = [_interval_walk(engine, i, shard_count) for i in range(shard_count)]
    return [sum(column) for column in zip(*shards)]


def enumerate_maximum(u: Universe, cap: int = MAXIMUM_CAP) -> list[ElemSet]:
    """All sum-free sets of maximum cardinality, ascending lexicographic.

    Branch and bound: the first descent builds the greedy set (for
    intervals, the odds), which seeds the best cardinality.  A sum-free A
    holding s inside C = s | candidates never holds both a and a + x
    (x in s), so a node is dropped when |C| - excluded(C, x) < best for
    some x; that bound is never below |C| // 2, so it is only computed
    when |C| // 2 < best.  A child whose set plus the candidates above it
    cannot reach the best is skipped before its forbidden mask is
    computed.  Ties stay: the list holds every maximum set.
    """
    _require_ground(u, cap)
    engine = _engine_for(u)
    best = 0
    found: list[int] = []

    def rec(s: int, f: int, min_slot: int, card: int) -> None:
        nonlocal best, found
        if card > best:
            best = card
            found = [s]
        elif card == best:
            found.append(s)
        avail = engine.ground_mask & ~f & (-1 << min_slot)
        size = card + avail.bit_count()
        if avail and size // 2 < best:
            c, rest = s | avail, s
            while rest:
                b = rest & -rest
                rest ^= b
                if size - engine.excluded(c, b.bit_length() - 1) < best:
                    return
        while avail:
            b = avail & -avail
            avail ^= b
            # the child and every later one can add at most the candidates
            # above b
            if card + 1 + avail.bit_count() < best:
                return
            slot = b.bit_length() - 1
            # the child on the last candidate is a leaf: all forbidden (-1)
            rec(s | b, engine.forbid(s, f, slot) if avail else -1, slot + 1, card + 1)

    rec(0, 0, 0, 0)
    return [ElemSet(u, mask) for mask in found]


def enumerate_maximal(u: Universe, cap: int = DEFAULT_GROUND_CAP) -> list[ElemSet]:
    """All maximal sum-free sets: those rejecting every one-element extension."""
    found: list[int] = []
    _tally(u, cap, found)
    return [ElemSet(u, mask) for mask in found]


def maximal_sets_of_size(u: GroupUniverse, size: int) -> list[ElemSet]:
    """The maximal sum-free sets of one cardinality, ascending lexicographic.

    The group walk cut at depth size: its forbidden mask holds exactly
    the elements that cannot join s, so s is maximal when
    ground & ~(s | forbidden) == 0.  About order^size / size! nodes.
    """
    engine = _GroupEngine(u.group)
    ground = engine.ground_mask
    found: list[int] = []

    def rec(s: int, f: int, min_slot: int, depth: int) -> None:
        if not depth:
            if not ground & ~(s | f):
                found.append(s)
            return
        avail = ground & ~f & (-1 << min_slot)
        while avail:
            b = avail & -avail
            avail ^= b
            slot = b.bit_length() - 1
            rec(s | b, engine.forbid(s, f, slot), slot + 1, depth - 1)

    rec(0, 0, 0, size)
    return [ElemSet(u, mask) for mask in found]


def count_maximal(u: Universe, cap: int = DEFAULT_GROUND_CAP) -> int:
    return _tally(u, cap)[1]


def count_by_cardinality(u: Universe, cap: int = DEFAULT_GROUND_CAP) -> dict[int, int]:
    """Histogram {m: number of sum-free sets of cardinality m}; sums to the count."""
    return _tally(u, cap)[2]


def count_two_wise(n: int, cap: int = TWO_WISE_CAP) -> int:
    """Subsets of [1, n] that split into two sum-free parts.

    Equals 2^n for n <= 4 (a two-part split of [1, 4] exists, so every
    subset inherits one); the first shortfall appears at n = 5.

    Walks the subsets in ascending order, carrying every split of the
    current set as (part, its sums, other part, its sums), value-indexed
    masks.  A larger element joins a part unless it is a sum of two of
    that part's members.  The family is closed under taking subsets, so a
    set with no split left ends its branch.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > cap:
        raise CapacityError(f"two-wise counting capped at n <= {cap}, got {n}")
    window = (1 << (n + 1)) - 1

    def rec(splits: list[tuple[int, int, int, int]], first: int) -> int:
        total = 1
        for v in range(first, n + 1):
            b = 1 << v
            grown = []
            for p, sums, q, other in splits:
                if not sums & b:
                    grown.append((p | b, sums | (((p | b) << v) & window), q, other))
                if not other & b:
                    grown.append((q | b, other | (((q | b) << v) & window), p, sums))
            if grown:
                total += rec(grown, v + 1)
        return total

    # the smallest element goes to the first part without loss of generality
    return 1 + sum(rec([(1 << v, (1 << 2 * v) & window, 0, 0)], v + 1)
                   for v in range(1, n + 1))


@dataclass
class CountRecord:
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
                       shard_count: int = 1,
                       cap: int = DEFAULT_GROUND_CAP) -> CountRecord:
    """Assemble a CountRecord for one universe, sharding the base count.

    The maximal count and the histogram come from one walk, which also
    gives the count unless it is sharded.
    """
    _check_shard_count(shard_count)
    fused = with_maximal or with_cardinality
    if fused:
        f, f_max, hist = _tally(u, cap)
    if shard_count > 1:
        f = sum(
            count_sum_free_sharded(u, i, shard_count, cap)
            for i in range(shard_count)
        )
    elif not fused:
        f = count_sum_free(u, cap)
    rec = CountRecord(universe=u.describe(), size=u.ground_size, f=f,
                      shard_count=shard_count)
    if isinstance(u, IntervalUniverse) and u.lo == 1:
        n = u.hi
        rec.f_odd = 1 << ((n + 1) // 2)
        rec.f_interval = count_sum_free(IntervalUniverse((n + 2) // 3, n), cap)
        rec.ratio_half = f / 2 ** (n / 2)
    if with_maximal:
        rec.f_max = f_max
    if with_cardinality:
        rec.by_cardinality = hist
    if with_two_wise:
        if not (isinstance(u, IntervalUniverse) and u.lo == 1):
            raise ValueError("two-wise counting is defined for [1, n] universes")
        rec.f_two_wise = count_two_wise(u.hi)
    return rec
