"""Ambient addition structures and the verification predicates on subsets.

A universe is either an integer interval [lo, hi] under ordinary addition
or a finite abelian group under componentwise modular addition.  Subsets
are ElemSet values: an immutable bit mask over the universe's canonical
element indexing (interval: value - lo, group: the mixed-radix index).

Two conventions matter everywhere downstream:

* x = y is allowed in the sum test, so 1 + 1 = 2 already disqualifies
  {1, 2}; without this the small-n extremal classifications come out wrong.
* A group universe's *ground set* (the candidates offered to constructions
  and enumerators) is the group minus its identity, since any set holding
  e fails e + e = e.  Verification predicates still accept sets containing
  the identity and report them as not sum-free.

Interval sums that overflow the window are simply outside every subset,
never an error.

The predicates read the universe off the set; is_a_free refuses two sets
over different universes with ValueError.

Each universe is also the home of its mask arithmetic: plus and minus
for the predicates, and the step of the walks in enumeration.py and
_group_walkers.py (_interval_walkers.py keeps its own).  Walks take
candidates from slot first_slot on; forbid(s, f, slot) turns the
forbidden mask f of s into that of s plus the element at slot (for an
interval, a slot above s), and excluded(c, slot) bounds how much of c a
sum-free set holding that element must leave out.

Masks and positions convert only through _positions, which reads the
mask's bytes (zero bytes skipped, the bits of the others looked up), and
_mask_of, which sets bits in a bytearray: O(width / 8 + members) at any
width, where a per-bit step on a big int would rewrite it whole.
"""

from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Union

from ._record import Record
from .errors import DEFAULT_MAX_ORDER, CapacityError

if TYPE_CHECKING:
    from .groups import GroupSpec

_NONZERO_BYTES = bytes([0] + [1] * 255)  # translation table: nonzero bytes to 1
_BYTE_BITS = [()]  # _BYTE_BITS[b]: the set bits of the byte b, ascending
for _bit in range(8):
    _BYTE_BITS += [bits + (_bit,) for bits in _BYTE_BITS]


def _positions(mask: int) -> list[int]:
    """The set bits of a nonnegative mask, ascending."""
    out = []
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    marks = data.translate(_NONZERO_BYTES)
    i = marks.find(1)
    while i >= 0:
        base = 8 * i
        for b in _BYTE_BITS[data[i]]:
            out.append(base + b)
        i = marks.find(1, i + 1)
    return out


def _mask_of(positions: Iterable[int], width: int) -> int:
    """The mask with the given bits set, each position in [0, width]."""
    buf = bytearray(width // 8 + 1)
    for i in positions:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def _rotate(mask: int, steps: tuple[tuple[int, int, int], ...]) -> int:
    """Apply block rotations (GroupSpec.translation_steps) to an index mask."""
    for low, up, down in steps:
        part = mask & low
        mask = (part << up) | ((mask ^ part) >> down)
    return mask


class IntervalUniverse(Record):
    """Integers lo..hi (1 <= lo <= hi) under ordinary addition."""

    lo: int
    hi: int

    def __post_init__(self):
        if not 1 <= self.lo <= self.hi:
            raise ValueError(f"need 1 <= lo <= hi, got [{self.lo}, {self.hi}]")
        if self.ground_size > DEFAULT_MAX_ORDER:  # every set of it builds a mask this wide
            raise CapacityError(f"{self.describe()} has {self.ground_size} elements, "
                                f"cap is {DEFAULT_MAX_ORDER}")

    @property
    def ground_size(self) -> int:
        return self.hi - self.lo + 1

    def ground_values(self) -> range:
        return range(self.lo, self.hi + 1)

    def contains_value(self, v: int) -> bool:
        return self.lo <= v <= self.hi

    def slot_of(self, v: int) -> int:
        if not self.lo <= v <= self.hi:
            raise ValueError(f"{v} is not in interval [{self.lo}, {self.hi}]")
        return v - self.lo

    def value_of(self, slot: int) -> int:
        return slot + self.lo

    def sum_value(self, a: int, b: int) -> Optional[int]:
        s = a + b
        return s if s <= self.hi else None

    def diff_value(self, a: int, b: int) -> Optional[int]:
        d = a - b
        return d if self.lo <= d <= self.hi else None

    @cached_property
    def ground_mask(self) -> int:
        return (1 << self.ground_size) - 1

    def plus(self, mask: int, x: int) -> int:
        """Slot mask of (X + x) inside the interval, X given by its slot mask.

        The members that land inside are picked before the shift, so a
        window far from 1 builds no x-bit int on the way."""
        return (mask & self.ground_mask >> x) << x

    def minus(self, mask: int, x: int) -> int:
        """Slot mask of (X - x) inside the interval."""
        return mask >> x

    first_slot = 0  # the slot of lo

    def forbid(self, s: int, f: int, slot: int) -> int:
        """The forbidden mask once v (at slot, above s) joins s: every x + v,
        x in s | {v}, is off limits, and only sums can hit a later candidate."""
        return f | self.plus(s | 1 << slot, slot + self.lo)

    def excluded(self, c: int, slot: int) -> int:
        """Elements of c a sum-free subset holding v (at slot) leaves out: the
        pairs a, a + v in c form paths, so ceil(E/2) for E pairs."""
        return ((c & self.plus(c, slot + self.lo)).bit_count() + 1) // 2

    def describe(self) -> str:
        return f"interval[{self.lo},{self.hi}]"


class GroupUniverse(Record):
    """A finite abelian group; the ground set excludes the identity."""

    group: "GroupSpec"

    @property
    def ground_size(self) -> int:
        return self.group.order - 1

    def ground_values(self) -> range:
        return range(1, self.group.order)

    def contains_value(self, v: int) -> bool:
        return 0 <= v < self.group.order

    def slot_of(self, v: int) -> int:
        if not 0 <= v < self.group.order:
            raise ValueError(f"{v} is not an element index of {self.describe()}")
        return v

    def value_of(self, slot: int) -> int:
        return slot

    def sum_value(self, a: int, b: int) -> int:
        return self.group.add_index(a, b)

    def diff_value(self, a: int, b: int) -> int:
        return self.group.add_index(a, self.group.neg_index(b))

    @cached_property
    def ground_mask(self) -> int:
        return (1 << self.group.order) - 2

    def plus(self, mask: int, x: int) -> int:
        """Index mask of X + x, X given by its index mask."""
        return self.group.translate(mask, x)

    def minus(self, mask: int, x: int) -> int:
        """Index mask of X - x."""
        return self.group.translate(mask, self.group.neg_index(x))

    first_slot = 1  # the identity is not a candidate

    @cached_property
    def _plans(self) -> list[tuple[int, tuple, Optional[tuple]]]:
        """Per slot v: its halves and -v (above bit order), the rotations by
        v and by -v; none by -v when v = -v, as then s' - v = s' + v."""
        g = self.group
        order, neg = g.order, g.negation
        halves = [0] * order
        for x in range(order):
            halves[g.add_index(x, x)] |= 1 << x
        steps = [g.translation_steps(v) for v in range(order)]
        return [(halves[v] | 1 << (order + neg[v]), steps[v],
                 steps[neg[v]] if neg[v] != v else None) for v in range(order)]

    @cached_property
    def forbid(self) -> Callable[[int, int, int], int]:
        """forbid(s, f, slot): the forbidden mask once v (at slot) joins s.

        With s' = s | {v}, that adds s' + v, s' - v, v - s' and the halves
        of v: one translation by v of s' | -s' and one by -v of s'.  The
        mask carries -s' above bit order, where the ground tests do not
        look.  A closure over the tables rather than a method: the walks
        call it once a node, where reading them off self costs a few
        percent.
        """
        order, plans = self.group.order, self._plans

        def forbid(s: int, f: int, slot: int) -> int:
            own, plus, minus = plans[slot]
            s2 = s | (1 << slot)
            nf = f | own
            nf |= _rotate(s2 | (nf >> order), plus)
            return nf if minus is None else nf | _rotate(s2, minus)

        return forbid

    def excluded(self, c: int, slot: int) -> int:
        """Elements of c a sum-free subset holding v (at slot) leaves out: the
        pairs a, a + v in c form paths and cycles, ceil(E/2) for E pairs;
        when v = -v each pair is counted from both ends."""
        _, plus, minus = self._plans[slot]
        e = (c & _rotate(c, plus)).bit_count()
        return e // 2 if minus is None else (e + 1) // 2

    def describe(self) -> str:
        return "group[" + ",".join(str(m) for m in self.group.moduli) + "]"


Universe = Union[IntervalUniverse, GroupUniverse]


class ElemSet(Record):
    """An immutable subset of a universe, stored as a membership bit mask."""

    universe: Universe
    mask: int

    @classmethod
    def from_values(cls, universe: Universe, values: Iterable[int]) -> "ElemSet":
        return cls(universe, _mask_of(map(universe.slot_of, values), universe.ground_size))

    @classmethod
    def empty(cls, universe: Universe) -> "ElemSet":
        return cls(universe, 0)

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    def members(self) -> tuple[int, ...]:
        """Member values in ascending canonical order."""
        return tuple(map(self.universe.value_of, _positions(self.mask)))

    def __contains__(self, v: int) -> bool:
        if not self.universe.contains_value(v):
            return False
        return bool((self.mask >> self.universe.slot_of(v)) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    def __len__(self) -> int:
        return self.mask.bit_count()

    def with_value(self, v: int) -> "ElemSet":
        return ElemSet(self.universe, self.mask | (1 << self.universe.slot_of(v)))

    def to_json_list(self) -> list[int]:
        """Serialized form: the sorted member values (group sets: indices)."""
        return list(self.members())


def _misses_sums(u: Universe, mask: int, addends: Iterable[int]) -> bool:
    """True iff mask + x misses mask for every x in addends."""
    return not any(u.plus(mask, x) & mask for x in addends)


def is_sum_free(s: ElemSet) -> bool:
    """True iff no x, y in s (x = y allowed) have x + y in s: s + x misses s."""
    return _misses_sums(s.universe, s.mask, s.members())


def is_a_free(s: ElemSet, a: ElemSet) -> bool:
    """True iff (s + a) and s are disjoint; is_a_free(s, s) is sum-freeness."""
    if a.universe != s.universe:
        raise ValueError(f"sets over {s.universe.describe()} and {a.universe.describe()}")
    return _misses_sums(s.universe, s.mask, a.members())


def is_difference_free(s: ElemSet) -> bool:
    """True iff s avoids its own difference set {b - c}.

    Agrees with is_sum_free on every input, but is computed through the
    difference set on purpose so the two predicates stay independent
    checks of each other.
    """
    u = s.universe
    mem = s.members()
    for b in mem:
        for c in mem:
            d = u.diff_value(b, c)
            if d is not None and d in s:
                return False
    return True


def count_schur_triples(s: ElemSet) -> int:
    """Number of ordered pairs (a, b) from s with a + b also in s.

    Equivalently the number of 3-tuples (a, b, c), a + b = c, all in s;
    zero exactly when s is sum-free.
    """
    u, mask = s.universe, s.mask
    return sum((u.plus(mask, x) & mask).bit_count() for x in s.members())


def is_maximal_sum_free(s: ElemSet) -> bool:
    """True iff s is sum-free and no ground element can be added to it.

    A candidate v cannot join s when it is a sum (v = x + y), a difference
    (v + x = y) or a half (v + v = y) of members.  The first two are
    masks; the few candidates they leave must each double into s.
    """
    u, mask = s.universe, s.mask
    sums = diffs = 0
    for x in s.members():
        sums |= u.plus(mask, x)
        diffs |= u.minus(mask, x)
    if sums & mask:
        return False
    rest = u.ground_mask & ~(mask | sums | diffs)
    return all(u.plus(1 << i, u.value_of(i)) & mask for i in _positions(rest))


def is_two_wise_sum_free(s: ElemSet) -> bool:
    """True iff s splits into two disjoint sum-free parts (either may be empty).

    Decided by backtracking 2-coloring on an explicit stack, so that large
    sets cannot exhaust the recursion limit.  Each part carries its sumset
    mask: v joins part p unless v is in it or v + (p | {v}) meets p | {v}.
    A sum-free set goes into the first part whole, without backtracking.
    """
    u = s.universe
    elems = s.members()
    parts, sums = [0, 0], [0, 0]
    chosen: list[tuple[int, int]] = []  # (part, its sums before) per placed element
    first_try = 0
    while len(chosen) < len(elems):
        i = len(chosen)
        v = elems[i]
        bit = 1 << u.slot_of(v)
        # the first element can go into the first part without loss of generality
        for p in range(first_try, 1 if i == 0 else 2):
            grown = parts[p] | bit
            new = u.plus(grown, v)
            if not (sums[p] | new) & grown:
                chosen.append((p, sums[p]))
                parts[p] = grown
                sums[p] |= new
                first_try = 0
                break
        else:
            if not chosen:
                return False
            p, sums[p] = chosen.pop()
            parts[p] ^= 1 << u.slot_of(elems[len(chosen)])
            first_try = p + 1
    return True
