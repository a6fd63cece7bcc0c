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
"""

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

from .groups import GroupSpec


@dataclass(frozen=True)
class IntervalUniverse:
    """Integers lo..hi (1 <= lo <= hi) under ordinary addition."""

    lo: int
    hi: int

    def __post_init__(self):
        if not 1 <= self.lo <= self.hi:
            raise ValueError(f"need 1 <= lo <= hi, got [{self.lo}, {self.hi}]")

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

    def describe(self) -> str:
        return f"interval[{self.lo},{self.hi}]"


@dataclass(frozen=True)
class GroupUniverse:
    """A finite abelian group; the ground set excludes the identity."""

    group: GroupSpec

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

    def describe(self) -> str:
        return "group[" + ",".join(str(m) for m in self.group.moduli) + "]"


Universe = Union[IntervalUniverse, GroupUniverse]


@dataclass(frozen=True)
class ElemSet:
    """An immutable subset of a universe, stored as a membership bit mask."""

    universe: Universe
    mask: int

    @classmethod
    def from_values(cls, universe: Universe, values: Iterable[int]) -> "ElemSet":
        mask = 0
        for v in values:
            mask |= 1 << universe.slot_of(v)
        return cls(universe, mask)

    @classmethod
    def empty(cls, universe: Universe) -> "ElemSet":
        return cls(universe, 0)

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    def members(self) -> tuple[int, ...]:
        """Member values in ascending canonical order."""
        out = []
        m = self.mask
        while m:
            b = m & -m
            m ^= b
            out.append(self.universe.value_of(b.bit_length() - 1))
        return tuple(out)

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


def _check_universe(u: Universe, *sets: ElemSet) -> None:
    for s in sets:
        if s.universe != u:
            raise ValueError(
                f"set over {s.universe.describe()} used with {u.describe()}"
            )


def is_sum_free(u: Universe, s: ElemSet) -> bool:
    """True iff no x, y in s (x = y allowed) have x + y in s."""
    _check_universe(u, s)
    mem = s.members()
    members = set(mem)
    for i, x in enumerate(mem):
        for y in mem[i:]:
            sv = u.sum_value(x, y)
            if sv is not None and sv in members:
                return False
    return True


def is_a_free(u: Universe, s: ElemSet, a: ElemSet) -> bool:
    """True iff (s + a) and s are disjoint; is_a_free(u, s, s) is sum-freeness."""
    _check_universe(u, s, a)
    for x in a.members():
        for y in s.members():
            sv = u.sum_value(x, y)
            if sv is not None and sv in s:
                return False
    return True


def is_difference_free(u: Universe, s: ElemSet) -> bool:
    """True iff s avoids its own difference set {b - c}.

    Agrees with is_sum_free on every input, but is computed through the
    difference set on purpose so the two predicates stay independent
    checks of each other.
    """
    _check_universe(u, s)
    mem = s.members()
    for b in mem:
        for c in mem:
            d = u.diff_value(b, c)
            if d is not None and d in s:
                return False
    return True


def count_schur_triples(u: Universe, s: ElemSet) -> int:
    """Number of ordered pairs (a, b) from s with a + b also in s.

    Equivalently the number of 3-tuples (a, b, c), a + b = c, all in s;
    zero exactly when s is sum-free.
    """
    _check_universe(u, s)
    mem = s.members()
    members = set(mem)
    total = 0
    for x in mem:
        for y in mem:
            sv = u.sum_value(x, y)
            if sv is not None and sv in members:
                total += 1
    return total


def _can_extend(u: Universe, part: set[int], v: int) -> bool:
    """Does part + {v} stay sum-free, given that part already is?"""
    sv = u.sum_value(v, v)
    if sv is not None and (sv == v or sv in part):
        return False
    for x in part:
        sx = u.sum_value(x, v)
        if sx is not None and (sx == v or sx in part):
            return False
        dx = u.diff_value(v, x)
        if dx is not None and dx in part:
            return False
    return True


def is_maximal_sum_free(u: Universe, s: ElemSet) -> bool:
    """True iff s is sum-free and no ground element can be added to it."""
    _check_universe(u, s)
    if not is_sum_free(u, s):
        return False
    mem = set(s.members())
    for g in u.ground_values():
        if g not in mem and _can_extend(u, mem, g):
            return False
    return True


def is_two_wise_sum_free(u: Universe, s: ElemSet) -> bool:
    """True iff s splits into two disjoint sum-free parts (either may be empty).

    Every sum-free set trivially qualifies.  Otherwise decided by
    backtracking 2-coloring against the Schur-triple constraints inside s,
    on an explicit stack so that large sets cannot exhaust the recursion
    limit.
    """
    if is_sum_free(u, s):
        return True
    elems = s.members()
    parts: tuple[set[int], set[int]] = (set(), set())
    chosen: list[int] = []  # the part of elems[i] for each placed i
    first_try = 0
    while len(chosen) < len(elems):
        i = len(chosen)
        v = elems[i]
        # the first element can go into the first part without loss of generality
        for p in range(first_try, 1 if i == 0 else 2):
            if _can_extend(u, parts[p], v):
                parts[p].add(v)
                chosen.append(p)
                first_try = 0
                break
        else:
            if not chosen:
                return False
            p = chosen.pop()
            parts[p].remove(elems[len(chosen)])
            first_try = p + 1
    return True
