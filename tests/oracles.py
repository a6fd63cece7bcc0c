"""Independent brute-force oracles used by the test suite.

These deliberately avoid the package's optimized code paths: subsets come
from a raw binary counter and every coloring is tried exhaustively, and
group elements are coordinate tuples, never the package's indices or masks.
"""

from itertools import product


def sum_free_table(n: int) -> list[bool]:
    """sum_free[mask] for every subset mask of [1, n] (bit v holds value v)."""
    table = [False] * (1 << (n + 1))
    table[0] = True
    for mask in range(2, 1 << (n + 1), 2):
        top = mask.bit_length() - 1
        rest = mask ^ (1 << top)
        if not table[rest]:
            continue
        ok = True
        m = rest
        while m:
            b = m & -m
            m ^= b
            x = b.bit_length() - 1
            other = top - x
            if other >= 1 and (rest >> other) & 1:
                ok = False
                break
        table[mask] = ok
    return table


def two_wise_count_oracle(n: int) -> int:
    """Count subsets of [1, n] splittable into two sum-free parts by trying
    every submask as the first part."""
    table = sum_free_table(n)
    total = 0
    for r in range(1 << n):
        mask = r << 1
        if mask == 0:
            total += 1
            continue
        low = mask & -mask
        rest = mask ^ low
        # the part holding the smallest element ranges over submasks of rest
        sub = rest
        found = False
        while True:
            p0 = sub | low
            if table[p0] and table[mask ^ p0]:
                found = True
                break
            if sub == 0:
                break
            sub = (sub - 1) & rest
        total += found
    return total


def two_wise_split_walk(n: int) -> int:
    """Count subsets of [1, n] splittable into two sum-free parts by walking
    them in ascending order with every split of the current set.

    A split is (part, its sums, other part, its sums), masks with bit v for
    value v.  A larger element joins a part unless it is a sum of two of
    that part's members; a set with no split left ends its branch, since
    the family is closed under taking subsets.
    """
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


def group_count_oracle(moduli: tuple[int, ...]) -> tuple[int, int, dict[int, int]]:
    """(count, maximal count, {cardinality: count}) of the sum-free subsets
    of Z_m1 x Z_m2 x ..., from coordinate tuples and Python sets.

    Grows the family one element at a time, in the order of the tuples:
    x joins a sum-free s iff no x + a lies in s | {x} and no x - a in s
    (a in s).  A set is maximal iff no set one element larger contains it.
    """
    elements = list(product(*(range(m) for m in moduli)))
    plus = {a: {b: tuple((x + y) % m for x, y, m in zip(a, b, moduli)) for b in elements}
            for a in elements}
    minus = {a: {b: tuple((x - y) % m for x, y, m in zip(a, b, moduli)) for b in elements}
             for a in elements}
    family = []
    # (set, position of the next tuple it may take); tuple 0, the identity, never fits
    level = [(frozenset(), 1)]
    while level:
        family.extend(s for s, _ in level)
        grown = []
        for s, first in level:
            for i in range(first, len(elements)):
                x = elements[i]
                t = s | {x}
                px, mx = plus[x], minus[x]
                if all(px[a] not in t and mx[a] not in s for a in t):
                    grown.append((t, i + 1))
        level = grown
    extended = {s - {x} for s in family for x in s}
    histogram: dict[int, int] = {}
    for s in family:
        histogram[len(s)] = histogram.get(len(s), 0) + 1
    return len(family), sum(1 for s in family if s not in extended), histogram


def index2_kernel_oracle(moduli: tuple[int, ...]) -> list[frozenset[int]]:
    """The index-2 subgroups of Z_m1 x Z_m2 x ..., one per nonzero parity
    vector on the even moduli (bit j for the j-th even modulus, vectors
    ascending): the elements whose chosen coordinates have an even sum.
    Each element's index is worked out from its coordinate tuple here, the
    first coordinate least significant."""
    even = [i for i, m in enumerate(moduli) if m % 2 == 0]
    radices = [1]
    for m in moduli:
        radices.append(radices[-1] * m)
    elements = list(product(*(range(m) for m in moduli)))
    kernels = []
    for bits in range(1, 1 << len(even)):
        chosen = [i for j, i in enumerate(even) if bits >> j & 1]
        kernels.append(frozenset(sum(x * r for x, r in zip(c, radices)) for c in elements
                                 if sum(c[i] for i in chosen) % 2 == 0))
    return kernels


def interval_tally_oracle(lo: int, hi: int) -> tuple[int, int, dict[int, int], list[tuple]]:
    """(count, maximal count, {cardinality: count}, the maximal sets) of the
    sum-free subsets of [lo, hi], from tuples and Python sets of values.

    Grows each set by values above its largest member, smallest first, so
    the maximal sets come ascending lexicographic.  A set carries its sums
    a + b and the values that cannot join it: its members, sums, positive
    differences b - a and halves.  x joins s iff x is no sum; s is maximal
    iff no value of [lo, hi] can join it.
    """
    count, histogram, maximal = 0, {}, []
    window = frozenset(range(lo, hi + 1))
    stack = [((), frozenset(), frozenset())]  # (members, sums, values that cannot join)
    while stack:
        s, sums, blocked = stack.pop()
        count += 1
        histogram[len(s)] = histogram.get(len(s), 0) + 1
        if blocked >= window:
            maximal.append(s)
        # pushed largest first, so that the smallest extension is popped first
        for x in range(hi, s[-1] if s else lo - 1, -1):
            if x not in sums:
                t = s + (x,)
                new_sums = {x + a for a in t}
                halves = {x // 2} if x % 2 == 0 else set()
                stack.append((t, sums | new_sums,
                              blocked | {x} | new_sums | {x - a for a in s} | halves))
    return count, len(maximal), dict(sorted(histogram.items())), maximal


def first_usable_prime(elements: list[int]) -> int:
    """The least prime p = 2 (mod 3) dividing no element: each candidate is
    tested for primality by trial division, then tried on every element."""
    p = 2
    while True:
        if p % 3 == 2 and all(p % d for d in range(2, p)):
            if all(a % p for a in elements):
                return p
        p += 1
