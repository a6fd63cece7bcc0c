"""Finite abelian groups presented as direct sums of cyclic groups.

A group is an ordered tuple of cyclic moduli (empty tuple = trivial group).
An element is its canonical mixed-radix index in [0, order), the first
modulus least significant, and a set of elements (a subgroup too) is the
mask of its indices.  Every bit array and serialized set in this package
addresses group elements by that index, so enumeration order, sharding
and golden files are deterministic.
"""

import math
from functools import cached_property
from itertools import product
from typing import Callable, Iterable, Sequence, TypeVar

from ._record import Record
from .arith import partitions, prime_factors
from .errors import DEFAULT_MAX_ORDER, CapacityError
from .universe import _positions, _rotate


class GroupSpec(Record):
    """A finite abelian group Z_m1 x Z_m2 x ... under componentwise addition."""

    moduli: tuple[int, ...]

    @cached_property
    def order(self) -> int:
        return math.prod(self.moduli)

    @cached_property
    def decomposition(self) -> tuple[int, ...]:
        """Prime-power cyclic factors (sorted multiset).

        Each modulus is CRT-split into its prime-power parts; the resulting
        multiset is a complete invariant of the isomorphism class.
        """
        parts: list[int] = []
        for m in self.moduli:
            parts.extend(p ** e for p, e in prime_factors(m).items())
        return tuple(sorted(parts))

    @cached_property
    def _radices(self) -> tuple[int, ...]:
        """Place values of the mixed-radix encoding (first modulus least significant)."""
        radices = []
        r = 1
        for m in self.moduli:
            radices.append(r)
            r *= m
        return tuple(radices)

    # element plumbing ----------------------------------------------------

    def element(self, coords: Iterable[int]) -> int:
        """The index of the element with the given coordinates."""
        c = tuple(coords)
        if len(c) != len(self.moduli):
            raise ValueError(f"expected {len(self.moduli)} coordinates, got {len(c)}")
        for x, m in zip(c, self.moduli):
            if not 0 <= x < m:
                raise ValueError(f"invalid element: coordinate {x} not in [0, {m})")
        return self.coords_to_index(c)

    def _checked(self, index: int) -> int:
        """The index, refused (ValueError) unless it names an element: out of
        range, index_to_coords would read it as another element."""
        if not 0 <= index < self.order:
            raise ValueError(f"invalid element index {index} for order {self.order}")
        return index

    def coords_to_index(self, coords: Sequence[int]) -> int:
        return sum(x * r for x, r in zip(coords, self._radices))

    def index_to_coords(self, index: int) -> tuple[int, ...]:
        out = []
        for m in self.moduli:
            index, x = divmod(index, m)
            out.append(x)
        return tuple(out)

    def add_index(self, i: int, j: int) -> int:
        out = 0
        for m, r in zip(self.moduli, self._radices):
            i, x = divmod(i, m)
            j, y = divmod(j, m)
            out += (x + y) % m * r
        return out

    def neg_index(self, i: int) -> int:
        return self.coords_to_index(
            tuple((-x) % m for x, m in zip(self.index_to_coords(i), self.moduli))
        )

    # index masks -----------------------------------------------------------

    @cached_property
    def negation(self) -> tuple[int, ...]:
        """negation[i] is the index of -i."""
        return tuple(self.neg_index(i) for i in range(self.order))

    @cached_property
    def _block_repeats(self) -> tuple[int, ...]:
        """Per coordinate, the index mask with the lowest bit of every block
        of radix * modulus indices set."""
        full = (1 << self.order) - 1
        return tuple(full // ((1 << (r * m)) - 1) for m, r in zip(self.moduli, self._radices))

    def translation_steps(self, v: int) -> tuple[tuple[int, int, int], ...]:
        """The block rotations that map the index mask of X to that of X + v.

        One (low, up, down) per nonzero coordinate a of v, with modulus M
        and radix r: the bits in low (coordinate below M - a) move up by
        a*r, the others wrap down by (M - a)*r.  A cyclic group needs one
        rotation; on Z_2^k each step swaps the halves of the blocks of one
        coordinate (the XOR butterfly).
        """
        return tuple(
            (((1 << (r * (m - a))) - 1) * repeat, a * r, (m - a) * r)
            for a, m, r, repeat in zip(self.index_to_coords(v), self.moduli, self._radices,
                                       self._block_repeats)
            if a
        )

    def translate(self, mask: int, v: int) -> int:
        """Index mask of X + v, for X given by its index mask."""
        return _rotate(mask, self.translation_steps(v))

    # automorphisms ---------------------------------------------------------

    @cached_property
    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """Permutation tables (table[i] is the index of phi(i)) of automorphisms.

        Each is given by the images of the basis elements e_k (index: the
        radix of k): the unit dilations x -> u*x, for u in a generating
        set of the units modulo the exponent (each u the least unit the
        earlier ones do not generate); the swaps e_i <-> e_j of equal
        moduli; the shears e_j -> e_j + (m_i / gcd(m_i, m_j))*e_i.  Every
        table is checked to be a bijection with
        phi(a + e_k) = phi(a) + phi(e_k) for all a and k, which makes it
        an automorphism.  None is the identity.
        """
        mods, rads = self.moduli, self._radices
        exp = self.exponent()
        units, reached = [], {1}  # reached: the subgroup the units generate
        for u in range(2, exp):
            if math.gcd(u, exp) == 1 and u not in reached:
                units.append(u)
                (generated,) = _orbit_partition(lambda x: [x * v % exp for v in units], [1])
                reached = set(generated)
        images = [[u % m * r for m, r in zip(mods, rads)] for u in units]
        for i, (mi, ri) in enumerate(zip(mods, rads)):
            for j, (mj, rj) in enumerate(zip(mods, rads)):
                if i < j and mi == mj:
                    swap = list(rads)
                    swap[i], swap[j] = rj, ri
                    images.append(swap)
                c = mi // math.gcd(mi, mj) % mi
                if i != j and c:
                    shear = list(rads)
                    shear[j] = rj + c * ri
                    images.append(shear)
        return tuple(self._automorphism_table(img) for img in images)

    def _automorphism_table(self, images: list[int]) -> tuple[int, ...]:
        table = [0]
        for m, img in zip(self.moduli, images):
            multiples = [0]
            for _ in range(m - 1):
                multiples.append(self.add_index(multiples[-1], img))
            # indices below the radix of this coordinate are already mapped
            table = [self.add_index(t, x) for x in multiples for t in table]
        if sorted(table) != list(range(self.order)) or any(
            table[self.add_index(a, e)] != self.add_index(table[a], table[e])
            for e in self._radices for a in range(self.order)
        ):
            raise RuntimeError(f"basis images {images} give no automorphism of {self.moduli}")
        return tuple(table)

    # derived structure ----------------------------------------------------

    def element_order(self, a: int) -> int:
        """Least k >= 1 with k*a = 0 (a an index); divides the group order."""
        coords = self.index_to_coords(self._checked(a))  # () in the trivial group: lcm() = 1
        return math.lcm(*(m // math.gcd(x, m) for x, m in zip(coords, self.moduli)))

    def exponent(self) -> int:
        """Largest order of any element (the lcm of the moduli)."""
        return math.lcm(*self.moduli) if self.moduli else 1

    def even_component_count(self) -> int:
        """Number of even prime-power factors in the canonical decomposition."""
        return sum(1 for q in self.decomposition if q % 2 == 0)


_T = TypeVar("_T")


def _orbit_partition(images: Callable[[_T], Iterable[_T]],
                     elements: Iterable[_T]) -> tuple[tuple[_T, ...], ...]:
    """The orbits under the map x -> images(x) that meet the elements, each
    the BFS closure of the first of its members the elements give: each
    ascending, the largest first, and orbits of equal size in the order the
    elements meet them."""
    seen, out = set(), []
    for x in elements:
        if x in seen:
            continue
        seen.add(x)
        orbit = [x]
        for y in orbit:  # grows while it is read
            for z in images(y):
                if z not in seen:
                    seen.add(z)
                    orbit.append(z)
        out.append(tuple(sorted(orbit)))
    out.sort(key=len, reverse=True)
    return tuple(out)


def make_group(moduli: Iterable[int]) -> GroupSpec:
    """Build a GroupSpec, validating moduli and the order cap."""
    mods = tuple(moduli)
    for m in mods:
        if not isinstance(m, int) or m < 2:
            raise ValueError(f"invalid modulus {m!r}: must be an integer >= 2")
    order = math.prod(mods)
    if order > DEFAULT_MAX_ORDER:
        raise CapacityError(f"group order {order} exceeds cap {DEFAULT_MAX_ORDER}")
    return GroupSpec(mods)


class Subgroup(Record):
    """A verified subgroup, stored as the index mask of its members.

    The identity is always a member, which is why the mask is not an
    ElemSet (group universes drop the identity from their ground set).
    Construction checks that the members are indices of the parent,
    closure and the Lagrange condition.
    """

    parent: GroupSpec
    mask: int

    def __post_init__(self):
        g, mask = self.parent, self.mask
        if not mask & 1:
            raise ValueError("subgroup must contain the identity")
        if mask < 0 or mask >> g.order:
            raise ValueError(f"subgroup members must be element indices in [0, {g.order})")
        if g.order % self.order != 0:
            raise ValueError("subgroup size does not divide the group order")
        neg = g.negation
        for i in _positions(mask):
            if not mask >> neg[i] & 1:
                raise ValueError("subgroup not closed under negation")
            if g.translate(mask, i) != mask:
                raise ValueError("subgroup not closed under addition")

    @property
    def order(self) -> int:
        return self.mask.bit_count()

    def members(self) -> tuple[int, ...]:
        """Member indices, ascending."""
        return tuple(_positions(self.mask))


def generated_subgroup(g: GroupSpec, gens: Sequence[int]) -> Subgroup:
    """Closure of the generators (indices) under addition (hence negation,
    the group being finite), including the identity."""
    gens = [g._checked(x) for x in gens]
    mask, grown = 0, 1
    while grown != mask:
        mask = grown
        for x in gens:
            grown |= g.translate(mask, x)
    return Subgroup(g, mask)


def index2_subgroups(g: GroupSpec) -> list[Subgroup]:
    """All subgroups of index exactly 2 (none for odd order).

    Each one is the kernel of a nonzero homomorphism onto the 2-element
    group, a parity vector on the even moduli: 2^V - 1 of them, V the even
    component count.  A kernel is the complement of the XOR of the index
    masks with an odd coordinate at its moduli (r zeros, r ones, for radix r).
    """
    full, odd = (1 << g.order) - 1, [0]  # odd[bits]: the XOR for the parity vector bits
    for m, r in zip(g.moduli, g._radices):
        if m % 2 == 0:
            mask = full // ((1 << 2 * r) - 1) * (((1 << r) - 1) << r)
            odd += [x ^ mask for x in odd]
    return [Subgroup(g, full ^ x) for x in odd[1:]]


def abelian_groups_of_order(n: int) -> list[GroupSpec]:
    """One GroupSpec per isomorphism class of abelian groups of order n.

    Classes are the products, over primes p | n, of the partitions of the
    exponent of p; moduli come out as prime powers, primes ascending and
    parts descending, so the listing is deterministic (e.g. order 8 yields
    C8, C4xC2, C2xC2xC2 in that order).
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n == 1:
        return [GroupSpec(())]
    factored = sorted(prime_factors(n).items())
    per_prime = [
        [tuple(p ** part for part in lam) for lam in partitions(e)]
        for p, e in factored
    ]
    out = []
    for combo in product(*per_prime):
        moduli = tuple(q for block in combo for q in block)
        out.append(GroupSpec(moduli))
    return out
