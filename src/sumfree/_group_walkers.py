"""The group walkers: counts by orbits, and the maximal listings.

Group counts (with the maximal count and the histogram) use the symmetry,
by one rooting step taken ORBIT_DEPTH levels deep.  The automorphisms
that fix the members of a rooted set s split its candidates into orbits
(GroupSpec.fixing_orbits).  The sets above s that meet such an orbit Q
but no earlier one are found from s and one element of Q, a set with m
members in Q standing for |Q| / m sets, and one walk from s takes the
sets that meet only orbits of one element; these walks tally each set in
a cell without a visit.  A group's maximal sets (all of them, or those of
one small size, whose visit cuts the walk at a depth or with too much
left to cover) come from enumeration.py's _walk, which dispatches here.
"""

from typing import Optional

from .enumeration import _walk
from .universe import ElemSet, GroupUniverse, _mask_of, _positions

ORBIT_DEPTH = 2  # rooting steps in a group count


def _orbit_tally(u: GroupUniverse, maximal: bool) -> list[int]:
    """The sum-free sets of a group, by cardinality k and maximality x
    (entry 2k + x; x = 0 throughout unless maximal is set).

    One rooting step, taken from the empty set and from each set it roots
    until a set has ORBIT_DEPTH members.  At a rooted set s (its members
    in the order rooted: the prefix) with ground left, the automorphisms
    that fix each member of s map the sets above s in left onto
    themselves, and they split the candidates of s into orbits Q
    (GroupSpec.fixing_orbits, largest first).  The sets above s in left
    that meet Q but no earlier Q form a family B that they map onto
    itself, keeping k and x.  Of B, take the N(k, x, m) sets that hold q,
    a fixed element of Q, and have m members in Q.  The automorphisms
    move q onto every element of Q, so counting the pairs (y in t & Q, t)
    both ways gives m * #{t in B: k, x, m} = |Q| * N(k, x, m).  So for
    each Q of two or more candidates the step roots s | {q} in left,
    adds |Q| * N / m (checked to be exact) and leaves Q out of left.  The
    sets still to count meet only singletons, each of weight 1: one walk
    from s over left counts them and s.  Each rooting adds a digit for m
    to the cells: a member at y steps a set's cell by 1 in k and by 1 in
    the m of each Q that holds y, and maximality by 1 in x, one stride.
    """
    group, forbid, ground = u.group, u.forbid, u.ground_mask

    def root(prefix: tuple[int, ...], f: int, left: int, steps: list[int], stride: int,
             tally: list[int]) -> None:
        s = _mask_of(prefix, group.order)
        if len(prefix) < ORBIT_DEPTH:
            candidates = left & ~f
            for block in group.fixing_orbits(prefix, _positions(candidates)):
                if len(block) == 1:  # the larger ones come first
                    break
                q, size = block[0], len(block)
                qmask, width = _mask_of(block, group.order), size + 1
                counts = [0] * (len(tally) * width)  # [cell * width + m]
                root(prefix + (q,), forbid(s, f, q) | 1 << q, left,
                     [step * width + (qmask >> y & 1) for y, step in enumerate(steps)],
                     stride * width, counts)
                for i, n in enumerate(counts):
                    if n:
                        cell, m = divmod(i, width)
                        share, rem = divmod(size * n, m)
                        if rem:
                            raise RuntimeError(
                                f"{group.moduli}: {n} sum-free sets hold {prefix + (q,)} and "
                                f"{m} of the {size} elements of its block: "
                                f"{size} * {n} is not a multiple of {m}")
                        tally[cell] += share
                left &= ~qmask
        _walk(forbid, None, left, s, f, 0, counts=tally, steps=steps,
              cell=sum(steps[y] for y in prefix), stride=maximal and stride, whole=ground)

    out = [0] * (2 * group.order)
    root((), 0, ground, [2] * group.order, 1, out)
    return out


def _group_maximal(u: GroupUniverse, size: Optional[int] = None) -> list[ElemSet]:
    """The maximal sum-free sets of a group, ascending lexicographic; only
    those of the given cardinality if size is set.

    A group walk's forbidden mask holds exactly the elements that cannot
    join s, so s is maximal when ground & ~(s | forbidden) == 0.  With a
    size the walk is cut at that depth, and where more than budget[k] =
    sum_{j=k}^{size-1} (3j + 2) + |G[2]| * min(size - k, |2G| - 1) elements
    are outside s (k members) and its mask: b joining j members covers b,
    s' + b, s' - b and b - s' (s' in s | {b}, 0 twice) and the halves of
    b, a coset of G[2] if b is in 2G and none otherwise, so at most
    |2G| - 1 of the members to come have halves.  A ground past budget[0]
    is refused before any mask table is built.
    """
    ground = u.ground_mask
    found: list[int] = []
    if size is not None:
        halves = 1 << u.group.even_component_count()  # |G[2]|
        doubles = u.group.order // halves  # |2G|
        budget = [(size - k) * (4 + 3 * (size + k - 1)) // 2 + halves * min(size - k, doubles - 1)
                  for k in range(size + 1)]
        if ground.bit_count() > budget[0]:
            return []

    def visit(s: int, forbidden: int) -> bool:
        free, k = ground & ~(s | forbidden), s.bit_count()
        if not free and (size is None or k == size):
            found.append(s)
        return size is not None and (k == size or free.bit_count() > budget[k])

    _walk(u.forbid, visit, ground, 0, 0, 0, True)
    return [ElemSet(u, mask) for mask in found]
