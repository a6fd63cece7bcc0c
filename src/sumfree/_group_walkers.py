"""The group walkers: counts by orbits, and the maximal listings.

Group counts root sets down a stabiliser chain of the automorphisms, to
a depth the group sets (_orbit_tally).  A group's maximal sets (all, or
those of one size) come from a cutting visit on enumeration.py's _walk.
"""

from collections import defaultdict
from operator import itemgetter
from typing import Optional, Sequence

from .enumeration import _walk
from .groups import _orbit_partition
from .universe import ElemSet, GroupUniverse, _mask_of, _positions


def _orbits(gens: Sequence[tuple[int, ...]],
            elements: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The orbits meeting the elements of the group the tables gens generate."""
    return _orbit_partition(lambda x: [t[x] for t in gens], elements)


def _stabiliser(gens: Sequence[tuple[int, ...]], q: int) -> list[tuple[int, ...]]:
    """Generators of the stabiliser of q in the group the tables gens generate
    (Schreier's lemma): the first 64 distinct u_{t(y)}^-1 t u_y but the
    identity, y in q's orbit (BFS order) and t in gens, u_y mapping q to y
    along the BFS tree.  Any group that fixes the rooted set roots exactly."""
    identity = tuple(range(len(gens[0]))) if gens else ()  # 3+ entries: itemgetter gives tuples
    orbit, tree, found = [q], {q: identity}, {}
    for y in orbit:  # grows while it is read
        for t in gens:
            image = itemgetter(*tree[y])(t)  # t after u_y
            if t[y] not in tree:
                orbit.append(t[y])
            u = tree.setdefault(t[y], image)
            if u != image:
                found[itemgetter(*image)(sorted(identity, key=u.__getitem__))] = None
                if len(found) == 64:
                    return list(found)
    return list(found)


def _orbit_tally(u: GroupUniverse, maximal: bool) -> list[int]:
    """The sum-free sets of a group, by cardinality k and maximality x
    (entry 2k + x; x = 0 throughout unless maximal is set).

    One rooting step, from the empty set and from each set s it roots
    (members in the order rooted: the prefix), with ground left.  The
    group H that gens generate (the automorphisms at the empty set; at
    s | {q}, the _stabiliser of q in the H of s) fixes s, so it maps onto
    itself, keeping k and x, the family B of the sets above s in left that
    meet an orbit Q of the candidates (_orbits, largest first) but no
    earlier one, and moves q (fixed in Q) onto all of Q: if N sets of B
    hold q and m members of Q, B holds |Q| * N / m such sets (checked to
    be exact).  A rooting adds a digit for m, up to min(|Q|, |G| // 2), the
    most a sum-free set holds: a member at y steps a set's cell by 1 in k
    and in the m of each Q that holds y, and maximality by 1 in x.  While
    a Q of two or more candidates is left and the cells' index space stays
    within 2^c, c the candidates left (walking them visits fewer sets),
    the step counts B so from s | {q}, in a dict of the cells reached, and
    leaves Q out of left; one walk from s over left counts s and the rest.
    """
    group, forbid, ground = u.group, u.forbid, u.ground_mask

    def root(prefix: tuple[int, ...], s: int, gens: Sequence[tuple[int, ...]], f: int,
             left: int, steps: list[int], stride: int, tally: list[int] | dict[int, int]) -> None:
        for block in _orbits(gens, _positions(left & ~f)):
            q, size, width = block[0], len(block), min(len(block), group.order // 2) + 1
            if size == 1 or 2 * group.order * stride * width > 1 << (left & ~f).bit_count():
                break
            qmask = _mask_of(block, group.order)
            counts: defaultdict[int, int] = defaultdict(int)  # [cell * width + m]
            root(prefix + (q,), s | 1 << q, _stabiliser(gens, q), forbid(s, f, q) | 1 << q, left,
                 [step * width + (qmask >> y & 1) for y, step in enumerate(steps)],
                 stride * width, counts)
            for i, n in sorted(counts.items()):  # a bad division names its lowest cell
                cell, m = divmod(i, width)
                share, rem = divmod(size * n, m)
                if rem:
                    raise RuntimeError(f"{group.moduli}: {n} sum-free sets hold {prefix + (q,)} "
                                       f"and {m} of the {size} elements of its block: "
                                       f"{size} * {n} is not a multiple of {m}")
                tally[cell] += share
            left &= ~qmask
        _walk(forbid, None, left, s, f, 0, counts=tally, steps=steps,
              cell=sum(steps[y] for y in prefix), stride=maximal and stride, whole=ground)

    out = [0] * (2 * group.order)
    root((), 0, group.automorphisms, 0, ground, [2] * group.order, 1, out)
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
