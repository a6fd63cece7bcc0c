"""Dump the exact results of the src/ next to this script, one line per universe.

    python3 tools/offline_dump.py > dump.txt

The sizes are the caps of the library, so each listing reaches as far
as its call allows: 64 is MAXIMUM_CAP + 1, 41 is DEFAULT_GROUND_CAP + 1
(a count's ground cap 40, plus the identity), and 20 is the largest n
whose two-wise table of 2^n bits is no wider than DEFAULT_MAX_ORDER.

For every abelian group of order 2-64 (in the order of
abelian_groups_of_order), one line: the moduli, then, up to order 41, the
count, the maximal count and the cardinality histogram (one fused
build_count_record), then the list of maximum sum-free sets
(enumerate_maximum, element indices), then, up to order 24, the maximal
sets (enumerate_maximal, sorted).  Then one line per interval window,
every [lo, hi] with hi <= 24 and [1, n] for 25 <= n <= 40 (the ground
cap of a count): the window, the same count, maximal count and
histogram, the counts by largest element (count_by_largest) and the
maximum sets (values), then, for hi <= 24, the maximal sets
(enumerate_maximal, sorted).  Then one line per [1, n], n <= 20, with
the two-wise count (count_two_wise).  Last, one more line per abelian
group of order 2-64: the moduli, the witness of density_report, the
index-2 subgroups (index2_subgroups, members ascending) and the maximal
sets of cardinality 2 (maximal_sets_of_size).  Only the standard library
is used.

To compare two commits, extract each with `git archive REV | tar -x -C DIR`,
run `python3 DIR/tools/offline_dump.py > REV.txt` on each and diff the
files.  Each copy reads the API of its own commit, so a commit without
this script gets the copy of the oldest commit that has it.
"""

import json
import sys
import time
from pathlib import Path
from typing import Iterator

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sumfree.enumeration import (  # noqa: E402
    build_count_record,
    count_by_largest,
    count_two_wise,
    enumerate_maximal,
    enumerate_maximum,
    maximal_sets_of_size,
)
from sumfree.analysis import density_report  # noqa: E402
from sumfree.errors import DEFAULT_GROUND_CAP, DEFAULT_MAX_ORDER, MAXIMUM_CAP  # noqa: E402
from sumfree.groups import abelian_groups_of_order, index2_subgroups  # noqa: E402
from sumfree.universe import ElemSet, GroupUniverse, IntervalUniverse, Universe  # noqa: E402


def _counts(u: Universe) -> list[str]:
    rec = build_count_record(u, with_maximal=True, with_cardinality=True)
    hist = ";".join(f"{m}:{c}" for m, c in rec.by_cardinality.items())
    return [f"f={rec.f}", f"f_max={rec.f_max}", f"hist={hist}"]


def _json(value: list) -> str:
    return json.dumps(value, separators=(",", ":"))


def _sets(name: str, sets: list) -> str:
    return f"{name}=" + _json([s.to_json_list() for s in sets])


def _maximum(u: Universe) -> str:
    return _sets("maximum", enumerate_maximum(u))


def _maximal(u: Universe) -> str:
    return _sets("maximal", sorted(enumerate_maximal(u), key=ElemSet.members))


def dump_lines(count_order: int = DEFAULT_GROUND_CAP + 1,
               maximum_order: int = MAXIMUM_CAP + 1, window_hi: int = 24,
               prefix_hi: int = DEFAULT_GROUND_CAP,
               two_wise_hi: int = DEFAULT_MAX_ORDER.bit_length() - 1,
               structure_order: int = MAXIMUM_CAP + 1) -> Iterator[str]:
    """The dump's lines: group counts up to count_order, group maximum sets up
    to maximum_order, then the windows [lo, hi], hi <= window_hi, and [1, n],
    window_hi < n <= prefix_hi; the maximal sets are listed for the groups
    of order and the windows with hi at most window_hi.  Then the two-wise
    counts of [1, n], n <= two_wise_hi, and last the witness, index-2
    subgroups and maximal pairs of the groups of order 2 to structure_order."""
    for n in range(2, max(count_order, maximum_order) + 1):
        for g in abelian_groups_of_order(n):
            u = GroupUniverse(g)
            fields = ["x".join(map(str, g.moduli))]
            if n <= count_order:
                fields += _counts(u)
            if n <= maximum_order:
                fields.append(_maximum(u))
            if n <= window_hi:
                fields.append(_maximal(u))
            yield " ".join(fields)
    windows = [(lo, hi) for hi in range(1, window_hi + 1) for lo in range(1, hi + 1)]
    for lo, hi in windows + [(1, n) for n in range(window_hi + 1, prefix_hi + 1)]:
        u = IntervalUniverse(lo, hi)
        by_largest = ";".join(map(str, count_by_largest(u)))
        fields = [f"[{lo},{hi}]", *_counts(u), f"by_largest={by_largest}", _maximum(u)]
        if hi <= window_hi:
            fields.append(_maximal(u))
        yield " ".join(fields)
    for n in range(1, two_wise_hi + 1):
        yield f"[1,{n}] two_wise={count_two_wise(n)}"
    for n in range(2, structure_order + 1):
        for g in abelian_groups_of_order(n):
            witness = density_report(g).witness.to_json_list()
            index2 = [list(h.members()) for h in index2_subgroups(g)]
            yield " ".join(["x".join(map(str, g.moduli)), f"witness={_json(witness)}",
                            f"index2={_json(index2)}",
                            _sets("pairs", maximal_sets_of_size(GroupUniverse(g), 2))])


if __name__ == "__main__":
    start = time.perf_counter()
    for line in dump_lines():
        print(line, flush=True)
    print(f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
