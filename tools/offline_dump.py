"""Dump the exact group results of the src/ next to this script, one line per group.

    python3 tools/offline_dump.py > dump.txt

For every abelian group of order 2-64 (in the order of
abelian_groups_of_order), one line: the moduli, then, up to order 41, the
count, the maximal count and the cardinality histogram (one fused
build_count_record), then the list of maximum sum-free sets
(enumerate_maximum, element indices).  Only the standard library is used.

To compare two commits, extract each with `git archive REV | tar -x -C DIR`,
run `python3 DIR/tools/offline_dump.py > REV.txt` on each and diff the
files.  A commit older than this script gets a copy of it in its tools/.
"""

import json
import sys
import time
from pathlib import Path
from typing import Iterator

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sumfree.enumeration import build_count_record, enumerate_maximum  # noqa: E402
from sumfree.groups import abelian_groups_of_order  # noqa: E402
from sumfree.universe import GroupUniverse  # noqa: E402


def dump_lines(count_order: int = 41, maximum_order: int = 64) -> Iterator[str]:
    """The dump's lines: counts up to count_order, maximum sets up to maximum_order."""
    for n in range(2, max(count_order, maximum_order) + 1):
        for g in abelian_groups_of_order(n):
            u = GroupUniverse(g)
            fields = ["x".join(map(str, g.moduli))]
            if n <= count_order:
                rec = build_count_record(u, with_maximal=True, with_cardinality=True)
                hist = ";".join(f"{m}:{c}" for m, c in rec.by_cardinality.items())
                fields += [f"f={rec.f}", f"f_max={rec.f_max}", f"hist={hist}"]
            if n <= maximum_order:
                maximum = [s.to_json_list() for s in enumerate_maximum(u)]
                fields.append("maximum=" + json.dumps(maximum, separators=(",", ":")))
            yield " ".join(fields)


if __name__ == "__main__":
    start = time.perf_counter()
    for line in dump_lines():
        print(line, flush=True)
    print(f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
