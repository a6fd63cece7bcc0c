import importlib.util
import json
import math
from pathlib import Path

DUMP = Path(__file__).resolve().parent.parent / "tools" / "offline_dump.py"


def _fields(line):
    return dict(field.split("=", 1) for field in line.split()[1:])


def test_offline_dump_lines():
    spec = importlib.util.spec_from_file_location("offline_dump", DUMP)
    dump = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dump)
    out = list(dump.dump_lines(count_order=6, maximum_order=8, window_hi=4, prefix_hi=6,
                               two_wise_hi=5, structure_order=8))
    groups, windows, two_wise, structure = out[:10], out[10:22], out[22:27], out[27:]
    assert [line.split()[0] for line in groups] == [
        "2", "3", "4", "2x2", "5", "2x3", "7", "8", "4x2", "2x2x2"]
    # up to order window_hi, the groups list their maximal sets
    assert groups[0] == "2 f=2 f_max=1 hist=0:1;1:1 maximum=[[1]] maximal=[[1]]"
    assert groups[2] == "4 f=5 f_max=2 hist=0:1;1:3;2:1 maximum=[[1,3]] maximal=[[1,3],[2]]"
    assert groups[3] == "2x2 f=7 f_max=3 hist=0:1;1:3;2:3 maximum=[[1,2],[1,3],[2,3]] " \
                        "maximal=[[1,2],[1,3],[2,3]]"
    assert "maximal" not in _fields(groups[4])  # Z_5 lies past window_hi
    assert groups[7] == "8 maximum=[[1,3,5,7]]"  # past count_order: no counts
    # every [lo, hi] with hi <= 4, then [1, 5] and [1, 6]
    assert [line.split()[0] for line in windows] == [
        "[1,1]", "[1,2]", "[2,2]", "[1,3]", "[2,3]", "[3,3]",
        "[1,4]", "[2,4]", "[3,4]", "[4,4]", "[1,5]", "[1,6]"]
    assert windows[3] == "[1,3] f=6 f_max=2 hist=0:1;1:3;2:2 by_largest=1;1;1;3 " \
                         "maximum=[[1,3],[2,3]] maximal=[[1,3],[2,3]]"
    assert _fields(windows[6])["maximal"] == "[[1,3],[1,4],[2,3],[3,4]]"
    assert "maximal" not in _fields(windows[-1])  # [1, 6] lies past window_hi
    for line in groups[:6] + windows:  # the histogram sums to the count
        fields = _fields(line)
        assert sum(int(c.split(":")[1]) for c in fields["hist"].split(";")) == int(fields["f"])
    # the prefix sums of [1, 6]'s counts by largest element are the counts of [1, n]
    prefixes = {line.split()[0]: int(_fields(line)["f"]) for line in windows}
    by_largest = [int(c) for c in _fields(windows[-1])["by_largest"].split(";")]
    assert [sum(by_largest[:n + 1]) for n in range(1, 7)] == [
        prefixes[f"[1,{n}]"] for n in range(1, 7)]
    # last, the two-wise counts of [1, n]: all 2^n subsets split until n = 5
    assert two_wise == [f"[1,{n}] two_wise={c}" for n, c in enumerate([2, 4, 8, 16, 31], 1)]
    # last, per group: the density witness, the index-2 subgroups, the maximal pairs
    assert [line.split()[0] for line in structure] == [line.split()[0] for line in groups]
    assert structure[2] == "4 witness=[1,3] index2=[[0,2]] pairs=[[1,3]]"
    assert structure[4] == "5 witness=[1,4] index2=[] pairs=[[1,4],[2,3]]"
    assert structure[8] == "4x2 witness=[1,3,4,6] index2=[[0,2,4,6],[0,1,2,3],[0,2,5,7]] " \
                           "pairs=[[2,4],[2,6]]"
    for line, group_line in zip(structure, groups):
        # the witness is the first set of the maximum list; one index-2
        # subgroup per nonzero parity vector on the even moduli, and on an
        # even order the witness is the complement of one of them
        fields, moduli = _fields(line), [int(m) for m in line.split()[0].split("x")]
        assert _fields(group_line)["maximum"].startswith("[" + fields["witness"]), line
        index2, order = json.loads(fields["index2"]), math.prod(moduli)
        assert len(index2) == 2 ** sum(m % 2 == 0 for m in moduli) - 1, line
        if order % 2 == 0:
            assert sorted(set(range(order)) - set(json.loads(fields["witness"]))) in index2
