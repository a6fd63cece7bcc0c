import importlib.util
from pathlib import Path

DUMP = Path(__file__).resolve().parent.parent / "tools" / "offline_dump.py"


def test_offline_dump_lines():
    spec = importlib.util.spec_from_file_location("offline_dump", DUMP)
    dump = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dump)
    out = list(dump.dump_lines(count_order=6, maximum_order=8))
    assert [line.split()[0] for line in out] == [
        "2", "3", "4", "2x2", "5", "2x3", "7", "8", "4x2", "2x2x2"]
    assert out[0] == "2 f=2 f_max=1 hist=0:1;1:1 maximum=[[1]]"
    assert out[3] == "2x2 f=7 f_max=3 hist=0:1;1:3;2:3 maximum=[[1,2],[1,3],[2,3]]"
    assert out[7] == "8 maximum=[[1,3,5,7]]"  # past count_order: no counts
    for line in out[:6]:  # the histogram sums to the count
        fields = dict(field.split("=", 1) for field in line.split()[1:])
        assert sum(int(c.split(":")[1]) for c in fields["hist"].split(";")) == int(fields["f"])
