import contextlib
import io
import json
import math
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumfree.cli import group_sweep_rows, main
from sumfree.enumeration import DEFAULT_GROUND_CAP
from sumfree.groups import DEFAULT_MAX_ORDER
from sumfree.universe import GroupUniverse


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_true(tmp_path, capsys):
    f = tmp_path / "s.json"
    f.write_text("[1, 4]")
    code, out, _ = run(capsys, "verify", "--interval", "4", "--set", str(f))
    assert code == 0
    assert "sum_free: true" in out
    assert "schur_triples: 0" in out


def test_verify_false_verdict(tmp_path, capsys):
    f = tmp_path / "s.json"
    f.write_text("[1, 2]")
    code, out, _ = run(capsys, "verify", "--interval", "4", "--set", str(f))
    assert code == 1
    assert "sum_free: false" in out


def test_verify_group_universe(tmp_path, capsys):
    f = tmp_path / "s.json"
    f.write_text("[1]")
    code, out, _ = run(capsys, "verify", "--group", "2,2", "--set", str(f))
    assert code == 0
    assert "sum_free: true" in out


def test_verify_malformed_json(tmp_path, capsys):
    f = tmp_path / "s.json"
    f.write_text("[1, 4")
    code, _, err = run(capsys, "verify", "--interval", "4", "--set", str(f))
    assert code == 2


def test_verify_out_of_universe(tmp_path, capsys):
    f = tmp_path / "s.json"
    f.write_text("[9]")
    code, _, err = run(capsys, "verify", "--interval", "4", "--set", str(f))
    assert code == 2


def test_verify_rejects_json_booleans(tmp_path, capsys):
    f = tmp_path / "s.json"
    f.write_text("[true, 2]")  # true is not the integer 1
    code, out, err = run(capsys, "verify", "--interval", "5", "--set", str(f))
    assert code == 2 and out == ""
    assert "array of integers" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("universe, values", [(("--interval", "5"), "[1, 1, 4]"),
                                              (("--group", "7"), "[2, 2]")])
def test_verify_rejects_repeated_members(tmp_path, capsys, fmt, universe, values):
    f = tmp_path / "s.json"
    f.write_text(values)
    code, out, err = run(capsys, "verify", *universe, "--set", str(f), "--format", fmt)
    assert code == 2 and out == ""
    assert "distinct" in err


@pytest.mark.parametrize("values, sorted_values, code", [("[4, 1]", [1, 4], 0),
                                                         ("[2, 1]", [1, 2], 1)])
def test_verify_json_report(tmp_path, capsys, values, sorted_values, code):
    f = tmp_path / "s.json"
    f.write_text(values)
    got, out, _ = run(capsys, "verify", "--interval", "5", "--set", str(f), "--format", "json")
    report = json.loads(out)
    assert got == code and list(report) == ["universe", "set", "sum_free", "maximal_sum_free",
                                            "two_wise_sum_free", "schur_triples"]
    assert report["universe"] == "interval[1,5]" and report["set"] == sorted_values
    assert report["sum_free"] is (code == 0)


@pytest.mark.parametrize("universe, message", [
    (["--interval", ",5"], "--interval ',5' has an empty item"),
    (["--interval", "1,2,3"], "--interval '1,2,3' has 3 items, expected N or LO,HI"),
    (["--interval", "2.5"], "--interval '2.5' has a non-integer item '2.5'"),
    (["--interval", "5,4"], "need 1 <= lo <= hi, got [5, 4]"),
    (["--interval", "4", "--group", "3"], "give either --interval or --group, not both"),
    ([], "no universe given: use --interval N|LO,HI or --group M1,M2,..."),
    (["--group", "x"], "--group 'x' has a non-integer item 'x'"),
    (["--group", "4,y,2"], "--group '4,y,2' has a non-integer item 'y'"),
    # a negative first item is a value, not an option, when written apart from its flag
    (["--interval", "-2,5"], "need 1 <= lo <= hi, got [-2, 5]"),
    (["--group", "-3,4"], "invalid modulus -3: must be an integer >= 2"),
])
def test_universe_flags_refuse_bad_input(capsys, universe, message):
    code, out, err = run(capsys, "count", *universe)
    assert (code, out) == (2, "") and message in err


def test_missing_universe_is_input_error(tmp_path, capsys):
    f = tmp_path / "s.json"
    f.write_text("[1]")
    code, _, err = run(capsys, "verify", "--set", str(f))
    assert code == 2
    assert "no universe" in err


def test_count_interval(capsys):
    code, out, _ = run(capsys, "count", "--interval", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("universe,size,f,")
    assert ',9,' in lines[1]


def test_count_maximal_flag(capsys):
    code, out, _ = run(capsys, "count", "--interval", "3", "--maximal",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["f"] == 6 and data["f_max"] == 2
    # sharded, the fused count is checked against the shard total
    code, out, _ = run(capsys, "count", "--interval", "20", "--maximal", "--shards", "4")
    assert code == 0
    assert out.splitlines()[1] == '"interval[1,20]",20,9583,359,1024,2964,,9.358398,,4'


def test_count_by_cardinality_group(capsys):
    code, out, _ = run(capsys, "count", "--group", "4", "--by-cardinality")
    assert code == 0
    assert "0:1;1:3;2:1" in out


def test_count_cap_exit_code(capsys):
    code, _, err = run(capsys, "count", "--interval", "60")
    assert code == 3
    assert "capacity" in err


def test_count_sub_interval_and_shards(capsys):
    code, out, _ = run(capsys, "count", "--interval", "4,10", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["universe"] == "interval[4,10]" and data["f"] == 64
    code, out, _ = run(capsys, "count", "--interval", "12", "--shards", "4",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["f"] == 369 and data["shards"] == 4


def test_count_rejects_empty_group_items(capsys):
    for moduli in ("4,,2", "4,2,", ","):
        code, out, err = run(capsys, "count", "--group", moduli)
        assert code == 2 and out == "", moduli
        assert f"--group {moduli!r} has an empty item" in err


def test_shard_count_capped_before_any_walk(capsys, monkeypatch):
    import sumfree._interval_walkers
    import sumfree.enumeration
    from sumfree.enumeration import SHARD_CAP

    def no_walk(*args, **kwargs):
        raise AssertionError("walker called although the shard count is refused")

    for name in ("_walk", "_shard_root"):
        monkeypatch.setattr(sumfree.enumeration, name, no_walk)
    for name in ("_interval_walk", "_interval_maximal"):
        monkeypatch.setattr(sumfree._interval_walkers, name, no_walk)
    assert SHARD_CAP >= 64
    for shards, argv in ((2 * SHARD_CAP, ["count", "--group", "5"]),
                         (2 * SHARD_CAP, ["count", "--interval", "5", "--maximal"])):
        code, out, err = run(capsys, *argv, "--shards", str(shards))
        assert code == 3 and out == "", argv
        assert f"shard_count {shards} refused, cap is {SHARD_CAP}" in err
    # the sweep has no shard option: argparse refuses it
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep-intervals", "--n-max", "5", "--shards", "2"])
    assert exit_info.value.code == 2
    # at the cap the count goes on to its walk
    with pytest.raises(AssertionError, match="walker called"):
        main(["count", "--group", "5", "--shards", str(SHARD_CAP)])
    monkeypatch.undo()  # without --shards, a sweep with no rows prints its header
    code, out, _ = run(capsys, "sweep-intervals", "--n-max", "0")
    assert code == 0 and out == "n,f,log2_f,half_n,ratio,parity\n"


def test_sweep_intervals_refuses_a_negative_bound(capsys):
    for n_max in ("-1", "-40"):
        code, out, err = run(capsys, "sweep-intervals", "--n-max", n_max)
        assert (code, out) == (2, "") and f"--n-max must be >= 0, got {n_max}" in err
    code, out, _ = run(capsys, "sweep-intervals", "--n-max", "0", "--format", "json")
    assert (code, out) == (0, "[]\n")


def test_sweep_groups_refuses_a_negative_bound(capsys):
    for check in ("lev", "mu", "giudici2"):
        code, out, err = run(capsys, "sweep-groups", "--max-order", "-3", "--check", check)
        assert (code, out) == (2, "") and "--max-order must be >= 0, got -3" in err
    for max_order in ("0", "1"):  # no group of order 2 or more: the header alone
        code, out, _ = run(capsys, "sweep-groups", "--max-order", max_order, "--check", "lev")
        assert (code, out) == (0, "moduli,order,leading,f,ratio,ratio_float\n")


def test_group_sweep_rows_refuses_an_unknown_check():
    with pytest.raises(ValueError, match="unknown check 'bogus'"):
        group_sweep_rows(4, "bogus")


def test_count_two_wise_flag(capsys):
    code, out, _ = run(capsys, "count", "--interval", "5", "--2wise",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["f_2wise"] == 31
    # the widest two-wise table a mask may be: 2^20 bits
    code, out, _ = run(capsys, "count", "--interval", "20", "--2wise", "--format", "json")
    assert (code, json.loads(out)["f_2wise"]) == (0, 703968)


def test_count_two_wise_checked_before_any_walk(capsys, monkeypatch):
    import sumfree._interval_walkers
    import sumfree.enumeration

    def no_walk(*args, **kwargs):
        raise AssertionError("walker called although two-wise counting is refused")

    # count_two_wise itself checks its table's width against the mask cap before it walks
    monkeypatch.setattr(sumfree.enumeration, "_walk", no_walk)
    for name in ("_interval_walk", "_interval_maximal"):
        monkeypatch.setattr(sumfree._interval_walkers, name, no_walk)
    for universe in (["--group", "37"], ["--interval", "2,33"]):
        code, out, err = run(capsys, "count", *universe, "--2wise")
        assert code == 2 and out == ""
        assert "[1, n] universes" in err
    code, out, err = run(capsys, "count", "--interval", "21", "--2wise")
    assert code == 3 and out == ""
    assert f"[1, 21]: two-wise table of 2^21 bits, cap is {DEFAULT_MAX_ORDER}" in err


def test_sweep_intervals_golden_rows(capsys):
    code, out, _ = run(capsys, "sweep-intervals", "--n-max", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,f,log2_f,half_n,ratio,parity"
    assert lines[1] == "1,2,1.000000,0.5,1.414214,odd"
    assert lines[3] == "3,6,2.584963,1.5,2.121320,odd"
    fs = [int(line.split(",")[1]) for line in lines[1:]]
    assert fs == sorted(fs) and len(set(fs)) == len(fs)


def test_sweep_intervals_cap_checked_before_any_walk(capsys, monkeypatch):
    import sumfree._interval_walkers
    import sumfree.enumeration

    def no_walk(*args, **kwargs):
        raise AssertionError("walker called although the cap is exceeded")

    monkeypatch.setattr(sumfree._interval_walkers, "_interval_walk", no_walk)
    monkeypatch.setattr(sumfree._interval_walkers, "_interval_maximal", no_walk)
    monkeypatch.setattr(sumfree.enumeration, "_walk", no_walk)
    code, out, err = run(capsys, "sweep-intervals", "--n-max", "41")
    assert code == 3 and out == ""
    assert "capacity" in err and "cap is 40" in err


def test_verify_cap_checked_before_reading_the_set(tmp_path, capsys, monkeypatch):
    import sumfree.universe
    from sumfree.groups import DEFAULT_MAX_ORDER

    def no_set(*args, **kwargs):
        raise AssertionError("set built although the cap is exceeded")

    monkeypatch.setattr(sumfree.universe.ElemSet, "from_values", classmethod(no_set))
    size = DEFAULT_MAX_ORDER + 1
    # the set file does not exist: reading it first would exit 2
    code, out, err = run(capsys, "verify", "--interval", str(size),
                         "--set", str(tmp_path / "missing.json"))
    assert code == 3 and out == ""
    assert f"has {size} elements" in err and f"cap is {DEFAULT_MAX_ORDER}" in err


def test_random_cap_checked_before_any_draw(capsys, monkeypatch):
    import sumfree.generate
    from sumfree.groups import DEFAULT_MAX_ORDER

    def no_draw(*args, **kwargs):
        raise AssertionError("generator called although the cap is exceeded")

    monkeypatch.setattr(sumfree.generate, "random_sum_free", no_draw)
    size = DEFAULT_MAX_ORDER + 1
    code, out, err = run(capsys, "random", "--seed-element", "1", "--target", "40",
                         "--range", str(size))
    assert code == 3 and out == ""
    assert f"has {size} elements" in err and f"cap is {DEFAULT_MAX_ORDER}" in err


def test_sweep_intervals_shard_invariance(capsys):
    from sumfree._interval_walkers import _interval_walk
    from sumfree.universe import IntervalUniverse

    code, body, _ = run(capsys, "sweep-intervals", "--n-max", "12")
    assert code == 0
    fs = [int(line.split(",")[1]) for line in body.splitlines()[1:]]
    u = IntervalUniverse(1, 12)
    for k in (2, 4, 8, 64):  # the shards' sets by largest element add up to each f(n)
        by_top = [sum(column) for column in zip(*(_interval_walk(u, i, k) for i in range(k)))]
        assert fs == [sum(by_top[:n + 1]) for n in range(1, 13)], k


def test_sweep_intervals_deterministic(capsys):
    _, a, _ = run(capsys, "sweep-intervals", "--n-max", "10")
    _, b, _ = run(capsys, "sweep-intervals", "--n-max", "10")
    assert a == b


def test_sweep_groups_giudici1(capsys):
    code, out, _ = run(capsys, "sweep-groups", "--max-order", "16",
                       "--check", "giudici1")
    assert code == 0
    flagged = [line for line in out.strip().splitlines()[1:]
               if line.split(",")[2]]
    assert [line.split(",")[0] for line in flagged] == ["2", "3", "4"]


def test_sweep_groups_giudici_cells_match_the_scans(capsys):
    from sumfree.analysis import pair_maximal_groups, singleton_maximal_groups
    from sumfree.cli import _moduli_label

    witnesses = {_moduli_label(g.moduli): ";".join(map(str, wits))
                 for g, wits in singleton_maximal_groups(24)}
    pairs: dict[str, list[str]] = {}
    for g, s in pair_maximal_groups(24):
        pairs.setdefault(_moduli_label(g.moduli), []).append(":".join(map(str, s.members())))
    for check, expected in (("giudici1", witnesses),
                            ("giudici2", {k: ";".join(v) for k, v in pairs.items()})):
        code, out, _ = run(capsys, "sweep-groups", "--max-order", "24", "--check", check)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) > 24 and all(len(row) == 3 for row in rows)
        # every group once; its cell is the scans' hits, blank where they have none
        assert len({moduli for moduli, _, _ in rows}) == len(rows), check
        assert {moduli: cell for moduli, _, cell in rows if cell} == expected, check


def test_sweep_groups_index2_na(capsys):
    code, out, _ = run(capsys, "sweep-groups", "--max-order", "9",
                       "--check", "index2")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        moduli, order, subs, expected, equality = line.split(",")
        if int(order) % 2 == 1:
            assert equality == "n/a" and subs == "0"
        else:
            assert equality == "True" and subs == expected


def test_sweep_groups_cap_checked_before_the_first_row(capsys, monkeypatch):
    import sumfree.enumeration

    def no_walk(*args, **kwargs):
        raise AssertionError("walker called although the cap is exceeded")

    # every group walk starts by reading its step off the universe
    monkeypatch.setattr(GroupUniverse, "forbid", property(no_walk))
    monkeypatch.setattr(sumfree.enumeration, "_walk", no_walk)
    for check, max_order, cap in (("mu", 65, 63), ("index2", 65, 63), ("lev", 42, 40),
                                  ("giudici2", DEFAULT_MAX_ORDER + 1, DEFAULT_MAX_ORDER - 1)):
        code, out, err = run(capsys, "sweep-groups", "--max-order", str(max_order),
                             "--check", check)
        assert code == 3 and out == "", check
        assert f"check {check} to order {max_order} needs ground size {max_order - 1}" in err
        assert f"cap is {cap}" in err
    # within the cap the sweep goes on to its first row
    with pytest.raises(AssertionError, match="walker called"):
        main(["sweep-groups", "--max-order", "64", "--check", "mu"])


def test_sweep_groups_mu(capsys):
    code, out, _ = run(capsys, "sweep-groups", "--max-order", "12",
                       "--check", "mu", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert all(r["agree"] for r in rows)
    z7 = [r for r in rows if r["moduli"] == "7"]
    assert z7[0]["mu"] == "2/7"


def test_extract_command(tmp_path, capsys):
    f = tmp_path / "a.json"
    f.write_text("[1, 2, 3]")
    code, out, _ = run(capsys, "extract", str(f))
    assert code == 0
    assert json.loads(out) == [2, 3]
    code, out, _ = run(capsys, "extract", str(f), "--trace")
    trace = json.loads(out)
    assert trace["p"] == 5 and trace["dilator"] == 1
    assert trace["subset"] == [2, 3]


def test_extract_and_random_print_the_compact_json_of_their_set(tmp_path, capsys):
    from sumfree.cli import _emit_int_list
    from sumfree.generate import RandomGenConfig, extract_sum_free, random_sum_free

    rng = random.Random(18)
    f = tmp_path / "a.json"
    for values in ([7], [1, 2, 3], rng.sample(range(1, 10 ** 6), 2000)):
        f.write_text(json.dumps(values))
        trace = extract_sum_free(values)
        code, out, _ = run(capsys, "extract", str(f))
        assert (code, out) == (0, json.dumps(trace.subset.to_json_list(), indent=None) + "\n")
        code, out, _ = run(capsys, "extract", str(f), "--trace")
        assert (code, out) == (0, json.dumps(trace.to_json_dict(), indent=2) + "\n")
    for element, target, hi, seed in ((7, 1, 100, 3), (3, 40, 1000, 11), (1, 150, 100000, 0)):
        got = random_sum_free(RandomGenConfig(element, target, hi, rng_seed=seed))
        code, out, _ = run(capsys, "random", "--seed-element", str(element), "--target",
                           str(target), "--range", str(hi), "--seed", str(seed))
        assert (code, out) == (0, json.dumps(got.to_json_list(), indent=None) + "\n")
    _emit_int_list([], None)
    assert capsys.readouterr().out == json.dumps([]) + "\n"


def test_extract_cap_checked_before_any_work(tmp_path, capsys, monkeypatch):
    import sumfree.generate

    def no_prime(*args, **kwargs):
        raise AssertionError("prime searched although the input is refused")

    monkeypatch.setattr(sumfree.generate, "find_prime", no_prime)
    f = tmp_path / "a.json"
    for top in (DEFAULT_MAX_ORDER + 1, 10 ** 14):
        f.write_text(json.dumps([1, top]))
        code, out, err = run(capsys, "extract", str(f))
        assert (code, out) == (3, "")
        assert err == (f"capacity: interval[1,{top}] has {top} elements, "
                       f"cap is {DEFAULT_MAX_ORDER}\n")


def test_extract_rejects_json_booleans(tmp_path, capsys):
    f = tmp_path / "a.json"
    f.write_text("[true, 4]")
    code, out, err = run(capsys, "extract", str(f))
    assert code == 2 and out == ""
    assert "array of integers" in err


def test_random_command_deterministic(capsys):
    args = ("random", "--seed-element", "2", "--target", "4",
            "--range", "30", "--seed", "5")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    values = json.loads(out1)
    assert 2 in values and len(values) == 4


def test_random_timeout_exit_code(capsys):
    # the sum-free triples of [1, 5] are {1, 3, 5} and {3, 4, 5}: none holds 2
    code, _, err = run(capsys, "random", "--seed-element", "2", "--target", "3",
                       "--range", "5", "--max-iterations", "20")
    assert code == 3
    assert "timeout" in err
    # {1, 6, 8, 10} is maximal sum-free in [1, 10]: no pass can add a fifth member
    code, out, err = run(capsys, "random", "--seed-element", "1", "--target", "5",
                         "--range", "10", "--max-iterations", str(10 ** 12))
    assert code == 3 and out == ""
    assert "reached 4 members and is maximal sum-free in [1, 10]" in err
    # five passes cannot grow {1} to 40 members of [1, 100]: the pass budget runs out
    code, out, err = run(capsys, "random", "--seed-element", "1", "--target", "40",
                         "--range", "100", "--max-iterations", "5")
    assert code == 3 and out == ""
    assert "in 5 passes (reached 1)" in err


def test_random_names_an_empty_range(capsys):
    # the range is at fault, not the seed element that falls outside it
    for hi in ("0", "-5"):
        code, out, err = run(capsys, "random", "--seed-element", "1", "--target", "1",
                             "--range", hi)
        assert (code, out) == (2, "") and f"random range [1, {hi}] is empty" in err


def test_random_target_checked_before_any_draw(capsys, monkeypatch):
    import sumfree.generate

    def no_draw(*args, **kwargs):
        raise AssertionError("generator called although the target is out of reach")

    monkeypatch.setattr(sumfree.generate, "random_sum_free", no_draw)
    # the largest sum-free subsets of [1, 10] have 5 members
    code, out, err = run(capsys, "random", "--seed-element", "1", "--target", "6",
                         "--range", "10", "--max-iterations", str(10 ** 12))
    assert code == 2 and out == ""
    assert "target 6 is out of reach" in err and "at most 5 members" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "sweep-intervals", "--n-max", "4",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("n,f,log2_f")


# every command ends with an exit code of 0-3, whatever its arguments: the
# strategies keep valid universes small (ground <= 20), so each example is fast
_BAD_MODULI = st.sampled_from(["", " ", "0", "1", "-4", "x", "2.5", "0x10", "+"])
_SMALL_GROUPS = st.lists(st.integers(2, 7), min_size=1, max_size=3).filter(
    lambda moduli: math.prod(moduli) <= 21)
_LARGE_GROUPS = st.lists(st.integers(2, 1 << 21), min_size=1, max_size=3).filter(
    lambda moduli: math.prod(moduli) > DEFAULT_GROUND_CAP + 1)
_GROUP_ARGS = st.one_of(
    st.one_of(_SMALL_GROUPS, _LARGE_GROUPS).map(lambda moduli: ",".join(map(str, moduli))),
    st.tuples(st.lists(st.integers(2, 9).map(str), max_size=3), _BAD_MODULI, st.integers(0, 3))
    .map(lambda t: ",".join(t[0][:t[2]] + [t[1]] + t[0][t[2]:])),  # one bad item
)
_SIZES = st.one_of(st.integers(-3, 20), st.integers(DEFAULT_MAX_ORDER + 1, 10 ** 9))
_UNIVERSE_ARGS = st.one_of(
    _GROUP_ARGS.map(lambda g: ["--group", g]),
    _SIZES.map(lambda n: ["--interval", str(n)]),
    st.tuples(st.integers(-2, 12), st.integers(-2, 20)).map(
        lambda t: [f"--interval={t[0]},{t[1]}"]),  # '=' lets LO be negative
    st.tuples(_SIZES, _GROUP_ARGS).map(lambda t: ["--interval", str(t[0]), "--group", t[1]]),
    st.just([]),
)
_SHARD_ARGS = st.one_of(
    st.just([]),
    st.sampled_from([1, 2, 8, 64, -1, 0, 3, 6, 1 << 13, 1 << 30, 1 << 62]).map(
        lambda n: ["--shards", str(n)]),
    st.just(["--shards", "many"]),
)
_FLAGS = st.lists(st.sampled_from(["--maximal", "--by-cardinality", "--2wise"]), unique=True)
_SET_FILES = st.one_of(
    st.lists(st.integers(-3, 25), max_size=6).map(json.dumps),
    st.sampled_from(["[true, 2]", "[1, 4", "{}", "[1.5]", "7", ""]),
)
# extract inputs: small positive lists, lists with one element past the cap,
# and the set files above (empty, non-positive, duplicate and malformed)
_EXTRACT_FILES = st.one_of(
    st.lists(st.integers(1, 60), min_size=1, max_size=8, unique=True).map(json.dumps),
    st.tuples(st.lists(st.integers(1, 60), max_size=4, unique=True),
              st.integers(DEFAULT_MAX_ORDER + 1, 10 ** 9)).map(
        lambda t: json.dumps([t[1], *t[0]])),
    _SET_FILES,
)


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(["count", "sweep-intervals", "sweep-groups", "verify",
                                    "random", "extract"]))
    if command == "count":
        return ["count", *draw(_UNIVERSE_ARGS), *draw(_FLAGS), *draw(_SHARD_ARGS)]
    if command == "sweep-intervals":
        return ["sweep-intervals", "--n-max", str(draw(_SIZES)), *draw(_SHARD_ARGS)]
    if command == "sweep-groups":
        order = draw(st.one_of(st.integers(-2, 16), st.integers(DEFAULT_MAX_ORDER + 1, 10 ** 9)))
        check = draw(st.sampled_from(["mu", "index2", "lev", "giudici1", "giudici2", "none"]))
        return ["sweep-groups", "--max-order", str(order), "--check", check]
    if command == "verify":
        return ["verify", *draw(_UNIVERSE_ARGS), "--set", draw(_SET_FILES)]
    if command == "extract":
        return ["extract", *draw(st.sampled_from([[], ["--trace"]])), draw(_EXTRACT_FILES)]
    numbers = st.integers(-2, 25)
    return ["random", "--seed-element", str(draw(numbers)), "--target", str(draw(numbers)),
            "--range", str(draw(_SIZES)), "--seed", str(draw(numbers)),
            "--max-iterations", str(draw(st.integers(-2, 500)))]


@settings(max_examples=240, deadline=None)  # 40 per command
@given(_cli_argv())
def test_every_command_exits_with_a_documented_code(argv):
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] in ("verify", "extract"):  # the drawn text becomes the set file
            path = os.path.join(tmp, "set.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(argv[-1])
            argv[-1] = path
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
    assert code in (0, 1, 2, 3), argv
