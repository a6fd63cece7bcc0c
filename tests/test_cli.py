import json

import pytest

from sumfree.cli import main


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


def test_count_by_cardinality_group(capsys):
    code, out, _ = run(capsys, "count", "--group", "4", "--by-cardinality")
    assert code == 0
    assert "0:1;1:3;2:1" in out


def test_count_cap_exit_code(capsys):
    code, _, err = run(capsys, "count", "--interval", "60")
    assert code == 3
    assert "capacity" in err


def test_count_sub_interval_and_shards(capsys):
    code, out, _ = run(capsys, "count", "--interval-lo", "4", "--interval-hi", "10",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["f"] == 64
    code, out, _ = run(capsys, "count", "--interval", "12", "--shards", "4",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["f"] == 369 and data["shards"] == 4


def test_count_two_wise_flag(capsys):
    code, out, _ = run(capsys, "count", "--interval", "5", "--2wise",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["f_2wise"] == 31


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
    import sumfree.enumeration

    def no_walk(*args, **kwargs):
        raise AssertionError("walker called although the cap is exceeded")

    monkeypatch.setattr(sumfree.enumeration, "_interval_walk", no_walk)
    monkeypatch.setattr(sumfree.enumeration, "_interval_tally", no_walk)
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
    import sumfree.cli
    from sumfree.groups import DEFAULT_MAX_ORDER

    def no_draw(*args, **kwargs):
        raise AssertionError("generator called although the cap is exceeded")

    monkeypatch.setattr(sumfree.cli, "random_sum_free", no_draw)
    size = DEFAULT_MAX_ORDER + 1
    code, out, err = run(capsys, "random", "--seed-element", "1", "--target", "40",
                         "--range", str(size))
    assert code == 3 and out == ""
    assert f"has {size} elements" in err and f"cap is {DEFAULT_MAX_ORDER}" in err


def test_sweep_intervals_shard_invariance(capsys):
    code1, body1, _ = run(capsys, "sweep-intervals", "--n-max", "12")
    code8, body8, _ = run(capsys, "sweep-intervals", "--n-max", "12",
                          "--shards", "8")
    assert code1 == code8 == 0
    assert body1 == body8


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
    from sumfree.groups import DEFAULT_MAX_ORDER

    def no_walk(*args, **kwargs):
        raise AssertionError("walker called although the cap is exceeded")

    for name in ("_engine_for", "_GroupEngine", "_walk"):
        monkeypatch.setattr(sumfree.enumeration, name, no_walk)
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
    code, _, err = run(capsys, "random", "--seed-element", "1", "--target", "3",
                       "--range", "3", "--max-iterations", "20")
    assert code == 3
    assert "timeout" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "sweep-intervals", "--n-max", "4",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("n,f,log2_f")
