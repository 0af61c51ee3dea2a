"""The golden tool: its registry and its list of the rows that moved."""

import importlib

import corpora

OLD = [
    "P1\t2 0 finite 2 -;3 0 finite 3 -;4 0 finite 4 -",
    "P2\t2 0 finite 2 -",
    "-P1\t2 0 finite 2 -",
]


def test_every_golden_file_has_one_runner_with_compute():
    files = {path.stem for path in corpora.GOLDEN_DIR.glob("golden_*.txt")}
    names = [importlib.import_module(path.stem).GOLDEN for path in corpora.GOLDEN_DIR.glob("test_golden*.py")]
    assert len(names) == len(set(names)) == len(files) == 10
    assert set(corpora.runners()) == files >= set(corpora.JOINED)
    assert all(callable(runner.compute) for runner in corpora.runners().values())


def test_joined_files_list_each_moved_row_under_its_coin():
    new = [
        "P1\t2 0 finite 2 -;3 0 finite 6 -;4 0 finite 4 -",  # one row changed
        "-P1\t2 0 finite 2 -",  # P2 dropped
        "G1\t2 0 finite 6 -",  # added
    ]
    assert corpora.moved_rows(OLD, new, joined=True) == [
        ("P1", "3 0 finite 3 -", "3 0 finite 6 -"),
        ("P2", "2 0 finite 2 -", ""),
        ("G1", "", "2 0 finite 6 -"),
    ]
    assert corpora.moved_rows(OLD, OLD, joined=True) == []


def test_other_files_list_each_moved_line():
    old = ["call 1\taaa\t0", "call 2\tbbb\t0", "call 3\tccc\t0", "call 4\tddd\t1"]
    new = ["call 0\tzzz\t2", "call 1\taaa\t0", "call 2\tBBB\t0", "call 4\tddd\t1"]
    assert corpora.moved_rows(old, new, joined=False) == [
        ("", "", "call 0\tzzz\t2"),
        ("", "call 2\tbbb\t0", "call 2\tBBB\t0"),
        ("", "call 3\tccc\t0", ""),
    ]


def test_the_tool_prints_old_beside_new_and_the_count(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(corpora, "GOLDEN_DIR", tmp_path)
    (tmp_path / "golden_spectral.txt").write_text("\n".join(OLD) + "\n")
    new = ["P1\t2 0 finite 2 -;3 0 finite 6 -;4 0 finite 4 -", "-P1\t2 0 finite 2 -", "G1\t2 0 finite 6 -"]
    runner = importlib.import_module("test_golden_spectral")
    monkeypatch.setattr(runner, "compute", lambda: new)
    assert corpora.main(["golden_spectral"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "P1: 3 0 finite 3 -  ->  3 0 finite 6 -",
        "P2: 2 0 finite 2 -  ->  (none)",
        "G1: (none)  ->  2 0 finite 6 -",
        "golden_spectral: 3 row(s) moved",
    ]
    assert (tmp_path / "golden_spectral.txt").read_text() == "\n".join(new) + "\n"


def test_a_row_within_the_runners_tolerance_keeps_its_text(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(corpora, "GOLDEN_DIR", tmp_path)
    old = ["P1\t2 0 1 2\t0 1 0.25", "P1\t3 0 1 0\t0.5 0.5"]
    (tmp_path / "golden_simulate.txt").write_text("\n".join(old) + "\n")
    runner = importlib.import_module("test_golden_simulate")
    monkeypatch.setattr(runner, "compute", lambda: ["P1\t2 0 1 2\t0 1 0.25000000000000006", "P1\t3 0 1 0\t0.5 0.25"])
    assert corpora.main(["golden_simulate"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "P1\t3 0 1 0\t0.5 0.5  ->  P1\t3 0 1 0\t0.5 0.25",
        "golden_simulate: 1 row(s) moved",
    ]
    assert (tmp_path / "golden_simulate.txt").read_text().splitlines() == [old[0], "P1\t3 0 1 0\t0.5 0.25"]


def test_an_unknown_name_is_a_usage_error(capsys):
    assert corpora.main(["golden_nope"]) == 2
    assert corpora.main([]) == 2
    assert "usage: python tests/corpora.py {golden_analytic," in capsys.readouterr().err
