"""The CLI builds each coin once per process, keyed by its source.

`cli._coin_entry` is the one coin memo, a `functools.lru_cache` of
COIN_MEMO_CAP coins.  `cli._parse_coin` keys it by the coin flags and,
for --matrix-file, by the path and the file's text; `table` keys it by
the family and each angle.  A memoized coin's matrix is read-only, and
`period` and `table` splice the coin's report fragment, written once,
into each report.  So:

* a coin file rewritten between two calls gives the new coin's report;
* a missing, non-JSON or non-UTF-8 coin file fails the same way on every
  call, since a failed build is never kept;
* the memo never holds more than COIN_MEMO_CAP coins, and drops the least
  recently used first;
* every argv of the golden CLI corpora prints the same bytes and exit code
  when it is replayed in the same process as when the memo was empty;
* a report with the fragment spliced in is the report without it, at any
  depth.
"""

import json

import pytest

import corpora
from conftest import run_cli
from livelywalk import cli, period, walk


def _coin_argv(path):
    return ("period", "--matrix-file", str(path), "--n", "4", "--methods", "analytic,spectral")


PERM_P2 = {"repr": "exact", "entries": [["0/1", "1/1", "0/1"], ["0/1", "0/1", "1/1"], ["1/1", "0/1", "0/1"]]}
PERM_P4 = {"repr": "exact", "entries": [["1/1", "0/1", "0/1"], ["0/1", "0/1", "1/1"], ["0/1", "1/1", "0/1"]]}


def test_rewritten_coin_file_gives_the_new_coins_report(tmp_path):
    path = tmp_path / "coin.json"
    reports = []
    for doc in (PERM_P2, PERM_P4, PERM_P2):
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(_coin_argv(path))
        assert (code, err) == (0, "")
        reports.append(json.loads(out))
    assert [r["coin"]["entries"] for r in reports] == [d["entries"] for d in (PERM_P2, PERM_P4, PERM_P2)]
    assert [r["results"][0]["theorem"] for r in reports] == [
        "x-family:cyclic-permutation", "z-family:permutation-lcm", "x-family:cyclic-permutation"]


@pytest.mark.parametrize("content, code", [
    (None, 1),  # missing
    (b'{"repr": "exact", "entries": [', 2),  # not JSON
    ('{"repr": "exact", "entries": "é"}'.encode("latin-1"), 2),  # not UTF-8
    (b'{"repr": "exact", "entries": [["1", "0"]]}', 2),  # not the schema
    (b'{"repr": "exact", "entries": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "2"]]}', 1),  # not orthogonal
])
@pytest.mark.parametrize("command", ["coin", "period"])
def test_a_bad_coin_file_fails_alike_on_every_call(tmp_path, content, code, command):
    path = tmp_path / "coin.json"
    if content is not None:
        path.write_bytes(content)
    argv = ("coin", "--matrix-file", str(path)) if command == "coin" else _coin_argv(path)
    calls = [run_cli(argv) for _ in range(3)]
    assert calls[0][0] == code and calls[0][1] == "" and calls[0][2]
    assert calls[1:] == calls[:1] * 2


@pytest.mark.parametrize("source", [
    ("--perm", "P3"), ("--grover", "P5", "--negate"), ("--family", "Y", "--theta", "0.7"),
    ("--family", "Z", "--theta-frac", "2/7"), ("--family", "W", "--rational", "-5/2", "--signs", "+-"),
])
def test_a_memoized_coins_matrix_is_read_only(source):
    args = cli.parse_args(["coin", *source])
    coin = cli._parse_coin(args, cli.build_parser().commands["coin"]).coin
    assert not coin.matrix.flags.writeable
    with pytest.raises(ValueError):
        coin.matrix[0, 0] = 0
    assert cli._parse_coin(args, cli.build_parser().commands["coin"]).coin is coin


def test_a_memoized_coin_files_matrix_is_read_only(tmp_path):
    path = tmp_path / "coin.json"
    path.write_text(json.dumps(PERM_P4))
    args = cli.parse_args(["coin", "--matrix-file", str(path)])
    coin = cli._parse_coin(args, cli.build_parser().commands["coin"]).coin
    assert not coin.matrix.flags.writeable


def test_the_memo_never_exceeds_its_cap():
    def argv(i):
        return ("coin", "--family", "X", "--theta", repr(0.001 * i))

    cli._coin_entry.cache_clear()
    for i in range(cli.COIN_MEMO_CAP + 20):
        code, out, _ = run_cli(argv(i))
        assert code == 0 and out
        assert cli._coin_entry.cache_info().currsize == min(i + 1, cli.COIN_MEMO_CAP)
    # coins 20.. are kept; using coin 20 again leaves 21 the least recently used
    assert run_cli(argv(20))[0] == 0
    assert run_cli(argv(cli.COIN_MEMO_CAP + 20))[0] == 0
    assert cli._coin_entry.cache_info().currsize == cli.COIN_MEMO_CAP
    hits, misses = cli._coin_entry.cache_info()[:2]
    run_cli(argv(20))
    assert cli._coin_entry.cache_info()[:2] == (hits + 1, misses)  # used last, so kept
    run_cli(argv(21))
    assert cli._coin_entry.cache_info()[:2] == (hits + 1, misses + 1)  # used least recently, so dropped


def test_golden_corpora_replay_the_same_in_one_process(tmp_path):
    argvs = corpora.golden_argvs(tmp_path)
    assert len(argvs) > 400
    cli._coin_entry.cache_clear()
    first = [run_cli(argv) for argv in argvs]
    assert cli._coin_entry.cache_info().currsize
    for argv, want in zip(argvs, first):
        assert run_cli(argv) == want, argv


def _nested(doc, depth):
    for _ in range(depth):
        doc = [{"x": doc}]
    return doc


@pytest.mark.parametrize("source", [("--grover", "P1"), ("--family", "X", "--theta-frac", "1/5")])
def test_the_spliced_fragment_is_the_coin_document(source):
    args = cli.parse_args(["period", *source, "--n", "5"])
    entry = cli._parse_coin(args, cli.build_parser().commands["period"])
    cv = period.cross_validate(walk.WalkSpec(n=5, a=1, coin=entry.coin), methods=("spectral",))
    plain, spliced = period.report_json(cv), period.report_json(cv, entry.fragment)
    for depth in range(4):
        assert cli._json_text(_nested(spliced, depth)) == json.dumps(_nested(plain, depth), indent=2)
