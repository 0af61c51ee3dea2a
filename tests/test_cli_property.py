"""Every valid `coin`, `period`, `table` and `simulate` call gives its output,
and every `verify` call over a sampled suite gives its verdict or a usage error.

Hypothesis draws valid argvs, with n <= 40, tmax <= 500 and at most three
n per sweep, over every coin source: --perm, --grover [--negate], --family
with --theta, --theta-frac or --rational [--signs], and --matrix-file.
Each call must return without an exception, and with exit code 0, or 3
for a `period` or `table` whose methods disagree.  The exit-3 calls are
printed: they are float coins near a periodic coin, whose methods draw
different tolerance bands.  A `coin` call prints one JSON document.  A
`verify` call draws --samples 1..4 and any integer --seed: a seed >= 0
exits 0, and a negative one exits 2 with one usage message and no output.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from livelywalk import cli, coins, verify

PERMS = st.sampled_from(cli.PERM_LABELS)
FAMILIES = st.sampled_from(coins.FAMILIES)
NS = st.integers(min_value=2, max_value=40)
TMAX = st.integers(min_value=0, max_value=500)
#: coin documents --matrix-file reads: a permutation, a negated one, which no
#: flag names, an exact Pell coin and a float coin
COIN_DOCUMENTS = {
    "P2": coins.perm_matrix(2),
    "-P5": coins.Coin3(matrix=-coins.perm_matrix(5).matrix),
    "W-pell": coins.coin_from_rational("W", Fraction(3, 2)),
    "Y-float": coins.coin_from_theta("Y", 0.7),
}


@pytest.fixture(scope="module")
def coin_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("coins")
    paths = []
    for name, coin in COIN_DOCUMENTS.items():
        path = folder / f"{name}.json"
        path.write_text(json.dumps(coins.coin_to_json(coin)))
        paths.append(str(path))
    return paths


def _fraction():
    return st.builds(lambda m, q: f"{m}/{q}", st.integers(-30, 30), st.integers(1, 24))


def coin_flags(paths):
    """The flags of one coin, from any source."""
    angle = st.floats(min_value=-20.0, max_value=20.0).map(repr)
    return st.one_of(
        PERMS.map(lambda p: ("--perm", p)),
        st.tuples(PERMS, st.booleans()).map(lambda t: ("--grover", t[0]) + (("--negate",) if t[1] else ())),
        st.tuples(FAMILIES, angle).map(lambda t: ("--family", t[0], "--theta", t[1])),
        st.tuples(FAMILIES, _fraction()).map(lambda t: ("--family", t[0], "--theta-frac", t[1])),
        st.tuples(FAMILIES, _fraction(), st.none() | st.sampled_from(cli.SIGN_PAIRS)).map(
            lambda t: ("--family", t[0], "--rational", t[1]) + (() if t[2] is None else ("--signs", t[2]))),
        st.sampled_from(paths).map(lambda p: ("--matrix-file", p)),
    )


def methods():
    """No --methods, or a non-empty subset of the methods in any order."""
    subset = st.lists(st.sampled_from(("analytic", "spectral", "bruteforce")), min_size=1, max_size=3, unique=True)
    return st.none() | subset.map(lambda ms: ("--methods", ",".join(ms)))


@st.composite
def period_argv(draw, paths):
    n = draw(NS)
    argv = ("period", *draw(coin_flags(paths)), "--n", str(n), "--a", str(draw(st.integers(0, n // 2))),
            "--tmax", str(draw(TMAX)))
    return argv + (draw(methods()) or ())


@st.composite
def simulate_argv(draw, paths):
    n = draw(NS)
    argv = ("simulate", *draw(coin_flags(paths)), "--n", str(n), "--a", str(draw(st.integers(0, n // 2))),
            "--tmax", str(draw(st.integers(0, 50))))
    return argv + ("--start", str(draw(st.integers(0, n - 1))), "--coinstate", str(draw(st.integers(0, 2))))


@st.composite
def table_argv(draw):
    ns = draw(st.lists(NS, min_size=1, max_size=3))
    a_values = draw(st.lists(st.integers(0, min(ns) // 2), min_size=1, max_size=2))
    angles = draw(st.one_of(
        st.integers(1, 4).map(lambda q: ("--rational-grid", str(q))),
        st.lists(st.floats(-20.0, 20.0).map(repr), min_size=1, max_size=3).map(
            lambda vs: ("--theta-list", ",".join(vs))),
        st.tuples(st.floats(-7.0, 7.0), st.floats(-7.0, 7.0), st.integers(1, 3)).map(
            lambda t: ("--theta-grid", f"{t[0]!r}:{t[1]!r}:{t[2]}")),
    ))
    argv = ("table", "--family", draw(FAMILIES), *angles, "--n-list", ",".join(map(str, ns)),
            "--a-list", ",".join(map(str, a_values)), "--tmax", str(draw(TMAX)))
    return argv + (draw(methods()) or ())


def _run(argv):
    """(exit code, stdout, stderr) of one call; a usage error's SystemExit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _check(argv):
    code, out, err = _run(argv)
    assert code in (0, 3) and err == "", (argv, code, err)
    assert out
    if code == 3:
        print("exit 3:", " ".join(argv))


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_every_valid_period_call_reports(coin_files, data):
    _check(data.draw(period_argv(coin_files)))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_every_valid_simulate_call_prints_its_csv(coin_files, data):
    _check(data.draw(simulate_argv(coin_files)))


@settings(max_examples=120, deadline=None)
@given(argv=table_argv())
def test_every_valid_table_call_reports(argv):
    _check(argv)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_every_valid_coin_call_prints_its_document(coin_files, data):
    argv = ("coin", *data.draw(coin_flags(coin_files)))
    code, out, err = _run(argv)
    assert (code, err) == (0, ""), (argv, code, err)
    assert isinstance(json.loads(out), dict)


@settings(max_examples=80, deadline=None)
@given(suite=st.sampled_from(verify.SAMPLED_SUITES), samples=st.integers(1, 4), seed=st.integers())
def test_every_sampled_verify_call_passes_or_is_a_usage_error(suite, samples, seed):
    argv = ("verify", "--suite", suite, "--samples", str(samples), "--seed", str(seed))
    code, out, err = _run(argv)
    if seed >= 0:
        assert (code, err) == (0, ""), (argv, code, err)
        assert out.startswith(f"PASS {suite}: ")
    else:  # numpy's generator used to raise its own ValueError here
        assert (code, out) == (2, ""), (argv, code, out)
        assert err.count("usage:") == 1 and "Traceback" not in err
        assert err.endswith(f"error: argument --seed: must be >= 0, got {seed}\n")
