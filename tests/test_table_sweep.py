"""A `table` sweep prints, row for row, what `period` prints for each spec.

`cli.cmd_table` takes its coins from the coin memo and hands its cells to
`period._sweep`, which solves the spectral route's blocks in batches
(`period._spectra`), several specs per `exactnum._solve_unitary` call,
by one rule: a batch closes when the next spec's blocks, sized from n
alone, do not fit beside it in CHUNK_BYTES, and a spec alone in its batch,
`period`'s one cell among them, is solved by `period_spectral`.  So:

* every row of a sweep is byte for byte the `period` report of its spec,
  over mixed n = 2..12, every valid a, the default methods and each single
  method, for `--rational-grid` (read as `period --theta-frac m/q`) and for
  `--theta-list` and `--theta-grid` (read as `period --theta v`);
* the batched eigensolve is bitwise the per-spec one on the golden
  spectral corpus, with every n in one batch;
* a CHUNK_BYTES small enough to split each sweep into many batches leaves
  the output bytes as they were, every batch holds two or more specs
  within it, and a spec too large for numpy is never built by the sweep;
* a sweep that fails prints the error, and exits with the code, of one
  rule: first a bad bound, then the first bad cell, both before any method
  runs; a solver failure fails the sweep at its batch.
"""

import json
import math
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_golden_spectral
from conftest import run_cli
from livelywalk import coins, period, walk
from livelywalk.errors import NumericalFailure
from livelywalk.exactnum import _solve_unitary, _unit_eigenvalues

N_RANGE = range(2, 13)
METHOD_SETS = (None, "analytic", "spectral", "bruteforce")
TMAX = "600"


def _sweeps(angles, methods):
    """(table argv, the period argv of each of its rows in order) per valid
    a: every a from 0 to 6, each with the n of 2..12 it is valid for, so
    every sweep mixes n."""
    common = ("--tmax", TMAX) + (() if methods is None else ("--methods", methods))
    source, family, per_row = angles
    for a in range(max(N_RANGE) // 2 + 1):
        ns = [n for n in N_RANGE if a <= n // 2]
        table = ("table", "--family", family, *source, "--n-list", ",".join(map(str, ns)),
                 "--a-list", str(a), *common)
        rows = [("period", "--family", family, *angle, "--n", str(n), "--a", str(a), *common)
                for n in ns for angle in per_row]
        yield table, rows


RATIONAL = (("--rational-grid", "4"), "X",
            [("--theta-frac", f"{m}/{q}") for q in range(1, 5) for m in range(q) if math.gcd(m, q) == 1])
THETA_LIST = (("--theta-list", "-1.2,0.3,2.0943951023931953"), "Y",
              [("--theta", v) for v in ("-1.2", "0.3", "2.0943951023931953")])
THETA_GRID = (("--theta-grid", "0:6.283185307179586:5"), "Z",
              [("--theta", repr(float(v))) for v in np.linspace(0.0, 6.283185307179586, 5)])
W_RATIONAL = (("--rational-grid", "3"), "W",
              [("--theta-frac", f"{m}/{q}") for q in range(1, 4) for m in range(q) if math.gcd(m, q) == 1])


def _table_text(reports: list[str]) -> str:
    """The text of a sweep whose rows print as `reports`, each the stdout
    of one `period` call."""
    return "[\n" + ",\n".join(textwrap.indent(r.rstrip("\n"), "  ") for r in reports) + "\n]\n"


@pytest.mark.parametrize("methods", METHOD_SETS)
@pytest.mark.parametrize("angles", [RATIONAL, THETA_LIST, THETA_GRID, W_RATIONAL],
                         ids=["rational-grid", "theta-list", "theta-grid", "W-rational-grid"])
def test_each_row_is_the_period_report_of_its_spec(angles, methods):
    for table, rows in _sweeps(angles, methods):
        code, out, err = run_cli(table)
        singles = [run_cli(argv) for argv in rows]
        assert err == "" and all(e == "" for _, _, e in singles)
        assert out == _table_text([o for _, o, _ in singles]), table
        assert code == max(c for c, _, _ in singles), table
        assert {c for c, _, _ in singles} <= {0, 3}


def test_the_batched_eigensolve_is_bitwise_the_per_spec_one():
    specs = [walk.WalkSpec(n=n, a=a, coin=coin) for coin in test_golden_spectral.corpus().values()
             for n in N_RANGE for a in range(n // 2 + 1)]
    assert len(specs) == 5452
    stacks = [walk.block_stack(spec, spec.n // 2 + 1) for spec in specs]
    batched = period._block_eigenvalues(stacks)
    assert len(batched) == len(specs)
    for spec, stack, lams in zip(specs, stacks, batched):
        alone = _unit_eigenvalues(stack)
        assert lams.shape == alone.shape and lams.tobytes() == alone.tobytes(), spec


def _counting_eig3(monkeypatch):
    """A list that grows by one per `_solve_unitary` call from `period`."""
    calls = []

    def counted(m):
        calls.append(len(m))
        return _solve_unitary(m)

    monkeypatch.setattr(period, "_solve_unitary", counted)
    return calls


@pytest.mark.parametrize("methods", ["analytic,spectral", "spectral"])
def test_small_batches_print_the_same_bytes(monkeypatch, methods):
    sweeps = [(table + ("--methods", methods)) for angles in (RATIONAL, THETA_GRID)
              for table, _ in _sweeps(angles, None)]
    whole = [run_cli(argv) for argv in sweeps]
    calls = _counting_eig3(monkeypatch)
    for argv in sweeps:  # one eigensolve per sweep: every sweep is one batch
        calls.clear()
        run_cli(argv)
        assert len(calls) == 1
    # 1,000 bytes hold six blocks, one to three specs at n <= 11, and n = 12's
    # seven blocks are a lone spec, solved by period_spectral; brute force,
    # which CHUNK_BYTES also bounds, is not asked for
    monkeypatch.setattr(period, "CHUNK_BYTES", 1000)
    for argv, want in zip(sweeps, whole):
        calls.clear()
        assert run_cli(argv) == want, argv
        assert len(calls) > 4 and max(calls) <= 7, argv


def test_a_spec_larger_than_chunk_bytes_is_a_batch_of_its_own(monkeypatch):
    argv = ("table", "--family", "X", "--rational-grid", "2", "--n-list", "3,40,4", "--methods", "spectral")
    want = run_cli(argv)
    calls = _counting_eig3(monkeypatch)
    monkeypatch.setattr(period, "CHUNK_BYTES", 1000)  # n = 40 has 21 blocks, 3,024 bytes
    assert run_cli(argv) == want
    assert calls == [2 + 2, 21, 21, 3 + 3]



# --- the one batching rule ------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 12, 41])
def test_a_one_cell_period_solves_its_spec_alone(monkeypatch, n):
    monkeypatch.setattr(period, "_block_eigenvalues", lambda stacks: pytest.fail("a lone spec was batched"))
    shapes = []
    monkeypatch.setattr(period, "_solve_unitary", lambda m: shapes.append(m.shape) or _solve_unitary(m))
    code, _, err = run_cli(("period", "--family", "X", "--theta-frac", "1/3", "--n", str(n), "--a", "1"))
    assert (code, err) == (0, "")
    assert shapes == [(n // 2 + 1, 3, 3)]


def test_a_huge_spec_is_sized_from_n_and_never_built_by_the_sweep(monkeypatch):
    huge = 10**20 - 1
    coin = coins.coin_from_theta_frac("X", Fraction(1, 3))
    specs = [walk.WalkSpec(n=n, a=1, coin=coin) for n in (3, 4, huge, 5, 6)]
    built, real = [], period._half_stack
    monkeypatch.setattr(period, "_half_stack", lambda spec: built.append(spec.n) or real(spec))
    spectra = list(period._spectra(specs))
    assert built == [3, 4, 5, 6]
    assert [lams is None for lams in spectra] == [False, False, True, False, False]
    # the sweep that holds it reports the spectral route as guard-exceeded
    code, out, err = run_cli(("table", "--family", "X", "--rational-grid", "2", "--n-list", f"3,{huge},4",
                              "--methods", "analytic,spectral"))
    assert (code, err) == (0, "")
    assert [row["results"][1]["theorem"] for row in json.loads(out) if row["n"] == huge] == ["guard-exceeded"] * 2


@settings(max_examples=60, deadline=None)
@given(ns=st.lists(st.integers(2, 40), min_size=1, max_size=6), chunk_bytes=st.integers(144, 4000))
def test_every_batch_holds_two_or_more_specs_within_chunk_bytes(ns, chunk_bytes):
    tail = ("--a-list", "0,1", "--methods", "analytic,spectral")
    calls, real = [], period._block_eigenvalues
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(period, "CHUNK_BYTES", chunk_bytes)
        mp.setattr(period, "_block_eigenvalues", lambda stacks: calls.append(stacks) or real(stacks))
        code, out, err = run_cli(("table", "--family", "X", "--rational-grid", "2",
                                  "--n-list", ",".join(map(str, ns)), *tail))
        singles = [run_cli(("period", "--family", "X", "--theta-frac", frac, "--n", str(n), "--a", a, *tail[2:]))
                   for n in ns for a in ("0", "1") for frac in ("0/1", "1/2")]
    assert all(len(stacks) >= 2 and sum(s.nbytes for s in stacks) <= chunk_bytes for stacks in calls)
    assert err == "" and out == _table_text([o for _, o, _ in singles])
    assert code == max(c for c, _, _ in singles)


@pytest.mark.parametrize("angles", [("--rational-grid", "3"), ("--theta-grid", "0:1:3")])
def test_a_sweep_builds_each_coin_once_per_process(monkeypatch, angles):
    argv = ("table", "--family", "W", *angles, "--n-list", "3,4", "--a-list", "0,1")
    first = run_cli(argv)
    # coin_from_theta_frac builds through coin_from_theta
    monkeypatch.setattr(coins, "coin_from_theta", lambda *args: pytest.fail("a memoized coin was built again"))
    assert run_cli(argv) == first


def test_an_angle_and_the_equal_fraction_are_different_coins():
    """theta = 0.5 rad and theta/2pi = 1/2 have equal keys but for the tag."""
    assert Fraction(1, 2) == 0.5 and hash(Fraction(1, 2)) == hash(0.5)
    for family in ("X", "Z"):
        tail = ("--n-list", "3", "--methods", "analytic,spectral")
        run_cli(("table", "--family", family, "--rational-grid", "2", *tail))
        code, out, _ = run_cli(("table", "--family", family, "--theta-list", "0.5", *tail))
        single = run_cli(("period", "--family", family, "--theta", "0.5", "--n", "3", *tail[2:]))
        assert (code, out) == (single[0], _table_text([single[1]]))


# --- a sweep that fails part-way ---------------------------------------------

#: (argv, stderr) of sweeps that fail part-way, and of `period` calls that
#: fail; each exits 1 with no stdout, as the spec-by-spec loop that batching
#: replaced did
FAILING = [
    # an invalid (n, a) after valid ones
    (("table", "--family", "X", "--rational-grid", "3", "--n-list", "4,3", "--a-list", "0,2"),
     "error: liveliness must satisfy 0 <= a <= n//2, got a=2\n"),
    # the same sweep with a bad qmax: analytic refuses it at the first spec
    (("table", "--family", "X", "--rational-grid", "3", "--n-list", "4,3", "--a-list", "0,2", "--qmax", "0"),
     "error: denominator bound qmax must be >= 1, got 0\n"),
    (("table", "--family", "X", "--rational-grid", "3", "--n-list", "4,3", "--a-list", "2", "--qmax", "0"),
     "error: denominator bound qmax must be >= 1, got 0\n"),
    (("table", "--family", "X", "--rational-grid", "3", "--n-list", "4,3", "--a-list", "0,2", "--qmax", "0",
      "--methods", "spectral"),
     "error: denominator bound qmax must be >= 1, got 0\n"),
    # brute force never reads qmax, so the invalid spec is reached
    (("table", "--family", "X", "--rational-grid", "3", "--n-list", "4,3", "--a-list", "0,2", "--qmax", "0",
      "--methods", "bruteforce"),
     "error: liveliness must satisfy 0 <= a <= n//2, got a=2\n"),
    (("table", "--family", "Y", "--theta-list", "0.5,nan,1", "--n-list", "3"),
     "error: theta must be finite, got nan\n"),
    (("table", "--family", "Y", "--theta-list", "0.5,1", "--n-list", "3,1,4", "--methods", "spectral"),
     "error: cycle length must be >= 2, got 1\n"),
    # an invalid first cell and a bad bound: the bound the methods read comes first
    (("table", "--family", "X", "--rational-grid", "3", "--n-list", "1,3", "--qmax", "0"),
     "error: denominator bound qmax must be >= 1, got 0\n"),
    (("table", "--family", "X", "--rational-grid", "3", "--n-list", "1,3", "--tmax", "-1"),
     "error: step bound tmax must be >= 0, got -1\n"),
    (("table", "--family", "X", "--rational-grid", "3", "--n-list", "1,3", "--qmax", "0", "--methods", "bruteforce"),
     "error: cycle length must be >= 2, got 1\n"),
    # `period` is a sweep of one cell, under the same rule
    (("period", "--perm", "P1", "--n", "1", "--qmax", "0"), "error: denominator bound qmax must be >= 1, got 0\n"),
    (("period", "--perm", "P1", "--n", "1", "--tmax", "-1"), "error: step bound tmax must be >= 0, got -1\n"),
]


@pytest.mark.parametrize("argv, stderr", FAILING, ids=[" ".join(argv[1:]) for argv, _ in FAILING])
def test_a_sweep_that_fails_part_way_fails_as_before(argv, stderr):
    assert run_cli(argv) == (1, "", stderr)
    assert run_cli(argv) == (1, "", stderr)  # the second call finds its coins in the memo


def test_a_sweep_with_an_invalid_last_cell_runs_no_method(monkeypatch):
    for name in ("period_analytic", "period_spectral", "period_bruteforce"):
        monkeypatch.setattr(period, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
    argv = ("table", "--family", "X", "--rational-grid", "3", "--n-list", "4,3", "--a-list", "0,2")
    assert run_cli(argv) == (1, "", "error: liveliness must satisfy 0 <= a <= n//2, got a=2\n")


def test_a_sweep_of_no_cells_checks_its_bounds():
    # as every other sweep and `period` do: tmax first, then qmax, each only
    # where a method reads it
    argv = ("table", "--family", "X", "--theta-list", "1", "--n-list", ",", "--qmax", "0", "--tmax", "-1")
    assert run_cli(argv) == (1, "", "error: step bound tmax must be >= 0, got -1\n")
    assert run_cli(argv[:-2]) == (1, "", "error: denominator bound qmax must be >= 1, got 0\n")
    assert run_cli(argv[:-2] + ("--methods", "bruteforce")) == (0, "[]\n", "")


#: the sweep whose third spec's blocks the solver refuses: X at theta/2pi =
#: 0 and 1/2, n = 3 then 4
THIRD = ("table", "--family", "X", "--rational-grid", "2", "--n-list", "3,4", "--a-list", "0,1")


@pytest.mark.parametrize("methods", [None, "spectral", "bruteforce,spectral"])
def test_a_solver_failure_on_the_third_spec_fails_as_before(monkeypatch, methods):
    argv = THIRD + (() if methods is None else ("--methods", methods))
    spec = walk.WalkSpec(n=3, a=1, coin=coins.coin_from_theta_frac("X", Fraction(0)))
    target = walk.block_stack(spec, spec.n // 2 + 1)
    solves = []

    def refusing(m):
        holds = any(np.array_equal(m[i:i + len(target)], target) for i in range(len(m) - len(target) + 1))
        solves.append((len(m), holds))
        if holds:
            raise NumericalFailure("eigenvalue modulus 0.5 is not 1")
        return _solve_unitary(m)

    monkeypatch.setattr(period, "_solve_unitary", refusing)
    assert run_cli(argv) == (1, "", "error: eigenvalue modulus 0.5 is not 1\n")
    # one batch of all eight specs, four at n = 3 and four at n = 4, and no
    # solve after it
    assert solves == [(20, True)]
