import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import run_cli
from livelywalk import cli, coins, verify, walk
from livelywalk.walk import DENSE_GUARD


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


class TestCoinCommand:
    def test_grover(self, capsys):
        code, doc = run_json(capsys, "coin", "--grover", "P1")
        assert code == 0
        assert doc["coin"]["repr"] == "exact"
        assert doc["classification"]["family"] == "X"
        assert doc["classification"]["is_grover_type"] is True
        assert doc["linear_sum"]["x"] == "-1/3"

    def test_theta_zero_identity(self, capsys):
        code, doc = run_json(capsys, "coin", "--family", "X", "--theta", "0")
        assert code == 0
        assert doc["classification"]["is_permutation"] is True

    def test_exact_rational(self, capsys):
        code, doc = run_json(capsys, "coin", "--family", "X", "--rational", "3", "--signs", "++")
        assert code == 0
        assert doc["coin"]["entries"][0] == ["2/3", "-1/3", "2/3"]

    def test_usage_error_no_source(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["coin"])
        assert exc.value.code == 2

    def test_usage_error_two_sources(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["coin", "--grover", "P1", "--perm", "P2"])
        assert exc.value.code == 2

    def test_domain_error_bad_matrix(self, capsys, tmp_path):
        bad = tmp_path / "coin.json"
        bad.write_text(json.dumps({"repr": "float", "entries": [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
                                   "family": None, "params": None}))
        code, out, err = run(capsys, "coin", "--matrix-file", str(bad))
        assert code == 1
        assert "error" in err

    ROUNDTRIP_SOURCES = (
        ("--perm", "P3"),
        ("--grover", "P5"),
        ("--grover", "P5", "--negate"),
        ("--family", "Y", "--theta", "1.3"),
        ("--family", "W", "--theta-frac", "2/7"),
        *(("--family", "Z", "--rational", "3/5", "--signs", signs) for signs in cli.SIGN_PAIRS),
    )

    def test_matrix_file_roundtrip(self, capsys, tmp_path):
        # for every coin source, the coin document `coin --output` writes
        # reads back to the same bytes
        first, second, path = tmp_path / "first.json", tmp_path / "second.json", tmp_path / "coin.json"
        for source in self.ROUNDTRIP_SOURCES:
            assert run(capsys, "coin", *source, "--output", str(first))[0] == 0
            path.write_text(json.dumps(json.loads(first.read_text())["coin"]))
            assert run(capsys, "coin", "--matrix-file", str(path), "--output", str(second))[0] == 0
            assert second.read_text() == first.read_text(), source

    def test_output_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, "coin", "--perm", "P4", "--output", str(target))
        assert code == 0 and out == ""
        doc = json.loads(target.read_text())
        assert doc["classification"]["family"] == "Z"

    def test_malformed_coin_file_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "coin.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit) as exc:
            cli.main(["coin", "--matrix-file", str(bad)])
        assert exc.value.code == 2


    def test_tol_loosens_the_det_check_too(self, capsys, tmp_path):
        # X at theta = 1 rad with every entry scaled by 1 + 1e-8: the
        # orthogonality defect 3.5e-8 and the det error 3e-8 both sit
        # inside --tol 1e-6, so classify's det cross-check must agree
        m = coins.coin_from_theta("X", 1.0).as_float().real * (1 + 1e-8)
        path = tmp_path / "near.json"
        path.write_text(json.dumps({"repr": "float", "entries": m.tolist()}))
        code, doc = run_json(capsys, "coin", "--matrix-file", str(path), "--tol", "1e-6")
        assert code == 0
        assert doc["classification"]["family"] == "X"
        code, _, err = run(capsys, "coin", "--matrix-file", str(path))
        assert code == 1 and "orthogonality defect" in err

    def test_tol_reaches_a_named_family(self, capsys, tmp_path):
        # the same near-orthogonal coin, now naming its family: --tol 1e-6
        # accepts it exactly as it does without the family
        m = coins.coin_from_theta("X", 1.0).as_float().real * (1 + 1e-8)
        path = tmp_path / "near.json"
        path.write_text(json.dumps({"repr": "float", "entries": m.tolist(), "family": "X"}))
        code, doc = run_json(capsys, "coin", "--matrix-file", str(path), "--tol", "1e-6")
        assert code == 0
        assert doc["classification"]["family"] == doc["coin"]["family"] == "X"
        code, out, err = run(capsys, "coin", "--matrix-file", str(path))
        assert code == 1 and out == ""
        assert err == "error: orthogonality defect 3.464e-08\n"

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_tol_not_finite_and_nonnegative_is_usage_error(self, capsys, tol):
        # at -1 or nan every coin failed as "orthogonality defect 0", and at
        # inf a matrix that is not orthogonal was classified
        with pytest.raises(SystemExit) as exc:
            cli.main(["coin", "--perm", "P1", "--tol", tol])
        assert exc.value.code == 2
        assert "--tol: must be finite and >= 0" in capsys.readouterr().err

    def test_tol_zero_accepts_an_exact_coin(self, capsys):
        code, doc = run_json(capsys, "coin", "--perm", "P1", "--tol", "0")
        assert code == 0 and doc["classification"]["is_permutation"] is True

    def test_linear_sum_is_the_classification(self, capsys):
        _, doc = run_json(capsys, "coin", "--family", "W", "--theta", "2.5")
        cls, lin = doc["classification"], doc["linear_sum"]
        assert lin == {key: cls[key] for key in ("basis", "x", "y", "z")}


class TestPeriodCommand:
    def test_grover_three_cycle(self, capsys):
        code, doc = run_json(capsys, "period", "--grover", "P1", "--n", "3", "--a", "0")
        assert code == 0
        assert doc["agreement"] is True
        assert {r["method"]: r["period"] for r in doc["results"]} == {
            "analytic": 6, "spectral": 6, "bruteforce": 6,
        }

    def test_delta_theta(self, capsys):
        code, doc = run_json(
            capsys, "period", "--family", "X", "--theta", "1.5707963268", "--n", "3", "--a", "0"
        )
        assert code == 0
        assert all(r["period"] == 12 for r in doc["results"])

    def test_grover_four_cycle_not_periodic(self, capsys):
        code, doc = run_json(capsys, "period", "--grover", "P1", "--n", "4", "--a", "0")
        assert code == 0
        statuses = {r["method"]: r["status"] for r in doc["results"]}
        assert statuses["analytic"] == "proven_infinite"
        assert statuses["bruteforce"] == "no_period_up_to"

    def test_theta_frac_flows_exactly(self, capsys):
        code, doc = run_json(
            capsys, "period", "--family", "X", "--theta-frac", "1/5", "--n", "3", "--methods", "analytic"
        )
        assert code == 0
        assert doc["results"][0]["period"] == 15

    def test_unknown_method_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["period", "--grover", "P1", "--n", "3", "--methods", "magic"])
        assert exc.value.code == 2

    def test_disagreement_exit_code(self, capsys, monkeypatch):
        from livelywalk import period as period_mod

        def wrong_bruteforce(spec, tmax=10_000, tol=1e-8):
            return period_mod.PeriodResult(status="finite", method="bruteforce", period=7)

        monkeypatch.setattr(period_mod, "period_bruteforce", wrong_bruteforce)
        code, doc = run_json(capsys, "period", "--grover", "P1", "--n", "3", "--a", "0")
        assert code == 3
        assert doc["agreement"] is False

    def test_float_coin_near_a_special_angle_disagrees(self, capsys):
        # Z at 4.18879020466091 = 4*pi/3 - 1.25e-10: analytic snaps the coin to
        # the special angle and brute force finds 22, but the angle is outside
        # spectral's band, so the report disagrees and exits 3.  ROADMAP item 4
        # (one tolerance contract for float coins near a periodic coin) will
        # change this row on purpose.
        code, doc = run_json(capsys, "period", "--family", "Z", "--theta", "4.18879020466091",
                             "--n", "11", "--a", "0")
        assert code == 3
        assert doc["agreement"] is False
        assert [(r["method"], r["status"], r["period"], r["bound"]) for r in doc["results"]] == [
            ("analytic", "finite", 22, None),
            ("spectral", "no_period_up_to", None, 31622),
            ("bruteforce", "finite", 22, None),
        ]


class TestPeriodBounds:
    def test_negative_tmax_is_domain_error(self, capsys):
        code, out, err = run(capsys, "period", "--grover", "P1", "--n", "3", "--tmax", "-5",
                             "--methods", "bruteforce")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("method", ["spectral", "analytic"])
    def test_qmax_below_one_is_domain_error(self, capsys, method):
        code, out, err = run(capsys, "period", "--perm", "P2", "--n", "3", "--qmax", "0",
                             "--methods", method)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


class TestSimulateCommand:
    def test_initial_distribution(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--grover", "P1", "--n", "3", "--a", "0",
            "--tmax", "0", "--start", "1", "--coinstate", "0",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,position,probability"
        rows = {int(v): float(p) for _, v, p in (line.split(",") for line in lines[1:])}
        assert rows == {0: 0.0, 1: 1.0, 2: 0.0}

    def test_grover_rows_repeat_at_six(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--grover", "P1", "--n", "3", "--a", "0",
            "--tmax", "6", "--start", "0", "--coinstate", "2",
        )
        assert code == 0
        at = {}
        for line in out.strip().split("\n")[1:]:
            t, v, p = line.split(",")
            at[(int(t), int(v))] = float(p)
        for v in range(3):
            assert abs(at[(6, v)] - at[(0, v)]) <= 1e-9

    def test_p5_rows_repeat_at_two(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--perm", "P5", "--n", "5", "--a", "0",
            "--tmax", "2", "--start", "3", "--coinstate", "1",
        )
        assert code == 0
        at = {}
        for line in out.strip().split("\n")[1:]:
            t, v, p = line.split(",")
            at[(int(t), int(v))] = float(p)
        for v in range(5):
            assert abs(at[(2, v)] - at[(0, v)]) <= 1e-9

    def test_state_file(self, capsys, tmp_path):
        import math

        amp = 1 / math.sqrt(2)
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"amplitudes": [[amp, 0], [0, amp]] + [[0, 0]] * 7}))
        code, out, _ = run(
            capsys, "simulate", "--grover", "P1", "--n", "3", "--a", "1",
            "--tmax", "1", "--state-file", str(path),
        )
        assert code == 0
        per_t = {}
        for line in out.strip().split("\n")[1:]:
            t, v, p = line.split(",")
            per_t.setdefault(int(t), 0.0)
            per_t[int(t)] += float(p)
        assert all(abs(total - 1) <= 1e-9 for total in per_t.values())

    def test_past_dense_guard(self, capsys):
        n = DENSE_GUARD + 1
        code, out, _ = run(
            capsys, "simulate", "--grover", "P1", "--n", str(n), "--start", "0",
            "--coinstate", "0", "--tmax", "2",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,position,probability" and len(lines) == 1 + 3 * n
        per_t = {}
        for line in lines[1:]:
            t, _, p = line.split(",")
            per_t[int(t)] = per_t.get(int(t), 0.0) + float(p)
        assert sorted(per_t) == [0, 1, 2]
        assert all(abs(total - 1) <= 1e-12 for total in per_t.values())

    def test_negative_tmax_is_domain_error(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--grover", "P1", "--n", "4", "--start", "0",
            "--coinstate", "0", "--tmax", "-1",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_unnormalized_state_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"amplitudes": [[1, 0]] * 9}))
        code, _, err = run(
            capsys, "simulate", "--grover", "P1", "--n", "3", "--a", "0",
            "--tmax", "1", "--state-file", str(path),
        )
        assert code == 1


class TestTableCommand:
    def test_rational_grid_periods(self, capsys):
        # q <= 5 at n = 3: theta/2pi in {0, 1/2, 1/3, 2/3, 1/4, 3/4, 1/5, ...}
        code, docs = run_json(
            capsys, "table", "--family", "X", "--rational-grid", "5",
            "--n-list", "3", "--a-list", "0",
        )
        assert code == 0
        periods = {}
        for doc in docs:
            frac = doc["coin"]["params"]
            key = round(float(doc["results"][0]["period"] or 0))
            periods.setdefault(key, 0)
            periods[key] += 1
        # identity -> 3, grover -> 6, cyclic perms -> 3, q=4 -> 12, q=5 -> 15
        assert set(periods) == {3, 6, 12, 15}
        assert periods[15] == 4  # the four m coprime to 5

    def test_theta_list(self, capsys):
        code, docs = run_json(
            capsys, "table", "--family", "Z", "--theta-list", "0,2.0943951023931953",
            "--n-list", "4,6", "--a-list", "0", "--methods", "analytic,bruteforce",
        )
        assert code == 0
        assert len(docs) == 4
        assert all(doc["agreement"] for doc in docs)

    def test_theta_grid(self, capsys):
        code, docs = run_json(
            capsys, "table", "--family", "X", "--theta-grid", "0:3.14:3",
            "--n-list", "3", "--a-list", "0", "--methods", "spectral,bruteforce",
        )
        assert code == 0
        assert len(docs) == 3
        assert all(doc["agreement"] for doc in docs)

    def test_bad_a_list_is_usage_error_without_n(self):
        # --a-list is parsed even when --n-list names no n
        code, out, err = run_cli(("table", "--family", "X", "--theta-list", "1", "--n-list", ",",
                                "--a-list", "q"))
        assert code == 2
        assert out == ""
        assert "cannot parse a list 'q'" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--n-list", "-3,4", "cycle length must be >= 2, got -3"),
        ("--a-list", "-1,0", "liveliness must satisfy 0 <= a <= n//2, got a=-1"),
    ])
    def test_negative_first_list_entry_is_domain_error(self, flag, value, message):
        # read as the flag's value, as --flag=value is, not as a missing argument
        head = ("table", "--family", "X", "--theta-list", "1")
        tail = () if flag == "--n-list" else ("--n-list", "3")
        for argv in ((*head, flag, value, *tail), (*head, f"{flag}={value}", *tail)):
            assert run_cli(argv) == (1, "", f"error: {message}\n"), argv

    def test_missing_grid_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "--family", "X", "--n-list", "3"])
        assert exc.value.code == 2


class TestVerifyCommand:
    def test_closure_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "closure", "--samples", "100", "--seed", "42")
        assert code == 0
        assert out.startswith("PASS closure")

    def test_period_consistency_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "period-consistency")
        assert code == 0
        assert "period-consistency" in out

    def test_failure_exit_code(self, capsys, monkeypatch):
        def broken(name, seed=0, samples=None):
            return verify.SuiteResult(name=name, checks=1, failures=1, worst=1.0)

        monkeypatch.setattr(verify, "run_suite", broken)
        monkeypatch.setattr(cli._verify, "run_suite", broken)
        code, out, _ = run(capsys, "verify", "--suite", "closure")
        assert code == 4
        assert out.startswith("FAIL")

    def test_seeded_determinism(self, capsys):
        args = ("verify", "--suite", "orthogonality", "--samples", "50", "--seed", "7")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_samples_on_period_consistency_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "period-consistency", "--samples", "3"])
        assert exc.value.code == 2
        assert "--samples is not read by --suite period-consistency" in capsys.readouterr().err
        with pytest.raises(ValueError, match="not sampled"):
            verify.run_suite("period-consistency", samples=3)

    def test_samples_under_all_go_to_sampled_suites_only(self, capsys, monkeypatch):
        calls = []

        def recorded(name, seed=0, samples=None):
            calls.append((name, seed, samples))
            return verify.SuiteResult(name=name, checks=1, failures=0, worst=0.0)

        monkeypatch.setattr(cli._verify, "run_suite", recorded)
        code, _, _ = run(capsys, "verify", "--suite", "all", "--samples", "3", "--seed", "5")
        assert code == 0
        assert verify.SAMPLED_SUITES == tuple(s for s in verify.SUITES if s != "period-consistency")
        # period-consistency reads neither the seed nor the sample count
        assert calls == [(name, 5, 3) if name in verify.SAMPLED_SUITES else (name, None, None)
                         for name in verify.SUITES]

    @pytest.mark.parametrize("argv", [("verify", "--suite", "closure", "--samples", "1", "--seed", "-5"),
                                      ("verify", "--suite", "all", "--seed", "-1")])
    def test_negative_seed_is_usage_error(self, capsys, argv):
        # numpy's generator used to end these in a ValueError traceback
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(f"error: argument --seed: must be >= 0, got {argv[-1]}\n")

    def test_seed_on_period_consistency_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "period-consistency", "--seed", "9"])
        assert exc.value.code == 2
        assert "--seed is not read by --suite period-consistency" in capsys.readouterr().err
        with pytest.raises(ValueError, match="not sampled"):
            verify.run_suite("period-consistency", seed=9)


def _nan_defects(monkeypatch, suite):
    """Make every defect the suite measures NaN."""
    if suite == "decompose-roundtrip":  # a NaN in one coefficient only
        decompose = coins.decompose_linear_sum
        monkeypatch.setattr(coins, "decompose_linear_sum", lambda m: dataclasses.replace(decompose(m), y=math.nan))
    else:
        target = "orthogonality_defect" if suite == "orthogonality" else "multiset_distance"
        monkeypatch.setattr(verify, target, lambda *args: math.nan)


class TestNanDefectFails:
    """A check passes only when its defect is within its bound, so a NaN
    defect fails and is reported as the worst defect."""

    @pytest.mark.parametrize("suite", ["orthogonality", "decompose-roundtrip", "spectrum-symmetry",
                                       "blockdiag-equivalence"])
    def test_nan_defect_fails_every_check(self, capsys, monkeypatch, suite):
        _nan_defects(monkeypatch, suite)
        result = verify.run_suite(suite, samples=2)
        assert result.checks > 0 and result.failures == result.checks
        assert math.isnan(result.worst)
        code, out, _ = run(capsys, "verify", "--suite", suite, "--samples", "2")
        assert code == 4
        assert out == f"FAIL {suite}: 0/{result.checks} checks (worst defect nan)\n"


class TestDeterminism:
    def test_repeat_invocations_byte_identical(self, capsys):
        args = ("period", "--family", "X", "--theta-frac", "2/7", "--n", "3", "--a", "0")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestFlagScope:
    """Each flag is registered only where it is read; elsewhere it is a usage error.

    --tol is read only by coin, --seed only by verify, --tmax by period, table
    and simulate, and --qmax by period and table.
    """

    BASE = {
        "coin": ("coin", "--grover", "P1"),
        "period": ("period", "--family", "X", "--theta", "1.0", "--n", "5", "--methods", "spectral"),
        "simulate": ("simulate", "--grover", "P1", "--n", "3", "--start", "0", "--coinstate", "0",
                     "--tmax", "1"),
        "table": ("table", "--family", "X", "--theta-list", "1.0", "--n-list", "3",
                  "--methods", "spectral"),
        "verify": ("verify", "--suite", "orthogonality", "--samples", "5"),
    }

    @pytest.mark.parametrize("command, flag", [
        ("period", "--tol"), ("simulate", "--tol"), ("table", "--tol"), ("verify", "--tol"),
        ("coin", "--seed"), ("period", "--seed"), ("simulate", "--seed"), ("table", "--seed"),
        ("coin", "--tmax"), ("verify", "--tmax"), ("coin", "--qmax"), ("verify", "--qmax"),
        ("simulate", "--qmax"),
    ])
    def test_unread_flag_is_usage_error(self, capsys, command, flag):
        assert run(capsys, *self.BASE[command])[0] == 0
        with pytest.raises(SystemExit) as exc:
            cli.main([*self.BASE[command], flag, "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, flag", [
        ("coin", "--tol"), ("verify", "--seed"), ("period", "--tmax"), ("table", "--tmax"),
        ("simulate", "--tmax"), ("period", "--qmax"), ("table", "--qmax"),
    ])
    def test_read_flag_accepted(self, capsys, command, flag):
        assert run(capsys, *self.BASE[command], flag, "1")[0] == 0


class TestIgnoredCoinModifiers:
    """A coin modifier that the chosen coin source would not read is a usage
    error: --negate is read only with --grover, the angle flags only with
    --family, and --signs only with --rational."""

    @pytest.mark.parametrize("argv", [
        ("--perm", "P2", "--negate"),
        ("--family", "X", "--theta", "1.0", "--negate"),
        ("--perm", "P2", "--signs", "+-"),
        ("--grover", "P1", "--signs", "++"),
        ("--family", "X", "--theta", "1.0", "--signs=-+"),
        ("--family", "X", "--theta-frac", "1/5", "--signs", "+-"),
        ("--perm", "P2", "--theta", "1.0"),
        ("--grover", "P1", "--theta-frac", "1/3"),
        ("--perm", "P1", "--rational", "2"),
    ])
    def test_unread_modifier_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(["period", *argv, "--n", "4"])
        assert exc.value.code == 2
        assert "is read only with" in capsys.readouterr().err

    def test_negate_flips_the_grover_coin(self, capsys):
        _, plain = run_json(capsys, "coin", "--grover", "P1")
        _, negated = run_json(capsys, "coin", "--grover", "P1", "--negate")
        assert plain["coin"]["entries"][0] == ["-1/3", "2/3", "2/3"]
        assert negated["coin"]["entries"][0] == ["1/3", "-2/3", "-2/3"]

    def test_signs_change_the_rational_coin(self, capsys):
        _, default = run_json(capsys, "coin", "--family", "X", "--rational", "3")
        _, plus = run_json(capsys, "coin", "--family", "X", "--rational", "3", "--signs", "++")
        _, minus = run_json(capsys, "coin", "--family", "X", "--rational", "3", "--signs=-+")
        assert default == plus
        assert minus["coin"]["entries"] != plus["coin"]["entries"]

    @pytest.mark.parametrize("command", ["coin", "period", "simulate"])
    @pytest.mark.parametrize("signs", ["++", "+-", "-+", "--"])
    def test_sign_pair_as_separate_argument(self, capsys, command, signs):
        # argparse alone reads a separate -+ or -- as an option
        tail = {"coin": (), "period": ("--n", "3"),
                "simulate": ("--n", "3", "--start", "0", "--coinstate", "0", "--tmax", "2")}[command]
        head = (command, "--family", "Y", "--rational", "3")
        glued = run(capsys, *head, f"--signs={signs}", *tail)
        separate = run(capsys, *head, "--signs", signs, *tail)
        assert glued[0] == 0
        assert separate == glued

    def test_minus_pairs_pick_their_coin(self, capsys):
        _, minus_plus = run_json(capsys, "coin", "--family", "X", "--rational", "3", "--signs", "-+")
        _, minus_minus = run_json(capsys, "coin", "--family", "X", "--rational", "3", "--signs", "--")
        assert minus_plus["coin"]["entries"][0] == ["0/1", "1/1", "0/1"]  # P2
        assert minus_minus["coin"]["entries"][0] == ["0/1", "0/1", "1/1"]  # P3

    @pytest.mark.parametrize("family", coins.FAMILIES)
    @pytest.mark.parametrize("command, tail", [("coin", ()), ("period", ("--n", "3"))])
    @pytest.mark.parametrize("glued", [False, True])
    def test_minus_minus_is_the_minus_minus_pell_coin(self, capsys, family, command, tail, glued):
        # argparse strips -- out of --signs=--; that once built the ++ coin
        signs = ("--signs=--",) if glued else ("--signs", "--")
        code, doc = run_json(capsys, command, "--family", family, "--rational", "2", *signs, *tail)
        want = coins.coin_to_json(coins.coin_from_rational(family, Fraction(2), -1, -1))
        assert code == 0
        assert doc["coin"] == json.loads(json.dumps(want))

    def test_bad_sign_pair_is_still_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["coin", "--family", "X", "--rational", "3", "--signs", "+"])
        assert exc.value.code == 2


class TestCountsBelowOne:
    """Grid and sample counts below 1 are usage errors (exit 2), not tracebacks,
    empty documents or vacuous passes."""

    @pytest.mark.parametrize("argv, message", [
        (("table", "--family", "X", "--theta-grid", "0:1:-1", "--n-list", "3"), "COUNT must be >= 1"),
        (("table", "--family", "X", "--theta-grid", "0:1:0", "--n-list", "3"), "COUNT must be >= 1"),
        (("table", "--family", "X", "--rational-grid", "-2", "--n-list", "3"), "must be >= 1"),
        (("table", "--family", "X", "--rational-grid", "0", "--n-list", "3"), "must be >= 1"),
        (("verify", "--suite", "closure", "--samples", "-1"), "must be >= 1"),
        (("verify", "--suite", "closure", "--samples", "0"), "must be >= 1"),
        (("verify", "--suite", "all", "--samples", "0"), "must be >= 1"),
    ])
    def test_count_below_one_is_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_count_of_one_runs(self, capsys):
        code, docs = run_json(capsys, "table", "--family", "X", "--theta-grid", "0:1:1",
                              "--n-list", "3", "--methods", "spectral")
        assert code == 0 and len(docs) == 1
        code, docs = run_json(capsys, "table", "--family", "X", "--rational-grid", "1",
                              "--n-list", "3", "--methods", "spectral")
        assert code == 0 and len(docs) == 1
        code, out, _ = run(capsys, "verify", "--suite", "closure", "--samples", "1")
        assert code == 0 and out == "PASS closure: 1/1 checks\n"


@pytest.fixture
def fresh_parser():
    """Start and end with no shared parser, so the test sees its first build."""
    cli.build_parser.cache_clear()
    yield
    cli.build_parser.cache_clear()


class TestParserReuse:
    """main builds the parser on its first call and reuses it; a sequence of
    calls prints what the same calls print each on a newly built parser."""

    SEQUENCE = [
        ("period", "--grover", "P1", "--n", "3"),
        ("period", "--grover", "P1", "--n", "3", "--methods", "magic"),  # usage error
        ("period", "--family", "X", "--theta-frac", "2/7", "--n", "5", "--a", "2"),
        ("coin", "--perm", "P2", "--tmax", "3"),  # usage error: unread flag
        ("coin", "--family", "Y", "--rational", "3", "--signs", "-+"),
        ("period", "--perm", "P1", "--n", "1"),  # domain error
        ("table", "--family", "W", "--theta-list", "0.5,1.5", "--n-list", "3,4", "--methods", "spectral"),
        ("verify", "--suite", "closure", "--samples", "3"),
        ("period", "--perm", "P3", "--n", "4", "--a", "1", "--methods", "analytic,spectral"),
        ("table", "--family", "X", "--n-list", "3"),  # usage error: no grid
        ("simulate", "--grover", "P1", "--n", "3", "--start", "0", "--coinstate", "1", "--tmax", "2"),
    ]

    def test_sequence_matches_separate_calls(self, fresh_parser):
        in_sequence = [run_cli(argv) for argv in self.SEQUENCE]
        separate = []
        for argv in self.SEQUENCE:
            cli.build_parser.cache_clear()
            separate.append(run_cli(argv))
        assert in_sequence == separate
        assert [code for code, _, _ in in_sequence] == [0, 2, 0, 2, 0, 1, 0, 0, 0, 2, 0]

    def test_sequence_matches_separate_processes(self, fresh_parser):
        argv_pair = [self.SEQUENCE[1], self.SEQUENCE[0]]
        in_sequence = [run_cli(argv) for argv in argv_pair]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(cli.__file__).parents[1])] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        for argv, (code, out, err) in zip(argv_pair, in_sequence):
            proc = subprocess.run([sys.executable, "-m", "livelywalk.cli", *argv],
                                  capture_output=True, text=True, env=env)
            assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)

    @pytest.mark.parametrize("command", [(), ("coin",), ("period",), ("simulate",), ("table",), ("verify",)])
    def test_help_unchanged_by_reuse(self, fresh_parser, command):
        first = run_cli((*command, "--help"))
        for argv in self.SEQUENCE:
            run_cli(argv)
        again = run_cli((*command, "--help"))
        cli.build_parser.cache_clear()
        assert again == first == run_cli((*command, "--help"))
        assert first[0] == 0 and first[1].startswith("usage: livelywalk")

    def test_built_once_across_calls(self, fresh_parser, monkeypatch):
        builds = []
        original = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            if kwargs.get("prog") == "livelywalk":  # the top-level parser, not a subparser
                builds.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in (self.SEQUENCE[0], self.SEQUENCE[1], self.SEQUENCE[4]):
            run_cli(argv)
        assert builds == [1]
        cli.build_parser.cache_clear()
        run_cli(self.SEQUENCE[0])
        assert builds == [1, 1]


class TestMethodsList:
    """--methods must name at least one known method, each once."""

    @pytest.mark.parametrize("methods, message", [
        (",", "--methods names no method"),
        ("", "--methods names no method"),
        (" , ,", "--methods names no method"),
        ("spectral,spectral", "method 'spectral' is named twice"),
        ("analytic,spectral,analytic", "method 'analytic' is named twice"),
        ("spectral,magic,spectral", "unknown method 'magic'"),
    ])
    @pytest.mark.parametrize("command", [
        ("period", "--grover", "P1", "--n", "3"),
        ("period", "--grover", "P1", "--n", "1"),  # checked before the cell
        ("period", "--family", "X", "--theta", "nan", "--n", "3"),  # and before the coin
        ("table", "--family", "X", "--theta-list", "1.0", "--n-list", "3"),
        ("table", "--family", "X", "--theta-list", "1.0", "--n-list", ","),  # empty sweep
    ])
    def test_bad_methods_is_usage_error(self, command, methods, message):
        code, out, err = run_cli((*command, "--methods", methods))
        assert code == 2
        assert out == ""
        assert message in err

    def test_table_checks_methods_before_the_sweep(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli._period, "cross_validate", lambda *a, **k: calls.append(1))
        code, _, err = run_cli(("table", "--family", "X", "--theta-list", "1.0,2.0", "--n-list", "3,4",
                              "--methods", "spectral,spectral"))
        assert code == 2 and calls == []
        # checked before any spec is built, so ahead of a bad n's domain error
        code, _, err = run_cli(("table", "--family", "X", "--theta-list", "1.0", "--n-list", "1",
                              "--methods", "magic"))
        assert code == 2 and "unknown method 'magic'" in err

    def test_each_method_once_runs(self, capsys):
        code, doc = run_json(capsys, "period", "--grover", "P1", "--n", "3",
                             "--methods", " bruteforce , analytic,")
        assert code == 0
        assert [r["method"] for r in doc["results"]] == ["bruteforce", "analytic"]


class TestNonFiniteAngle:
    @pytest.mark.parametrize("argv", [
        ("coin", "--family", "X", "--theta", "nan"),
        ("coin", "--family", "W", "--theta", "inf"),
        ("period", "--family", "Y", "--theta=-inf", "--n", "3"),
        ("table", "--family", "Z", "--theta-list", "1.0,nan", "--n-list", "3"),
        ("table", "--family", "X", "--theta-grid", "nan:1:2", "--n-list", "3"),
    ])
    def test_non_finite_theta_is_domain_error(self, argv):
        code, out, err = run_cli(argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: theta must be finite")

    @pytest.mark.parametrize("grid, end", [("0:inf:2", "inf"), ("-inf:1:3", "-inf"), ("inf:inf:1", "inf")])
    def test_infinite_grid_endpoint_is_named(self, grid, end):
        # checked before np.linspace, which would warn and turn the end into nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(("table", "--family", "X", f"--theta-grid={grid}", "--n-list", "3"))
        assert code == 1
        assert out == ""
        assert err == f"error: theta must be finite, got {end}\n"

    @pytest.mark.parametrize("grid", ["1e308:-1e308:3", "-1e308:1e308:1", "-1.7e308:1.7e308:2"])
    def test_grid_span_past_the_float_range_is_named(self, grid):
        # finite ends whose difference overflows: np.linspace would warn and give nan angles
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(("table", "--family", "Y", f"--theta-grid={grid}", "--n-list", "3",
                                      "--methods", "spectral"))
        assert (code, out) == (1, "")
        assert err == f"error: --theta-grid STOP - START overflows a float, got {grid!r}\n"

    def test_grid_span_at_the_float_range_runs(self):
        code, out, err = run_cli(("table", "--family", "Y", "--theta-grid=-8e307:8e307:3", "--n-list", "3",
                                  "--methods", "spectral"))
        assert (code, err) == (0, "")
        assert [row["coin"]["family"] for row in json.loads(out)] == ["Y"] * 3


class TestPerturbedExactCoinFile:
    def test_coin_off_by_a_billionth_exits_1(self, capsys, tmp_path):
        _, doc = run_json(capsys, "coin", "--family", "X", "--rational", "5/7")
        entries = doc["coin"]["entries"]
        entries[1][2] = str(Fraction(entries[1][2]) + Fraction(1, 10**9))
        path = tmp_path / "near.json"
        path.write_text(json.dumps({"repr": "exact", "entries": entries, "family": None, "params": None}))
        code, out, err = run(capsys, "coin", "--matrix-file", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: orthogonality defect")


def _x_coin_document(capsys) -> dict:
    _, doc = run_json(capsys, "coin", "--family", "X", "--rational", "5/7")
    return doc["coin"]


class TestMalformedFiles:
    """A file the CLI cannot open or read gives an error line, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ("coin", "--matrix-file", "{dir}"),
        ("simulate", "--grover", "P1", "--n", "3", "--tmax", "1", "--state-file", "{dir}"),
        ("coin", "--grover", "P1", "--output", "{dir}"),
    ])
    def test_directory_path_is_domain_error(self, tmp_path, argv):
        code, out, err = run_cli([arg.format(dir=tmp_path) for arg in argv])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "Is a directory" in err

    @pytest.mark.parametrize("argv, what", [
        (("coin", "--matrix-file", "{path}"), "coin file"),
        (("simulate", "--grover", "P1", "--n", "3", "--tmax", "1", "--state-file", "{path}"), "state file"),
    ])
    def test_non_utf8_file_is_usage_error(self, tmp_path, argv, what):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"repr": "exact", "entries": "é"}'.encode("latin-1"))
        code, out, err = run_cli([arg.format(path=path) for arg in argv])
        assert code == 2
        assert out == ""
        assert f"cannot parse {what} {path}" in err

    @pytest.mark.parametrize("doc", [
        {"repr": "exact", "entries": [["a", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
        {"repr": "exact", "entries": [["1", "0/0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
        {"repr": "exact", "entries": [["1", "0", "0"], ["0", "1"], ["0", "0", "1"]]},
        {"repr": "float", "entries": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    ])
    def test_bad_document_is_usage_error(self, tmp_path, doc):
        path = tmp_path / "coin.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(("coin", "--matrix-file", str(path)))
        assert code == 2
        assert out == ""
        assert f"coin file {path} does not match the schema" in err

    @pytest.mark.parametrize("command", [("coin",), ("period", "--n", "5")])
    @pytest.mark.parametrize("entry", ["1e400", "-Infinity"])
    def test_infinite_exact_entry_is_usage_error(self, tmp_path, command, entry):
        path = tmp_path / "coin.json"
        path.write_text(f'{{"repr": "exact", "entries": [[{entry}, 0, 0], [0, 1, 0], [0, 0, 1]]}}')
        code, out, err = run_cli((*command, "--matrix-file", str(path)))
        assert (code, out) == (2, "")
        assert f"coin file {path} does not match the schema: cannot convert Infinity to integer ratio" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [("coin",), ("period", "--n", "5")])
    def test_exact_entry_past_the_float_range_is_not_orthogonal(self, tmp_path, command):
        # the string "1e400" is a finite Fraction; its defect is reported as inf, as a float 1e300 entry's is
        path = tmp_path / "coin.json"
        path.write_text('{"repr": "exact", "entries": [["1e400", 0, 0], [0, 1, 0], [0, 0, 1]]}')
        code, out, err = run_cli((*command, "--matrix-file", str(path)))
        assert (code, out, err) == (1, "", "error: orthogonality defect inf\n")


class TestGuardExceeded:
    """Past brute force's size guard, period still reports the other methods
    and exits 0: brute force is not_applicable by guard-exceeded."""

    @pytest.mark.parametrize("methods", ["analytic,bruteforce", "analytic,spectral,bruteforce"])
    def test_period_past_the_guard_exits_0(self, methods):
        code, out, err = run_cli(("period", "--perm", "P1", "--n", "38837", "--methods", methods))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        brute = doc["results"][-1]
        assert (brute["method"], brute["status"], brute["theorem"]) == (
            "bruteforce", "not_applicable", "guard-exceeded")
        assert all(r["period"] == 38837 for r in doc["results"][:-1])
        assert doc["agreement"] is True


class TestHugeWalks:
    """A cycle too long for numpy to size its arrays: period and table report
    the spectral route as not_applicable by guard-exceeded and exit 0,
    simulate prints one error line and exits 1, as does a table whose
    --theta-grid holds too many angles; no traceback."""

    @pytest.mark.parametrize("n, a", [("99999999999999999999", "0"), ("4611686018427387904", "1")])
    def test_period_exits_0(self, n, a):
        code, out, err = run_cli(("period", "--grover", "P1", "--n", n, "--a", a))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert [(r["method"], r["status"], r["theorem"]) for r in doc["results"][1:]] == [
            ("spectral", "not_applicable", "guard-exceeded"), ("bruteforce", "not_applicable", "guard-exceeded")]
        assert doc["agreement"] is True

    @pytest.mark.parametrize("n", ["99999999999999999999", "4611686018427387904"])
    def test_table_exits_0(self, n):
        code, out, err = run_cli(("table", "--family", "X", "--rational-grid", "1", "--n-list", f"3,{n},4",
                                  "--methods", "spectral"))
        assert (code, err) == (0, "")
        rows = json.loads(out)
        assert [r["results"][0]["status"] for r in rows] == ["finite", "not_applicable", "finite"]
        assert rows[1]["results"][0]["theorem"] == "guard-exceeded"

    def test_period_and_table_past_the_float_range_exit_0(self):
        n = str(10**400)
        code, out, err = run_cli(("period", "--grover", "P1", "--n", n))
        assert (code, err) == (0, "")
        assert [r["theorem"] for r in json.loads(out)["results"][1:]] == ["guard-exceeded"] * 2
        code, out, err = run_cli(("table", "--family", "X", "--rational-grid", "1", "--n-list", f"3,4,{n}",
                                  "--methods", "spectral"))
        assert (code, err) == (0, "")
        assert [r["results"][0]["status"] for r in json.loads(out)] == ["finite", "finite", "not_applicable"]

    @pytest.mark.parametrize("n", ["99999999999999999999", "4611686018427387904"])
    def test_simulate_exits_1(self, n):
        code, out, err = run_cli(("simulate", "--grover", "P1", "--n", n, "--start", "0", "--coinstate", "0",
                                  "--tmax", "1"))
        assert (code, out) == (1, "")
        assert err == (f"error: a state on {n} vertices needs {48 * int(n)} bytes, "
                       f"over numpy's limit of {2**63 - 1} bytes per array\n")

    @pytest.mark.parametrize("count", [10**20, 2**62])
    def test_theta_grid_exits_1(self, count):
        code, out, err = run_cli(("table", "--family", "X", "--theta-grid", f"0:1:{count}", "--n-list", "3"))
        assert (code, out) == (1, "")
        assert err == (f"error: a --theta-grid of {count} angles needs {8 * count} bytes, "
                       f"over numpy's limit of {2**63 - 1} bytes per array\n")


class TestOutOfMemory:
    """A spec whose arrays do not fit in memory gives an error line (exit 1),
    not a traceback; the allocation is faked, never made."""

    @pytest.mark.parametrize("target, argv", [
        ("block_stack", ("period", "--perm", "P1", "--n", "5", "--methods", "spectral")),
        ("basis_state", ("simulate", "--perm", "P1", "--n", "5", "--start", "0", "--coinstate", "0",
                         "--tmax", "1")),
    ])
    def test_memory_error_is_domain_error(self, monkeypatch, target, argv):
        def no_memory(*args):
            raise MemoryError("Unable to allocate 7.45 GiB for an array")

        monkeypatch.setattr(walk, target, no_memory)
        assert run_cli(argv) == (1, "", "error: Unable to allocate 7.45 GiB for an array\n")


class TestNamedFamilyIsChecked:
    """A coin document that names a family its entries do not have is a
    domain error; its params are not read."""

    @pytest.mark.parametrize("family", ["W", "Q"])
    @pytest.mark.parametrize("command", [
        ("coin",),
        ("period", "--n", "3"),
        ("simulate", "--n", "3", "--start", "0", "--coinstate", "0", "--tmax", "1"),
    ])
    def test_wrong_family_exits_1(self, capsys, tmp_path, family, command):
        doc = _x_coin_document(capsys)
        doc["family"] = family
        path = tmp_path / "coin.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, *command, "--matrix-file", str(path))
        assert code == 1
        assert out == ""
        assert err == f"error: coin names family {family} but its entries are family X\n"

    def test_params_are_not_read(self, capsys, tmp_path):
        doc = _x_coin_document(capsys)
        written = json.dumps(doc)
        doc["params"] = {"x": "5/7", "y": "not a number"}
        path = tmp_path / "coin.json"
        path.write_text(json.dumps(doc))
        code, out = run_json(capsys, "coin", "--matrix-file", str(path))
        assert code == 0
        assert json.dumps(out["coin"]) == written
