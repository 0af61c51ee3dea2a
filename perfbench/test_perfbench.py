"""Self-tests of the benchmark: oracles, metric names, inputs and smoke runs.

Run with: python3 -m pytest perfbench
"""

import json
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import harness
import oracles
import workloads
from workloads import CoinSpec, Row

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _report(row, periods):
    return {
        "n": row.n,
        "a": row.a,
        "coin": {"entries": row.coin.float_entries()},
        "results": [{"method": m, "status": "finite", "period": t, "bound": None}
                    for m, t in zip(("analytic", "spectral", "bruteforce"), periods)],
    }


def test_true_period_passes():
    row = Row(CoinSpec("grover", index=1), 3, 0)
    assert oracles.check_period_row(row, _report(row, [6, 6, 6])) == []


@pytest.mark.parametrize("periods", [[12, 12, 12], [3, 3, 3], [6, 6, 12]])
def test_planted_wrong_period_is_flagged(periods):
    row = Row(CoinSpec("grover", index=1), 3, 0)
    assert oracles.check_period_row(row, _report(row, periods))


def test_missed_small_period_is_flagged():
    row = Row(CoinSpec("perm", index=5), 4, 0)
    report = _report(row, [])
    report["results"] = [{"method": "spectral", "status": "no_period_up_to", "period": None, "bound": 31622}]
    assert oracles.check_period_row(row, report)


def test_minimality_check():
    u = oracles.walk_operator(CoinSpec("grover", index=1), 3, 0)
    assert oracles.period_is_minimal(u, 6)
    assert not oracles.period_is_minimal(u, 12)
    assert not oracles.period_is_minimal(u, 5)


def _csv(dist):
    lines = ["t,position,probability"]
    for t, row in enumerate(dist):
        lines += [f"{t},{v},{p:.17g}" for v, p in enumerate(row)]
    return "\n".join(lines) + "\n"


def test_perturbed_csv_row_is_flagged():
    dist = oracles.simulate_distribution(CoinSpec("grover", index=1), 9, 2, 4, 1, 6)
    text = _csv(dist)
    assert oracles.check_csv(text, dist) == []
    lines = text.splitlines()
    t, v, p = lines[20].split(",")
    lines[20] = f"{t},{v},{float(p) + 1e-6:.17g}"
    assert oracles.check_csv("\n".join(lines), dist)
    lines = text.splitlines()
    lines[3], lines[4] = lines[4], lines[3]
    assert oracles.check_csv("\n".join(lines), dist)
    assert oracles.check_csv("\n".join(text.splitlines()[:-1]), dist)


def test_roll_oracle_matches_dense_operator():
    coin, n, a = CoinSpec("theta", family="Z", frac=workloads.Fraction(2, 7)), 7, 3
    u = oracles.walk_operator(coin, n, a)
    psi = np.zeros(3 * n, dtype=complex)
    psi[2 * n + 5] = 1.0
    dist = oracles.simulate_distribution(coin, n, a, 5, 2, 4)
    for t in range(5):
        assert np.allclose(dist[t], (np.abs(psi.reshape(3, n)) ** 2).sum(axis=0), atol=1e-14)
        psi = u @ psi


def test_coins_are_orthogonal():
    for coin in workloads.scan_coins():
        c = np.array(coin.float_entries())
        assert np.allclose(c.T @ c, np.eye(3), atol=1e-14), coin.label


def test_metric_names_match_benchmark_json():
    doc = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    for section, ours in (("end_to_end", harness.END_TO_END), ("per_layer", harness.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in doc[section]] == list(ours)
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]] + [w["name"] for w in doc["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert tuple(w["name"] for w in doc["workloads"]) == workloads.WORKLOADS


def test_paper_periods_are_in_the_full_workloads(tmp_path):
    rows = set()
    for name in ("period-table", "spectrum-scan"):
        for op in workloads.build(name, 0, str(tmp_path)):
            rows |= {(r.coin.label, r.n, r.a) for r in op.rows}
    assert set(oracles.PAPER_PERIODS) <= rows


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_permutes_but_keeps_the_work(name, tmp_path):
    one = workloads.build(name, 1, str(tmp_path))
    again = workloads.build(name, 1, str(tmp_path))
    other = workloads.build(name, 2, str(tmp_path))
    assert one == again
    assert sorted(op.site_steps for op in one) == sorted(op.site_steps for op in other)
    assert len(one) == {"period-table": 24, "spectrum-scan": 1880, "simulate-large": 4}[name]


def test_known_crash_specs_stay_in_spectrum_scan(tmp_path):
    ops = workloads.build("spectrum-scan", 5, str(tmp_path))
    labels = {(op.rows[0].coin.label, op.rows[0].n, op.rows[0].a) for op in ops}
    for label in ("P2", "P3", "-P2", "-P3"):
        for n in workloads.SCAN_N:
            assert all((label, n, a) in labels for a in range(1, n // 2 + 1))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run(name, trace):
    start = time.perf_counter()
    doc, info = harness.run(name, seed=7, seconds=0, trace=trace, smoke=True)
    assert time.perf_counter() - start < 30
    assert doc["correct"], info
    assert doc["attempted"] >= 1
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert [(k, v["unit"]) for k, v in doc["metrics"].items()] == list(expected)
    if trace:
        self_s = sum(v["value"] for k, v in doc["metrics"].items() if k.endswith("self_s"))
        assert self_s == pytest.approx(doc["metrics"]["trace.wall_s"]["value"], rel=1e-9)


def test_failures_are_recorded_with_their_class():
    doc, info = harness.run("spectrum-scan", seed=2, seconds=0, trace=False, smoke=True)
    passes = int(info[0].split()[5])
    classified = [line for line in info if line.startswith("failed ops/pass")]
    assert sum(int(line.split()[2]) for line in classified) * passes == doc["failed"]
    assert not any("exit code in cli.main" in line for line in classified)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "spectrum-scan", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
