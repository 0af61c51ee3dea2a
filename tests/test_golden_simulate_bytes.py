"""Golden corpus: `simulate` output, pinned byte for byte by hash.

test_golden_simulate.py compares the probabilities only to 1e-14; this
corpus pins the exact text of the CSV, so it also pins how each float is
written (17 significant digits, exponent form for tiny values).  The calls
are:

* the four benchmark shapes: Grover P1 at n = 512 and 1024, a = 0 and 3,
  tmax = 50, from the starts the benchmark draws at seed 1;
* n = 2 with a = 1, and a call with --tmax 0;
* starts whose support wraps past vertex n - 1: vertex 0 and vertex 1023 at
  n = 1024, a = 3, and vertex 0 at n = 64, a = 3 with --tmax 200, where the
  support spreads round the whole cycle (every other vertex: at even n the
  moves -1, +1 and 3 keep the walker on one parity class);
* dense --state-file starts at n = 3 and n = 17: every one of the 3n
  amplitudes is nonzero, drawn from a fixed numpy seed, and every third
  vertex is scaled by 1e-6, so some rows are written in exponent form.

The expected lines live in golden_simulate_bytes.txt, one call per line: a
label for the argv (a state file named by its n and seed), the sha256 of
its stdout and its exit code, tab-separated.  The lines were generated
before each time step was written through one prebuilt row template, and
the three wrap lines before rows of exact zeros were taken from a template
of their own.
Regenerate the file only when a change of behaviour is intended:

    PYTHONPATH=src python tests/corpora.py golden_simulate_bytes
"""

import json
import tempfile
from pathlib import Path

import numpy as np

import corpora
from conftest import digest_line, run_cli

GOLDEN = "golden_simulate_bytes"
BENCHMARK_STARTS = ((512, 0, 474, 1), (1024, 0, 236, 0), (512, 3, 106, 2), (1024, 3, 812, 2))
#: (n, a, start, coin state, tmax) of each start whose support wraps past vertex n - 1
WRAP_STARTS = ((1024, 3, 0, 0, 50), (1024, 3, 1023, 1, 50), (64, 3, 0, 2, 200))
#: (coin argv, n, a, numpy seed, tmax) of each dense --state-file start
DENSE_STARTS = (
    (("--family", "X", "--theta-frac", "2/7"), 3, 1, 5, 12),
    (("--grover", "P4", "--negate"), 17, 5, 11, 30),
)
TINY = 1e-6


def dense_state(n: int, seed: int) -> list:
    """[re, im] pairs of a normalized state with all 3n amplitudes nonzero."""
    rng = np.random.default_rng(seed)
    psi = rng.uniform(0.5, 1.0, 3 * n) * np.exp(2j * np.pi * rng.uniform(size=3 * n))
    psi.reshape(3, n)[:, ::3] *= TINY
    psi /= np.linalg.norm(psi)
    return [[z.real, z.imag] for z in psi.tolist()]


def calls(workdir: Path) -> list[tuple[str, tuple]]:
    """(label, argv) of every call, in a fixed order; writes the state files."""
    out = []
    for n, a, start, coinstate in BENCHMARK_STARTS:
        argv = ("simulate", "--grover", "P1", "--n", str(n), "--a", str(a), "--start", str(start),
                "--coinstate", str(coinstate), "--tmax", "50")
        out.append((" ".join(argv), argv))
    for n, a, start, coinstate, tmax in WRAP_STARTS:
        argv = ("simulate", "--grover", "P1", "--n", str(n), "--a", str(a), "--start", str(start),
                "--coinstate", str(coinstate), "--tmax", str(tmax))
        out.append((" ".join(argv), argv))
    for argv in (
        ("simulate", "--family", "Z", "--theta-frac", "1/5", "--n", "2", "--a", "1", "--start", "1",
         "--coinstate", "2", "--tmax", "10"),
        ("simulate", "--grover", "P3", "--n", "5", "--a", "2", "--start", "0", "--coinstate", "1",
         "--tmax", "0"),
    ):
        out.append((" ".join(argv), argv))
    for coin, n, a, seed, tmax in DENSE_STARTS:
        path = workdir / f"state-n{n}-seed{seed}.json"
        path.write_text(json.dumps({"amplitudes": dense_state(n, seed)}))
        tail = ("--n", str(n), "--a", str(a), "--tmax", str(tmax))
        out.append((" ".join(("simulate", *coin, "--state-file", path.name, *tail)),
                    ("simulate", *coin, "--state-file", str(path), *tail)))
    return out


def compute() -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        return [digest_line(label, argv) for label, argv in calls(Path(tmp))]


def test_golden_simulate_bytes():
    actual = compute()
    assert len(actual) == 11
    corpora.assert_golden(GOLDEN, actual)


def test_golden_calls_all_succeed():
    assert {line.split("\t")[2] for line in corpora.golden(GOLDEN)} == {"0"}


def test_dense_starts_write_exponent_form(tmp_path):
    """Each dense start writes some probabilities in exponent form."""
    for label, argv in calls(tmp_path)[-len(DENSE_STARTS):]:
        code, out, _ = run_cli(argv)
        assert code == 0
        assert any("e-" in row.rsplit(",", 1)[1] for row in out.splitlines()[1:]), label
