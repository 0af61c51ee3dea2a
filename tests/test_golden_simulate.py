"""Golden corpus: `write_distribution_csv` rows, pinned to 1e-14.

The corpus is 32 coins: the 24 special coins (+-P, +-Grover-type) and every
family X/Y/Z/W at theta/2pi = 1/5 and 2/7.  Each coin is simulated at
n = 2..9 and every valid liveliness a = 0..n//2 (896 specs) from one
localized start, vertex n//2 in coin state (n + a) % 3, for t = 0..12.

The expected rows live in golden_simulate.txt, one spec per line: the coin
id, "n a start coinstate" and the probability column of the CSV, t-major
and position-minor, space-separated.  The rows were generated by powering
the dense 3n x 3n operator, before evolution became matrix-free.  The
header and the (t, position) columns must match exactly; the probabilities
only to 1e-14, because the dense matvec and the per-vertex coin mix add
the same three products in a different order.  Regenerate the file only
when a change of behaviour is intended:

    PYTHONPATH=src python tests/test_golden_simulate.py
"""

import io
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from livelywalk import coins
from livelywalk.walk import WalkSpec, basis_state, write_distribution_csv

GOLDEN = Path(__file__).with_name("golden_simulate.txt")
N_RANGE = range(2, 10)
THETA_FRACS = (Fraction(1, 5), Fraction(2, 7))
TMAX = 12
HEADER = "t,position,probability"
PROB_TOL = 1e-14


def corpus() -> dict:
    """Coin id -> coin, in a fixed order."""
    out = {}
    for p in range(1, 7):
        out[f"P{p}"] = coins.perm_matrix(p)
        out[f"-P{p}"] = coins.Coin3(matrix=-coins.perm_matrix(p).matrix)
        out[f"G{p}"] = coins.grover_type(p)
        out[f"-G{p}"] = coins.grover_type(p, negate=True)
    for fam in coins.FAMILIES:
        for frac in THETA_FRACS:
            out[f"{fam} {frac}"] = coins.coin_from_theta_frac(fam, frac)
    return out


def specs():
    """(coin id, n, a, start vertex, coin state) for every row of the corpus."""
    for cid in corpus():
        for n in N_RANGE:
            for a in range(n // 2 + 1):
                yield cid, n, a, n // 2, (n + a) % 3


def simulate(coin, n: int, a: int, start: int, coinstate: int) -> list[list[str]]:
    """The CSV as (t, position, probability) cells, after checking its header."""
    buf = io.StringIO()
    write_distribution_csv(WalkSpec(n=n, a=a, coin=coin), basis_state(n, start, coinstate), TMAX, buf)
    header, *rows = buf.getvalue().splitlines()
    assert header == HEADER
    return [row.split(",") for row in rows]


def compute() -> list[str]:
    """One tab-separated line per spec: coin id, spec, probabilities."""
    cs = corpus()
    return [
        f"{cid}\t{n} {a} {start} {coinstate}\t"
        + " ".join(p for _, _, p in simulate(cs[cid], n, a, start, coinstate))
        for cid, n, a, start, coinstate in specs()
    ]


def _expected() -> list[str]:
    return GOLDEN.read_text().splitlines()


def test_corpus_size():
    assert len(corpus()) == 32
    lines = _expected()
    assert len(lines) == 896
    assert [tuple(line.split("\t")[:2]) for line in lines] == [
        (cid, f"{n} {a} {start} {coinstate}") for cid, n, a, start, coinstate in specs()
    ]


def test_golden_simulate_rows():
    cs = corpus()
    worst = 0.0
    for line in _expected():
        cid, key, probs = line.split("\t")
        n, a, start, coinstate = map(int, key.split())
        cells = simulate(cs[cid], n, a, start, coinstate)
        assert [(t, v) for t, v, _ in cells] == [(str(t), str(v)) for t in range(TMAX + 1) for v in range(n)]
        got = np.array([float(p) for _, _, p in cells])
        want = np.array([float(p) for p in probs.split(" ")])
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= PROB_TOL


def test_golden_rows_are_distributions():
    for line in _expected():
        _, key, probs = line.split("\t")
        n = int(key.split()[0])
        p = np.array([float(v) for v in probs.split(" ")]).reshape(TMAX + 1, n)
        assert np.all(p >= 0.0)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12
        assert math.isclose(p[0, n // 2], 1.0)


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(compute()) + "\n")
