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

    PYTHONPATH=src python tests/corpora.py golden_simulate

A computed line within 1e-14 of the file's keeps the file's text
(`same_row`), so the dense operator's digits stay until a row moves.
"""

import io
import math
from fractions import Fraction

import numpy as np

import corpora
from livelywalk.walk import WalkSpec, basis_state, write_distribution_csv

GOLDEN = "golden_simulate"
N_RANGE = range(2, 10)
THETA_FRACS = (Fraction(1, 5), Fraction(2, 7))
TMAX = 12
HEADER = "t,position,probability"
PROB_TOL = 1e-14


def corpus() -> dict:
    """Coin id -> coin, in a fixed order."""
    return corpora.special_coins() | corpora.theta_frac_coins(THETA_FRACS)


def specs():
    """(coin id, n, a, start vertex, coin state) for every row of the corpus."""
    for cid in corpus():
        for n in N_RANGE:
            for a in range(n // 2 + 1):
                yield cid, n, a, n // 2, (n + a) % 3


def simulate(coin, n: int, a: int, start: int, coinstate: int) -> list[str]:
    """The CSV's probability column, after checking its header and its
    (t, position) columns."""
    buf = io.StringIO()
    write_distribution_csv(WalkSpec(n=n, a=a, coin=coin), basis_state(n, start, coinstate), TMAX, buf)
    header, *rows = buf.getvalue().splitlines()
    assert header == HEADER
    cells = [row.split(",") for row in rows]
    assert [(t, v) for t, v, _ in cells] == [(str(t), str(v)) for t in range(TMAX + 1) for v in range(n)]
    return [p for _, _, p in cells]


def compute() -> list[str]:
    """One tab-separated line per spec: coin id, spec, probabilities."""
    cs = corpus()
    return [
        f"{cid}\t{n} {a} {start} {coinstate}\t"
        + " ".join(simulate(cs[cid], n, a, start, coinstate))
        for cid, n, a, start, coinstate in specs()
    ]


def same_row(want: str, got: str) -> bool:
    """Whether the computed line got holds the golden line want: the same
    coin and spec, and each probability within PROB_TOL."""
    (want_key, want_p), (got_key, got_p) = (line.rsplit("\t", 1) for line in (want, got))
    want_p, got_p = (np.array(probs.split(" "), dtype=float) for probs in (want_p, got_p))
    return want_key == got_key and want_p.shape == got_p.shape and np.max(np.abs(got_p - want_p)) <= PROB_TOL


def test_corpus_size():
    assert len(corpus()) == 32
    lines = corpora.golden(GOLDEN)
    assert len(lines) == 896
    assert [tuple(line.split("\t")[:2]) for line in lines] == [
        (cid, f"{n} {a} {start} {coinstate}") for cid, n, a, start, coinstate in specs()
    ]


def test_golden_simulate_rows():
    corpora.assert_golden(GOLDEN, compute(), same_row)


def test_golden_rows_are_distributions():
    for line in corpora.golden(GOLDEN):
        _, key, probs = line.split("\t")
        n = int(key.split()[0])
        p = np.array([float(v) for v in probs.split(" ")]).reshape(TMAX + 1, n)
        assert np.all(p >= 0.0)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12
        assert math.isclose(p[0, n // 2], 1.0)
