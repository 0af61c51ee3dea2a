"""Golden corpus: brute-force period rows, pinned byte for byte.

The corpus is 72 coins: the 24 special coins (+-P, +-Grover-type) and every
family X/Y/Z/W at each exact theta/2pi = m/q with q <= 6.  Each coin is run
through `period_bruteforce` with tmax = 2000 at n = 2..8 and every valid
liveliness a = 0..n//2, 1656 specs in all, under each schedule an expected
period sets: 1 (nothing expected), a period past tmax, and the row's own
period, which must not change a row.

The expected rows live in golden_bruteforce.txt, one coin per line: its id
and its rows "n a status period bound", tab-separated, the rows joined by
";".  The rows were generated by the dense 3n x 3n powering that brute
force used before it moved to the momentum blocks.  Regenerate the file
only when a change of behaviour is intended:

    PYTHONPATH=src python tests/corpora.py golden_bruteforce

The same corpus pins how far IDENTITY_TOL sits from the distances
||U^t - I||_F that brute force decides on.
"""

import math

import numpy as np

import corpora
from livelywalk.period import IDENTITY_TOL, period_bruteforce
from livelywalk.walk import WalkSpec, block_stack

GOLDEN = "golden_bruteforce"
N_RANGE = range(2, 9)
TMAX = 2000


def corpus() -> dict:
    """Coin id -> coin, in a fixed order."""
    return corpora.special_coins() | corpora.theta_frac_coins(corpora.rational_grid(6))


def _row(coin, n: int, a: int, expected) -> str:
    r = period_bruteforce(WalkSpec(n=n, a=a, coin=coin), TMAX, expected)
    cells = (n, a, r.status, r.period, r.bound)
    return " ".join("-" if v is None else str(v) for v in cells)


def compute(expected=lambda cid, n, a: 1) -> list[str]:
    """One tab-separated line per coin: id, rows, each row's brute force
    run with the period expected(cid, n, a)."""
    return [
        f"{cid}\t{';'.join(_row(coin, n, a, expected(cid, n, a)) for n in N_RANGE for a in range(n // 2 + 1))}"
        for cid, coin in corpus().items()
    ]


def test_corpus_size():
    assert len(corpus()) == 72
    assert sum(len(line.split("\t")[1].split(";")) for line in corpora.golden(GOLDEN)) == 1656


def test_golden_bruteforce_rows():
    corpora.assert_golden(GOLDEN, compute())


def test_golden_bruteforce_rows_expecting_no_period():
    # one first group of every giant step moves only the group edges: no
    # row changes, the periodic walks' included
    corpora.assert_golden(GOLDEN, compute(lambda cid, n, a: TMAX + 1))


def test_golden_bruteforce_rows_expecting_their_own_period():
    # the powers up to the row's period, tested first, find the same period
    periods = {}
    for line in corpora.golden(GOLDEN):
        cid, rows = line.split("\t")
        for row in rows.split(";"):
            n, a, status, period, _ = row.split(" ")
            if status == "finite":
                periods[cid, int(n), int(a)] = int(period)
    assert len(periods) == 696  # the periodic rows; the others expect none
    corpora.assert_golden(GOLDEN, compute(lambda cid, n, a: periods.get((cid, n, a), 1)))


def test_golden_reaches_both_outcomes_and_the_bound():
    rows = [row.split(" ") for line in corpora.golden(GOLDEN) for row in line.split("\t")[1].split(";")]
    assert {r[2] for r in rows} == {"finite", "no_period_up_to"}
    assert max(int(r[3]) for r in rows if r[2] == "finite") == 60
    assert all(r[4] == str(TMAX) for r in rows if r[2] == "no_period_up_to")


def _distances(spec, tmax: int) -> np.ndarray:
    """||U^t - I||_F for t = 1..tmax: the momentum blocks' powers, built by
    doubling with broadcast products rather than `period`'s helpers."""
    powers = np.empty((tmax, spec.n, 3, 3), dtype=complex)
    powers[0] = block_stack(spec)
    done = 1
    while done < tmax:  # U^(done+1..done+m) = U^done @ U^(1..m)
        m = min(done, tmax - done)
        last, first, out = powers[done - 1], powers[:m], powers[done:done + m]
        np.multiply(last[:, :, 0, None], first[:, :, 0, None, :], out=out)
        for k in (1, 2):
            out += last[:, :, k, None] * first[:, :, k, None, :]
        done += m
    powers -= np.eye(3)
    re_im = powers.reshape(tmax, -1).view(np.float64)
    return np.sqrt(np.einsum("ti,ti->t", re_im, re_im))


def test_identity_tol_margins():
    """IDENTITY_TOL (1e-8) is far from every distance brute force decides on
    here.  Measured: ||U^T - I||_F is at most 6.4e-14 at each period T, at
    least 0.72 at every t before it, and at least 1.8e-4 at every t <= TMAX
    for the walks with no period up to TMAX."""
    hit, before, never = 0.0, math.inf, math.inf
    for line, coin in zip(corpora.golden(GOLDEN), corpus().values()):
        for row in line.split("\t")[1].split(";"):
            n, a, status, period, _ = row.split(" ")
            spec = WalkSpec(n=int(n), a=int(a), coin=coin)
            if status == "finite":
                d = _distances(spec, int(period))
                hit, before = max(hit, d[-1]), min(before, d[:-1].min(initial=math.inf))
            else:
                never = min(never, _distances(spec, TMAX).min())
    assert hit <= 1e-12 < IDENTITY_TOL
    assert IDENTITY_TOL < 1e-5 <= never
    assert before >= 0.1
