"""Golden corpus: spectral period rows, pinned byte for byte.

The corpus is 116 coins: the 24 special coins (+-P, +-Grover-type), the
exact Pell coin at r = 2 of each family, and every family X/Y/Z/W at each
exact theta/2pi = m/q with q <= 8.  Each coin is run through
`period_spectral` (default qmax) at n = 2..12 and every valid liveliness
a = 0..n//2, 5452 specs in all.

The expected rows live in golden_spectral.txt, one coin per line: its id
and its rows "n a status period bound", tab-separated, the rows joined by
";".  The rows were generated by the per-block Cardano + Newton
eigensolver that the spectral route used before it moved to one batched
LAPACK call over the momentum-block stack.  Regenerate the file only when
a change of behaviour is intended:

    PYTHONPATH=src python tests/corpora.py golden_spectral
"""

from fractions import Fraction

import corpora
from livelywalk import coins
from livelywalk.period import GUARANTEED_ORDER_BOUND, period_spectral
from livelywalk.walk import WalkSpec

GOLDEN = "golden_spectral"
N_RANGE = range(2, 13)


def corpus() -> dict:
    """Coin id -> coin, in a fixed order."""
    pell = {f"{fam} r=2": coins.coin_from_rational(fam, Fraction(2)) for fam in coins.FAMILIES}
    return corpora.special_coins() | pell | corpora.theta_frac_coins(corpora.rational_grid(8))


def _row(coin, n: int, a: int) -> str:
    r = period_spectral(WalkSpec(n=n, a=a, coin=coin))
    cells = (n, a, r.status, r.period, r.bound)
    return " ".join("-" if v is None else str(v) for v in cells)


def compute() -> list[str]:
    """One tab-separated line per coin: id, rows."""
    return [
        f"{cid}\t{';'.join(_row(coin, n, a) for n in N_RANGE for a in range(n // 2 + 1))}"
        for cid, coin in corpus().items()
    ]


def test_corpus_size():
    assert len(corpus()) == 116
    assert sum(len(line.split("\t")[1].split(";")) for line in corpora.golden(GOLDEN)) == 5452


def test_golden_spectral_rows():
    corpora.assert_golden(GOLDEN, compute())


def test_golden_reaches_both_outcomes_and_the_bound():
    rows = [row.split(" ") for line in corpora.golden(GOLDEN) for row in line.split("\t")[1].split(";")]
    assert {r[2] for r in rows} == {"finite", "no_period_up_to"}
    assert all(r[4] == str(GUARANTEED_ORDER_BOUND) for r in rows if r[2] == "no_period_up_to")
