"""Golden corpus: analytic period rows and coin documents, pinned byte for byte.

The corpus is 568 coins: the 24 special coins (+-P, +-Grover-type), every
family X/Y/Z/W at each theta/2pi = m/q with q <= 12 (once with the exact
fraction attached, once as a float angle in radians), the same two forms
at k/6 +- 1e-10 for every special angle k/6 (just outside the tolerance
that makes a coin +-P or +-Grover-type), 64 exact Pell coins and 16
generic float angles.  Each coin is run through `period_analytic` at
n = 2..9 with a = 0, and every n also gets one a != 0 row.

The expected rows live in golden_analytic.txt, one coin per line: its id,
a sha256 prefix of its `coin_to_json` document and its rows, tab-separated, the
rows joined by ";".  Regenerate the file only when a change of behaviour is
intended:

    PYTHONPATH=src python tests/corpora.py golden_analytic
"""

import hashlib
import json

import corpora
from livelywalk import coins
from livelywalk.period import period_analytic
from livelywalk.walk import WalkSpec

GOLDEN = "golden_analytic"
N_RANGE = range(2, 10)


def corpus() -> dict:
    """Coin id -> coin, in a fixed order."""
    return {cid: coin for cid, (coin, _) in corpora.analytic_corpus().items()}


def _row(coin, n: int, a: int) -> str:
    r = period_analytic(WalkSpec(n=n, a=a, coin=coin))
    cells = (n, a, r.status, r.period, r.bound, r.theorem)
    return " ".join("-" if v is None else str(v) for v in cells)


def compute() -> list[str]:
    """One tab-separated line per coin: id, document digest, rows."""
    lines = []
    for i, (cid, coin) in enumerate(corpus().items()):
        rows = [_row(coin, n, 0) for n in N_RANGE]
        if i < len(N_RANGE):  # one a != 0 row per n, spread over the first coins
            n = N_RANGE[i]
            rows.append(_row(coin, n, n // 2))
        doc = json.dumps(coins.coin_to_json(coin)).encode()
        lines.append(f"{cid}\t{hashlib.sha256(doc).hexdigest()[:16]}\t{';'.join(rows)}")
    return lines


def test_corpus_size():
    assert len(corpus()) == 568


def test_golden_rows_and_documents():
    corpora.assert_golden(GOLDEN, compute())


def test_golden_reaches_every_theorem():
    tags = {row.split(" ", 5)[5] for line in corpora.golden(GOLDEN)
            for row in line.split("\t")[2].split(";")}
    fams = {f"{fam}-family:{rule}" for fam, rules in {
        "x": ("identity-lcm", "cyclic-permutation"),
        "z": ("permutation-lcm", "swap-coin"),
        "y": ("negated-identity-lcm", "negated-cyclic"),
        "w": ("permutation-lcm", "negated-swap"),
    }.items() for rule in (*rules, "aperiodic-off-3cycle", "n3-rational-angle")}
    assert tags == fams | {"angle-unclassified", "rational-coin:aperiodic", "phase-condition-unmet"}
