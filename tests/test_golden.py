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

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

from livelywalk import coins
from livelywalk.period import period_analytic
from livelywalk.walk import WalkSpec

GOLDEN = Path(__file__).with_name("golden_analytic.txt")
N_RANGE = range(2, 10)
PELL_R = (Fraction(0), Fraction(1), Fraction(2), Fraction(5, 7))
SIGNS = {"++": (1, 1), "+-": (1, -1), "-+": (-1, 1), "--": (-1, -1)}
GENERIC_THETAS = (0.3, 1.0, 2.0, 4.5)
NEAR_SPECIAL = Fraction(1, 10**10)


def corpus() -> dict:
    """Coin id -> coin, in a fixed order."""
    out = {}
    for p in range(1, 7):
        out[f"P{p}"] = coins.perm_matrix(p)
        out[f"-P{p}"] = coins.Coin3(matrix=-coins.perm_matrix(p).matrix)
        out[f"G{p}"] = coins.grover_type(p)
        out[f"-G{p}"] = coins.grover_type(p, negate=True)
    for fam in coins.FAMILIES:
        for q in range(1, 13):
            for m in range(q):
                if math.gcd(m, q) == 1:
                    f = Fraction(m, q)
                    out[f"{fam} frac {f}"] = coins.coin_from_theta_frac(fam, f)
                    out[f"{fam} rad {f}"] = coins.coin_from_theta(fam, 2.0 * math.pi * m / q)
        for k in range(6):
            for f in (Fraction(k, 6) - NEAR_SPECIAL, Fraction(k, 6) + NEAR_SPECIAL):
                out[f"{fam} frac {f}"] = coins.coin_from_theta_frac(fam, f)
                out[f"{fam} rad {f}"] = coins.coin_from_theta(fam, 2.0 * math.pi * float(f))
        for r in PELL_R:
            for label, (s1, s2) in SIGNS.items():
                out[f"{fam} pell {r} {label}"] = coins.coin_from_rational(fam, r, s1, s2)
        for theta in GENERIC_THETAS:
            out[f"{fam} theta {theta}"] = coins.coin_from_theta(fam, theta)
    return out


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


def _expected() -> list[str]:
    return GOLDEN.read_text().splitlines()


def test_corpus_size():
    assert len(corpus()) == 568


def test_golden_rows_and_documents():
    expected, actual = _expected(), compute()
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        assert got == want


def test_golden_reaches_every_theorem():
    tags = {row.split(" ", 5)[5] for line in _expected()
            for row in line.split("\t")[2].split(";")}
    fams = {f"{fam}-family:{rule}" for fam, rules in {
        "x": ("identity-lcm", "cyclic-permutation"),
        "z": ("permutation-lcm", "swap-coin"),
        "y": ("negated-identity-lcm", "negated-cyclic"),
        "w": ("permutation-lcm", "negated-swap"),
    }.items() for rule in (*rules, "aperiodic-off-3cycle", "n3-rational-angle")}
    assert tags == fams | {"angle-unclassified", "rational-coin:aperiodic", "phase-condition-unmet"}


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(compute()) + "\n")
