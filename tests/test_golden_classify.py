"""Golden corpus: `classify` and `livelywalk coin` on the 568 analytic-corpus coins.

The coins are those of test_golden.py.  Each line of golden_classify.txt
holds, tab-separated: the coin id; the family, the basis, repr(x), repr(y)
and repr(z), the flags is_permutation, is_grover_type, is_rational and
is_special, and repr(theta) of ``classify(coin)``; then the sha256 of the
stdout of ``livelywalk coin`` for the coin's CLI source and its exit code.
A coin that no combination of coin flags builds has "-" in both CLI
columns: -P, which only a coin file expresses.  Regenerate the file only
when a change of behaviour is intended:

    PYTHONPATH=src python tests/test_golden_classify.py
"""

import json
import math
from fractions import Fraction
from pathlib import Path

from conftest import digest_line, run_cli
from livelywalk import coins
from test_golden import GENERIC_THETAS, NEAR_SPECIAL, PELL_R, corpus

GOLDEN = Path(__file__).with_name("golden_classify.txt")


def cli_sources() -> dict:
    """Coin id -> the `coin` argv that builds it, for every CLI-expressible corpus coin."""
    out = {}
    for p in range(1, 7):
        out[f"P{p}"] = ("--perm", f"P{p}")
        out[f"G{p}"] = ("--grover", f"P{p}")
        out[f"-G{p}"] = ("--grover", f"P{p}", "--negate")
    for fam in coins.FAMILIES:
        # the radian angles as test_golden.py computes them
        angles = [(Fraction(m, q), 2.0 * math.pi * m / q)
                  for q in range(1, 13) for m in range(q) if math.gcd(m, q) == 1]
        angles += [(f, 2.0 * math.pi * float(f)) for k in range(6)
                   for f in (Fraction(k, 6) - NEAR_SPECIAL, Fraction(k, 6) + NEAR_SPECIAL)]
        for f, theta in angles:
            out[f"{fam} frac {f}"] = ("--family", fam, f"--theta-frac={f}")
            out[f"{fam} rad {f}"] = ("--family", fam, f"--theta={theta!r}")
        for r in PELL_R:
            for label in ("++", "+-", "-+", "--"):
                out[f"{fam} pell {r} {label}"] = ("--family", fam, "--rational", str(r), f"--signs={label}")
        for theta in GENERIC_THETAS:
            out[f"{fam} theta {theta}"] = ("--family", fam, f"--theta={theta!r}")
    return out


def _classification(coin) -> str:
    c = coins.classify(coin)
    cells = (c.family, c.basis, repr(c.x), repr(c.y), repr(c.z), c.is_permutation,
             c.is_grover_type, coin.is_rational, c.is_special, repr(c.theta))
    return "\t".join(str(v) for v in cells)


def compute() -> list[str]:
    sources = cli_sources()
    lines = []
    for cid, coin in corpus().items():
        argv = sources.get(cid)
        cli = "-\t-" if argv is None else digest_line("", ("coin", *argv)).split("\t", 1)[1]
        lines.append(f"{cid}\t{_classification(coin)}\t{cli}")
    return lines


def test_cli_sources_build_the_corpus_coins():
    every = corpus()
    sources = cli_sources()
    unexpressed = {f"-P{p}" for p in range(1, 7)}
    assert set(sources) == set(every) - unexpressed
    for cid, argv in sources.items():
        code, out = run_cli(("coin", *argv))
        assert code == 0 and json.loads(out)["coin"] == coins.coin_to_json(every[cid]), cid


def test_classification_is_the_linear_sum_decomposition():
    for cid, coin in corpus().items():
        cls = coins.classify(coin)
        coeffs = coins.decompose_linear_sum(coin.matrix)
        assert (cls.basis, cls.x, cls.y, cls.z) == (coeffs.basis, coeffs.x, coeffs.y, coeffs.z), cid


def test_golden_classification_and_coin_output():
    expected = GOLDEN.read_text().splitlines()
    actual = compute()
    assert len(actual) == len(expected) == 568
    for want, got in zip(expected, actual):
        assert got == want


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(compute()) + "\n")
