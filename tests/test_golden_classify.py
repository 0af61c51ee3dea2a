"""Golden corpus: `classify` and `livelywalk coin` on the 568 analytic-corpus coins.

The coins are `corpora.analytic_corpus`, those of test_golden.py.  Each
line of golden_classify.txt holds, tab-separated: the coin id; the family,
the basis, repr(x), repr(y) and repr(z), the flags is_permutation,
is_grover_type, is_rational and is_special, and repr(theta) of
``classify(coin)``; then the sha256 of the stdout of ``livelywalk coin``
for the coin's CLI source and its exit code.  A coin that no combination
of coin flags builds has "-" in both CLI columns: -P, which only a coin
file expresses.  Regenerate the file only when a change of behaviour is
intended:

    PYTHONPATH=src python tests/corpora.py golden_classify
"""

import json

import corpora
from conftest import digest_line, run_cli
from livelywalk import coins

GOLDEN = "golden_classify"


def _classification(coin) -> str:
    c = coins.classify(coin)
    cells = (c.family, c.basis, repr(c.x), repr(c.y), repr(c.z), c.is_permutation,
             c.is_grover_type, coin.is_rational, c.is_special, repr(c.theta))
    return "\t".join(str(v) for v in cells)


def compute() -> list[str]:
    lines = []
    for cid, (coin, argv) in corpora.analytic_corpus().items():
        cli = "-\t-" if argv is None else digest_line("", ("coin", *argv)).split("\t", 1)[1]
        lines.append(f"{cid}\t{_classification(coin)}\t{cli}")
    return lines


def test_cli_sources_build_the_corpus_coins():
    corpus = corpora.analytic_corpus()
    assert {cid for cid, (_, argv) in corpus.items() if argv is None} == {f"-P{p}" for p in range(1, 7)}
    for cid, (coin, argv) in corpus.items():
        if argv is not None:
            code, out, _ = run_cli(("coin", *argv))
            assert code == 0 and json.loads(out)["coin"] == coins.coin_to_json(coin), cid


def test_classification_is_the_linear_sum_decomposition():
    for cid, (coin, _) in corpora.analytic_corpus().items():
        cls = coins.classify(coin)
        coeffs = coins.decompose_linear_sum(coin.matrix)
        assert (cls.basis, cls.x, cls.y, cls.z) == (coeffs.basis, coeffs.x, coeffs.y, coeffs.z), cid


def test_golden_classification_and_coin_output():
    actual = compute()
    assert len(actual) == 568
    corpora.assert_golden(GOLDEN, actual)
