"""Golden corpus: `period --matrix-file` output, pinned by hash.

The corpus covers 28 coins: the 24 special coins (+-P1..P6 and the
+-Grover-type (2/3)J - P1..P6) and the four Pell coins at r = 2 with signs
++.  Each coin is written two ways:

* ``bare``: a family-less exact document, ``{"repr": "exact", "entries":
  ...}``, the way the benchmark writes its coin files;
* ``output``: the ``coin`` document that ``coin --output`` writes for the
  coin's CLI source (a coin that no flag builds, -P, is read from its bare
  document first).

Every document is read by ``period --matrix-file ... --methods
analytic,spectral`` at n = 2..6 and every a = 0..n//2: 784 calls.  The
expected lines live in golden_coinfile.txt, one call per line: a label for
the argv (the file path replaced by the coin and the way it was written),
the sha256 of its stdout and its exit code, tab-separated.  The lines were
generated before the coin coefficients were read off the matrix alone.
Regenerate the file only when a change of behaviour is intended:

    PYTHONPATH=src python tests/test_golden_coinfile.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

from livelywalk import cli, coins

GOLDEN = Path(__file__).with_name("golden_coinfile.txt")
N_RANGE = range(2, 7)
PELL_R = "2"


def sources() -> list[tuple]:
    """(label, exact coin, CLI source argv or None) for each coin, in order."""
    out = []
    for p in range(1, 7):
        perm = coins.perm_matrix(p)
        grover = coins.grover_type(p)
        out.append((f"P{p}", perm, ("--perm", f"P{p}")))
        out.append((f"-P{p}", coins.Coin3(matrix=-perm.matrix), None))
        out.append((f"G{p}", grover, ("--grover", f"P{p}")))
        out.append((f"-G{p}", coins.Coin3(matrix=-grover.matrix), ("--grover", f"P{p}", "--negate")))
    for fam in coins.FAMILIES:
        out.append((f"{fam}-pell-r{PELL_R}", coins.coin_from_rational(fam, Fraction(PELL_R)),
                    ("--family", fam, "--rational", PELL_R)))
    return out


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _bare_document(coin: coins.Coin3) -> dict:
    entries = [[f"{Fraction(e).numerator}/{Fraction(e).denominator}" for e in row] for row in coin.matrix]
    return {"repr": "exact", "entries": entries}


def write_documents(workdir: Path) -> list[tuple[str, Path]]:
    """Write every coin's two documents; (label, path) in corpus order."""
    docs = []
    for label, coin, source in sources():
        bare = workdir / f"{label}.bare.json"
        bare.write_text(json.dumps(_bare_document(coin)))
        written = workdir / f"{label}.written.json"
        code, _ = _run(("coin", *(source or ("--matrix-file", str(bare))), "--output", str(written)))
        assert code == 0, label
        output = workdir / f"{label}.output.json"
        output.write_text(json.dumps(json.loads(written.read_text())["coin"]))
        docs += [(f"{label}.bare", bare), (f"{label}.output", output)]
    return docs


def calls(docs) -> list[tuple[str, tuple]]:
    """(label, argv) of every call, in a fixed order."""
    return [
        (f"period {label} --n {n} --a {a}",
         ("period", "--matrix-file", str(path), "--methods", "analytic,spectral", "--n", str(n), "--a", str(a)))
        for label, path in docs
        for n in N_RANGE
        for a in range(n // 2 + 1)
    ]


def compute() -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        lines = []
        for label, argv in calls(write_documents(Path(tmp))):
            code, out = _run(argv)
            lines.append(f"{label}\t{hashlib.sha256(out.encode()).hexdigest()}\t{code}")
        return lines


def _expected() -> list[str]:
    return GOLDEN.read_text().splitlines()


def test_corpus_size():
    assert len(sources()) == 28
    assert len(_expected()) == 28 * 2 * 14


def test_golden_coinfile_output():
    expected, actual = _expected(), compute()
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        assert got == want


def test_golden_calls_all_agree():
    assert {line.split("\t")[2] for line in _expected()} == {"0"}


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(compute()) + "\n")
