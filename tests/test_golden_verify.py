"""Golden corpus: `verify` output, pinned by hash.

`verify --suite all` runs every invariant suite, and its blockdiag-equivalence
suite is the one CLI path that builds the dense walk operator.  The expected
lines live in golden_verify.txt, one call per line: the argv, the sha256 of
its stdout and its exit code, tab-separated.  The worst-defect values are
printed to four digits, so the hashes also pin those figures.  The second
call draws 5 samples per suite: each blockdiag-equivalence sample builds 188
dense spectra, so 50 samples would cost about 10 s.  The lines were
generated before `walk.evolution_operator` was built from the matrix-free step.
Regenerate the file only when a change of behaviour is intended:

    PYTHONPATH=src python tests/corpora.py golden_verify
"""

import corpora
from conftest import digest_line

GOLDEN = "golden_verify"
CALLS = (
    ("verify", "--suite", "all", "--seed", "0"),
    ("verify", "--suite", "all", "--seed", "3", "--samples", "5"),
)


def compute() -> list[str]:
    return [digest_line(" ".join(argv), argv) for argv in CALLS]


def test_golden_verify_output():
    corpora.assert_golden(GOLDEN, compute())


def test_golden_calls_all_pass():
    assert {line.split("\t")[2] for line in corpora.golden(GOLDEN)} == {"0"}
