"""Golden corpus: `table` sweep output, pinned by hash.

The corpus is 56 `table` calls: each family X/Y/Z/W over the rational grid
theta/2pi = m/q with q <= 6 (12 angles), at one n = 2..8 and one a in
{0, 1}, with tmax 2000 and all three methods.  That is 672 period reports.

The expected lines live in golden_table.txt, one call per line: its argv,
the sha256 of its stdout and its exit code, tab-separated.  The lines were
generated before the coin families became one (basis, x+y+z) record.
Regenerate the file only when a change of behaviour is intended:

    PYTHONPATH=src python tests/corpora.py golden_table
"""

import json

import corpora
from conftest import digest_line, run_cli

GOLDEN = "golden_table"
N_RANGE = range(2, 9)
A_LIST = (0, 1)
GRID = 6
TMAX = 2000


def calls() -> list[tuple]:
    """The argv of every call, in a fixed order."""
    return [
        ("table", "--family", fam, "--rational-grid", str(GRID), "--n-list", str(n),
         "--a-list", str(a), "--tmax", str(TMAX))
        for fam in ("X", "Y", "Z", "W")
        for n in N_RANGE
        for a in A_LIST
    ]


def compute() -> list[str]:
    return [digest_line(" ".join(argv), argv) for argv in calls()]


def test_corpus_size():
    assert len(calls()) == 56
    assert len(corpora.golden(GOLDEN)) == 56
    code, out, _ = run_cli(calls()[0])
    assert code == 0
    assert len(json.loads(out)) == 12


def test_golden_table_output():
    corpora.assert_golden(GOLDEN, compute())


def test_golden_calls_all_agree():
    assert {line.split("\t")[2] for line in corpora.golden(GOLDEN)} == {"0"}
