"""Golden corpus: the CLI's error paths, pinned by exit code and stdout.

Each call breaks one rule of the command line, so it must exit 1 (domain
error) or 2 (usage error) and print nothing on stdout.  The calls cover:

* no coin source, and each pair of the four coin sources;
* each pair of angle flags, all three, and --family with no angle flag;
* each coin modifier without the source that reads it;
* a malformed --theta-frac or --rational, and --theta nan;
* simulate given both a start and a state file, or a start without a
  coin state, and --tmax -1 on simulate and on period;
* table with no angle source, a grid COUNT of 0, an inf grid endpoint, a
  malformed n or a list, and a NaN angle ahead of a malformed n list;
* an empty, repeated or unknown --methods list;
* verify --samples on the exhaustive period-consistency suite.

Only the exit code and the empty stdout are pinned, not the stderr text.

The expected lines live in golden_cli_errors.txt, one call per line: its
argv, the sha256 of its stdout and its exit code, tab-separated.  The lines
were generated before the either-or flags became argparse groups.
Regenerate the file only when a change of behaviour is intended:

    PYTHONPATH=src python tests/corpora.py golden_cli_errors
"""

import hashlib
import itertools

import corpora
from conftest import digest_line

GOLDEN = "golden_cli_errors"
EMPTY = hashlib.sha256(b"").hexdigest()
#: each coin source with a value that is complete on its own; the coin file
#: does not exist, so a call that reads it would exit 1
SOURCES = (("--perm", "P2"), ("--grover", "P1"), ("--family", "X", "--theta", "1.0"),
           ("--matrix-file", "missing-coin.json"))
ANGLES = (("--theta", "1.0"), ("--theta-frac", "1/5"), ("--rational", "3"))
SIM = ("--n", "3", "--tmax", "2")
TABLE = ("table", "--family", "X")


def calls() -> list[tuple]:
    """The argv of every call, in a fixed order."""
    out = [("coin",), ("period", "--n", "3"), ("simulate", *SIM, "--start", "0", "--coinstate", "0")]
    out += [("coin", *a, *b) for a, b in itertools.combinations(SOURCES, 2)]
    out += [("coin", "--family", "Y", *a, *b) for a, b in itertools.combinations(ANGLES, 2)]
    out += [("coin", "--family", "Y", *itertools.chain(*ANGLES)), ("coin", "--family", "Z"),
            ("period", "--family", "W", "--n", "4")]
    out += [
        ("coin", "--negate"),
        ("coin", "--perm", "P1", "--negate"),
        ("coin", "--family", "X", "--theta", "1.0", "--negate"),
        ("coin", "--theta", "1.0"),
        ("coin", "--grover", "P3", "--theta", "1.0"),
        ("coin", "--perm", "P4", "--theta-frac", "1/3"),
        ("coin", "--matrix-file", "missing-coin.json", "--rational", "2"),
        ("coin", "--signs", "+-"),
        ("coin", "--family", "X", "--theta-frac", "1/5", "--signs", "+-"),
        ("coin", "--grover", "P1", "--signs=-+"),
    ]
    out += [
        ("coin", "--family", "X", "--theta-frac", "1/0"),
        ("coin", "--family", "X", "--theta-frac", "one/5"),
        ("coin", "--family", "Y", "--rational", "x"),
        ("coin", "--family", "Z", "--rational", "3/0"),
        ("coin", "--family", "X", "--theta", "nan"),
        ("period", "--family", "W", "--theta", "nan", "--n", "3"),
    ]
    out += [
        ("simulate", "--grover", "P1", *SIM, "--start", "0", "--state-file", "missing-state.json"),
        ("simulate", "--grover", "P1", *SIM, "--coinstate", "1", "--state-file", "missing-state.json"),
        ("simulate", "--grover", "P1", *SIM, "--start", "0"),
        ("simulate", "--grover", "P1", *SIM, "--coinstate", "0"),
        ("simulate", "--grover", "P1", *SIM),
        ("simulate", "--grover", "P1", "--n", "3", "--tmax", "-1", "--start", "0", "--coinstate", "0"),
        ("period", "--grover", "P1", "--n", "3", "--tmax", "-1"),
    ]
    out += [
        (*TABLE, "--n-list", "3"),
        (*TABLE, "--theta-grid", "0:1:0", "--n-list", "3"),
        (*TABLE, "--theta-grid", "0:inf:2", "--n-list", "3"),
        (*TABLE, "--theta-grid", "0:1", "--n-list", "3"),
        (*TABLE, "--theta-list", "1.0", "--n-list", "3,x"),
        (*TABLE, "--theta-list", "1.0", "--n-list", "3", "--a-list", "0;1"),
        (*TABLE, "--theta-list", "one", "--n-list", "3"),
        (*TABLE, "--theta-list", "nan", "--n-list", "q"),
        (*TABLE, "--rational-grid", "2", "--n-list", "q"),
    ]
    for head in (("period", "--grover", "P1", "--n", "3"), (*TABLE, "--theta-list", "1.0", "--n-list", "3")):
        out += [(*head, "--methods", m) for m in (",", "spectral,spectral", "magic")]
    out += [("verify", "--suite", "period-consistency", "--samples", "1")]
    return out


def compute() -> list[str]:
    return [digest_line(" ".join(argv), argv) for argv in calls()]


def test_corpus_size():
    assert len(calls()) == len(corpora.golden(GOLDEN)) == 54


def test_golden_cli_errors():
    corpora.assert_golden(GOLDEN, compute())


def test_every_call_fails_silently():
    lines = [line.split("\t") for line in corpora.golden(GOLDEN)]
    assert {digest for _, digest, _ in lines} == {EMPTY}
    assert {code for _, _, code in lines} == {"1", "2"}
