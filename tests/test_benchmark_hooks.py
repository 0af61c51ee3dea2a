"""The benchmark's tracing hooks still attach to the library.

`perfbench/tracer.py` wraps library functions by module and attribute name
(`walk.reduced_block`, `walk.spectrum`, `exactnum._solve_cluster`, ...).
Installing it around three CLI calls here makes a rename or deletion of a
traced name fail the main test suite, not only `pytest perfbench`.  The
`simulate` and `verify` calls reach `walk.write_distribution_csv` and
`walk.evolution_operator`, whose after-hooks read the ``spec`` argument, so
a changed signature fails here too.
"""

import importlib.util
from pathlib import Path

from conftest import run_cli

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
PERIOD = ("period", "--grover", "P1", "--n", "3")
SIMULATE_N, SIMULATE_TMAX = 5, 7
SIMULATE = ("simulate", "--grover", "P1", "--n", str(SIMULATE_N), "--a", "2", "--start", "0",
            "--coinstate", "1", "--tmax", str(SIMULATE_TMAX))
#: builds the dense operator at every n = 2..12, a = 0..n//2, once per family
BLOCKDIAG = ("verify", "--suite", "blockdiag-equivalence")
BLOCKDIAG_SPECS = [(n, a) for n in range(2, 13) for a in range(n // 2 + 1) for _family in range(4)]
ARGVS = (PERIOD, SIMULATE, BLOCKDIAG)


def _load_tracer():
    """perfbench/tracer.py as a module; it needs only the standard library."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_call_prints_the_untraced_bytes():
    plain = [run_cli(argv) for argv in ARGVS]
    assert [code for code, _, _ in plain] == [0, 0, 0]
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        traced = [run_cli(argv) for argv in ARGVS]
    finally:
        tracer.uninstall()
    assert traced == plain
    calls = tracer.calls()
    for name in ("cli.main", "walk.WalkSpec", "walk.spectrum", "exactnum.eig3_unitary",
                 "period.analytic", "period.spectral", "period.bruteforce",
                 "walk.evolution_operator", "walk.write_distribution_csv"):
        assert calls[name] >= 1, name
    assert tracer.counts["exactnum.eig3_unitary.cluster_calls"] >= 1
    assert calls["walk.evolution_operator"] == len(BLOCKDIAG_SPECS)
    assert tracer.counts["walk.evolution_operator.bytes_computed"] == sum(
        16 * (3 * n) ** 2 for n, _ in BLOCKDIAG_SPECS)
    assert tracer.counts["walk.write_distribution_csv.rows"] == (SIMULATE_TMAX + 1) * SIMULATE_N
    assert [run_cli(argv) for argv in ARGVS] == plain  # uninstall put the untraced functions back
