"""The benchmark's tracing hooks still attach to the library.

`perfbench/tracer.py` wraps library functions by module and attribute name
(`walk.reduced_block`, `walk.spectrum`, `exactnum._solve_cluster`, ...).
Installing it around one CLI call here makes a rename or deletion of a
traced name fail the main test suite, not only `pytest perfbench`.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

from livelywalk import cli

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
ARGV = ("period", "--grover", "P1", "--n", "3")


def _load_tracer():
    """perfbench/tracer.py as a module; it needs only the standard library."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _call():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(ARGV))
    return code, out.getvalue(), err.getvalue()


def test_traced_call_prints_the_untraced_bytes():
    plain = _call()
    assert plain[0] == 0
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        traced = _call()
    finally:
        tracer.uninstall()
    assert traced == plain
    calls = tracer.calls()
    for name in ("cli.main", "walk.WalkSpec", "walk.spectrum", "exactnum.eig3_unitary",
                 "period.analytic", "period.spectral", "period.bruteforce"):
        assert calls[name] >= 1, name
    assert tracer.counts["exactnum.eig3_unitary.cluster_calls"] >= 1
    assert _call() == plain  # uninstall put the untraced functions back
