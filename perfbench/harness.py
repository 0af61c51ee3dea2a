"""Measurement loop, metrics and the environment record.

The loop calls ``livelywalk.cli.main`` in-process with each operation's
argv, capturing stdout and stderr, and runs whole passes over the
workload's operations until the next pass would overrun ``--seconds``
(always at least ``MIN_PASSES``).  Outputs of the first pass go through the oracles;
later passes must print the same bytes.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
import reference
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
#: fresh processes timed for setup_s; the median is reported
SETUP_PROBES = 7
#: passes per run at least, so that each operation's time is a median over passes
MIN_PASSES = 2
#: seconds between samples of the reference kernel during a pass
REF_EVERY = 0.2
#: an operation is scaled by the reference samples within this many seconds of it
REF_WINDOW = 1.0

#: (name, unit) of each end-to-end metric, reported with --trace 0
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("specs_per_s", "specs/s"),
    ("spec_p50_ms", "ms"),
    ("spec_p90_ms", "ms"),
    ("site_steps_per_s", "steps/s"),
    ("peak_rss_mb", "MB"),
)
#: span names whose calls and self time are reported with --trace 1
_TIMED_SPANS = (
    "period.bruteforce", "period.analytic", "period.spectral", "exactnum.eig3_unitary",
    "walk.reduced_block", "walk.spectrum", "coins.classify", "coins.construct", "walk.WalkSpec",
    "walk.evolution_operator", "cli.main",
)
#: (name, unit) of each per-layer metric, per pass, reported with --trace 1
PER_LAYER = (
    *((f"{span}.{what}", unit) for span in _TIMED_SPANS for what, unit in (("calls", "count"), ("self_s", "s"))),
    ("period.bruteforce.steps", "count"),
    ("period.bruteforce.ran_to_tmax_share", "share"),
    ("period.bruteforce.flops_computed", "flop"),
    ("period.disagreements", "count"),
    ("exactnum.eig3_unitary.failures", "count"),
    ("exactnum.eig3_unitary.cluster_share", "share"),
    ("walk.evolution_operator.bytes_computed", "B"),
    ("walk.write_distribution_csv.self_s", "s"),
    ("walk.write_distribution_csv.rows", "count"),
    ("cli.output_bytes", "B"),
    ("harness.self_s", "s"),
    ("trace.wall_s", "s"),
)


def import_cli():
    """Import the CLI from this checkout's src/, refusing any other copy."""
    if not (SRC / "livelywalk" / "cli.py").is_file():
        raise FileNotFoundError(f"no livelywalk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from livelywalk import cli

    if Path(cli.__file__).resolve().parent != SRC / "livelywalk":
        raise ImportError(f"livelywalk was imported from {cli.__file__}, not {SRC}")
    return cli


@dataclass
class Measurement:
    op_spans: list = field(default_factory=list)  # per pass, (start, end) per operation
    refs: list = field(default_factory=list)  # (time, seconds) of reference kernel samples
    pass_walls: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    output_bytes: int = 0
    failures: Counter = field(default_factory=Counter)
    failed_ops: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    peak_rss_mb: float = 0.0


def _call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _failure_key(code, err: str) -> str:
    first = err.strip().splitlines()[0] if err.strip() else ""
    return f"exit {code}: " + re.sub(r"[-+]?\d[\d.e+-]*", "<num>", first)


def measure(cli, ops, seconds: float) -> Measurement:
    """Run whole passes over ops; check first-pass outputs, compare later ones.

    The reference kernel runs before and after each pass and between
    operations every ``REF_EVERY`` seconds.  Successive passes run on
    successive CPUs of the affinity set, so each operation is timed on each.
    """
    m = Measurement()
    first = {}
    mismatched = set()
    cpus = sorted(os.sched_getaffinity(0))

    def sample():
        t = time.perf_counter()
        took = reference.kernel_seconds()
        m.refs.append((t + took / 2, took))

    start = time.perf_counter()
    try:
        while True:
            os.sched_setaffinity(0, {cpus[len(m.pass_walls) % len(cpus)]})
            sample()
            pass_start = time.perf_counter()
            spans = []
            for i, op in enumerate(ops):
                if time.perf_counter() - m.refs[-1][0] >= REF_EVERY:
                    sample()
                t0 = time.perf_counter()
                code, out, err = _call(cli.main, op.argv)
                spans.append((t0, time.perf_counter()))
                m.attempted += 1
                m.output_bytes += len(out)
                if code != 0:
                    m.failed += 1
                    m.failures[_failure_key(code, err)] += 1
                    m.failed_ops.add(i)
                elif i not in first:
                    first[i] = out
                elif out != first[i]:
                    mismatched.add(i)
            m.pass_walls.append(time.perf_counter() - pass_start)
            sample()
            m.op_spans.append(spans)
            elapsed = time.perf_counter() - start
            if len(m.pass_walls) >= MIN_PASSES and elapsed + statistics.fmean(m.pass_walls) > seconds:
                break
    finally:
        os.sched_setaffinity(0, cpus)
    m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = len(m.pass_walls)
    for i, text in first.items():
        found = oracles.check_output(ops[i], text)
        m.problems += found
        if found:
            m.failed += passes
    for i in sorted(mismatched):
        m.problems.append(f"{' '.join(ops[i].argv)}: output changed between passes")
    return m


def error_classes(cli, ops, indices) -> Counter:
    """Replay failed operations under the tracer; count where each error arose.

    The CLI reports a domain error by message only, so the class and the span
    that raised it come from the replay.
    """
    tracer = Tracer()
    tracer.install()
    origins = Counter()
    try:
        for i in sorted(indices):
            seen = len(tracer.errors)
            _call(cli.main, ops[i].argv)
            span, cls = tracer.errors[seen] if len(tracer.errors) > seen else ("cli.main", "exit code")
            origins[f"{cls} in {span}"] += 1
    finally:
        tracer.uninstall()
    return origins


def _quantile(values, q: int) -> float:
    """The q-th percentile (inclusive method) of at least one value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def normalised_seconds(m: Measurement) -> list:
    """Each operation's median over passes of its time scaled to reference speed.

    An operation's scale is REF_SECONDS over the median of the reference
    samples within ``REF_WINDOW`` seconds of it.
    """
    at = [t for t, _ in m.refs]
    per_pass = []
    for spans in m.op_spans:
        row = []
        for t0, t1 in spans:
            lo = bisect.bisect_left(at, t0 - REF_WINDOW)
            hi = bisect.bisect_right(at, t1 + REF_WINDOW)
            row.append((t1 - t0) * reference.host_factor([took for _, took in m.refs[lo:hi]]))
        per_pass.append(row)
    return [statistics.median(col) for col in zip(*per_pass)]


def end_to_end_metrics(m: Measurement, ops, setup_s: float) -> dict:
    """Times at reference speed; see reference.py."""
    op_seconds = normalised_seconds(m)
    wall = sum(op_seconds)
    spec_seconds = [t / len(op.rows) for t, op in zip(op_seconds, ops)]
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "specs_per_s": sum(len(op.rows) for op in ops) / wall,
        "spec_p50_ms": 1e3 * _quantile(spec_seconds, 50),
        "spec_p90_ms": 1e3 * _quantile(spec_seconds, 90),
        "site_steps_per_s": sum(op.site_steps for op in ops) / wall,
        "peak_rss_mb": m.peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(m: Measurement, tracer: Tracer) -> dict:
    passes = len(m.pass_walls)
    self_s = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts
    values = {}
    for span in _TIMED_SPANS:
        values[f"{span}.calls"] = calls[span] / passes
        values[f"{span}.self_s"] = self_s.get(span, 0.0) / passes
    brute = calls["period.bruteforce"]
    eig = calls["exactnum.eig3_unitary"]
    wall = sum(m.pass_walls)
    values.update({
        "period.bruteforce.steps": counts["period.bruteforce.steps"] / passes,
        "period.bruteforce.ran_to_tmax_share": counts["period.bruteforce.ran_to_tmax"] / brute if brute else 0.0,
        "period.bruteforce.flops_computed": counts["period.bruteforce.flops_computed"] / passes,
        "period.disagreements": counts["period.disagreements"] / passes,
        "exactnum.eig3_unitary.failures": tracer.errors.count(("exactnum.eig3_unitary", "NumericalFailure")) / passes,
        "exactnum.eig3_unitary.cluster_share": counts["exactnum.eig3_unitary.cluster_calls"] / eig if eig else 0.0,
        "walk.evolution_operator.bytes_computed": counts["walk.evolution_operator.bytes_computed"] / passes,
        "walk.write_distribution_csv.self_s": self_s.get("walk.write_distribution_csv", 0.0) / passes,
        "walk.write_distribution_csv.rows": counts["walk.write_distribution_csv.rows"] / passes,
        "cli.output_bytes": m.output_bytes / passes,
        "harness.self_s": (wall - sum(self_s.values())) / passes,
        "trace.wall_s": wall / passes,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def setup_seconds(workload: str, seed: int, workdir: str) -> float:
    """Median over fresh processes of importing the CLI and building the inputs.

    Each probe scales its time to reference speed itself.
    """
    probe = str(HERE / "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, probe, workload, str(seed), workdir],
                             check=True, capture_output=True, text=True, timeout=60).stdout
        times.append(float(out.strip().splitlines()[-1]))
    return statistics.median(times)


def environment() -> dict:
    """What the figures depend on besides the code: versions, threads, CPU."""
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "livelywalk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Measure one workload; returns (result document, info lines)."""
    cli = import_cli()
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    try:
        ops = workloads.build(workload, seed, workdir, smoke=smoke)
        setup_s = None if trace else setup_seconds(workload, seed, workdir)
        tracer = Tracer() if trace else None
        if tracer:
            tracer.install()
        try:
            m = measure(cli, ops, seconds)
        finally:
            if tracer:
                tracer.uninstall()
        origins = error_classes(cli, ops, m.failed_ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        metrics = per_layer_metrics(m, tracer)
    else:
        metrics = end_to_end_metrics(m, ops, setup_s)
    info = [
        f"workload {workload} seed {seed} passes {len(m.pass_walls)} ops/pass {len(ops)} "
        f"specs/pass {sum(len(op.rows) for op in ops)}",
        *(f"failures {count} x {key}" for key, count in sorted(m.failures.items())),
        *(f"failed ops/pass {count} x {key}" for key, count in sorted(origins.items())),
        *(f"ORACLE {p}" for p in m.problems[:50]),
        *(f"metric {name} {v['value']:.6g} {v['unit']}" for name, v in metrics.items()),
    ]
    doc = {
        "correct": not m.problems,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }
    return doc, info
