"""livelywalk benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: period-table, spectrum-scan, simulate-large, or ``all`` to run
each in turn.  Run from the root of a checkout; the library is imported
from its src/.  With --trace 0 the last stdout line carries the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced run.  The exit
code is 1 when an output fails its oracle and 2 when the benchmark cannot
run at all.
"""

import os

# pin BLAS and OpenMP to one thread before numpy loads, in this process and
# in the set-up probes it starts
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def _run_all(args) -> int:
    ok = True
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            doc = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return 2
        ok = ok and doc["correct"]
        summary["correct"] = ok
        summary["attempted"] += doc["attempted"]
        summary["failed"] += doc["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in doc["metrics"].items()})
    print(json.dumps(summary))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return _run_all(args)

    import harness

    try:
        harness.import_cli()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(harness.environment()))
    doc, info = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in info:
        print(line)
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
