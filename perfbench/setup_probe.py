"""Time one benchmark set-up in a fresh process: import the CLI, build the inputs.

Usage: python3 setup_probe.py WORKLOAD SEED WORKDIR; prints the seconds,
scaled to reference speed by kernel samples taken right after.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main(workload: str, seed: int, workdir: str) -> None:
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    import livelywalk.cli  # noqa: F401

    import workloads

    with tempfile.TemporaryDirectory(dir=workdir) as inputs:
        workloads.build(workload, seed, inputs)
        elapsed = time.perf_counter() - _START
    import reference

    print(elapsed * reference.host_factor([reference.kernel_seconds() for _ in range(5)]))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
