"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the CPU this process gets can slow by a third for tens of
seconds.  Every timing the benchmark reports is scaled by
``REF_SECONDS / t_ref``, with ``t_ref`` this kernel's time measured around
the timed work, so the figures read as seconds on a host where the kernel
takes ``REF_SECONDS``.  The kernel is the benchmark's own code, never the
library's, so a change to the library cannot move it.  Like the library's
hot paths it is Python-level iteration over small complex numpy matrices.
"""

import statistics
import time

import numpy as np

#: about the kernel's time on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4)
REF_SECONDS = 0.002

_U = np.linalg.qr(np.random.default_rng(0).normal(size=(12, 12, 2)) @ np.array([1.0, 1.0j]))[0]
_EYE = np.eye(12)


def kernel_seconds() -> float:
    """Wall time of 200 steps of M <- M U with a norm check, as in brute force."""
    start = time.perf_counter()
    m = _U
    for _ in range(200):
        float(np.linalg.norm(m - _EYE))
        m = m @ _U
    return time.perf_counter() - start


def host_factor(samples) -> float:
    """REF_SECONDS over the median of some kernel times."""
    return REF_SECONDS / statistics.median(samples)
