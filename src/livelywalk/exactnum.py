"""Exact rational and floating matrix kernels.

Matrices come in two representations, distinguished by dtype:

* exact  -- numpy object arrays whose entries are ``fractions.Fraction``
* float  -- numpy complex128 arrays

Exact matrices stay exact under +, -, @ and transpose; every routine that
needs floating arithmetic converts explicitly via :func:`to_float`.

:func:`eig3_unitary` takes one 3x3 unitary block or a (..., 3, 3) stack of
them, such as all n momentum blocks of a walk, and gets every eigenvalue
from a single batched LAPACK call.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, NotUnitary, NumericalFailure

#: default tolerance for unitarity / orthogonality checks
DEFAULT_TOL = 1e-10

_TWO_PI = 2.0 * math.pi


def is_exact(m: np.ndarray) -> bool:
    return m.dtype == object


def to_float(m: np.ndarray) -> np.ndarray:
    """Convert either representation to complex128."""
    return np.asarray(m, dtype=complex)


def exact_matrix(rows) -> np.ndarray:
    """Build an exact matrix from any nested iterable of Fraction-convertibles."""
    return np.array([[Fraction(e) for e in row] for row in rows], dtype=object)


def _scaled_integer(m: np.ndarray) -> tuple[list, int]:
    """(M, d) for an exact matrix: d is the lcm of its entries' denominators and
    M = d*m, as nested lists of Python ints.  Integer arithmetic on M replaces
    the slower Fraction arithmetic on m."""
    d = math.lcm(*(e.denominator for e in m.flat))
    return [[e.numerator * (d // e.denominator) for e in row] for row in m.tolist()], d


def _integer_orthogonal(rows: list, d: int) -> bool:
    """m^T m = I exactly, checked as M^T M = d^2 I on the rows of M = d*m."""
    cols = list(zip(*rows))
    return all(
        sum(p * q for p, q in zip(cols[i], cols[j])) == (d * d if i == j else 0)
        for i in range(len(cols)) for j in range(i, len(cols))
    )


def orthogonality_defect(m: np.ndarray) -> float:
    """``||M^T M - I||_F`` with the plain (unconjugated) transpose.

    Zero exactly for exact orthogonal matrices; the complex-parameter coins
    are complex *orthogonal*, not unitary, so no conjugation here.
    """
    if is_exact(m):
        if _integer_orthogonal(*_scaled_integer(m)):
            return 0.0
        m = to_float(m)
    mf = np.asarray(m, dtype=complex)
    return float(np.linalg.norm(mf.T @ mf - np.eye(mf.shape[0])))


def unitarity_defect(m: np.ndarray) -> np.ndarray:
    """``||M^dagger M - I||_F``, one value per block of a (..., k, k) stack."""
    mf = to_float(m)
    gram = np.swapaxes(mf, -1, -2).conj() @ mf
    return np.linalg.norm(gram - np.eye(mf.shape[-1]), axis=(-2, -1))


def _integer_det3(rows: list) -> int:
    """det of a 3x3 integer matrix given as rows; for M = d*m it is d^3 det(m)."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _solve_cluster(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a (..., 3, 3) stack of unitary blocks: one batched LAPACK call.

    The name is kept from when only clustered blocks came here: the
    benchmark tracer and the angle-accuracy test count calls to it.  Each
    block is unitary within DEFAULT_TOL, so its eigenvectors are orthonormal and
    Bauer-Fike (1960) bounds each eigenvalue's error by LAPACK's ~eps
    backward error, clustered roots included.
    """
    return np.linalg.eigvals(m)


def eig3_unitary(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 3x3 unitary matrix, or of each block of a (..., 3, 3) stack.

    Returns complex128 of shape (..., 3): per block, the LAPACK eigenvalues
    projected onto the unit circle and sorted (stably) by principal argument
    in [0, 2*pi), with arguments within 1e-12 of 2*pi wrapped to 0.  Raises
    :class:`NotUnitary` when some block has
    ``||M^dagger M - I||_F > DEFAULT_TOL`` and :class:`NumericalFailure` when
    some eigenvalue's modulus strays from 1 by more than 1e-6.
    """
    mf = to_float(m)
    if mf.ndim < 2 or mf.shape[-2:] != (3, 3):
        raise DimensionMismatch(f"expected 3x3 matrix or stack of them, got {mf.shape}")
    defect = unitarity_defect(mf)
    if not np.all(defect <= DEFAULT_TOL):  # also catches NaN/Inf entries
        raise NotUnitary(f"unitarity defect {np.max(defect):.3e} exceeds tol {DEFAULT_TOL:.3e}")

    lams = _solve_cluster(mf)
    # the input is certified unitary within DEFAULT_TOL, so any radial offset
    # of a root (true offsets reach ~sqrt(eps) at defective configurations) is
    # known error; project onto the circle, but refuse clearly broken roots
    moduli = np.abs(lams)
    off = np.abs(moduli - 1.0)
    if not np.all(off <= 1e-6):
        raise NumericalFailure(f"eigenvalue modulus {moduli.flat[np.argmax(off)]:.15f} is not 1")
    lams = lams / moduli

    args = np.angle(lams) % _TWO_PI
    args[_TWO_PI - args < 1e-12] = 0.0
    return np.take_along_axis(lams, np.argsort(args, axis=-1, kind="stable"), axis=-1)


def multiset_distance(a, b) -> float:
    """Greedy nearest matching of two equal-size complex multisets; max matched gap."""
    a = np.asarray(a, dtype=complex)
    b = list(np.asarray(b, dtype=complex))
    if a.size != len(b):
        raise DimensionMismatch(f"multisets differ in size: {a.size} != {len(b)}")
    worst = 0.0
    for x in a:
        gaps = [abs(x - y) for y in b]
        j = int(np.argmin(gaps))
        worst = max(worst, gaps[j])
        b.pop(j)
    return worst

