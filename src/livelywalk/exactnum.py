"""Exact rational and floating matrix kernels.

Matrices come in two representations, distinguished by dtype:

* exact  -- numpy object arrays whose entries are ``fractions.Fraction``
* float  -- numpy complex128 arrays

Exact matrices stay exact under +, -, @ and transpose; every routine that
needs floating arithmetic converts explicitly via :func:`to_float`.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, NotUnitary, NumericalFailure, OutOfRange

#: default tolerance for unitarity / orthogonality checks
DEFAULT_TOL = 1e-10
#: residual target for polished eigenvalues
RESIDUAL_TOL = 1e-13

_TWO_PI = 2.0 * math.pi


def is_exact(m: np.ndarray) -> bool:
    return m.dtype == object


def to_float(m: np.ndarray) -> np.ndarray:
    """Convert either representation to complex128."""
    if is_exact(m):
        return np.array([[complex(e) for e in row] for row in m], dtype=complex)
    return np.asarray(m, dtype=complex)


def exact_identity(n: int = 3) -> np.ndarray:
    return np.array(
        [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)],
        dtype=object,
    )


def exact_matrix(rows) -> np.ndarray:
    """Build an exact matrix from any nested iterable of Fraction-convertibles."""
    return np.array([[Fraction(e) for e in row] for row in rows], dtype=object)


def orthogonality_defect(m: np.ndarray) -> float:
    """``||M^T M - I||_F`` with the plain (unconjugated) transpose.

    Zero exactly for exact orthogonal matrices; the complex-parameter coins
    are complex *orthogonal*, not unitary, so no conjugation here.
    """
    if is_exact(m):
        if np.array_equal(m.T @ m, exact_identity(m.shape[0])):
            return 0.0
        m = to_float(m)
    mf = np.asarray(m, dtype=complex)
    return float(np.linalg.norm(mf.T @ mf - np.eye(mf.shape[0])))


def unitarity_defect(m: np.ndarray) -> float:
    """``||M^dagger M - I||_F``."""
    mf = to_float(m)
    return float(np.linalg.norm(mf.conj().T @ mf - np.eye(mf.shape[0])))


def exact_det3(m: np.ndarray) -> Fraction:
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def char_poly_coeffs(m: np.ndarray):
    """Coefficients (c2, c1, c0) of det(lam*I - M) = lam^3 + c2 lam^2 + c1 lam + c0.

    Computed directly from the nine entries (cofactor expansion), so the
    result is exact when the input is exact.
    """
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    c2 = -(a + e + i)
    c1 = (a * e - b * d) + (a * i - c * g) + (e * i - f * h)
    c0 = -(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))
    return c2, c1, c0


def principal_arg(z: complex) -> float:
    """Argument mapped into [0, 2*pi), with values within 1e-12 of 2*pi wrapped to 0."""
    a = cmath.phase(z) % _TWO_PI
    if _TWO_PI - a < 1e-12:
        return 0.0
    return a


def _solve_cluster(m: np.ndarray) -> list[complex]:
    """Eigenvalues of a block whose cubic has clustered roots, from the matrix.

    The cubic is ill-conditioned at a cluster, but the matrix is not: the
    block is unitary within tol, so its eigenvectors are orthonormal, and
    Bauer-Fike (1960) bounds each eigenvalue's error by LAPACK's ~eps
    backward error.
    """
    return [complex(lam) for lam in np.linalg.eigvals(to_float(m))]


def eig3_unitary(m: np.ndarray, tol: float = DEFAULT_TOL) -> list[complex]:
    """Eigenvalues of a 3x3 unitary matrix, sorted by principal argument.

    Separated roots: the characteristic polynomial is assembled exactly from
    the entries, solved in closed form (Cardano), and each root is polished
    with at most 50 Newton steps to residual < 1e-13.  Clustered roots
    (pairwise gap < 1e-3), where double evaluation noise caps the cubic's
    accuracy at ~1e-8, are recomputed by LAPACK on the block itself.
    Raises :class:`NotUnitary` when ``||M^dagger M - I||_F > tol`` and
    :class:`NumericalFailure` when a root fails to polish.
    """
    m = np.asarray(m)
    if m.shape != (3, 3):
        raise DimensionMismatch(f"expected 3x3 matrix, got {m.shape}")
    defect = unitarity_defect(m)
    if not defect <= tol:  # also catches NaN/Inf entries
        raise NotUnitary(f"unitarity defect {defect:.3e} exceeds tol {tol:.3e}")

    e2, e1, e0 = char_poly_coeffs(m)
    c2, c1, c0 = complex(e2), complex(e1), complex(e0)

    # depressed cubic t^3 + p t + q, lam = t - c2/3
    p = c1 - c2 * c2 / 3.0
    q = 2.0 * c2**3 / 27.0 - c2 * c1 / 3.0 + c0
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    sq = cmath.sqrt(disc)
    # the root of larger modulus avoids cancellation (stable Cardano; Kahan
    # 1986, Blinn 2006): with p = 0 the other one is rounding noise
    u3 = max(-q / 2.0 + sq, -q / 2.0 - sq, key=abs)
    if abs(u3) < 1e-30:
        roots = [-c2 / 3.0] * 3  # triple root
    else:
        u = u3 ** (1.0 / 3.0)
        omega = complex(-0.5, math.sqrt(3.0) / 2.0)
        roots = []
        for k in range(3):
            uk = u * omega**k
            roots.append(uk - p / (3.0 * uk) - c2 / 3.0)

    polished = []
    for lam in roots:
        ok = False
        for _ in range(50):
            f = ((lam + c2) * lam + c1) * lam + c0
            if abs(f) < RESIDUAL_TOL:
                ok = True
                break
            fp = (3.0 * lam + 2.0 * c2) * lam + c1
            if abs(fp) < 1e-30:
                break
            lam = lam - f / fp
        if not ok:
            f = ((lam + c2) * lam + c1) * lam + c0
            if abs(f) >= RESIDUAL_TOL:
                raise NumericalFailure(
                    f"root polishing stalled at residual {abs(f):.3e}"
                )
        polished.append(lam)

    # near a triple root the residual target is met ~1e-13^(1/3) = 5e-5 away
    # from the true root, so the cluster detector must be wider than that
    if min(
        abs(polished[0] - polished[1]),
        abs(polished[0] - polished[2]),
        abs(polished[1] - polished[2]),
    ) < 1e-3:
        polished = _solve_cluster(m)

    # the input is certified unitary within tol, so any radial offset of a
    # root (true offsets reach ~sqrt(eps) at defective configurations) is
    # known error; project onto the circle, but refuse clearly broken roots
    for i, lam in enumerate(polished):
        if abs(abs(lam) - 1.0) > 1e-6:
            raise NumericalFailure(f"eigenvalue modulus {abs(lam):.15f} is not 1")
        polished[i] = lam / abs(lam)

    polished.sort(key=principal_arg)
    return polished


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


def mat_power_norm_defect(m: np.ndarray, t: int) -> float:
    """``||M^t - I||_F`` for a square matrix, raw repeated-squaring product."""
    mf = to_float(m)
    if mf.ndim != 2 or mf.shape[0] != mf.shape[1]:
        raise DimensionMismatch(f"matrix is not square: {mf.shape}")
    if t < 1:
        raise OutOfRange("power must be a positive integer")
    power = np.linalg.matrix_power(mf, t)
    return float(np.linalg.norm(power - np.eye(mf.shape[0])))
