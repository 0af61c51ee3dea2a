"""Exact rational and floating matrix kernels.

Matrices come in two representations, distinguished by dtype:

* exact  -- numpy object arrays whose entries are ``fractions.Fraction``
* float  -- numpy complex128 arrays

Exact matrices stay exact under +, -, @ and transpose; every routine that
needs floating arithmetic converts explicitly via :func:`to_float`.

:func:`eig3_unitary` takes one 3x3 unitary block or a (..., 3, 3) stack of
them, such as all n momentum blocks of a walk, and gets every eigenvalue
from a single batched LAPACK call.  Its kernel, :func:`_unit_eigenvalues`,
certifies every block unitary within DEFAULT_TOL (:func:`_unitarity_defect`)
and solves them (:func:`_solve_unitary`), in LAPACK's order; only
:func:`eig3_unitary` sorts each block's by angle, for the callers that show
them (`walk.spectrum` and `verify`, which still certify every block).  The
period route calls the solve alone: the lcm of the orders is the same in any
order, and the certificate is the coin's, `coins.Coin3.unitarity_defect`,
taken once per coin by the same formula: a momentum block D C, D a
diagonal of unit phases, has C's defect, since (D C)^dagger D C = C^dagger C,
up to rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, NotUnitary, NumericalFailure

#: default tolerance for unitarity / orthogonality checks
DEFAULT_TOL = 1e-10

_TWO_PI = 2.0 * math.pi
_EYE3 = np.eye(3)


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


def _gram3(rows: list) -> tuple:
    """M^T M's diagonal, then its entries (0, 1), (0, 2), (1, 2), for a 3x3 M given as rows."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return (a * a + d * d + g * g, b * b + e * e + h * h, c * c + f * f + i * i,
            a * b + d * e + g * h, a * c + d * f + g * i, b * c + e * f + h * i)


def _integer_orthogonal(rows: list, d: int) -> bool:
    """m^T m = I exactly, checked as M^T M = d^2 I on the rows of the 3x3 M = d*m."""
    return _gram3(rows) == (d * d,) * 3 + (0,) * 3


def orthogonality_defect(m: np.ndarray) -> float:
    """``||M^T M - I||_F`` with the plain (unconjugated) transpose.

    Zero exactly for exact orthogonal matrices, which are 3x3 coins; the
    complex-parameter coins are complex *orthogonal*, not unitary, so no
    conjugation here.  An exact entry past the float range, such as
    Fraction("1e400"), gives inf: the defect is at least the entry's
    square less 1, past the float range too.
    """
    if is_exact(m):
        if _integer_orthogonal(*_scaled_integer(m)):
            return 0.0
        try:
            m = to_float(m)
        except OverflowError:
            return math.inf
    mf = np.asarray(m, dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):  # a NaN or inf defect is reported, not warned
        return float(np.linalg.norm(mf.T @ mf - np.eye(mf.shape[0])))


def _integer_det3(rows: list):
    """det of a 3x3 matrix given as rows of Python numbers, by cofactors; for
    the integers M = d*m it is d^3 det(m), exactly."""
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


def _unitarity_defect(mf: np.ndarray) -> np.ndarray:
    """``||M^dagger M - I||_F`` of each block of a complex128 3x3 matrix or
    (..., 3, 3) stack, shape (...): the Gram matrix less the identity, in
    place, then one einsum over its float view; NaN or inf where the block
    holds one.  `coins.Coin3.unitarity_defect` takes the coin's by this same
    formula.  For a block D C, D a diagonal of unit phases, (D C)^dagger D C
    is C^dagger C, so the block's defect differs from the coin's only by
    rounding: at most 6.7e-16 over the golden spectral corpus at n = 2..40
    and over coins with defects just under DEFAULT_TOL, every a, and a test
    pins 1e-14.  Block 0, D = I, gives the coin's bit for bit."""
    gram = np.swapaxes(mf, -1, -2).conj() @ mf
    gram -= _EYE3
    parts = gram.view(float)  # real and imaginary parts
    return np.sqrt(np.einsum("...ij,...ij->...", parts, parts))


def _not_unitary(defect) -> NotUnitary:
    """The NotUnitary error of blocks whose largest `_unitarity_defect`, or
    a NaN among them, is in `defect`, an array or a list of floats."""
    return NotUnitary(f"unitarity defect {np.max(defect):.3e} exceeds tol {DEFAULT_TOL:.3e}")


def _solve_unitary(mf: np.ndarray) -> np.ndarray:
    """Eigenvalues of a complex128 (..., 3, 3) stack whose blocks the caller
    has certified unitary within DEFAULT_TOL: one LAPACK call, a refusal of
    any root whose modulus strays from 1 by more than 1e-6
    (NumericalFailure), and the projection of the rest onto the unit circle,
    in LAPACK's order."""
    lams = _solve_cluster(mf)
    # the input is certified unitary within DEFAULT_TOL, so any radial offset
    # of a root (true offsets reach ~sqrt(eps) at defective configurations) is
    # known error; project onto the circle, but refuse clearly broken roots
    moduli = np.abs(lams)
    off = np.abs(moduli - 1.0)
    if not (off <= 1e-6).all():
        raise NumericalFailure(f"eigenvalue modulus {moduli.flat[np.argmax(off)]:.15f} is not 1")
    return lams / moduli


def _unit_eigenvalues(m: np.ndarray) -> np.ndarray:
    """:func:`eig3_unitary` without its sort: the same checks and errors, and
    the same eigenvalues, projected onto the unit circle, in LAPACK's order:
    each block's `_unitarity_defect` checked, then `_solve_unitary`."""
    mf = to_float(m)
    if mf.ndim < 2 or mf.shape[-2:] != (3, 3):
        raise DimensionMismatch(f"expected 3x3 matrix or stack of them, got {mf.shape}")
    defect = _unitarity_defect(mf)
    if not (defect <= DEFAULT_TOL).all():  # also catches NaN/Inf entries
        raise _not_unitary(defect)
    return _solve_unitary(mf)


def eig3_unitary(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 3x3 unitary matrix, or of each block of a (..., 3, 3) stack.

    Returns complex128 of shape (..., 3): per block, the LAPACK eigenvalues
    projected onto the unit circle and sorted (stably) by principal argument
    in [0, 2*pi), with arguments within 1e-12 of 2*pi wrapped to 0, and
    gathered by flat index.  Raises :class:`NotUnitary` when some block has
    ``||M^dagger M - I||_F > DEFAULT_TOL``, a norm taken by one einsum over
    the float view, and :class:`NumericalFailure` when some eigenvalue's
    modulus strays from 1 by more than 1e-6.
    """
    lams = _unit_eigenvalues(m)
    args = np.arctan2(lams.imag, lams.real) % _TWO_PI  # np.angle(lams)
    args[_TWO_PI - args < 1e-12] = 0.0
    order = np.argsort(args, axis=-1, kind="stable")
    order += np.arange(0, order.size, 3).reshape(order.shape[:-1] + (1,))  # flat index of each block's roots
    return lams.take(order)


def multiset_distance(a, b) -> float:
    """Greedy nearest matching of two equal-size complex multisets; max matched
    gap, or NaN when either multiset holds a NaN."""
    a = np.asarray(a, dtype=complex)
    b = list(np.asarray(b, dtype=complex))
    if a.size != len(b):
        raise DimensionMismatch(f"multisets differ in size: {a.size} != {len(b)}")
    if np.isnan(a).any() or np.isnan(b).any():
        return math.nan
    worst = 0.0
    for x in a:
        gaps = [abs(x - y) for y in b]
        j = int(np.argmin(gaps))
        worst = max(worst, gaps[j])
        b.pop(j)
    return worst

