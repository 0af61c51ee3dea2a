"""3x3 orthogonal coins that are linear sums of permutation matrices.

The six permutation matrices use the convention p_ij = 1 iff pi(i) = j:

    P1 = id, P2 = (123), P3 = (132), P4 = (23), P5 = (12), P6 = (13).

Every orthogonal linear sum of permutations is permutative and falls into
one of four one-parameter families, identified by the basis it expands in
and the sign of x + y + z:

    family   basis            x+y+z   layout                     det
    X        {P1, P2, P3}     +1      [[x,y,z],[z,x,y],[y,z,x]]  +1
    Y        {P1, P2, P3}     -1      [[x,y,z],[z,x,y],[y,z,x]]  -1
    Z        {P4, P5, P6}     +1      [[x,y,z],[y,z,x],[z,x,y]]  -1
    W        {P4, P5, P6}     -1      [[x,y,z],[y,z,x],[z,x,y]]  +1

with (x, y) on the ellipse x^2+y^2-x-y+xy = 0 (X, Z) or x^2+y^2+x+y+xy = 0
(Y, W).  Z and W are X and Y with rows 2 and 3 exchanged.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import (
    ConstraintViolated,
    InternalInconsistency,
    NotOrthogonal,
    NotPermutative,
    OutOfRange,
    RangeViolated,
)
from .exactnum import (
    DEFAULT_TOL,
    exact_det3,
    exact_matrix,
    is_exact,
    orthogonality_defect,
    to_float,
)

Scalar = Union[int, float, complex, Fraction]

FAMILIES = ("X", "Y", "Z", "W")
CYCLIC = "cyclic"
TRANSPOSITION = "transposition"

#: images (pi(0), pi(1), pi(2)) of each permutation, 0-indexed
PERM_IMAGES = {
    1: (0, 1, 2),
    2: (1, 2, 0),
    3: (2, 0, 1),
    4: (0, 2, 1),
    5: (1, 0, 2),
    6: (2, 1, 0),
}
#: the six permutation matrices as 0/1 integer arrays
_PERM_01 = {
    p: np.array([[int(images[i] == j) for j in range(3)] for i in range(3)])
    for p, images in PERM_IMAGES.items()
}

_FAMILY_BASIS = {"X": CYCLIC, "Y": CYCLIC, "Z": TRANSPOSITION, "W": TRANSPOSITION}
_FAMILY_SUM = {"X": 1, "Y": -1, "Z": 1, "W": -1}
# det is +1 on X (rotations) and W = P4*Y, -1 on Y and Z = P4*X
_FAMILY_DET = {"X": 1, "Y": -1, "Z": -1, "W": 1}
_FAMILY_OF = {(CYCLIC, 1): "X", (CYCLIC, -1): "Y", (TRANSPOSITION, 1): "Z", (TRANSPOSITION, -1): "W"}

#: closed real parameter range for x in each family
REAL_X_RANGE = {
    "X": (Fraction(-1, 3), Fraction(1)),
    "Z": (Fraction(-1, 3), Fraction(1)),
    "Y": (Fraction(-1), Fraction(1, 3)),
    "W": (Fraction(-1), Fraction(1, 3)),
}

ELLIPSE_TOL = 1e-10
SUM_TOL = 1e-12


@dataclass(frozen=True)
class Coin3:
    """A 3x3 orthogonal coin, in exact-rational or floating representation.

    ``params`` holds the linear-sum coefficients (x, y, z) when known, and
    ``theta_frac`` the exact angle fraction theta/(2*pi) when the coin was
    built from one.  ``classification`` is ``classify(matrix)`` at the
    default tolerance, computed on first use and cached.
    """

    matrix: np.ndarray
    family: Optional[str] = None
    params: Optional[tuple] = None
    theta_frac: Optional[Fraction] = None

    @property
    def exact(self) -> bool:
        return is_exact(self.matrix)

    def as_float(self) -> np.ndarray:
        return to_float(self.matrix)

    @functools.cached_property
    def classification(self) -> Classification:
        return classify(self.matrix)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coin3):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)


@dataclass(frozen=True)
class LinearSumCoefficients:
    basis: str  # "cyclic" (P1,P2,P3) or "transposition" (P4,P5,P6)
    x: Scalar
    y: Scalar
    z: Scalar


@dataclass(frozen=True)
class Classification:
    family: str
    basis: str
    x: Scalar
    y: Scalar
    z: Scalar
    is_permutation: bool
    is_grover_type: bool
    is_rational: bool


def _matrix_of(m) -> np.ndarray:
    if isinstance(m, Coin3):
        return m.matrix
    return np.asarray(m)


def perm_matrix(p: int) -> Coin3:
    """The permutation matrix P_p, p in 1..6, in exact representation."""
    if p not in PERM_IMAGES:
        raise OutOfRange(f"permutation index must be 1..6, got {p}")
    m = exact_matrix(_PERM_01[p].tolist())
    family = "X" if p <= 3 else "Z"
    coeffs = [Fraction(0)] * 3
    coeffs[(p - 1) % 3] = Fraction(1)
    return Coin3(matrix=m, family=family, params=tuple(coeffs))


def _layout(basis: str, x, y, z, dtype) -> np.ndarray:
    if basis == CYCLIC:
        rows = [[x, y, z], [z, x, y], [y, z, x]]
    else:
        rows = [[x, y, z], [y, z, x], [z, x, y]]
    return np.array(rows, dtype=dtype)


def _ellipse_residual(family: str, x, y):
    if family in ("X", "Z"):
        return x * x + y * y - x - y + x * y
    return x * x + y * y + x + y + x * y


def coin_from_xyz(family: str, x: Scalar, y: Scalar, z: Scalar, allow_complex: bool = False) -> Coin3:
    """Coin from linear-sum coefficients; validates the family constraints."""
    if family not in FAMILIES:
        raise OutOfRange(f"unknown family {family!r}")
    exact = all(isinstance(v, (Fraction, int)) for v in (x, y, z))
    if exact:
        x, y, z = Fraction(x), Fraction(y), Fraction(z)
        if x + y + z != _FAMILY_SUM[family]:
            raise ConstraintViolated(f"x+y+z must be {_FAMILY_SUM[family]} for family {family}")
        if _ellipse_residual(family, x, y) != 0:
            raise ConstraintViolated("(x, y) is not on the family ellipse")
    else:
        x, y, z = complex(x), complex(y), complex(z)
        if abs(x + y + z - _FAMILY_SUM[family]) > SUM_TOL:
            raise ConstraintViolated(f"x+y+z must be {_FAMILY_SUM[family]} for family {family}")
        if abs(_ellipse_residual(family, x, y)) > ELLIPSE_TOL:
            raise ConstraintViolated("(x, y) is not on the family ellipse")
    if not allow_complex:
        lo, hi = REAL_X_RANGE[family]
        if exact:
            if not (lo <= x <= hi):
                raise RangeViolated(f"x = {x} outside real range [{lo}, {hi}] of family {family}")
        else:
            if max(abs(x.imag), abs(y.imag), abs(z.imag)) > ELLIPSE_TOL:
                raise RangeViolated("complex coefficients need allow_complex=True")
            if not (float(lo) - ELLIPSE_TOL <= x.real <= float(hi) + ELLIPSE_TOL):
                raise RangeViolated(f"x = {x.real} outside real range [{lo}, {hi}] of family {family}")
    dtype = object if exact else complex
    m = _layout(_FAMILY_BASIS[family], x, y, z, dtype)
    return Coin3(matrix=m, family=family, params=(x, y, z))


def solve_y(family: str, x: Scalar):
    """Both roots of the family ellipse read as a quadratic in y.

    Returns (y_plus, y_minus) with y_plus >= y_minus for real input; exact
    Fractions come back when x is rational and the discriminant is a
    rational square.
    """
    if family not in FAMILIES:
        raise OutOfRange(f"unknown family {family!r}")
    if family in ("X", "Z"):
        lin, disc = 1 - x, (1 - x) * (3 * x + 1)
    else:
        lin, disc = -(1 + x), (1 + x) * (1 - 3 * x)
    if isinstance(x, (Fraction, int)):
        x = Fraction(x)
        lin, disc = Fraction(lin), Fraction(disc)
        if disc < 0:
            raise OutOfRange(f"x = {x} outside the real interval of family {family}")
        root = _rational_sqrt(disc)
        if root is not None:
            return (lin + root) / 2, (lin - root) / 2
        s = math.sqrt(float(disc))
        return (float(lin) + s) / 2, (float(lin) - s) / 2
    if isinstance(x, complex):
        s = cmath.sqrt(disc)
        return (lin + s) / 2, (lin - s) / 2
    if disc < 0:
        raise OutOfRange(f"x = {x} outside the real interval of family {family}")
    s = math.sqrt(disc)
    return (lin + s) / 2, (lin - s) / 2


def _rational_sqrt(f: Fraction) -> Optional[Fraction]:
    if f < 0:
        return None
    pn, pd = math.isqrt(f.numerator), math.isqrt(f.denominator)
    if pn * pn == f.numerator and pd * pd == f.denominator:
        return Fraction(pn, pd)
    return None


def _theta_params(family: str, cos_t, sin_t, sqrt3):
    if family in ("X", "Z"):
        x = (2 * cos_t + 1) / 3
        y = (1 - cos_t) / 3 + sin_t / sqrt3
        z = 1 - x - y
    else:
        x = (2 * cos_t - 1) / 3
        y = -(1 + cos_t) / 3 + sin_t / sqrt3
        z = -1 - x - y
    return x, y, z


def _reconstruct_angle(family: str, x, y) -> tuple[float, float]:
    """(cos theta, sin theta) recovered from the first two coefficients;
    the inverse of :func:`_theta_params`."""
    if family in ("X", "Z"):
        cos_t = (3.0 * complex(x).real - 1.0) / 2.0
        sin_t = math.sqrt(3.0) * (complex(y).real - (1.0 - cos_t) / 3.0)
    else:
        cos_t = (3.0 * complex(x).real + 1.0) / 2.0
        sin_t = math.sqrt(3.0) * (complex(y).real + (1.0 + cos_t) / 3.0)
    return cos_t, sin_t


def coin_from_theta(family: str, theta: float) -> Coin3:
    """One-parameter coin of the given family at angle theta (radians).

    Complex theta is allowed and yields a complex orthogonal coin; the
    parametrization satisfies the ellipse identity for any complex angle.
    """
    if family not in FAMILIES:
        raise OutOfRange(f"unknown family {family!r}")
    if isinstance(theta, complex):
        cos_t, sin_t = cmath.cos(theta), cmath.sin(theta)
    else:
        theta = float(theta) % (2.0 * math.pi)
        cos_t, sin_t = math.cos(theta), math.sin(theta)
    x, y, z = _theta_params(family, cos_t, sin_t, math.sqrt(3.0))
    m = _layout(_FAMILY_BASIS[family], x, y, z, complex)
    return Coin3(matrix=m, family=family, params=(x, y, z))


def coin_from_theta_frac(family: str, frac: Fraction) -> Coin3:
    """Coin at theta = 2*pi*frac, keeping the exact angle fraction attached.

    Carrying the fraction lets the analytic period dispatch skip the
    continued-fraction reclassification of a rounded angle.
    """
    frac = Fraction(frac) % 1
    coin = coin_from_theta(family, 2.0 * math.pi * float(frac))
    return Coin3(matrix=coin.matrix, family=family, params=coin.params, theta_frac=frac)


def coin_from_rational(family: str, r: Fraction, sign1: int = 1, sign2: int = 1) -> Coin3:
    """Exact rational coin from the Pell-derived parametrization.

    For X, Z:  x = 1/3 + sign1 * 2(r^2-3) / (3(r^2+3)),
               y = 1/3 - sign1 * (r^2-3 + sign2 * 6r) / (3(r^2+3)).
    For Y, W the offsets 1/3 are replaced by -1/3.  Any rational r works
    (r^2 = 3 has no rational solution); the result is exactly orthogonal.
    """
    if family not in FAMILIES:
        raise OutOfRange(f"unknown family {family!r}")
    if sign1 not in (1, -1) or sign2 not in (1, -1):
        raise OutOfRange("sign1 and sign2 must be +1 or -1")
    r = Fraction(r)
    num = r * r - 3
    den = 3 * (r * r + 3)
    off = Fraction(1, 3) if family in ("X", "Z") else Fraction(-1, 3)
    x = off + sign1 * 2 * num / den
    y = off - sign1 * (num + sign2 * 6 * r) / den
    s = _FAMILY_SUM[family]
    z = s - x - y
    return coin_from_xyz(family, x, y, z)


def pell_point(r: Fraction) -> tuple[Fraction, Fraction]:
    """Rational point (X, Y) with X^2 - 3 Y^2 = 1, parametrized by r."""
    r = Fraction(r)
    den = r * r - 3
    return (r * r + 3) / den, (-2 * r) / den


def grover_type(p: int, negate: bool = False) -> Coin3:
    """(2/3)J - P_p, negated when asked, in exact representation."""
    if p not in PERM_IMAGES:
        raise OutOfRange(f"permutation index must be 1..6, got {p}")
    sign = -1 if negate else 1
    m = np.array(
        [[sign * (Fraction(2, 3) - e) for e in row] for row in _PERM_01[p].tolist()],
        dtype=object,
    )
    coeffs = decompose_linear_sum(m)
    fam = _FAMILY_OF[(coeffs.basis, 1 if coeffs.x + coeffs.y + coeffs.z > 0 else -1)]
    return Coin3(matrix=m, family=fam, params=(coeffs.x, coeffs.y, coeffs.z))


def decompose_linear_sum(m, tol: float = DEFAULT_TOL) -> LinearSumCoefficients:
    """Express an orthogonal matrix as x,y,z over one of the two bases.

    Reads (x, y, z) off the first row and checks which row layout the matrix
    matches; a matrix matching neither is orthogonal but not a linear sum of
    permutations.
    """
    m = _matrix_of(m)
    defect = orthogonality_defect(m)
    if not defect <= tol:  # also catches NaN/Inf entries
        raise NotOrthogonal(f"orthogonality defect {defect:.3e}")
    x, y, z = m[0]
    exact = is_exact(m)
    for basis in (CYCLIC, TRANSPOSITION):
        candidate = _layout(basis, x, y, z, object if exact else complex)
        if exact:
            if np.array_equal(candidate, m):
                return LinearSumCoefficients(basis, x, y, z)
        else:
            if np.max(np.abs(candidate - to_float(m))) <= tol:
                return LinearSumCoefficients(basis, complex(x), complex(y), complex(z))
    raise NotPermutative("rows are not cyclic shifts of the first row in either basis")


def _near(a, b, tol=DEFAULT_TOL) -> bool:
    return abs(complex(a) - complex(b)) <= tol


def _special_kind(mf: np.ndarray, tol=DEFAULT_TOL) -> tuple[bool, bool]:
    """(is a permutation matrix, is a Grover-type matrix), for a real matrix."""
    perm = grover = False
    for target in _PERM_01.values():
        perm = perm or np.max(np.abs(mf - target)) <= tol
        grover = grover or np.max(np.abs(mf - (2.0 / 3.0 - target))) <= tol
    return bool(perm), bool(grover)


def _is_rational_matrix(m: np.ndarray, tol=1e-9, max_den=1000) -> bool:
    if is_exact(m):
        return True
    mf = to_float(m)
    if np.max(np.abs(mf.imag)) > tol:
        return False
    for v in mf.real.flat:
        if abs(v - Fraction(v).limit_denominator(max_den)) > tol:
            return False
    return True


def classify(m, tol: float = DEFAULT_TOL) -> Classification:
    """Family report for an orthogonal linear sum of permutations.

    The family follows from the basis and the sign of x+y+z; the
    determinant is recomputed as a redundant cross-check of that
    assignment.
    """
    m = _matrix_of(m)
    coeffs = decompose_linear_sum(m, tol)
    s = coeffs.x + coeffs.y + coeffs.z
    if _near(s, 1, tol):
        sign = 1
    elif _near(s, -1, tol):
        sign = -1
    else:
        raise NotPermutative(f"coefficient sum {s} is not +-1")
    family = _FAMILY_OF[(coeffs.basis, sign)]

    if is_exact(m):
        det = exact_det3(m)
    else:
        det = np.linalg.det(to_float(m))
    if not _near(det, _FAMILY_DET[family]):
        raise InternalInconsistency(
            f"det {det} inconsistent with family {family} (expected {_FAMILY_DET[family]})"
        )

    mf = to_float(m)
    real = np.max(np.abs(mf.imag)) <= DEFAULT_TOL
    is_permutation, is_grover_type = _special_kind(mf.real) if real else (False, False)
    return Classification(
        family=family,
        basis=coeffs.basis,
        x=coeffs.x,
        y=coeffs.y,
        z=coeffs.z,
        is_permutation=is_permutation,
        is_grover_type=is_grover_type,
        is_rational=_is_rational_matrix(m),
    )


_BASIS_PRODUCT = {
    (CYCLIC, CYCLIC): CYCLIC,
    (CYCLIC, TRANSPOSITION): TRANSPOSITION,
    (TRANSPOSITION, CYCLIC): TRANSPOSITION,
    (TRANSPOSITION, TRANSPOSITION): CYCLIC,
}


def multiply(a: Coin3, b: Coin3) -> Coin3:
    """Product coin, validated against the closure table.

    Bases compose like parities (cyclic ~ even) and the coefficient-sum
    signs multiply; the product's classification must land on the expected
    family or the bookkeeping has failed.
    """
    ca, cb = a.classification, b.classification
    expected_basis = _BASIS_PRODUCT[(ca.basis, cb.basis)]
    expected_sign = _FAMILY_SUM[ca.family] * _FAMILY_SUM[cb.family]
    expected_family = _FAMILY_OF[(expected_basis, expected_sign)]

    if a.exact and b.exact:
        prod = a.matrix @ b.matrix
    else:
        prod = a.as_float() @ b.as_float()
    cp = classify(prod)
    if cp.family != expected_family:
        raise NotPermutative(
            f"product classified {cp.family}, closure table expected {expected_family}"
        )
    return Coin3(matrix=prod, family=cp.family, params=(cp.x, cp.y, cp.z))


# --- serialization (shared with the CLI) ---------------------------------


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def coin_to_json(coin: Coin3) -> dict:
    """JSON document per the shared coin schema."""
    if coin.exact:
        entries = [[_frac_str(e) for e in row] for row in coin.matrix]
        repr_tag = "exact"
    else:
        mf = coin.as_float()
        if np.max(np.abs(mf.imag)) > 1e-12:
            raise ConstraintViolated("cannot serialize a complex-parameter coin")
        entries = [[float(v) for v in row] for row in mf.real]
        repr_tag = "float"
    params = None
    if coin.params is not None:
        out = {}
        for key, v in zip(("x", "y", "z"), coin.params):
            if isinstance(v, Fraction):
                out[key] = _frac_str(v)
            else:
                out[key] = float(complex(v).real)
        params = out
    return {"repr": repr_tag, "entries": entries, "family": coin.family, "params": params}


def coin_from_json(doc: dict) -> Coin3:
    repr_tag = doc.get("repr")
    entries = doc["entries"]
    if repr_tag == "exact":
        m = exact_matrix(entries)
    elif repr_tag == "float":
        m = np.array(entries, dtype=complex)
    else:
        raise ConstraintViolated(f"unknown repr tag {repr_tag!r}")
    params = doc.get("params")
    tup = None
    if params:
        vals = []
        for key in ("x", "y", "z"):
            v = params[key]
            vals.append(Fraction(v) if isinstance(v, str) else v)
        tup = tuple(vals)
    return Coin3(matrix=m, family=doc.get("family"), params=tup)
