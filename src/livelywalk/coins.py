"""3x3 orthogonal coins that are linear sums of permutation matrices.

The six permutation matrices use the convention p_ij = 1 iff pi(i) = j:

    P1 = id, P2 = (123), P3 = (132), P4 = (23), P5 = (12), P6 = (13).

Every orthogonal linear sum of permutations is permutative and falls into
one of four one-parameter families.  A family is the pair (basis, s): the
basis it expands in and the sign s = x + y + z:

    family   basis            s       layout                     det
    X        {P1, P2, P3}     +1      [[x,y,z],[z,x,y],[y,z,x]]  +1
    Y        {P1, P2, P3}     -1      [[x,y,z],[z,x,y],[y,z,x]]  -1
    Z        {P4, P5, P6}     +1      [[x,y,z],[y,z,x],[z,x,y]]  -1
    W        {P4, P5, P6}     -1      [[x,y,z],[y,z,x],[z,x,y]]  +1

with (x, y) on the ellipse x^2+y^2-s*x-s*y+xy = 0.  Z and W are X and Y
with rows 2 and 3 exchanged, and every other per-family formula (the
theta-parametrization, the determinant, the Pell offset) is one formula
in s.  `classify` reports the family once per coin, together with the
recovered angle ``theta`` and ``is_special``: whether +-coin is a
permutation or Grover-type matrix.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
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
    _TWO_PI,
    DEFAULT_TOL,
    _gram3,
    _integer_det3,
    _integer_orthogonal,
    _scaled_integer,
    _unitarity_defect,
    exact_matrix,
    is_exact,
    orthogonality_defect,
)

Scalar = Union[int, float, complex, Fraction]

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

#: index orders that take the first row (x, y, z) to each row of a basis's layout
_ROW_ORDERS = {CYCLIC: ((0, 1, 2), (2, 0, 1), (1, 2, 0)),
               TRANSPOSITION: ((0, 1, 2), (1, 2, 0), (2, 0, 1))}

#: family -> (basis, s = x + y + z), and back
_FAMILY = {"X": (CYCLIC, 1), "Y": (CYCLIC, -1), "Z": (TRANSPOSITION, 1), "W": (TRANSPOSITION, -1)}
_FAMILY_OF = {record: family for family, record in _FAMILY.items()}
FAMILIES = tuple(_FAMILY)
# det is s on the cyclic basis (X rotations, Y = -X) and -s on the other (Z = P4*X, W = P4*Y)
_FAMILY_DET = {f: s if basis == CYCLIC else -s for f, (basis, s) in _FAMILY.items()}

#: a real float coin counts as rational when every entry is within RATIONAL_TOL
#: of a fraction with denominator at most RATIONAL_MAX_DEN
RATIONAL_TOL = 1e-9
RATIONAL_MAX_DEN = 1000


@dataclass(frozen=True)
class Coin3:
    """A 3x3 orthogonal coin, in exact-rational or floating representation.

    ``family`` names the coin's family when it was built as a member of one,
    and ``theta_frac`` holds the exact angle fraction theta/(2*pi) when the
    coin was built from one.  ``classification`` is ``classify(coin)`` at
    the default tolerance, computed on first use and cached; it raises
    ConstraintViolated when a named family is not the classified one.
    ``is_real`` and ``is_rational``, cached too, are the one realness and
    rationality rules, whatever tolerance the coin is classified at, and
    ``unitarity_defect``, cached too, is the one unitarity certificate of the
    period route.
    """

    matrix: np.ndarray
    family: Optional[str] = None
    theta_frac: Optional[Fraction] = None

    @property
    def exact(self) -> bool:
        return is_exact(self.matrix)

    def as_float(self) -> np.ndarray:
        """The matrix as complex128: one read-only copy, made on first use and
        cached, so the coin's own ``matrix`` is never aliased.  An exact
        entry becomes float(Fraction), its correctly rounded value."""
        return self._float

    @functools.cached_property
    def _float(self) -> np.ndarray:
        mf = np.array(self.matrix, dtype=complex)
        mf.flags.writeable = False
        return mf

    @property
    def params(self) -> Optional[tuple]:
        """The linear-sum coefficients (x, y, z), read off the first row, of a
        coin with a named family; None for a coin without one."""
        return None if self.family is None else tuple(self.matrix[0].tolist())

    @functools.cached_property
    def classification(self) -> Classification:
        return classify(self)

    @functools.cached_property
    def is_real(self) -> bool:
        """Whether every |imag| is at most DEFAULT_TOL."""
        return bool(np.max(np.abs(self._float.imag)) <= DEFAULT_TOL)  # NaN is not real

    @functools.cached_property
    def unitarity_defect(self) -> float:
        """``||C^dagger C - I||_F`` of `as_float`, by the eigensolver's own
        formula, `exactnum._unitarity_defect`: the period route's certificate
        for every momentum block of the coin; NaN for a NaN entry."""
        return float(_unitarity_defect(self._float))

    @functools.cached_property
    def is_rational(self) -> bool:
        """Whether the coin is exact, or real with every entry within
        RATIONAL_TOL of a fraction with denominator at most RATIONAL_MAX_DEN;
        a NaN or infinite entry is near no fraction."""
        return self.exact or (self.is_real and all(
            math.isfinite(v) and abs(v - Fraction(v).limit_denominator(RATIONAL_MAX_DEN)) <= RATIONAL_TOL
            for v in self._float.real.flat))

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
class Classification(LinearSumCoefficients):
    """A coin's linear-sum decomposition and the family it gives with the
    sign of x + y + z, the angle theta read off the coefficients (atan2 mod
    2*pi, so in [0, 2*pi]), and which special matrices the coin is: a
    permutation, a Grover-type matrix, or either of those up to sign
    (``is_special``)."""

    family: str
    is_permutation: bool
    is_grover_type: bool
    theta: float
    is_special: bool


def _as_coin(m) -> Coin3:
    """m itself if it is a Coin3, else a family-less coin of the matrix m."""
    return m if isinstance(m, Coin3) else Coin3(matrix=np.asarray(m))


def perm_matrix(p: int) -> Coin3:
    """The permutation matrix P_p, p in 1..6, in exact representation: the
    shared read-only constant ``SPECIAL_COINS[p - 1]``."""
    if p not in PERM_IMAGES:
        raise OutOfRange(f"permutation index must be 1..6, got {p}")
    return SPECIAL_COINS[int(p) - 1]


def _layout(basis: str, x, y, z, dtype) -> np.ndarray:
    first = (x, y, z)
    return np.array([[first[i] for i in order] for order in _ROW_ORDERS[basis]], dtype=dtype)


def _family(family: str) -> tuple[str, int]:
    """The (basis, s) record of a family name; OutOfRange for any other name."""
    if family not in FAMILIES:
        raise OutOfRange(f"unknown family {family!r}")
    return _FAMILY[family]


def coin_from_xyz(family: str, x: Scalar, y: Scalar, z: Scalar, allow_complex: bool = False) -> Coin3:
    """The coin of the family with first row (x, y, z), exact for ints and
    Fractions.  It is classified here, so an invalid point raises what
    `classify` raises for its matrix (NotOrthogonal off the ellipse, and for
    an exact point off it by any amount); a coin that is not real raises
    RangeViolated unless allow_complex is set."""
    basis = _family(family)[0]
    exact = all(isinstance(v, (Fraction, int)) for v in (x, y, z))
    x, y, z = (Fraction(v) if exact else complex(v) for v in (x, y, z))
    coin = Coin3(matrix=_layout(basis, x, y, z, object if exact else complex), family=family)
    coin.classification  # raises for a point that is not a valid coin of the family
    if not (allow_complex or coin.is_real):
        raise RangeViolated("complex coefficients need allow_complex=True")
    return coin


def solve_y(family: str, x: Scalar):
    """Both roots of the family ellipse read as a quadratic in y.

    Returns (y_plus, y_minus) with y_plus >= y_minus for real input; exact
    Fractions come back when x is rational and the discriminant is a
    rational square.
    """
    s = _family(family)[1]
    if isinstance(x, int):
        x = Fraction(x)
    lin, disc = s - x, (s - x) * (3 * x + s)
    if isinstance(x, complex):
        root = cmath.sqrt(disc)
    elif not disc >= 0:  # also catches NaN
        raise OutOfRange(f"x = {x} outside the real interval of family {family}")
    else:
        root = _rational_sqrt(disc) if isinstance(x, Fraction) else None
        if root is None:
            lin, root = float(lin), math.sqrt(disc)
    return (lin + root) / 2, (lin - root) / 2


def _rational_sqrt(f: Fraction) -> Optional[Fraction]:
    """The rational square root of f >= 0, or None when f is not a square."""
    pn, pd = math.isqrt(f.numerator), math.isqrt(f.denominator)
    if pn * pn == f.numerator and pd * pd == f.denominator:
        return Fraction(pn, pd)
    return None


def _theta_params(s: int, cos_t, sin_t, sqrt3):
    x = (2 * cos_t + s) / 3
    y = (s - cos_t) / 3 + sin_t / sqrt3
    return x, y, s - x - y


def _reconstruct_angle(s: int, x, y) -> float:
    """theta mod 2*pi recovered from the first two coefficients; the inverse
    of :func:`_theta_params`."""
    cos_t = (3.0 * complex(x).real - s) / 2.0
    sin_t = math.sqrt(3.0) * (complex(y).real - (s - cos_t) / 3.0)
    return math.atan2(sin_t, cos_t) % _TWO_PI


def coin_from_theta(family: str, theta: float) -> Coin3:
    """One-parameter coin of the given family at angle theta (radians).

    Complex theta is allowed and yields a complex orthogonal coin; the
    parametrization satisfies the ellipse identity for any complex angle.
    A NaN or infinite angle, real or complex, is out of range.
    """
    basis, s = _family(family)
    if not cmath.isfinite(theta):
        raise OutOfRange(f"theta must be finite, got {theta}")
    if isinstance(theta, complex):
        cos_t, sin_t = cmath.cos(theta), cmath.sin(theta)
    else:
        theta = float(theta) % (2.0 * math.pi)
        cos_t, sin_t = math.cos(theta), math.sin(theta)
    x, y, z = _theta_params(s, cos_t, sin_t, math.sqrt(3.0))
    return Coin3(matrix=_layout(basis, x, y, z, complex), family=family)


def coin_from_theta_frac(family: str, frac: Fraction) -> Coin3:
    """Coin at theta = 2*pi*frac, keeping the exact angle fraction attached.

    Carrying the fraction lets the analytic period dispatch skip the
    continued-fraction reclassification of a rounded angle.
    """
    frac = Fraction(frac) % 1
    coin = coin_from_theta(family, 2.0 * math.pi * float(frac))
    return Coin3(matrix=coin.matrix, family=family, theta_frac=frac)


def coin_from_rational(family: str, r: Fraction, sign1: int = 1, sign2: int = 1) -> Coin3:
    """Exact rational coin from the Pell-derived parametrization.

    It is the family's angle parametrization taken at the rational point
        cos(theta) = sign1 * (r^2-3) / (r^2+3),
        sin(theta)/sqrt(3) = -sign1 * sign2 * 2r / (r^2+3),
    which is (1/X, Y/X) for the point (X, Y) = pell_point(r) of
    X^2 - 3Y^2 = 1, up to the signs.  Any rational r works (r^2 = 3 has no
    rational solution); the result is exactly orthogonal.
    """
    s = _family(family)[1]
    if not all(isinstance(sign, numbers.Integral) and sign in (1, -1) for sign in (sign1, sign2)):
        raise OutOfRange("sign1 and sign2 must be +1 or -1")  # 1.0 would make a float coin
    r = Fraction(r)
    cos_t = sign1 * (r * r - 3) / (r * r + 3)
    sin_t_over_sqrt3 = -sign1 * sign2 * 2 * r / (r * r + 3)
    return coin_from_xyz(family, *_theta_params(s, cos_t, sin_t_over_sqrt3, 1))


def pell_point(r: Fraction) -> tuple[Fraction, Fraction]:
    """Rational point (X, Y) with X^2 - 3 Y^2 = 1, parametrized by r."""
    r = Fraction(r)
    den = r * r - 3
    return (r * r + 3) / den, (-2 * r) / den


def grover_type(p: int, negate: bool = False) -> Coin3:
    """(2/3)J - P_p, negated when asked, in exact representation: a shared
    read-only constant of ``SPECIAL_COINS``."""
    if p not in PERM_IMAGES:
        raise OutOfRange(f"permutation index must be 1..6, got {p}")
    return SPECIAL_COINS[(18 if negate else 6) + int(p) - 1]


def _special_coin(p: int, grover: bool, s: int) -> Coin3:
    """The exact coin s*P_p, or s*((2/3)J - P_p) for a Grover-type one, with a
    read-only matrix; its coefficients sum to s."""
    m = exact_matrix([[s * (Fraction(2, 3) - e if grover else e) for e in row]
                      for row in _PERM_01[p].tolist()])
    m.flags.writeable = False
    return Coin3(matrix=m, family=_FAMILY_OF[(CYCLIC if p <= 3 else TRANSPOSITION, s)])


#: the 24 special coins, in blocks of six over P1..P6: P, (2/3)J - P, -P,
#: P - (2/3)J.  Built once; `perm_matrix` and `grover_type` return these
#: objects, so each is converted to floats and classified once per process.
SPECIAL_COINS = tuple(
    _special_coin(p, grover, sign) for sign in (1, -1) for grover in (False, True) for p in range(1, 7)
)
#: the special coins as one float stack, which `classify` compares against
_SPECIAL = np.array([coin.as_float().real for coin in SPECIAL_COINS])


def _linear_sum(coin: Coin3, tol: float) -> tuple[LinearSumCoefficients, Scalar, Scalar]:
    """The one pass `decompose_linear_sum` and `classify` share: the basis and
    coefficients of an orthogonal linear sum of permutations, with x + y + z
    and the determinant.

    An exact coin is read once as the integers M = d*m: M^T M = d^2 I must
    hold exactly, whatever ``tol``, since the rational-coin theorems rest on
    it; rows 2 and 3 are row 1 taken in the index orders of one basis, and
    det(m) = det(M) / d^3.  A float coin is read as nine Python complex
    numbers: ||M^T M - I||_F, the layout compared at ``tol``, and the same
    cofactor det as M's.
    """
    if coin.exact:
        (rows, d), slack = _scaled_integer(coin.matrix), 0
        if not _integer_orthogonal(rows, d):
            raise NotOrthogonal(f"orthogonality defect {orthogonality_defect(coin.matrix):.3e}")
        x, y, z = coin.matrix[0]
        s, det = Fraction(sum(rows[0]), d), Fraction(_integer_det3(rows), d ** 3)
    else:
        flat, slack = coin.as_float().ravel().tolist(), tol
        rows = [flat[:3], flat[3:6], flat[6:]]
        g0, g1, g2, g3, g4, g5 = _gram3(rows)
        # ||M^T M - I||_F over its nine entries; w * conj(w) overflows to inf where abs(w) raises
        defect = math.sqrt(sum((w * w.conjugate()).real for w in (g0 - 1, g1 - 1, g2 - 1, g3, g3, g4, g4, g5, g5)))
        if not defect <= tol:  # also catches NaN/Inf entries
            raise NotOrthogonal(f"orthogonality defect {defect:.3e}")
        x, y, z = rows[0]
        s, det = x + y + z, _integer_det3(rows)
    first = rows[0]
    basis = next((b for b, orders in _ROW_ORDERS.items()
                  if all(abs(rows[i][j] - first[k]) <= slack for i in (1, 2) for j, k in enumerate(orders[i]))),
                 None)
    if basis is None:
        raise NotPermutative("rows are not cyclic shifts of the first row in either basis")
    return LinearSumCoefficients(basis, x, y, z), s, det


def decompose_linear_sum(m, tol: float = DEFAULT_TOL) -> LinearSumCoefficients:
    """Express an orthogonal matrix as x,y,z over one of the two bases.

    Reads (x, y, z) off the first row and checks which row layout the matrix
    matches; a matrix matching neither is orthogonal but not a linear sum of
    permutations.
    """
    return _linear_sum(_as_coin(m), tol)[0]


def _near(a, b, tol) -> bool:
    return abs(complex(a) - complex(b)) <= tol


def classify(m, tol: float = DEFAULT_TOL) -> Classification:
    """Family report for an orthogonal linear sum of permutations.

    An exact coin must be exactly orthogonal; ``tol`` applies to float
    coins.  The family follows from the basis and the sign of x+y+z; the
    determinant is recomputed, at the same tolerance, as a redundant
    cross-check of that assignment.  A real coin (``Coin3.is_real``) is
    compared entry by entry with the 24 special matrices at DEFAULT_TOL.  A
    Coin3 that names a family raises ConstraintViolated when its entries are
    of another.
    """
    coin = _as_coin(m)
    coeffs, s, det = _linear_sum(coin, tol)
    if _near(s, 1, tol):
        sign = 1
    elif _near(s, -1, tol):
        sign = -1
    else:
        raise NotPermutative(f"coefficient sum {s} is not +-1")
    family = _FAMILY_OF[(coeffs.basis, sign)]
    if not _near(det, _FAMILY_DET[family], tol):
        raise InternalInconsistency(
            f"det {det} inconsistent with family {family} (expected {_FAMILY_DET[family]})"
        )
    if coin.family is not None and coin.family != family:
        raise ConstraintViolated(f"coin names family {coin.family} but its entries are family {family}")

    hits = coin.is_real & (np.max(np.abs(coin.as_float().real - _SPECIAL), axis=(1, 2)) <= DEFAULT_TOL)
    return Classification(
        **vars(coeffs),
        family=family,
        is_permutation=bool(hits[:6].any()),
        is_grover_type=bool(hits[6:12].any()),
        theta=_reconstruct_angle(sign, coeffs.x, coeffs.y),
        is_special=bool(hits.any()),
    )


def multiply(a: Coin3, b: Coin3) -> Coin3:
    """Product coin, validated against the closure table.

    Bases compose like parities (cyclic ~ even) and the coefficient-sum
    signs multiply.  The product coin names the expected family, and its
    classification, computed once here and cached, raises ConstraintViolated
    if the product lands on another family.
    """
    (basis_a, s_a), (basis_b, s_b) = (_FAMILY[c.classification.family] for c in (a, b))
    expected_family = _FAMILY_OF[(CYCLIC if basis_a == basis_b else TRANSPOSITION, s_a * s_b)]

    if a.exact and b.exact:
        prod = a.matrix @ b.matrix
    else:
        prod = a.as_float() @ b.as_float()
    coin = Coin3(matrix=prod, family=expected_family)
    coin.classification  # raises if the product is not of the expected family
    return coin


# --- serialization (shared with the CLI) ---------------------------------


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def coin_to_json(coin: Coin3) -> dict:
    """JSON document per the shared coin schema."""
    if coin.exact:
        entries = [[_frac_str(e) for e in row] for row in coin.matrix]
        repr_tag = "exact"
    else:
        if not coin.is_real:
            raise ConstraintViolated("cannot serialize a complex-parameter coin")
        entries = [[float(v) for v in row] for row in coin.as_float().real]
        repr_tag = "float"
    params = None if coin.family is None else dict(zip(("x", "y", "z"), entries[0]))
    return {"repr": repr_tag, "entries": entries, "family": coin.family, "params": params}


def coin_from_json(doc: dict) -> Coin3:
    """Coin of a document per the shared coin schema; ``params`` is not read.
    A named family is checked when the coin is classified, not here; entries
    that are not a 3x3 array of numbers raise ValueError, TypeError or
    ZeroDivisionError."""
    if not isinstance(doc, dict):
        raise TypeError(f"a coin document is a JSON object, got {type(doc).__name__}")
    repr_tag = doc.get("repr")
    entries = doc["entries"]
    if repr_tag == "exact":
        try:
            m = exact_matrix(entries)
        except OverflowError as exc:  # Fraction of an infinite float
            raise ValueError(str(exc)) from exc
    elif repr_tag == "float":
        m = np.array(entries, dtype=complex)
    else:
        raise ConstraintViolated(f"unknown repr tag {repr_tag!r}")
    if m.shape != (3, 3):
        raise ValueError(f"entries must be a 3x3 array, got shape {m.shape}")
    return Coin3(matrix=m, family=doc.get("family"))
