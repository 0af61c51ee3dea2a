"""Walk period by analytic dispatch, spectral lcm and block powering.

Three routes to the period T = min{t > 0 : U^t = I}:

* analytic  -- a per-family table of closed forms, applicable when n
               divides a*l for every block (a = 0 at desk scale): the
               special angles theta/2pi = k/6 have their own period rule,
               every other rational angle at n = 3 an lcm rule, and all
               remaining coins are proven aperiodic or left undecided.
* spectral  -- every eigenvalue of the momentum-block stack, from one
               batched eigensolve, has its angle classified as a rational
               multiple of 2*pi by continued fractions; the period is the
               lcm of the multiplicative orders.
* bruteforce -- power the n momentum blocks U_l in chunks of many steps
               per numpy call until ||U^t - I||_F <= tol.  The arbiter.

`cross_validate` runs all applicable methods and flags disagreement.  The
spectral and brute-force routes both start from `walk.block_stack`; the
dense 3n x 3n `walk.evolution_operator`, powered one step at a time, is the
independent oracle the tests hold brute force to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from typing import Optional

import numpy as np

from . import coins as _coins
from . import walk as _walk
from .errors import GuardExceeded, NotUnitModulus, OutOfRange
from .exactnum import _TWO_PI, DEFAULT_TOL

TMAX_DEFAULT = 10_000
QMAX_DEFAULT = 1_000_000
#: identity detection threshold for brute force
IDENTITY_TOL = 1e-8
#: |angle/(2*pi) - p/q| acceptance threshold for rational classification
ANGLE_TOL = 1e-11
#: additionally require err * q^2 below this, so large-q convergents that
#: merely shadow an irrational angle are not mistaken for exact rationals
DECISIVE = 1e-3
#: worst-case angle error of the block eigensolver, as a fraction of 2*pi
ANGLE_ACCURACY = 1e-12
#: largest order whose detection the decisiveness guard still guarantees
#: at that accuracy: err * q^2 < DECISIVE holds for all q up to this bound
GUARANTEED_ORDER_BOUND = int(math.sqrt(DECISIVE / ANGLE_ACCURACY))  # 31622
#: most block powers brute force computes and checks per numpy call
CHUNK_STEPS = 128
#: bytes a brute-force chunk of block powers and its temporaries may hold
CHUNK_BYTES = 16 * 2**20
#: arrays of chunk size brute force holds: the powers U^1..U^B and the current window
_CHUNK_COPIES = 2


@dataclass(frozen=True)
class AngleClass:
    """Classification of an angle as 2*pi*(p/q) or irrational up to a bound."""

    value: float
    fraction: Optional[Fraction]
    qmax: int

    @property
    def is_rational(self) -> bool:
        return self.fraction is not None


@dataclass(frozen=True)
class PeriodResult:
    status: str  # "finite" | "no_period_up_to" | "proven_infinite" | "not_applicable"
    method: str  # "analytic" | "spectral" | "bruteforce"
    period: Optional[int] = None
    bound: Optional[int] = None
    theorem: Optional[str] = None

    @property
    def finite(self) -> bool:
        return self.status == "finite"


def classify_fraction(x: float, qmax: int = QMAX_DEFAULT, tol: float = ANGLE_TOL,
                      decisive: float = DECISIVE) -> Optional[Fraction]:
    """Best convergent p/q of x mod 1 with q <= qmax, err < tol and err*q^2 < decisive.

    Returns None when no convergent qualifies.  The decisiveness guard keeps
    convergents of genuinely irrational values (whose error scales like
    1/q^2) from slipping under the absolute tolerance once q is large.
    """
    x = float(x) % 1.0
    if abs(x) < tol or abs(x - 1.0) < tol:
        return Fraction(0)
    h0, k0 = 1, 0
    h1, k1 = 0, 1  # first convergent of a value in (0, 1) is 0/1
    frac = x
    for _ in range(64):
        if frac <= 0:
            break
        y = 1.0 / frac
        a = math.floor(y)
        frac = y - a
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        if k1 > qmax:
            break
        err = abs(x - h1 / k1)
        if err < tol and err * k1 * k1 < decisive:
            return Fraction(h1, k1)
    return None


def classify_angle(value: float, qmax: int = QMAX_DEFAULT) -> AngleClass:
    """Classify a radian angle: rational fraction of 2*pi, or not, up to qmax."""
    return AngleClass(value=value, fraction=classify_fraction(value / _TWO_PI, qmax), qmax=qmax)


def order_of_unit(lam: complex, qmax: int = QMAX_DEFAULT, tol: float = DEFAULT_TOL) -> Optional[int]:
    """Multiplicative order of a unit-modulus complex number, or None.

    arg(lam)/(2*pi) is scanned for a continued-fraction convergent p/q with
    q <= qmax; when one qualifies the order is q (the fraction is already in
    lowest terms).  Raises NotUnitModulus if |lam| strays from 1 by more
    than tol.
    """
    lam = complex(lam)
    if not abs(abs(lam) - 1.0) <= tol:  # also catches NaN
        raise NotUnitModulus(f"|lambda| = {abs(lam)} is not 1 within {tol}")
    frac = classify_fraction((math.atan2(lam.imag, lam.real) / _TWO_PI) % 1.0, qmax)
    if frac is None:
        return None
    return frac.denominator


def _lcm(values) -> int:
    return reduce(math.lcm, values, 1)


def _check_qmax(qmax: int) -> None:
    if qmax < 1:
        raise OutOfRange(f"denominator bound qmax must be >= 1, got {qmax}")


def period_spectral(spec: _walk.WalkSpec, qmax: int = QMAX_DEFAULT) -> PeriodResult:
    """Period as the lcm of the eigenvalue orders over all momentum blocks.

    When some eigenvalue's angle fails to classify as rational, the walk has
    no period up to the reported bound: a period T forces every order to
    divide T, and orders are detected reliably as far as the decisiveness
    guard allows, so the bound is min(qmax, GUARANTEED_ORDER_BOUND).
    """
    _check_qmax(qmax)
    bound = min(qmax, GUARANTEED_ORDER_BOUND)
    orders = []
    for entry in _walk.spectrum(spec):
        q = order_of_unit(entry.value, qmax)
        if q is None:
            return PeriodResult(status="no_period_up_to", method="spectral", bound=bound)
        orders.append(q)
    return PeriodResult(status="finite", method="spectral", period=_lcm(orders))


def _chunk_steps(n: int) -> int:
    """Powers per chunk for n blocks: at most CHUNK_STEPS, within CHUNK_BYTES."""
    per_power = _CHUNK_COPIES * n * 9 * np.dtype(complex).itemsize
    if per_power > CHUNK_BYTES:
        raise GuardExceeded(f"one power of the {n} momentum blocks needs {per_power} bytes "
                            f"of chunk storage, over the {CHUNK_BYTES}-byte budget")
    return min(CHUNK_STEPS, CHUNK_BYTES // per_power)


def period_bruteforce(spec: _walk.WalkSpec, tmax: int = TMAX_DEFAULT,
                      tol: float = IDENTITY_TOL) -> PeriodResult:
    """First t <= tmax with ||U^t - I||_F <= tol, by powering the momentum blocks.

    The Fourier change of basis is unitary, so ||U^t - I||_F^2 is the sum
    over blocks of ||U_l^t - I||_F^2.  The powers U_l^1..U_l^B of all n
    blocks sit side by side in one (n, 3, 3B) array; each further chunk is
    U^t0 times that array, and one einsum gives the B distances to I.
    """
    if tmax < 0:
        raise OutOfRange(f"step bound tmax must be >= 0, got {tmax}")
    n = spec.n
    chunk = _chunk_steps(n)
    powers = np.empty((n, 3, 3 * chunk), dtype=complex)
    powers[:, :, :3] = _walk.block_stack(spec)
    done = 1
    while done < chunk:  # U^(done+1..done+m) = U^done @ U^(1..m)
        m = min(done, chunk - done)
        np.matmul(powers[:, :, 3 * done - 3:3 * done], powers[:, :, :3 * m],
                  out=powers[:, :, 3 * done:3 * (done + m)])
        done += m
    eye = np.tile(np.eye(3), chunk)
    window = powers.copy()  # U^(t0+1..t0+B), then minus I in place
    re_im = window.view(np.float64).reshape(n, 3, chunk, 6)  # per power: 3 entries as re, im
    for t0 in range(0, tmax, chunk):
        if t0:
            np.matmul(last, powers, out=window)
        last = window[:, :, -3:].copy()
        window -= eye
        hits = np.flatnonzero(np.sqrt(np.einsum("lrbc,lrbc->b", re_im, re_im)) <= tol)
        if hits.size and t0 + hits[0] + 1 <= tmax:
            return PeriodResult(status="finite", method="bruteforce", period=int(t0 + hits[0] + 1))
    return PeriodResult(status="no_period_up_to", method="bruteforce", bound=tmax)


# --- analytic dispatch -----------------------------------------------------

def _identity_coin_period(n: int) -> int:
    # lcm of c_l * p_l with 2l/n = m_l/p_l in lowest terms, c_l = 2 for odd m_l
    vals = []
    for l in range(1, n):
        f = Fraction(2 * l, n)
        c = 1 if f.numerator % 2 == 0 else 2
        vals.append(c * f.denominator)
    return _lcm(vals)


def _half_step_period(n: int, doubled: bool) -> int:
    # lcm{2, 2 p_l} with m_l/p_l the lowest-terms form of 2l/n (doubled) or l/n
    vals = [2]
    for l in range(1, n):
        f = Fraction(2 * l, n) if doubled else Fraction(l, n)
        vals.append(2 * f.denominator)
    return _lcm(vals)


_HALF_STEP = partial(_half_step_period, doubled=False)
_HALF_STEP_DOUBLED = partial(_half_step_period, doubled=True)

#: per family: {special theta/2pi: (period rule, theorem)} and the n = 3
#: rational-angle rule (base, mult, scale, offset), giving the period
#: lcm(base, mult * den(scale * theta/2pi + offset)); a rule is a constant
#: or a function of n
_ANALYTIC_TABLE = {
    "X": ({Fraction(0): (_identity_coin_period, "identity-lcm"),
           Fraction(1, 3): (3, "cyclic-permutation"),
           Fraction(2, 3): (3, "cyclic-permutation")},
          (3, 1, 1, Fraction(0))),
    "Z": ({Fraction(0): (_HALF_STEP, "permutation-lcm"),
           Fraction(2, 3): (_HALF_STEP, "permutation-lcm"),
           Fraction(1, 3): (2, "swap-coin")},
          (2, 2, 1, Fraction(-1, 3))),
    "Y": ({Fraction(1, 2): (_HALF_STEP_DOUBLED, "negated-identity-lcm"),
           Fraction(1, 6): (6, "negated-cyclic"),
           Fraction(5, 6): (6, "negated-cyclic")},
          (6, 2, 2, Fraction(0))),
    "W": ({Fraction(1, 2): (_HALF_STEP, "permutation-lcm"),
           Fraction(1, 6): (_HALF_STEP, "permutation-lcm"),
           Fraction(5, 6): (2, "negated-swap")},
          (2, 2, 1, Fraction(1, 6))),
}


def _theta_fraction_of(coin: _coins.Coin3, qmax: int) -> Optional[Fraction]:
    """theta/(2*pi) as an exact fraction, or None when it does not classify.

    The 24 +-permutation and +-Grover-type coins, six per family, sit at the
    special angles k/6; other exact rational coins do not.  A coin is one of
    them when +-coin is within DEFAULT_TOL of such a matrix entry by entry;
    its recovered angle is then within about 3e-10 rad of 2*pi*k/6, so
    rounding to the nearest sixth of a turn gives k exactly.  Any other coin
    uses the fraction attached to it, or the recovered angle goes through
    continued-fraction classification.
    """
    cls = coin.classification
    cos_t, sin_t = _coins._reconstruct_angle(cls.family, cls.x, cls.y)
    theta = math.atan2(sin_t, cos_t) % _TWO_PI
    mf = coin.as_float()
    if cls.is_permutation or cls.is_grover_type or (
        np.max(np.abs(mf.imag)) <= DEFAULT_TOL and any(_coins._special_kind(-mf.real))
    ):
        return Fraction(round(6 * theta / _TWO_PI) % 6, 6)
    if coin.theta_frac is not None:
        return coin.theta_frac % 1
    return classify_fraction(theta / _TWO_PI, qmax)


def _analytic(status: str, theorem: str, period: Optional[int] = None) -> PeriodResult:
    return PeriodResult(status=status, method="analytic", period=period, theorem=theorem)


def period_analytic(spec: _walk.WalkSpec, qmax: int = QMAX_DEFAULT) -> PeriodResult:
    """Closed-form period from the coin family's row of `_ANALYTIC_TABLE`.

    Requires a = 0 (mod n) so the momentum phases e^{-ika} collapse to 1 on
    every block; other liveliness values return not_applicable and are left
    to the spectral and brute-force routes.  A +-permutation or
    +-Grover-type coin is read at its exact angle k/6 (a coin merely near
    k/6 is not); where the family's row lists that angle, its rule holds for
    every n.  Any other coin is aperiodic when n != 3; at n = 3 a rational
    angle takes the family's lcm rule, an exact rational coin is aperiodic
    (cos theta is rational while theta/pi is not), and a floating
    coin whose angle failed to classify stays undecided.
    """
    _check_qmax(qmax)
    n = spec.n
    if spec.a % n != 0:
        return _analytic("not_applicable", "phase-condition-unmet")

    fam = spec.coin.classification.family
    special, (base, mult, scale, offset) = _ANALYTIC_TABLE[fam]
    frac = _theta_fraction_of(spec.coin, qmax)
    prefix = f"{fam.lower()}-family:"
    if frac in special:
        rule, name = special[frac]
        return _analytic("finite", prefix + name, rule if isinstance(rule, int) else rule(n))
    if n != 3:
        return _analytic("proven_infinite", prefix + "aperiodic-off-3cycle")
    if frac is not None:
        period = _lcm([base, mult * (scale * frac + offset).denominator])
        return _analytic("finite", prefix + "n3-rational-angle", period)
    if spec.coin.exact:
        return _analytic("proven_infinite", "rational-coin:aperiodic")
    return _analytic("not_applicable", "angle-unclassified")


# --- cross validation ------------------------------------------------------

METHODS = ("analytic", "spectral", "bruteforce")


@dataclass(frozen=True)
class CrossValidation:
    spec: _walk.WalkSpec
    results: tuple
    agreement: bool


def _pairwise_consistent(a: PeriodResult, b: PeriodResult) -> bool:
    if "not_applicable" in (a.status, b.status):
        return True
    if a.finite and b.finite:
        return a.period == b.period
    for fin, other in ((a, b), (b, a)):
        if fin.finite and other.status == "no_period_up_to":
            if other.bound is not None and fin.period <= other.bound:
                return False
        if fin.finite and other.status == "proven_infinite":
            return False
    return True


def cross_validate(spec: _walk.WalkSpec, tmax: int = TMAX_DEFAULT, qmax: int = QMAX_DEFAULT,
                   methods=METHODS) -> CrossValidation:
    """Run the requested methods and flag any inconsistency between them.

    analytic reads the coin family's closed forms, spectral takes the lcm
    of the eigenvalue orders of the momentum blocks, and bruteforce powers
    those blocks up to tmax.  No method builds the dense operator.
    """
    results = []
    for method in methods:
        if method == "analytic":
            results.append(period_analytic(spec, qmax))
        elif method == "spectral":
            results.append(period_spectral(spec, qmax))
        elif method == "bruteforce":
            results.append(period_bruteforce(spec, tmax))
        else:
            raise ValueError(f"unknown method {method!r}")
    agreement = all(
        _pairwise_consistent(results[i], results[j])
        for i in range(len(results))
        for j in range(i + 1, len(results))
    )
    return CrossValidation(spec=spec, results=tuple(results), agreement=agreement)


def report_json(cv: CrossValidation) -> dict:
    """Period report document per the shared schema."""
    return {
        "n": cv.spec.n,
        "a": cv.spec.a,
        "coin": _coins.coin_to_json(cv.spec.coin),
        "results": [
            {
                "method": r.method,
                "status": r.status,
                "period": r.period,
                "bound": r.bound,
                "theorem": r.theorem,
            }
            for r in cv.results
        ],
        "agreement": cv.agreement,
    }
