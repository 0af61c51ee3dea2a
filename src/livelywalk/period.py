"""Walk period by analytic dispatch, spectral lcm and block powering.

Three routes to the period T = min{t > 0 : U^t = I}:

* analytic  -- a per-family table of closed forms, applicable when
               a = 0, so that every block's phase e^{-ika} is 1: the
               special angles theta/2pi = k/6 have their own period rule,
               every other rational angle at n = 3 an lcm rule, and all
               remaining coins are proven aperiodic or left undecided.
* spectral  -- every eigenvalue of the momentum-block stack, from one
               batched eigensolve, has its angle classified as a rational
               multiple of 2*pi by continued fractions; the period is the
               lcm of the multiplicative orders.
* bruteforce -- build the powers U^1..U^B of the n momentum blocks once,
               then test B steps t = t0 + j per numpy call: U^t0 is unitary,
               so ||U^t - I||_F = ||U^j - (U^t0)^dagger||_F, and the first
               t with distance <= IDENTITY_TOL is the period.  The arbiter:
               it checks every t <= tmax without the other methods' results.

`cross_validate` runs all applicable methods and flags disagreement.  The
spectral and brute-force routes both start from `walk.block_stack`; the
tests hold brute force to an independent oracle: the dense 3n x 3n
S (C (x) I_n), built as a Kronecker product and powered one step at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
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
#: arrays of chunk size brute force holds: the powers U^1..U^B, one step per row,
#: and the window of their differences from (U^t0)^dagger, which reuses the
#: buffer the powers were built in
_CHUNK_COPIES = 2


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


def classify_fraction(x: float, qmax: int = QMAX_DEFAULT) -> Optional[Fraction]:
    """Best convergent p/q of x mod 1 with q <= qmax, err < ANGLE_TOL and err*q^2 < DECISIVE.

    Returns None when no convergent qualifies.  The decisiveness guard keeps
    convergents of genuinely irrational values (whose error scales like
    1/q^2) from slipping under the absolute tolerance once q is large.
    """
    x = float(x) % 1.0
    if abs(x) < ANGLE_TOL or abs(x - 1.0) < ANGLE_TOL:
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
        if err < ANGLE_TOL and err * k1 * k1 < DECISIVE:
            return Fraction(h1, k1)
    return None


def order_of_unit(lam: complex, qmax: int = QMAX_DEFAULT) -> Optional[int]:
    """Multiplicative order of a unit-modulus complex number, or None.

    arg(lam)/(2*pi) is scanned for a continued-fraction convergent p/q with
    q <= qmax; when one qualifies the order is q (the fraction is already in
    lowest terms).  Raises NotUnitModulus if |lam| strays from 1 by more
    than DEFAULT_TOL.
    """
    lam = complex(lam)
    if not abs(abs(lam) - 1.0) <= DEFAULT_TOL:  # also catches NaN
        raise NotUnitModulus(f"|lambda| = {abs(lam)} is not 1 within {DEFAULT_TOL}")
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
    for lam in _walk.spectrum(spec).flat:
        q = order_of_unit(lam, qmax)
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


def period_bruteforce(spec: _walk.WalkSpec, tmax: int = TMAX_DEFAULT) -> PeriodResult:
    """First t <= tmax with ||U^t - I||_F <= IDENTITY_TOL, by powering the momentum blocks.

    The Fourier change of basis is unitary, so ||U^t - I||_F^2 is the sum
    over blocks of ||U_l^t - I||_F^2, and U^t0 is unitary, so at t = t0 + j
    that is ||U^j - (U^t0)^dagger||_F^2.  The powers U^1..U^B of all n blocks
    are built once, as the rows of one (B, 9n) array; each chunk subtracts
    (U^t0)^dagger from every row, one einsum gives the B distances, and one
    product of 3x3 blocks advances t0 by B.
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
    rows = powers.reshape(n, 3, chunk, 3).transpose(2, 0, 1, 3).copy().reshape(chunk, 9 * n)
    window = powers.reshape(chunk, 9 * n)  # the doubling buffer, reused: rows minus (U^t0)^dagger
    re_im = window.view(np.float64)  # per power: 9n entries as re, im
    u_chunk_t = rows[-1].reshape(n, 3, 3).transpose(0, 2, 1)  # (U^B)^T
    target = np.broadcast_to(np.eye(3, dtype=complex), (n, 3, 3)).copy()  # (U^t0)^dagger
    for t0 in range(0, tmax, chunk):
        if t0:  # (U^(t0+B))^dagger = conj((U^B)^T conj((U^t0)^dagger)), with window row 0 as scratch
            scratch = np.conjugate(target, out=window[0].reshape(n, 3, 3))
            np.conjugate(np.matmul(u_chunk_t, scratch, out=target), out=target)
        np.subtract(rows, target.reshape(-1), out=window)
        hits = np.flatnonzero(np.sqrt(np.einsum("bi,bi->b", re_im, re_im)) <= IDENTITY_TOL)
        if hits.size and t0 + hits[0] + 1 <= tmax:
            return PeriodResult(status="finite", method="bruteforce", period=int(t0 + hits[0] + 1))
    return PeriodResult(status="no_period_up_to", method="bruteforce", bound=tmax)


# --- analytic dispatch -----------------------------------------------------

#: per family: {special theta/2pi: (period rule, theorem)} and the n = 3
#: rational-angle rule (base, mult, scale, offset), giving the period
#: lcm(base, mult * den(scale * theta/2pi + offset)); a rule is a constant
#: or a function of n.  The three rules in n are lcms over the blocks
#: l = 1..n-1, with m_l/p_l in lowest terms, in closed form:
#:   identity-lcm          lcm of c_l * p_l, 2l/n = m_l/p_l, c_l = 2 for odd m_l  = n
#:   permutation-lcm       lcm{2, 2 p_l}, l/n = m_l/p_l                          = 2n
#:   negated-identity-lcm  lcm{2, 2 p_l}, 2l/n = m_l/p_l                         = lcm(2, n)
_ANALYTIC_TABLE = {
    "X": ({Fraction(0): (lambda n: n, "identity-lcm"),
           Fraction(1, 3): (3, "cyclic-permutation"),
           Fraction(2, 3): (3, "cyclic-permutation")},
          (3, 1, 1, Fraction(0))),
    "Z": ({Fraction(0): (lambda n: 2 * n, "permutation-lcm"),
           Fraction(2, 3): (lambda n: 2 * n, "permutation-lcm"),
           Fraction(1, 3): (2, "swap-coin")},
          (2, 2, 1, Fraction(-1, 3))),
    "Y": ({Fraction(1, 2): (lambda n: math.lcm(2, n), "negated-identity-lcm"),
           Fraction(1, 6): (6, "negated-cyclic"),
           Fraction(5, 6): (6, "negated-cyclic")},
          (6, 2, 2, Fraction(0))),
    "W": ({Fraction(1, 2): (lambda n: 2 * n, "permutation-lcm"),
           Fraction(1, 6): (lambda n: 2 * n, "permutation-lcm"),
           Fraction(5, 6): (2, "negated-swap")},
          (2, 2, 1, Fraction(1, 6))),
}


def _theta_fraction_of(coin: _coins.Coin3, qmax: int) -> Optional[Fraction]:
    """theta/(2*pi) as an exact fraction, or None when it does not classify.

    The 24 +-permutation and +-Grover-type coins, six per family, sit at the
    special angles k/6; other exact rational coins do not.  A coin is one of
    them (``is_special``) when +-coin is within DEFAULT_TOL of such a matrix
    entry by entry; its recovered angle is then within about 3e-10 rad of
    2*pi*k/6, so rounding to the nearest sixth of a turn gives k exactly.
    Any other coin uses the fraction attached to it, or the recovered angle
    goes through continued-fraction classification.
    """
    cls = coin.classification
    if cls.is_special:
        return Fraction(round(6 * cls.theta / _TWO_PI) % 6, 6)
    if coin.theta_frac is not None:
        return coin.theta_frac % 1
    return classify_fraction(cls.theta / _TWO_PI, qmax)


def _analytic(status: str, theorem: str, period: Optional[int] = None) -> PeriodResult:
    return PeriodResult(status=status, method="analytic", period=period, theorem=theorem)


def period_analytic(spec: _walk.WalkSpec, qmax: int = QMAX_DEFAULT) -> PeriodResult:
    """Closed-form period from the coin family's row of `_ANALYTIC_TABLE`.

    Requires a = 0 so the momentum phases e^{-ika} collapse to 1 on every
    block (`WalkSpec` keeps 0 <= a < n, so that is n | a); other
    liveliness values return not_applicable and are left to the spectral
    and brute-force routes.  A +-permutation or
    +-Grover-type coin is read at its exact angle k/6 (a coin merely near
    k/6 is not); where the family's row lists that angle, its rule holds for
    every n.  Any other coin is aperiodic when n != 3; at n = 3 a rational
    angle takes the family's lcm rule, an exact rational coin is aperiodic
    (cos theta is rational while theta/pi is not), and a floating
    coin whose angle failed to classify stays undecided.
    """
    _check_qmax(qmax)
    n = spec.n
    if spec.a != 0:
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
