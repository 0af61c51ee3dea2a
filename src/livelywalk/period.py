"""Walk period by analytic dispatch, spectral lcm and block powering.

Three routes to the period T = min{t > 0 : U^t = I}:

* analytic  -- a per-family table of closed forms, applicable when
               a = 0, so that every block's phase e^{-ika} is 1: the
               special angles theta/2pi = k/6 have their own period rule,
               every other rational angle at n = 3 an lcm rule, and all
               remaining coins are proven aperiodic or left undecided.
* spectral  -- every eigenvalue of the momentum blocks l = 0..n//2, from
               one batched eigensolve, has its angle classified as a
               rational multiple of 2*pi by continued fractions; the
               period is the lcm of the multiplicative orders.  The coin
               is real, so block n - l is the complex conjugate of block l
               and has the same orders: the other blocks add nothing.
* bruteforce -- baby-step giant-step powering of the n momentum blocks:
               the baby steps U^1..U^B are built once, and the giant steps
               (U^t0)^dagger, t0 = kB, by doubling, in groups of 1, 1, 2,
               4, .. chunks.  U^t0 is unitary, so at t = t0 + j
               ||U^t - I||_F = ||U^j - (U^t0)^dagger||_F, and the first t
               with distance <= IDENTITY_TOL is the period.  One matrix
               product screens a group: a chunk none of whose distances
               squared, so computed, comes within IDENTITY_TOL^2 plus a
               stated rounding bound holds no period; any other chunk takes
               the exact subtract-and-norm test.  The arbiter: it checks
               every t <= tmax from powers of U alone, without the other
               methods' results.

`cross_validate` runs all applicable methods and flags disagreement.  The
spectral and brute-force routes both start from `walk.block_stack`; the
tests hold brute force to an independent oracle: the dense 3n x 3n
S (C (x) I_n), built as a Kronecker product and powered one step at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Optional

import numpy as np

from . import coins as _coins
from . import walk as _walk
from .errors import GuardExceeded, NotUnitModulus, OutOfRange
from .exactnum import _TWO_PI, DEFAULT_TOL, eig3_unitary

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
#: bytes brute force's baby steps, giant steps and their temporaries may hold
CHUNK_BYTES = 16 * 2**20
#: arrays of chunk size brute force holds: the baby steps U^1..U^B, one step
#: per row, and the window of their differences from a giant step, which
#: reuses the buffer the powers were built in; a group of one giant step,
#: (U^t0)^dagger, is one more power
_CHUNK_COPIES = 2
#: powers each giant step of a larger group holds: its column of the doubling
#: table and of the group's product, and its row of the screened group
_GIANT_COPIES = 3
#: floats each giant step of a group holds besides its column of the (B, g)
#: screen: the screen's per-column temporaries, with room to spare
_SCREEN_TEMPS = 8
#: unit roundoff of float64, for the brute-force screen's rounding bound
_UNIT_ROUNDOFF = 2.0 ** -53


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


def _convergent(x: float, qmax: int) -> Optional[tuple[int, int]]:
    """(p, q) of :func:`classify_fraction`, in lowest terms, or None."""
    x = float(x) % 1.0
    if abs(x) < ANGLE_TOL or abs(x - 1.0) < ANGLE_TOL:
        return 0, 1
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
            return h1, k1
    return None


def classify_fraction(x: float, qmax: int = QMAX_DEFAULT) -> Optional[Fraction]:
    """Best convergent p/q of x mod 1 with q <= qmax, err < ANGLE_TOL and err*q^2 < DECISIVE.

    Returns None when no convergent qualifies.  The decisiveness guard keeps
    convergents of genuinely irrational values (whose error scales like
    1/q^2) from slipping under the absolute tolerance once q is large.
    """
    convergent = _convergent(x, qmax)
    return None if convergent is None else Fraction(*convergent)


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
    convergent = _convergent((math.atan2(lam.imag, lam.real) / _TWO_PI) % 1.0, qmax)
    return None if convergent is None else convergent[1]


def _lcm(values) -> int:
    return reduce(math.lcm, values, 1)


def _check_qmax(qmax: int) -> None:
    if qmax < 1:
        raise OutOfRange(f"denominator bound qmax must be >= 1, got {qmax}")


def period_spectral(spec: _walk.WalkSpec, qmax: int = QMAX_DEFAULT) -> PeriodResult:
    """Period as the lcm of the eigenvalue orders over the momentum blocks.

    Only blocks l = 0..n//2 are solved: `WalkSpec` admits real coins only,
    so block n - l, D_{-k} C = conj(D_k C), is the complex conjugate of
    block l and its eigenvalues, the conjugates of block l's, have the same
    orders; l = 0 and, for even n, l = n/2 are their own conjugates.  When
    some eigenvalue's angle fails to classify as rational, the walk has no
    period up to the reported bound: a period T forces every order to divide
    T, and orders are detected reliably as far as the decisiveness guard
    allows, so the bound is min(qmax, GUARANTEED_ORDER_BOUND).
    """
    _check_qmax(qmax)
    bound = min(qmax, GUARANTEED_ORDER_BOUND)
    orders = []
    for lam in eig3_unitary(_walk.block_stack(spec)[: spec.n // 2 + 1]).flat:
        q = order_of_unit(lam, qmax)
        if q is None:
            return PeriodResult(status="no_period_up_to", method="spectral", bound=bound)
        orders.append(q)
    return PeriodResult(status="finite", method="spectral", period=_lcm(orders))


def _chunk_steps(n: int, tmax: int) -> int:
    """Baby steps per chunk for n blocks and tmax steps: at most CHUNK_STEPS
    and max(1, tmax), with the B powers' _CHUNK_COPIES arrays and one giant
    step, (_CHUNK_COPIES * B + 1) * 144 * n bytes, within CHUNK_BYTES.

    Raises GuardExceeded when not even B = 1 fits: for n > 38,836.
    """
    per_power = n * 9 * np.dtype(complex).itemsize
    fits = (CHUNK_BYTES // per_power - 1) // _CHUNK_COPIES
    if fits < 1:
        raise GuardExceeded(f"one power of the {n} momentum blocks needs "
                            f"{(_CHUNK_COPIES + 1) * per_power} bytes of chunk storage, "
                            f"over the {CHUNK_BYTES}-byte budget")
    return min(CHUNK_STEPS, max(1, tmax), fits)


def _group_steps(n: int, chunk: int) -> int:
    """Most giant steps per group for n blocks and B = chunk baby steps: the
    largest g with the baby steps' _CHUNK_COPIES arrays and g giant steps of
    _GIANT_COPIES powers and B + _SCREEN_TEMPS floats each within
    CHUNK_BYTES, and at least 1: a group of one giant step holds one power
    and a (B, 1) screen, and `_chunk_steps` leaves room for that power.
    """
    per_power = n * 9 * np.dtype(complex).itemsize
    left = CHUNK_BYTES - _CHUNK_COPIES * chunk * per_power
    per_giant = _GIANT_COPIES * per_power + (chunk + _SCREEN_TEMPS) * np.dtype(float).itemsize
    return max(1, left // per_giant)


def _double(table: np.ndarray, done: int, upto: int) -> None:
    """Extend the block-major powers M^1..M^done, in columns of 3 of each
    (n, 3, 3m) block row of `table`, to M^1..M^upto by doubling."""
    while done < upto:  # M^(done+1..done+m) = M^done @ M^(1..m)
        m = min(done, upto - done)
        np.matmul(table[:, :, 3 * done - 3:3 * done], table[:, :, :3 * m],
                  out=table[:, :, 3 * done:3 * (done + m)])
        done += m


def _giant_groups(rows: np.ndarray, giants: np.ndarray, window: np.ndarray, last: int):
    """Yield (k0, group) for the giant steps k = 0..last in groups: the rows
    of `group`, leading rows of `giants`, are (U^(kB))^dagger for k = k0,
    k0 + 1, .., where U^1..U^B are the B baby steps in `rows`.

    The first group is k = 0, the identity.  Every other giant step is
    conj(W^k), where W = (U^B)^T = conj((U^B)^dagger) is a view of the last
    baby step.  A table of W^1..W^d in block-major columns, W itself at
    first, grows by one doubling per group, whose new columns are the group,
    so the groups hold 1, 1, 2, 4, .. steps; once d is len(giants), each
    group of up to that many steps is the product W^(k0 - 1) @ W^(1..g),
    with W^(k0 - 1) in row 0 of `window`.  A group of one step is that
    product, built in its own row.  The table, while it grows, and the
    product after it never hold more than 2 len(giants) steps together.
    """
    if last < 0:
        return
    size, n = len(giants), rows.shape[1] // 9  # the largest group, and the table's last length
    giants.reshape(size, n, 3, 3)[0] = np.eye(3)
    yield 0, giants[:1]
    table = out = rows[-1].reshape(n, 3, 3).transpose(0, 2, 1)  # (U^B)^T, a view
    product = giants[0].reshape(n, 3, 3) if size == 1 else None
    k0, g = 1, 1
    while True:
        np.conjugate(out.reshape(n, 3, g, 3).transpose(2, 0, 1, 3), out=giants[:g].reshape(g, n, 3, 3))
        yield k0, giants[:g]
        k0 += g
        if k0 > last:
            return
        if k0 - 1 < size:  # the table grows by the group
            g = min(k0 - 1, size - k0 + 1)
            grown = np.empty((n, 3, 3 * (k0 - 1 + g)), dtype=complex)
            grown[:, :, :3 * (k0 - 1)] = table
            _double(grown, k0 - 1, k0 - 1 + g)
            table, out = grown, grown[:, :, 3 * (k0 - 1):]
        else:
            step = np.conjugate(giants[g - 1].reshape(n, 3, 3), out=window[0].reshape(n, 3, 3))
            g = min(size, last - k0 + 1)
            if product is None:
                product = np.empty_like(table)
            out = np.matmul(step, table[:, :, :3 * g], out=product[:, :, :3 * g])


def _screen_slack(n: int, r: float, t):
    """Slack of the brute-force screen for powers of n blocks with Frobenius
    norms up to r against (U^t0)^dagger of norm t, a float or an array of
    them: 4 gamma (r + t)^2, where gamma = k u / (1 - k u), k = 18n + 3 and
    u = 2^-53.

    For 18n-float vectors x and y, ||x||^2 - 2 x.y + ||y||^2 evaluated in
    float64 (any summation order, then three more roundings) differs from
    ||x - y||^2 by at most gamma (||x|| + ||y||)^2; the exact chunk test's
    own rounding adds at most gamma ||x - y||^2, and within IDENTITY_TOL
    that is below gamma (r + t)^2.  The factor 4 covers both with room for
    the rounding of r and t themselves.
    """
    k = (18 * n + 3) * _UNIT_ROUNDOFF
    return 4.0 * k / (1.0 - k) * (r + t) ** 2


def _screen(rows_f: np.ndarray, half_norms: np.ndarray, giants_f: np.ndarray,
            n: int, r_max: float) -> list[int]:
    """Indices of the giant steps (U^t0)^dagger, the rows of `giants_f`,
    whose chunk of baby steps U^j, the rows of `rows_f`, can hold a period.

    One product gives every U^j . (U^t0)^dagger; with ||U^j||_F^2 / 2 in
    `half_norms`, ||U^j||^2 - 2 U^j . (U^t0)^dagger + ||(U^t0)^dagger||^2
    is the distance squared up to `_screen_slack`.  A chunk stays in unless
    its least value exceeds IDENTITY_TOL^2 plus that slack, so a NaN keeps it.
    """
    gaps = giants_f @ rows_f.T  # U^j . (U^t0)^dagger, one row per giant step
    # half the distance squared, less ||(U^t0)^dagger||^2 / 2
    np.subtract(half_norms, gaps, out=gaps)
    tt = np.einsum("gi,gi->g", giants_f, giants_f)  # ||(U^t0)^dagger||^2
    lhs = 2.0 * gaps.min(axis=1) + tt
    return np.flatnonzero(~(lhs > IDENTITY_TOL ** 2 + _screen_slack(n, r_max, np.sqrt(tt)))).tolist()


def _first_hit(rows: np.ndarray, target: np.ndarray, window: np.ndarray) -> Optional[int]:
    """Index of the first row within IDENTITY_TOL of (U^t0)^dagger, or None:
    the chunk's differences into `window`, then their norms."""
    np.subtract(rows, target.reshape(-1), out=window)
    re_im = window.view(np.float64)  # per power: 9n entries as re, im
    hits = np.flatnonzero(np.sqrt(np.einsum("bi,bi->b", re_im, re_im)) <= IDENTITY_TOL)
    return int(hits[0]) if hits.size else None


def period_bruteforce(spec: _walk.WalkSpec, tmax: int = TMAX_DEFAULT) -> PeriodResult:
    """First t <= tmax with ||U^t - I||_F <= IDENTITY_TOL, by powering the momentum blocks.

    The Fourier change of basis is unitary, so ||U^t - I||_F^2 is the sum
    over blocks of ||U_l^t - I||_F^2, and U^t0 is unitary, so at t = t0 + j
    that is ||U^j - (U^t0)^dagger||_F^2.  Baby steps and giant steps: the
    powers U^1..U^B of all n blocks are built once by doubling, as the rows
    of one (B, 9n) array, with ||U^j||_F^2 computed once per call; the chunk
    t0 = 0 is screened against I, and only when it holds no period are the
    giant steps (U^t0)^dagger, t0 = kB, built, in groups of 1, 1, 2, 4, ..
    chunks (`_giant_groups`).  One matrix product screens a group
    (`_screen`): a chunk none of whose distances squared, so computed, comes
    within IDENTITY_TOL^2 plus `_screen_slack` holds no period and is
    skipped; any other chunk, in order, takes the exact test, `_first_hit`,
    which subtracts (U^t0)^dagger from every row and takes the B distances
    with one einsum.  So every reported t is the exact test's.  The groups
    stop growing at `_group_steps`, where the baby steps, the giant steps'
    table, product and rows, and the (B, g) screen fill CHUNK_BYTES.
    """
    if tmax < 0:
        raise OutOfRange(f"step bound tmax must be >= 0, got {tmax}")
    n = spec.n
    chunk = _chunk_steps(n, tmax)
    powers = np.empty((n, 3, 3 * chunk), dtype=complex)
    powers[:, :, :3] = _walk.block_stack(spec)
    _double(powers, 1, chunk)
    last = (tmax - 1) // chunk  # the last chunk, t0 = last * B
    # the baby steps U^1..U^B, then the largest group of giant steps
    stack = np.empty((chunk + max(1, min(_group_steps(n, chunk), last)), 9 * n), dtype=complex)
    rows, giants = stack[:chunk], stack[chunk:]
    rows.reshape(chunk, n, 3, 3)[...] = powers.reshape(n, 3, chunk, 3).transpose(2, 0, 1, 3)
    window = powers.reshape(chunk, 9 * n)  # the doubling buffer, reused: rows minus (U^t0)^dagger
    rows_f = rows.view(np.float64)
    half_norms = 0.5 * np.einsum("bi,bi->b", rows_f, rows_f)  # ||U^j||_F^2 / 2
    r_max = math.sqrt(2.0 * half_norms.max())
    for k0, group in _giant_groups(rows, giants, window, last):
        for c in _screen(rows_f, half_norms, group.view(np.float64), n, r_max):
            t0 = (k0 + c) * chunk
            hit = _first_hit(rows, group[c], window)
            if hit is not None and t0 + hit + 1 <= tmax:
                return PeriodResult(status="finite", method="bruteforce", period=t0 + hit + 1)
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


def _contradicts(fin: PeriodResult, other: PeriodResult) -> bool:
    """Whether `other` rules out `fin`'s finite period, by `cross_validate`'s rule."""
    if not fin.finite:
        return False
    if other.finite:
        return other.period != fin.period
    if other.status == "no_period_up_to":
        return fin.period <= other.bound
    return other.status == "proven_infinite"


def cross_validate(spec: _walk.WalkSpec, tmax: int = TMAX_DEFAULT, qmax: int = QMAX_DEFAULT,
                   methods=METHODS) -> CrossValidation:
    """Run the requested methods, in order, and flag any contradiction.

    analytic reads the coin family's closed forms, spectral takes the lcm
    of the eigenvalue orders of the momentum blocks, and bruteforce powers
    those blocks up to tmax; none builds the dense operator.  A finite
    period p is contradicted by a finite period other than p, by
    proven_infinite and by no_period_up_to a bound >= p; not_applicable
    contradicts nothing.  The results agree when none is contradicted.
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
    agreement = not any(_contradicts(a, b) for a, b in itertools.permutations(results, 2))
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
