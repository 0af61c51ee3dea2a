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
               A sweep solves its specs in CHUNK_BYTES batches, a lone one alone.
* bruteforce -- baby-step giant-step powering of the momentum blocks
               l = 0..n//2, each of the others counted by its conjugate:
               the baby steps U^1..U^B are built once, and the giant steps
               (U^t0)^dagger, t0 = kB, by doubling, in groups.  One rule
               sets the schedule: the caller passes the least period p no
               other method rules out, 1 when nothing is known, and the
               first group, led by the identity, reaches p's chunk, or
               every chunk at p > tmax; later groups hold at least
               GROUP_FLOOR_BYTES of steps and double.  When the least
               power of two b0 >= p is 2..B/2, U^1..U^b0 are built and
               tested before any group.  U^t0 is unitary, so at
               t = t0 + j ||U^t - I||_F equals ||U^j - (U^t0)^dagger||_F,
               and the first t with distance <= IDENTITY_TOL is the period.
               One matrix product screens a group: a chunk none of whose
               distances squared, so computed, comes within IDENTITY_TOL^2
               plus a stated rounding bound, one per group, holds no
               period; any other chunk takes the exact test.  The arbiter:
               it checks every t <= tmax from powers of U alone.  Its
               schedule follows the other methods' results, its result
               does not: every t is still tested, in order.

`cross_validate` runs all applicable methods and flags disagreement.  The
spectral and brute-force routes both start from `_half_stack`, the blocks
l = 0..n//2 of `walk.block_stack`; the tests hold brute force to an
independent oracle: the dense 3n x 3n S (C (x) I_n), built as a Kronecker
product and powered one step at a time.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import coins as _coins
from . import walk as _walk
from .errors import GuardExceeded, NotUnitModulus
from .exactnum import _TWO_PI, DEFAULT_TOL, _not_unitary, _solve_unitary

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
#: bytes brute force's baby steps, giant steps and temporaries, or one sweep batch's stacks, may hold
CHUNK_BYTES = 16 * 2**20
#: bytes of one momentum block, a 3x3 complex128 array
_BLOCK_BYTES = 9 * np.dtype(complex).itemsize
#: least bytes of giant steps each brute-force group after the first
#: holds: 18, 14 and 11 steps at n = 3, 4 and 5, one from n = 29 on.  At
#: small n a group screen's fixed cost outweighs its GEMM, so a scan to
#: tmax 10,000 from the identity alone takes four group screens, not eight;
#: each extra step costs a walk whose period falls in the second chunk one
#: more doubling, and 16 KiB, two steps at n = 38..56, made such walks 3-6%
#: slower at n = 50
GROUP_FLOOR_BYTES = 8 * 2**10
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
    """(p, q) of :func:`classify_fraction`, in lowest terms, or None; the caller checks qmax."""
    x = float(x) % 1.0
    if abs(x) < ANGLE_TOL or abs(x - 1.0) < ANGLE_TOL:
        return 0, 1
    h0, k0 = 1, 0
    h1, k1 = 0, 1  # first convergent of a value in (0, 1) is 0/1
    frac = x
    for _ in range(64):
        if not frac > 0:  # also catches NaN, which a non-finite x leaves
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
    Raises OutOfRange for qmax < 1.
    """
    _check_qmax(qmax)
    convergent = _convergent(x, qmax)
    return None if convergent is None else Fraction(*convergent)


def order_of_unit(lam: complex, qmax: int = QMAX_DEFAULT) -> Optional[int]:
    """Multiplicative order of a unit-modulus complex number, or None.

    arg(lam)/(2*pi) is scanned for a continued-fraction convergent p/q with
    q <= qmax; when one qualifies the order is q (the fraction is already in
    lowest terms).  Raises NotUnitModulus if |lam| strays from 1 by more
    than DEFAULT_TOL, and OutOfRange for qmax < 1.
    """
    return _unit_order(complex(lam), qmax, qmax_checked=False)


def _unit_order(lam: complex, qmax: int, qmax_checked: bool = True) -> Optional[int]:
    """`order_of_unit` of a Python complex; qmax is checked, after |lam|, unless qmax_checked."""
    if not abs(abs(lam) - 1.0) <= DEFAULT_TOL:  # also catches NaN
        raise NotUnitModulus(f"|lambda| = {abs(lam)} is not 1 within {DEFAULT_TOL}")
    if not qmax_checked:
        _check_qmax(qmax)
    convergent = _convergent((math.atan2(lam.imag, lam.real) / _TWO_PI) % 1.0, qmax)
    return None if convergent is None else convergent[1]


_check_qmax = functools.partial(_walk._index, what="denominator bound qmax", least=1)
_check_tmax = functools.partial(_walk._index, what="step bound tmax", least=0)


def _half_rows(n: int) -> int:
    """How many blocks, l = 0..n//2, `period_spectral` solves for n vertices."""
    return n // 2 + 1


def _half_stack(spec: _walk.WalkSpec) -> np.ndarray:
    """The blocks l = 0..n//2 that `period_spectral` solves and `period_bruteforce` powers."""
    return _walk.block_stack(spec, _half_rows(spec.n))


def _paired(n: int) -> slice:
    """The floats, 18 per block, of the blocks 0 < l < n/2 among the blocks
    l = 0..n//2: each stands for block n - l too, its conjugate."""
    return slice(18, 18 * ((n + 1) // 2))


def _pair_weights(n: int) -> np.ndarray:
    """How often brute force counts each float of the blocks l = 0..n//2
    in a squared distance: twice in `_paired(n)`, once for block 0 and,
    for even n, block n/2, their own conjugates."""
    weights = np.ones(18 * _half_rows(n))
    weights[_paired(n)] = 2.0
    return weights


def _certified_stacks(specs) -> list:
    """The `_half_stack` of each spec, built and then certified by its coin:
    NotUnitary, with the eigensolver's message, unless every coin's
    `Coin3.unitarity_defect` is within DEFAULT_TOL.  Each block's defect is
    its coin's up to the rounding `exactnum._unitarity_defect` bounds."""
    stacks = [_half_stack(spec) for spec in specs]
    defects = [spec.coin.unitarity_defect for spec in specs]
    if not all(d <= DEFAULT_TOL for d in defects):  # a NaN defect fails too
        raise _not_unitary(defects)
    return stacks


def _block_eigenvalues(stacks) -> list:
    """`_solve_unitary` of each certified block stack, unsorted, by one call
    on their concatenation: the same bits as a call per stack, since each
    block is solved alone."""
    lams, ends = _solve_unitary(np.concatenate(stacks)), itertools.accumulate(map(len, stacks))
    return [lams[end - len(stack):end] for stack, end in zip(stacks, ends)]


def _spectra(specs):
    """Yield each spec's blocks l = 0..n//2's eigenvalues, or None, in order.  A batch closes when
    the next spec's `_half_rows` blocks of _BLOCK_BYTES, sized from n alone, do not fit beside it in
    CHUNK_BYTES, or the specs end; one `_block_eigenvalues` call solves a batch of two or more.  A
    lone spec yields None: `period_spectral` solves it, past numpy's limit too, in `_guarded`."""
    batch, size = [], 0
    for spec in [*specs, None]:  # None, larger than CHUNK_BYTES, closes the last batch
        nbytes = CHUNK_BYTES + 1 if spec is None else _half_rows(spec.n) * _BLOCK_BYTES
        if batch and size + nbytes > CHUNK_BYTES:
            yield from [None] if len(batch) == 1 else _block_eigenvalues(_certified_stacks(batch))
            batch, size = [], 0
        batch.append(spec)
        size += nbytes


def period_spectral(spec: _walk.WalkSpec, qmax: int = QMAX_DEFAULT, eigenvalues=None) -> PeriodResult:
    """Period as the lcm of the eigenvalue orders over the momentum blocks.

    Only blocks l = 0..n//2 are solved: `WalkSpec` admits real coins only,
    so block n - l, D_{-k} C = conj(D_k C), is the complex conjugate of
    block l and its eigenvalues, the conjugates of block l's, have the same
    orders; l = 0 and, for even n, l = n/2 are their own conjugates.  When
    some eigenvalue's angle fails to classify as rational, the walk has no
    period up to the reported bound: a period T forces every order to divide
    T, and orders are detected reliably as far as the decisiveness guard
    allows, so the bound is min(qmax, GUARANTEED_ORDER_BOUND).  qmax is
    checked once, and each eigenvalue's order is read as in `order_of_unit`:
    its modulus checked, its angle taken by math.atan2.  The result does not
    depend on the eigenvalues' order: the lcm is symmetric, and any one that
    fails to classify gives the same no_period_up_to; so they come unsorted,
    from `exactnum._solve_unitary`, which checks no block: the coin is
    certified unitary within DEFAULT_TOL once, and NotUnitary raised when it
    is not (`_certified_stacks`), since each block D_l C, D_l a diagonal of
    unit phases, has the coin's defect up to rounding.  `eigenvalues` are
    the blocks' when a sweep's batch solved them; by default, as for a
    sweep's lone spec, one call here.
    """
    bound = min(_check_qmax(qmax), GUARANTEED_ORDER_BOUND)
    if eigenvalues is None:
        (stack,) = _certified_stacks([spec])
        eigenvalues = _solve_unitary(stack)
    orders = []
    for lam in eigenvalues.ravel().tolist():
        q = _unit_order(lam, qmax)
        if q is None:
            return PeriodResult(status="no_period_up_to", method="spectral", bound=bound)
        orders.append(q)
    return PeriodResult(status="finite", method="spectral", period=math.lcm(*orders))


def _plan(n: int, tmax: int) -> tuple[int, int]:
    """Brute force's sizes for n blocks and tmax steps: B baby steps per
    chunk and G giant steps in the largest group.

    B is at most CHUNK_STEPS and max(1, tmax), with the B powers'
    _CHUNK_COPIES arrays and one giant step, (_CHUNK_COPIES * B + 1) * 144 * n
    bytes, within CHUNK_BYTES; GuardExceeded when not even B = 1 fits: for
    n > 38,836.  G is the largest g with those arrays and g giant steps of
    _GIANT_COPIES powers and B + _SCREEN_TEMPS floats each within
    CHUNK_BYTES, at most the (tmax - 1) // B + 1 giant steps of the chunks
    t0 = kB < tmax, the identity at t0 = 0 included, and at least 1: a
    group of one giant step holds the one power B leaves room for and a
    (B, 1) screen.  Every group `_giant_groups` yields is at most G steps,
    the identity's row counted in the first, so it fits too.  The sizes
    count powers of all n blocks; brute force powers n//2 + 1 of them, so
    its powers take (n//2 + 1)/n of the room given to them, about half at
    large n and all of it at n = 2, where the half stack is both blocks.
    """
    per_power = n * _BLOCK_BYTES
    fits = (CHUNK_BYTES // per_power - 1) // _CHUNK_COPIES
    if fits < 1:
        raise GuardExceeded(f"one power of the {n} momentum blocks needs "
                            f"{(_CHUNK_COPIES + 1) * per_power} bytes of chunk storage, "
                            f"over the {CHUNK_BYTES}-byte budget")
    chunk = min(CHUNK_STEPS, max(1, tmax), fits)
    per_giant = _GIANT_COPIES * per_power + (chunk + _SCREEN_TEMPS) * np.dtype(float).itemsize
    group = (CHUNK_BYTES - _CHUNK_COPIES * chunk * per_power) // per_giant
    return chunk, max(1, min(group, (tmax - 1) // chunk + 1))


def _grow(table: np.ndarray, upto: int) -> np.ndarray:
    """The block-major powers M^1..M^d, in columns of 3 of each (n, 3, 3d)
    block row of `table`, doubled up to M^1..M^upto in a new array; `table`
    itself when d >= upto."""
    done = table.shape[2] // 3
    if done >= upto:
        return table
    grown = np.empty((len(table), 3, 3 * upto), dtype=complex)
    grown[:, :, :3 * done] = table
    while done < upto:  # M^(done+1..done+m) = M^done @ M^(1..m)
        m = min(done, upto - done)
        np.matmul(grown[:, :, 3 * done - 3:3 * done], grown[:, :, :3 * m],
                  out=grown[:, :, 3 * done:3 * (done + m)])
        done += m
    return grown


def _giant_groups(rows: np.ndarray, giants: np.ndarray, window: np.ndarray, last: int, first: int, n: int):
    """Yield (k0, group) for the giant steps k = 0..last in groups: the rows
    of `group`, leading rows of `giants`, are (U^(kB))^dagger for k = k0,
    k0 + 1, .., where U^1..U^B are the B baby steps in `rows`.

    The first group is k = 0..first - 1, first at most len(giants): the
    identity, in row 0, then conj(W^k) for every later k, where
    W = (U^B)^T = conj((U^B)^dagger) is a view of the last baby step.
    `_grow` doubles W into a table of W^1..W^d in block-major columns, at
    first to W^first but at most G = min(len(giants), last), so that a
    first group of G steps leaves it full.  While the table is short of G,
    each later group is its new columns as it grows by max(F, k0 - 1)
    steps, F as many powers of all n blocks as GROUP_FLOOR_BYTES holds, as
    `_plan` sizes them, but at least 1, to G at
    most; once it is G, each group of up to G steps is the product
    W^(k0 - 1) @ W^(1..g), with W^(k0 - 1) in row 0 of `window`, up to
    k = last.  So from the identity alone the groups hold 1, F, F, 2F, 4F,
    .. steps.  A group of one step is that product, built in its own row.
    The table, while it grows, and the product after it never hold more
    than 2 len(giants) steps together.
    """
    size, blocks = min(len(giants), last), rows.shape[1] // 9
    floor = max(1, GROUP_FLOOR_BYTES // (n * _BLOCK_BYTES))
    giants.reshape(len(giants), blocks, 3, 3)[0] = np.eye(3)
    table = _grow(rows[-1].reshape(blocks, 3, 3).transpose(0, 2, 1), min(size, first))  # from (U^B)^T, a view
    product = giants[0].reshape(blocks, 3, 3) if size == 1 else None
    k0, group, out = 0, giants[:first], table[:, :, :3 * (first - 1)]
    while True:
        g = out.shape[2] // 3  # the group's last g rows, all but the identity's in the first group
        np.conjugate(out.reshape(blocks, 3, g, 3).transpose(2, 0, 1, 3),
                     out=group[len(group) - g:].reshape(g, blocks, 3, 3))
        yield k0, group
        k0 += len(group)
        if k0 > last:
            return
        if table.shape[2] // 3 < size:  # the table, W^1..W^(k0 - 1) or one more, grows by the group
            g = min(max(floor, k0 - 1), size - k0 + 1)
            table = _grow(table, k0 - 1 + g)
            out = table[:, :, 3 * (k0 - 1):3 * (k0 - 1 + g)]
        else:
            step = np.conjugate(group[-1].reshape(blocks, 3, 3), out=window[0].reshape(blocks, 3, 3))
            g = min(size, last - k0 + 1)
            if product is None:
                product = np.empty_like(table)
            out = np.matmul(step, table[:, :, :3 * g], out=product[:, :, :3 * g])
        group = giants[:g]


def _screen_slack(n: int, r: float, t: float) -> float:
    """Slack of the brute-force screen for powers of n blocks with Frobenius
    norms up to r against (U^t0)^dagger of norm up to t: 4 gamma (r + t)^2,
    where gamma = k u / (1 - k u), k = 18n + 3 and u = 2^-53.

    For 18n-float vectors x and y, ||x||^2 - 2 x.y + ||y||^2 evaluated in
    float64 (any summation order, then three more roundings) differs from
    ||x - y||^2 by at most gamma (||x|| + ||y||)^2; the exact chunk test's
    own rounding adds at most gamma ||x - y||^2, and within IDENTITY_TOL
    that is below gamma (r + t)^2.  The factor 4 covers both with room for
    the rounding of r and t themselves.  Brute force sums over the blocks
    l = 0..n//2 only and counts each float of a block 0 < l < n/2 twice,
    by a weight of 2, which scales a term exactly, or by a second sum of
    its terms: either way each sum adds the 18n-term sum's terms, the
    conjugate blocks' equal to their pairs', in some order, at most 18n
    terms of the same norms, and the same slack bounds it.
    """
    k = (18 * n + 3) * _UNIT_ROUNDOFF
    return 4.0 * k / (1.0 - k) * (r + t) ** 2


def _screen(rows_f: np.ndarray, half_norms: np.ndarray, giants_f: np.ndarray,
            n: int, r_max: float, paired: slice = slice(0), weights=None) -> list[int]:
    """Indices of the giant steps (U^t0)^dagger, the rows of `giants_f`,
    whose chunk of baby steps U^j, the rows of `rows_f`, can hold a period.

    One product gives every U^j . (U^t0)^dagger; with ||U^j||_F^2 / 2 in
    `half_norms`, ||U^j||^2 - 2 U^j . (U^t0)^dagger + ||(U^t0)^dagger||^2
    is the distance squared up to `_screen_slack`.  One slack serves the
    group, taken at its largest ||(U^t0)^dagger||, so it is never below a
    giant step's own.  A chunk stays in unless its least value exceeds
    IDENTITY_TOL^2 plus that slack, so a NaN keeps it.  Every sum counts
    the floats in `paired`, none by default, twice, as `half_norms` must:
    for the product they are doubled in `giants_f` and halved back, both
    exact, so no copy of the group is made, and ||(U^t0)^dagger||^2 takes
    them by `weights`, 2 in `paired` and 1 elsewhere as `_pair_weights`
    gives them, or built so from `paired` when not given.
    """
    if weights is None:
        weights = np.ones(giants_f.shape[1])
        weights[paired] = 2.0
    tt = np.einsum("gi,gi,i->g", giants_f, giants_f, weights)  # ||(U^t0)^dagger||^2
    twice = giants_f[:, paired]
    twice *= 2.0
    gaps = giants_f @ rows_f.T  # U^j . (U^t0)^dagger, one row per giant step
    twice *= 0.5
    # half the distance squared, less ||(U^t0)^dagger||^2 / 2
    np.subtract(half_norms, gaps, out=gaps)
    lhs = 2.0 * gaps.min(axis=1) + tt
    limit = IDENTITY_TOL ** 2 + _screen_slack(n, r_max, math.sqrt(tt.max()))
    if lhs.min() > limit:  # every chunk is far; a NaN reads as near
        return []
    return np.flatnonzero(~(lhs > limit)).tolist()


def _first_hit(rows: np.ndarray, target: np.ndarray, window: np.ndarray,
               weights: np.ndarray) -> Optional[int]:
    """Index of the first row within IDENTITY_TOL of (U^t0)^dagger, or None:
    the chunk's differences into `window`, squared there, then their norms,
    each float counted as often as `weights` says."""
    np.subtract(rows, target.reshape(-1), out=window)
    re_im = window.view(np.float64)  # per power: 9 entries per block as re, im
    squares = np.square(re_im, out=re_im)
    hits = np.flatnonzero(np.sqrt(squares @ weights) <= IDENTITY_TOL)
    return int(hits[0]) if hits.size else None


def _first_hit_of_identity(table: np.ndarray, weights: np.ndarray) -> Optional[int]:
    """`_first_hit` of the block-major powers M^1..M^d of `table` against I,
    on their rows as `period_bruteforce` lays them out, which are also the
    window."""
    blocks, d = len(table), table.shape[2] // 3
    rows = table.reshape(blocks, 3, d, 3).transpose(2, 0, 1, 3).copy().reshape(d, 9 * blocks)
    return _first_hit(rows, np.broadcast_to(np.eye(3), (blocks, 3, 3)), rows, weights)


def period_bruteforce(spec: _walk.WalkSpec, tmax: int = TMAX_DEFAULT, expected: int = 1) -> PeriodResult:
    """First t <= tmax with ||U^t - I||_F <= IDENTITY_TOL, by powering the momentum blocks.

    The Fourier change of basis is unitary, so ||U^t - I||_F^2 is the sum
    over blocks of ||U_l^t - I||_F^2, and U^t0 is unitary, so at t = t0 + j
    that is ||U^j - (U^t0)^dagger||_F^2.  Only the blocks l = 0..n//2 are
    powered, as by `period_spectral`: the coin is real, so block n - l is
    the complex conjugate of block l, and so are its powers, at the same
    distance.  Every sum counts each block l with 0 < l < n/2 twice, for
    itself and block n - l, and blocks 0 and n/2 once (`_pair_weights`).
    Baby steps and giant steps: the powers U^1..U^B of those n//2 + 1
    blocks are built once by `_grow`, as the rows of one (B, 9(n//2 + 1))
    array, with ||U^j||_F^2 computed once per call, and the giant steps
    (U^t0)^dagger, t0 = kB, in groups (`_giant_groups`).
    `expected`, an integer >= 1 (OutOfRange otherwise), is the least period
    no other method rules out, 1 when nothing is known, and moves only the
    schedule: the first group, led by the identity, reaches its chunk, as
    far as `_plan`'s G allows, and past tmax every chunk.  When the least
    power of two b0 >= expected is 2..B/2, `_grow` first builds U^1..U^b0
    alone, by the doubling steps it takes on the way to B, so every power
    has the same bits, and the exact test runs on t = 1..b0; with no hit
    the table grows on to B and the scan goes on.  One matrix product
    screens a group (`_screen`): a chunk none of whose distances squared,
    so computed, comes within IDENTITY_TOL^2 plus the group's
    `_screen_slack` holds no period and is skipped; any other chunk, in
    order, takes the exact test, `_first_hit`, which subtracts
    (U^t0)^dagger from every row and takes the B distances with one
    matrix-vector product.  So every reported t is the exact test's.  Every
    group is at most G steps, where the baby steps, the giant steps' table,
    product and rows, and the (B, g) screen fit in CHUNK_BYTES (`_plan`).
    """
    tmax, expected, n = _check_tmax(tmax), _walk._index(expected, "expected period", least=1), spec.n
    chunk, group_max = _plan(n, tmax)
    powers, weights = _half_stack(spec), _pair_weights(n)
    blocks = len(powers)
    head = 1 << (expected - 1).bit_length()  # b0, the powers tested first
    if 1 < head <= chunk // 2:
        powers = _grow(powers, head)
        hit = _first_hit_of_identity(powers, weights)
        if hit is not None:
            return PeriodResult(status="finite", method="bruteforce", period=hit + 1)
    powers = _grow(powers, chunk)
    last = (tmax - 1) // chunk  # the last chunk, t0 = last * B
    # the baby steps U^1..U^B, then the largest group of giant steps
    stack = np.empty((chunk + group_max, 9 * blocks), dtype=complex)
    rows, giants = stack[:chunk], stack[chunk:]
    rows.reshape(chunk, blocks, 3, 3)[...] = powers.reshape(blocks, 3, chunk, 3).transpose(2, 0, 1, 3)
    window = powers.reshape(chunk, 9 * blocks)  # the doubling buffer, reused: rows minus (U^t0)^dagger
    rows_f = rows.view(np.float64)
    half_norms = 0.5 * (np.square(rows_f, out=window.view(np.float64)) @ weights)  # ||U^j||_F^2 / 2
    r_max = math.sqrt(2.0 * half_norms.max())
    first = min((expected - 1) // chunk + 1, group_max)  # the chunks through the expected period's
    for k0, group in _giant_groups(rows, giants, window, last, first, n):
        for c in _screen(rows_f, half_norms, group.view(np.float64), n, r_max, _paired(n), weights):
            t0 = (k0 + c) * chunk
            hit = _first_hit(rows, group[c], window, weights)
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
        period = math.lcm(base, mult * (scale * frac + offset).denominator)
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


def _least_open(result: PeriodResult) -> float:
    """The least period t that `result` leaves open: its period, bound + 1,
    math.inf for proven_infinite and 1 for not_applicable."""
    if result.finite:
        return result.period
    if result.status == "no_period_up_to":
        return result.bound + 1
    return math.inf if result.status == "proven_infinite" else 1


def _contradicts(fin: PeriodResult, other: PeriodResult) -> bool:
    """Whether `other` rules out `fin`'s finite period, by `cross_validate`'s rule."""
    return fin.finite and (fin.period < _least_open(other) or other.finite and other.period != fin.period)


def _guarded(method: str, run) -> PeriodResult:
    """run(), or not_applicable by guard-exceeded when it raises GuardExceeded."""
    try:
        return run()
    except GuardExceeded:
        return PeriodResult(status="not_applicable", method=method, theorem="guard-exceeded")


def _check_bounds(methods, tmax: int, qmax: int) -> None:
    """OutOfRange for tmax if bruteforce is among `methods`, then for qmax if
    analytic or spectral is."""
    if "bruteforce" in methods:
        _check_tmax(tmax)
    if {"analytic", "spectral"} & set(methods):
        _check_qmax(qmax)


def cross_validate(spec: _walk.WalkSpec, tmax: int = TMAX_DEFAULT, qmax: int = QMAX_DEFAULT,
                   methods=METHODS, eigenvalues=None) -> CrossValidation:
    """Run the requested methods, in order, and flag any contradiction;
    ValueError, before any method runs, for a name not in METHODS, and
    OutOfRange, also before any runs, for a tmax that is not an integer >= 0
    with bruteforce asked for, then for a qmax that is not an integer >= 1
    with analytic or spectral asked for.

    analytic reads the coin family's closed forms, spectral takes the lcm
    of the eigenvalue orders of the momentum blocks, and bruteforce powers
    those blocks up to tmax; none builds the dense operator.  Each result
    leaves open the periods from `_least_open` on, and bruteforce expects
    the least period the results before its own all leave open, at most
    tmax + 1: its first giant-step group reaches that period's chunk, and
    its result is the same.  A finite period p is contradicted by a finite
    period other than p and by any result that leaves no period <= p open;
    not_applicable, which leaves every period open, contradicts nothing.
    The results agree when none is contradicted.  A method whose arrays would
    pass a size guard (GuardExceeded: brute force at n > 38,836) reports
    not_applicable with theorem guard-exceeded, and the other methods'
    results stand; `eigenvalues` goes to `period_spectral`.
    """
    results = []
    run = {"analytic": lambda: period_analytic(spec, qmax),
           "spectral": lambda: period_spectral(spec, qmax, eigenvalues),
           "bruteforce": lambda: period_bruteforce(
               spec, tmax, min(tmax + 1, max(map(_least_open, results), default=1)))}
    methods = tuple(methods)
    for method in methods:
        if method not in run:
            raise ValueError(f"unknown method {method!r}")
    _check_bounds(methods, tmax, qmax)
    for method in methods:
        results.append(_guarded(method, run[method]))
    agreement = not any(_contradicts(a, b) for a, b in itertools.permutations(results, 2))
    return CrossValidation(spec=spec, results=tuple(results), agreement=agreement)


def _sweep(cells, tmax: int, qmax: int, methods) -> list:
    """`cross_validate` of each (n, a, coin) of the list `cells`, in order, for
    known `methods`, the spectral blocks solved by `_spectra`, a lone spec's by
    `period_spectral`.  Before any method runs, a sweep checks tmax and qmax as
    `cross_validate` does, even with no cells, then builds every spec: the first bad cell raises."""
    _check_bounds(methods, tmax, qmax)
    specs = [_walk.WalkSpec(n=n, a=a, coin=coin) for n, a, coin in cells]
    spectra = _spectra(specs) if "spectral" in methods else itertools.repeat(None)
    return [cross_validate(spec, tmax, qmax, methods, lams) for spec, lams in zip(specs, spectra)]


def result_json(r: PeriodResult) -> dict:
    """One result's document in a period report, per the shared schema."""
    return {"method": r.method, "status": r.status, "period": r.period, "bound": r.bound, "theorem": r.theorem}


def report_json(cv: CrossValidation, coin_doc=None, result_doc=result_json) -> dict:
    """Period report document per the shared schema; `coin_doc`, when given,
    stands in for ``coin_to_json(cv.spec.coin)``, and `result_doc(r)` for
    each result's `result_json(r)` (the CLI passes their text, written once
    per coin and once per distinct result)."""
    return {
        "n": cv.spec.n,
        "a": cv.spec.a,
        "coin": _coins.coin_to_json(cv.spec.coin) if coin_doc is None else coin_doc,
        "results": [result_doc(r) for r in cv.results],
        "agreement": cv.agreement,
    }
