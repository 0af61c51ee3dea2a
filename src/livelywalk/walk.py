"""Lively quantum walk on a cycle: evolution operator, simulation, blocks.

State vectors live in C^3 (x) C^n with flat index c*n + v (coin-major):
coin state 0 steps the walker to v-1, coin 1 to v+1, coin 2 jumps to v+a,
all mod n.  The momentum blocks U_k = D_k C with D_k = diag(e^{ik}, e^{-ik},
e^{-ika}), k = 2*pi*l/n, carry the full spectrum; `block_stack` builds all
n of them, or the leading ones asked for, as one (n, 3, 3) array in a
single broadcast, and `spectrum` solves that stack with one `eig3_unitary`
call.

The walk step is defined once, matrix-free: `_step` mixes the coin at
every vertex and shifts each coin row cyclically by its move with two slice
copies, O(n) time and 48*n bytes per state.  `evolve` and
`write_distribution_csv` apply it to one state; `evolution_operator` applies
it to all 3n basis states at once, which writes the step out as the dense
3n x 3n matrix.  The independent oracle,
S (C (x) I_n) built as a Kronecker product, lives in the tests.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from . import coins as _coins
from .errors import GuardExceeded, NotNormalized, NotUnitary, OutOfRange
from .exactnum import eig3_unitary

#: largest cycle length for which the dense 3n x 3n `evolution_operator`
#: may be built; simulation does not build it and needs only 48*n bytes per
#: state
DENSE_GUARD = 4096

NORM_TOL = 1e-9

#: most bytes numpy can size one array by
_MAX_BYTES = np.iinfo(np.intp).max


@dataclass(frozen=True)
class WalkSpec:
    """Cycle length n, liveliness a and the coin; defines the walk operator."""

    n: int
    a: int
    coin: _coins.Coin3

    def __post_init__(self):
        try:  # np.int64, bool and the like pass, stored as int; floats, strings and None do not
            n, a = operator.index(self.n), operator.index(self.a)
        except TypeError:
            raise OutOfRange(f"cycle length and liveliness must be integers, got n={self.n!r}, a={self.a!r}") from None
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)
        if self.n < 2:
            raise OutOfRange(f"cycle length must be >= 2, got {self.n}")
        if not (0 <= self.a <= self.n // 2):
            raise OutOfRange(f"liveliness must satisfy 0 <= a <= n//2, got a={self.a}")
        self.coin.classification  # raises if the coin is not a valid linear sum
        if not self.coin.is_real:
            raise NotUnitary("walk coins must be real orthogonal matrices")

    @property
    def dim(self) -> int:
        return 3 * self.n


def _index(value, what: str, least: int | None = None, stop: int | None = None) -> int:
    """value as an int by operator.index, as `walk` and `period` read every index, count and bound;
    OutOfRange for no integer (2.5, 3.0, "3", None), for a real value below `least`, NaN included,
    and for an index outside 0..stop-1.  np.int64 and bool pass."""
    if least is not None and isinstance(value, numbers.Real) and not value >= least:
        raise OutOfRange(f"{what} must be >= {least}, got {value}")
    try:
        index = operator.index(value)
    except TypeError:  # 2.5, 3.0, inf, "3", None
        raise OutOfRange(f"{what} must be an integer, got {value!r}") from None
    if stop is not None and not 0 <= index < stop:
        raise OutOfRange(f"{what} {index} outside 0..{stop - 1}")
    return index


def _check_size(count: int, what: str, dtype=complex) -> None:
    """GuardExceeded when `count` entries of `dtype` pass the bytes numpy can size one array by."""
    size = count * np.dtype(dtype).itemsize
    if size > _MAX_BYTES:
        raise GuardExceeded(f"{what} needs {size} bytes, over numpy's limit of {_MAX_BYTES} bytes per array")


def basis_state(n: int, vertex: int, coin_state: int) -> np.ndarray:
    """The state with amplitude 1 at `vertex` and `coin_state`; GuardExceeded
    when its 3n amplitudes pass the bytes numpy can size an array by."""
    n = _index(n, "cycle length", least=2)
    vertex, coin_state = _index(vertex, "vertex", stop=n), _index(coin_state, "coin state")
    if coin_state not in (0, 1, 2):
        raise OutOfRange(f"coin state must be 0, 1 or 2, got {coin_state}")
    _check_size(3 * n, f"a state on {n} vertices")
    psi = np.zeros(3 * n, dtype=complex)
    psi[coin_state * n + vertex] = 1.0
    return psi


def _checked_state(spec: WalkSpec, psi0: np.ndarray, t: int) -> np.ndarray:
    """psi0 as complex128, once its length, its norm and the time, an integer
    t >= 0 read by operator.index, check out."""
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (spec.dim,):
        raise OutOfRange(f"state must have length {spec.dim}, got {psi.shape}")
    norm2 = float(np.vdot(psi, psi).real)
    if not abs(norm2 - 1.0) <= NORM_TOL:  # also catches NaN amplitudes
        raise NotNormalized(f"|psi|^2 = {norm2} is not 1 within {NORM_TOL}")
    if _index(t, "time") < 0:
        raise OutOfRange("time must be nonnegative")
    return psi


def _step(coin: np.ndarray, a: int, psi: np.ndarray) -> np.ndarray:
    """One walk step S (C (x) I_n) psi without the dense operator.

    psi is one (3n,) state or a (3n, m) block of m states, one per column.
    The real 3x3 coin mixes the coin components at each vertex, then coin
    row 0 moves by -1, row 1 by +1 and row 2 by a; the result keeps the
    coin-major layout c*n + v.
    """
    mixed = (coin @ psi.reshape(3, -1)).reshape(3, -1, *psi.shape[1:])
    n = mixed.shape[1]
    out = np.empty_like(mixed)
    for row, shift in enumerate((-1, 1, a)):
        k = shift % n
        out[row, k:] = mixed[row, : n - k]
        out[row, :k] = mixed[row, n - k :]
    return out.reshape(psi.shape)


def evolution_operator(spec: WalkSpec) -> np.ndarray:
    """The walk operator as a dense 3n x 3n matrix: `_step` applied to every basis state."""
    if spec.n > DENSE_GUARD:
        raise GuardExceeded(f"dense operators are limited to n <= {DENSE_GUARD}, got {spec.n}")
    return _step(spec.coin.as_float(), spec.a, np.eye(spec.dim))


def evolve(spec: WalkSpec, psi0: np.ndarray, t: int) -> np.ndarray:
    """Apply the walk operator t times to a normalized state.

    Matrix-free, O(n) per step; the dense `evolution_operator(spec)`
    applied t times is the same map written out as a matrix.
    """
    psi = _checked_state(spec, psi0, t)
    coin = spec.coin.as_float()
    for _ in range(t):
        psi = _step(coin, spec.a, psi)
    return psi


def distribution(psi: np.ndarray) -> np.ndarray:
    """Position marginal: prob(v) = sum_c |psi[c*n + v]|^2."""
    psi = np.asarray(psi)
    if psi.size % 3:
        raise OutOfRange(f"state length {psi.size} is not a multiple of 3")
    n = psi.size // 3
    return (np.abs(psi.reshape(3, n)) ** 2).sum(axis=0)


def block_stack(spec: WalkSpec, rows: int | None = None) -> np.ndarray:
    """The leading `rows` momentum blocks, all n by default, as one (rows, 3, 3)
    array: entry l is U_k = D_k C at k = 2*pi*l/n.  `rows` is an integer
    0..n, read by operator.index; OutOfRange otherwise.  GuardExceeded when
    the array passes the bytes numpy can size an array by.

    D_k = diag(e^{ik}, e^{-ik}, e^{-ika}) scales the rows of the coin; one
    `np.exp` over the (rows, 3) phases gives each D_k, and each entry is
    the same bits whatever `rows` is.
    """
    rows = spec.n if rows is None else _index(rows, "block count", stop=spec.n + 1)
    _check_size(9 * rows, f"a stack of {rows} momentum blocks")
    k = 2.0 * math.pi * np.arange(rows) / spec.n
    return np.exp(np.multiply.outer(k, (1j, -1j, -1j * spec.a)))[:, :, None] * spec.coin.as_float()


def reduced_block(spec: WalkSpec, l: int) -> np.ndarray:
    """Momentum block U_k = D_k C at k = 2*pi*l/n, the 3x3 array `block_stack(spec)[l]`."""
    l = _index(l, "block index", stop=spec.n)
    return block_stack(spec, l + 1)[l]


def spectrum(spec: WalkSpec) -> np.ndarray:
    """All 3n eigenvalues as an (n, 3) array: row l holds block l's eigenvalues.

    One `eig3_unitary` call over `block_stack(spec)`; within a row the
    three eigenvalues are sorted by principal argument.  The multiset of all
    entries equals the spectrum of the dense operator.
    """
    return eig3_unitary(block_stack(spec))


def _support_arc(probs: np.ndarray) -> tuple[int, int]:
    """(start, stop) of the shortest cyclic arc of vertices start..stop-1 (mod n)
    that holds every nonzero entry of probs, with 0 <= start < n and
    start < stop <= start + n; stop > n when the arc wraps past vertex n - 1.

    The arc is the complement of the longest cyclic run of zeros; a dense
    probs gives (0, n).  probs must have a nonzero entry.
    """
    nz = probs.nonzero()[0]
    first, last = int(nz[0]), int(nz[-1])
    if nz.size > 1:
        gaps = nz[1:] - nz[:-1]
        i = int(gaps.argmax())
        if gaps[i] > first + probs.size - last:  # the longest zero run lies inside 0..n-1
            return int(nz[i + 1]), int(nz[i]) + 1 + probs.size
    return first, last + 1


def write_distribution_csv(spec: WalkSpec, psi0: np.ndarray, tmax: int, stream) -> None:
    """Rows t,position,probability for t = 0..tmax (17 significant digits).

    Evolves with the same matrix-free step as `evolve`, so any n >= 2 runs
    in O(n) memory; one write per time step.  A list of the n rows without
    their "t," prefix, "v,0" for every vertex, and a template of the rows
    "v,%.17g", split by "\0", are built once per call.  Each step finds the
    shortest cyclic arc of vertices that holds every nonzero probability,
    fills that arc's slice of the template with one `%` (two when the arc
    wraps past vertex n - 1; the same digits as f"{p:.17g}"), puts its rows
    in the list in place of the zero rows, and writes the list with one
    `str.join` that puts the prefix before every row.  A dense state's arc
    is the whole cycle, so it is one `%` over all n rows.
    """
    psi = _checked_state(spec, psi0, tmax)
    stream.write("t,position,probability\n")
    coin, n = spec.coin.as_float(), spec.n
    template = [f"{v},%.17g\n" for v in range(n)]
    filled, filled_at = "\0".join(template), [0, *itertools.accumulate(len(row) + 1 for row in template)]
    # "%.17g" % 0.0 == "0", and a probability is a sum of abs(.)**2, never
    # -0.0, so a zero row reads the same either way
    zeros = [row.replace("%.17g", "0") for row in template]
    rows = zeros.copy()
    for t in range(tmax + 1):
        probs = distribution(psi)
        total = float(probs.sum())
        if not abs(total - 1.0) <= NORM_TOL:  # before indexing: rejects all-zero and NaN
            raise NotNormalized(f"probabilities at t={t} sum to {total}")
        start, stop = _support_arc(probs)
        arcs = ((start, stop),) if stop <= n else ((0, stop - n), (start, n))
        for lo, hi in arcs:
            rows[lo:hi] = (filled[filled_at[lo] : filled_at[hi] - 1] % tuple(probs[lo:hi].tolist())).split("\0")
        prefix = f"{t},"
        stream.write(prefix + prefix.join(rows))
        for lo, hi in arcs:
            rows[lo:hi] = zeros[lo:hi]
        if t < tmax:
            psi = _step(coin, spec.a, psi)
