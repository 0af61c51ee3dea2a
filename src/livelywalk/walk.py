"""Lively quantum walk on a cycle: evolution operator, simulation, blocks.

State vectors live in C^3 (x) C^n with flat index c*n + v (coin-major):
coin state 0 steps the walker to v-1, coin 1 to v+1, coin 2 jumps to v+a,
all mod n.  The momentum blocks U_k = D_k C with D_k = diag(e^{ik}, e^{-ik},
e^{-ika}), k = 2*pi*l/n, carry the full spectrum; `block_stack` builds all
n of them as one (n, 3, 3) array in a single broadcast, and `spectrum`
solves that stack with one `eig3_unitary` call.

`evolve` and `write_distribution_csv` are matrix-free: one step mixes the
coin at every vertex and rolls each coin row by its shift, O(n) time and
48*n bytes of state.  The dense 3n x 3n `evolution_operator` is the oracle
that tests and `verify` hold the matrix-free step and the blocks to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import coins as _coins
from .errors import GuardExceeded, NotNormalized, NotUnitary, OutOfRange, PhaseConditionViolated
from .exactnum import DEFAULT_TOL, eig3_unitary

#: largest cycle length for which the dense 3n x 3n oracle operators
#: (`shift_operator`, `evolution_operator`) may be built; simulation does
#: not build them and needs only 48*n bytes per state
DENSE_GUARD = 4096

NORM_TOL = 1e-9


@dataclass(frozen=True)
class WalkSpec:
    """Cycle length n, liveliness a and the coin; defines the walk operator."""

    n: int
    a: int
    coin: _coins.Coin3

    def __post_init__(self):
        if self.n < 2:
            raise OutOfRange(f"cycle length must be >= 2, got {self.n}")
        if not (0 <= self.a <= self.n // 2):
            raise OutOfRange(f"liveliness must satisfy 0 <= a <= n//2, got a={self.a}")
        self.coin.classification  # raises if the coin is not a valid linear sum
        if np.max(np.abs(self.coin.as_float().imag)) > DEFAULT_TOL:
            raise NotUnitary("walk coins must be real orthogonal matrices")

    @property
    def dim(self) -> int:
        return 3 * self.n


@dataclass(frozen=True)
class ReducedBlock:
    l: int
    k: float
    dk: np.ndarray
    uk: np.ndarray


class SpectrumEntry(NamedTuple):
    value: complex
    block: int


def _check_guard(n: int):
    if n > DENSE_GUARD:
        raise GuardExceeded(f"dense operators are limited to n <= {DENSE_GUARD}, got {n}")


def shift_operator(n: int, a: int) -> np.ndarray:
    """Coin-conditioned cyclic shift on the 3n basis states (0/1 matrix)."""
    _check_guard(n)
    s = np.zeros((3 * n, 3 * n))
    for c, step in enumerate((-1, 1, a)):
        for x in range(n):
            s[c * n + (x + step) % n, c * n + x] = 1.0
    return s


def evolution_operator(spec: WalkSpec) -> np.ndarray:
    """Dense walk operator S * (C (x) I_n)."""
    _check_guard(spec.n)
    c = spec.coin.as_float()
    return shift_operator(spec.n, spec.a) @ np.kron(c, np.eye(spec.n))


def basis_state(n: int, vertex: int, coin_state: int) -> np.ndarray:
    if not (0 <= vertex < n):
        raise OutOfRange(f"vertex {vertex} outside 0..{n - 1}")
    if coin_state not in (0, 1, 2):
        raise OutOfRange(f"coin state must be 0, 1 or 2, got {coin_state}")
    psi = np.zeros(3 * n, dtype=complex)
    psi[coin_state * n + vertex] = 1.0
    return psi


def _checked_state(spec: WalkSpec, psi0: np.ndarray, t: int) -> np.ndarray:
    """psi0 as complex128, once its length, its norm and the time t >= 0 check out."""
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (spec.dim,):
        raise OutOfRange(f"state must have length {spec.dim}, got {psi.shape}")
    norm2 = float(np.vdot(psi, psi).real)
    if not abs(norm2 - 1.0) <= NORM_TOL:  # also catches NaN amplitudes
        raise NotNormalized(f"|psi|^2 = {norm2} is not 1 within {NORM_TOL}")
    if t < 0:
        raise OutOfRange("time must be nonnegative")
    return psi


def _step(coin: np.ndarray, a: int, psi: np.ndarray) -> np.ndarray:
    """One walk step S (C (x) I_n) psi without the dense operator.

    The real 3x3 coin mixes the coin components at each vertex, then coin
    row 0 moves by -1, row 1 by +1 and row 2 by a; the result keeps the
    coin-major layout c*n + v.
    """
    mixed = coin @ psi.reshape(3, -1)
    return np.concatenate((np.roll(mixed[0], -1), np.roll(mixed[1], 1), np.roll(mixed[2], a)))


def evolve(spec: WalkSpec, psi0: np.ndarray, t: int) -> np.ndarray:
    """Apply the walk operator t times to a normalized state.

    Matrix-free, O(n) per step; `evolution_operator(spec)` applied t times
    is the dense oracle it agrees with to rounding.
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


def _block_phases(k, a: int) -> np.ndarray:
    """Diagonal e^{ik}, e^{-ik}, e^{-ika} of D_k along a last axis; k may be an array."""
    return np.exp(np.stack([1j * k, -1j * k, -1j * k * a], axis=-1))


def block_stack(spec: WalkSpec) -> np.ndarray:
    """All n momentum blocks as one (n, 3, 3) array: entry l is U_k = D_k C at k = 2*pi*l/n."""
    k = 2.0 * math.pi * np.arange(spec.n) / spec.n
    return _block_phases(k, spec.a)[:, :, None] * spec.coin.as_float()


def reduced_block(spec: WalkSpec, l: int) -> ReducedBlock:
    """Momentum block at k = 2*pi*l/n: D_k and U_k = D_k C, equal to `block_stack(spec)[l]`."""
    if not (0 <= l < spec.n):
        raise OutOfRange(f"block index {l} outside 0..{spec.n - 1}")
    k = 2.0 * math.pi * l / spec.n
    phases = _block_phases(k, spec.a)
    return ReducedBlock(l=l, k=k, dk=np.diag(phases), uk=phases[:, None] * spec.coin.as_float())


def momentum_state(n: int, l: int) -> np.ndarray:
    """Normalized Fourier vector phi_k with components e^{ikx}/sqrt(n)."""
    k = 2.0 * math.pi * l / n
    return np.exp(1j * k * np.arange(n)) / math.sqrt(n)


def spectrum(spec: WalkSpec) -> list[SpectrumEntry]:
    """All 3n eigenvalues, grouped by ascending block index.

    One `eig3_unitary` call over `block_stack(spec)`; within a block the
    three eigenvalues are sorted by principal argument.  The multiset equals
    the spectrum of the dense operator.
    """
    rows = eig3_unitary(block_stack(spec)).tolist()
    return [SpectrumEntry(value=lam, block=l) for l, row in enumerate(rows) for lam in row]


def eigenvalues_closed_form(x: float, k: float, n: int | None = None, a: int | None = None, l: int | None = None):
    """Block eigenvalues {1, lam+, lam-} for an X-family coin with parameter x.

    Valid on blocks where e^{-ika} = 1; pass n, a, l to have that phase
    condition checked (PhaseConditionViolated when n does not divide l*a).
    With s = x(1 + 2 cos k):

        lam+- = (s - 1)/2 +- sqrt((s + 1)(s - 3))/2,

    a conjugate pair on the unit circle with lam+ lam- = 1.
    """
    if n is not None and a is not None and l is not None:
        if (l * a) % n != 0:
            raise PhaseConditionViolated(f"n={n} does not divide l*a={l * a}")
    s = x * (1.0 + 2.0 * math.cos(k))
    disc = complex((s + 1.0) * (s - 3.0))
    root = np.sqrt(disc)
    lam_plus = (s - 1.0) / 2.0 + root / 2.0
    lam_minus = (s - 1.0) / 2.0 - root / 2.0
    return 1.0 + 0.0j, complex(lam_plus), complex(lam_minus)


def write_distribution_csv(spec: WalkSpec, psi0: np.ndarray, tmax: int, stream) -> None:
    """Rows t,position,probability for t = 0..tmax (17 significant digits).

    Evolves with the same matrix-free step as `evolve`, so any n >= 2 runs
    in O(n) memory; one write per time step.
    """
    psi = _checked_state(spec, psi0, tmax)
    stream.write("t,position,probability\n")
    coin = spec.coin.as_float()
    for t in range(tmax + 1):
        probs = distribution(psi)
        total = float(probs.sum())
        if not abs(total - 1.0) <= NORM_TOL:
            raise NotNormalized(f"probabilities at t={t} sum to {total}")
        stream.write("".join(f"{t},{v},{p:.17g}\n" for v, p in enumerate(probs.tolist())))
        if t < tmax:
            psi = _step(coin, spec.a, psi)
