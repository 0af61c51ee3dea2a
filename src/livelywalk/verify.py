"""Sampled verification suites behind the `verify` CLI subcommand.

Each suite draws deterministic samples from a seeded generator, checks one
library-wide invariant, and yields one (defect, passed) pair per check;
`run_suite` counts them.  A check passes only when its defect is within its
bound, so a NaN defect fails.  These are the same properties the test suite
pins down; the CLI exposes them for ad-hoc runs at other sample sizes and seeds.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import coins as _coins
from . import period as _period
from . import walk as _walk
from .errors import LivelyWalkError
from .exactnum import multiset_distance, orthogonality_defect

#: largest cycle length the period-consistency suite checks
CONSISTENCY_NMAX = 8


@dataclass
class SuiteResult:
    name: str
    checks: int
    failures: int
    worst: float

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _random_coin(rng, family=None) -> _coins.Coin3:
    fam = family or _coins.FAMILIES[rng.integers(0, 4)]
    return _coins.coin_from_theta(fam, float(rng.uniform(0.0, 2.0 * math.pi)))


def run_orthogonality(seed: int = 0, samples: int = 1000) -> Iterator[tuple[float, bool]]:
    rng = np.random.default_rng(seed)
    for family in _coins.FAMILIES:
        for _ in range(samples):
            coin = _random_coin(rng, family)
            defect = orthogonality_defect(coin.matrix)
            det = np.linalg.det(coin.as_float())
            yield defect, defect <= 1e-12 and abs(det - _coins._FAMILY_DET[family]) <= 1e-10


def run_closure(seed: int = 0, samples: int = 1000) -> Iterator[tuple[float, bool]]:
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        a, b = _random_coin(rng), _random_coin(rng)
        try:  # multiply raises when the product is off its closure table
            _coins.multiply(a, b)
        except LivelyWalkError:
            yield 0.0, False
        else:
            yield 0.0, True


def run_decompose_roundtrip(seed: int = 0, samples: int = 1000) -> Iterator[tuple[float, bool]]:
    """The coin rebuilt from its decomposition's x, y, z matches it entry by entry."""
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        coin = _random_coin(rng)
        coeffs = _coins.decompose_linear_sum(coin.matrix)
        try:
            rebuilt = _coins.coin_from_xyz(coin.family, coeffs.x, coeffs.y, coeffs.z)
        except LivelyWalkError:  # no coin of the family, as for a NaN coefficient
            yield math.nan, False
            continue
        err = np.max(np.abs(rebuilt.as_float() - coin.as_float()))
        yield err, err <= 1e-14


def run_spectrum_symmetry(seed: int = 0, samples: int = 200) -> Iterator[tuple[float, bool]]:
    """For a = 0 and X-family coins the block spectra at l and n-l coincide."""
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        n = int(rng.integers(3, 13))
        spec = _walk.WalkSpec(n=n, a=0, coin=_random_coin(rng, "X"))
        lams = _walk.spectrum(spec)
        for l in range(1, n // 2 + 1):
            err = multiset_distance(lams[l], lams[n - l])
            yield err, err <= 1e-8


def run_blockdiag_equivalence(seed: int = 0, samples: int = 1) -> Iterator[tuple[float, bool]]:
    """Eigenvalues of `walk.evolution_operator`, the matrix-free step written
    out as a dense matrix, match the union over momentum blocks, n <= 12."""
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        for n in range(2, 13):
            for a in range(0, n // 2 + 1):
                for family in _coins.FAMILIES:
                    spec = _walk.WalkSpec(n=n, a=a, coin=_random_coin(rng, family))
                    dense = np.linalg.eigvals(_walk.evolution_operator(spec))
                    err = multiset_distance(dense, _walk.spectrum(spec).ravel())
                    yield err, err <= 1e-8


def run_period_consistency() -> Iterator[tuple[float, bool]]:
    """Analytic, spectral and brute-force periods agree for all special coins, a = 0.

    Every n up to CONSISTENCY_NMAX is checked; the suite draws no samples,
    so it takes no seed and no sample count.
    """
    for coin in _coins.SPECIAL_COINS:
        for n in range(2, CONSISTENCY_NMAX + 1):
            yield 0.0, _period.cross_validate(_walk.WalkSpec(n=n, a=0, coin=coin)).agreement


_RUNNERS = {
    "orthogonality": run_orthogonality,
    "closure": run_closure,
    "decompose-roundtrip": run_decompose_roundtrip,
    "spectrum-symmetry": run_spectrum_symmetry,
    "blockdiag-equivalence": run_blockdiag_equivalence,
    "period-consistency": run_period_consistency,
}
SUITES = tuple(_RUNNERS)
#: the suites that draw samples and so read a sample count; period-consistency
#: checks a fixed set of specs
SAMPLED_SUITES = tuple(name for name in SUITES if name != "period-consistency")


def run_suite(name: str, seed: int | None = None, samples: int | None = None) -> SuiteResult:
    """Run one suite; ``seed`` and ``samples`` are read only by the
    SAMPLED_SUITES, which default to seed 0 and their own sample count.  A
    seed is an integer >= 0, as numpy's generator takes it, and a sample
    count an integer >= 1, so that no run passes on 0 checks."""
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    given = {key: value for key, value in (("seed", seed), ("samples", samples)) if value is not None}
    if given and name not in SAMPLED_SUITES:
        raise ValueError(f"suite {name!r} is not sampled and takes no {' or '.join(given)}")
    for what, value, least in (("seed", seed, 0), ("sample count", samples, 1)):
        if value is not None and not (isinstance(value, numbers.Integral) and value >= least):
            raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")
    checks, failures, worst = 0, 0, 0.0
    for defect, passed in _RUNNERS[name](**given):
        checks += 1
        failures += not passed
        worst = defect if math.isnan(defect) else max(worst, defect)
    return SuiteResult(name, checks, failures, worst)
