"""Sampled verification suites behind the `verify` CLI subcommand.

Each suite draws deterministic samples from a seeded generator, checks one
library-wide invariant, and reports counts.  These are the same properties
the test suite pins down; the CLI exposes them for ad-hoc runs at other
sample sizes and seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import coins as _coins
from . import period as _period
from . import walk as _walk
from .errors import LivelyWalkError
from .exactnum import multiset_distance, orthogonality_defect

SUITES = (
    "orthogonality",
    "closure",
    "decompose-roundtrip",
    "spectrum-symmetry",
    "blockdiag-equivalence",
    "period-consistency",
)
#: the suites that draw samples and so read a sample count; period-consistency
#: checks a fixed set of specs
SAMPLED_SUITES = tuple(name for name in SUITES if name != "period-consistency")
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


def run_orthogonality(seed: int = 0, samples: int = 1000) -> SuiteResult:
    rng = np.random.default_rng(seed)
    failures, worst, checks = 0, 0.0, 0
    for family in _coins.FAMILIES:
        for _ in range(samples):
            coin = _random_coin(rng, family)
            defect = orthogonality_defect(coin.matrix)
            det = np.linalg.det(coin.as_float())
            checks += 1
            worst = max(worst, defect)
            if defect > 1e-12 or abs(det - _coins._FAMILY_DET[family]) > 1e-10:
                failures += 1
    return SuiteResult("orthogonality", checks, failures, worst)


def run_closure(seed: int = 0, samples: int = 1000) -> SuiteResult:
    rng = np.random.default_rng(seed)
    failures, worst = 0, 0.0
    family = _coins._FAMILY  # family -> (basis, x + y + z)
    parity = {_coins.CYCLIC: 0, _coins.TRANSPOSITION: 1}
    for _ in range(samples):
        a, b = _random_coin(rng), _random_coin(rng)
        try:
            prod = _coins.multiply(a, b)
            cp = prod.classification
        except LivelyWalkError:
            failures += 1
            continue
        (basis_a, s_a), (basis_b, s_b) = family[a.family], family[b.family]
        want_parity = (parity[basis_a] + parity[basis_b]) % 2
        if parity[cp.basis] != want_parity or family[cp.family][1] != s_a * s_b:
            failures += 1
    return SuiteResult("closure", samples, failures, worst)


def run_decompose_roundtrip(seed: int = 0, samples: int = 1000) -> SuiteResult:
    rng = np.random.default_rng(seed)
    failures, worst = 0, 0.0
    for _ in range(samples):
        coin = _random_coin(rng)
        coeffs = _coins.decompose_linear_sum(coin.matrix)
        x, y, z = coin.params
        err = max(abs(coeffs.x - x), abs(coeffs.y - y), abs(coeffs.z - z))
        worst = max(worst, err)
        if err > 1e-14:
            failures += 1
    return SuiteResult("decompose-roundtrip", samples, failures, worst)


def run_spectrum_symmetry(seed: int = 0, samples: int = 200) -> SuiteResult:
    """For a = 0 and X-family coins the block spectra at l and n-l coincide."""
    rng = np.random.default_rng(seed)
    failures, worst, checks = 0, 0.0, 0
    for _ in range(samples):
        n = int(rng.integers(3, 13))
        spec = _walk.WalkSpec(n=n, a=0, coin=_random_coin(rng, "X"))
        lams = _walk.spectrum(spec)
        for l in range(1, n // 2 + 1):
            err = multiset_distance(lams[l], lams[n - l])
            checks += 1
            worst = max(worst, err)
            if err > 1e-8:
                failures += 1
    return SuiteResult("spectrum-symmetry", checks, failures, worst)


def run_blockdiag_equivalence(seed: int = 0, samples: int = 1) -> SuiteResult:
    """Dense eigenvalues match the union over momentum blocks, n <= 12."""
    rng = np.random.default_rng(seed)
    failures, worst, checks = 0, 0.0, 0
    for _ in range(samples):
        for n in range(2, 13):
            for a in range(0, n // 2 + 1):
                for family in _coins.FAMILIES:
                    spec = _walk.WalkSpec(n=n, a=a, coin=_random_coin(rng, family))
                    dense = np.linalg.eigvals(_walk.evolution_operator(spec))
                    err = multiset_distance(dense, _walk.spectrum(spec).ravel())
                    checks += 1
                    worst = max(worst, err)
                    if err > 1e-8:
                        failures += 1
    return SuiteResult("blockdiag-equivalence", checks, failures, worst)


def _special_coins():
    out = []
    for p in range(1, 7):
        base = _coins.perm_matrix(p)
        out.append(base)
        out.append(_coins.Coin3(matrix=-base.matrix))
        out.append(_coins.grover_type(p))
        out.append(_coins.grover_type(p, negate=True))
    return out


def run_period_consistency() -> SuiteResult:
    """Analytic, spectral and brute-force periods agree for all special coins, a = 0.

    Every n up to CONSISTENCY_NMAX is checked; the suite draws no samples,
    so it takes no seed and no sample count.
    """
    failures, checks = 0, 0
    for coin in _special_coins():
        for n in range(2, CONSISTENCY_NMAX + 1):
            cv = _period.cross_validate(_walk.WalkSpec(n=n, a=0, coin=coin))
            checks += 1
            if not cv.agreement:
                failures += 1
    return SuiteResult("period-consistency", checks, failures, 0.0)


_RUNNERS = {
    "orthogonality": run_orthogonality,
    "closure": run_closure,
    "decompose-roundtrip": run_decompose_roundtrip,
    "spectrum-symmetry": run_spectrum_symmetry,
    "blockdiag-equivalence": run_blockdiag_equivalence,
    "period-consistency": run_period_consistency,
}


def run_suite(name: str, seed: int | None = None, samples: int | None = None) -> SuiteResult:
    """Run one suite; ``seed`` and ``samples`` are read only by the
    SAMPLED_SUITES, which default to seed 0 and their own sample count."""
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    given = {key: value for key, value in (("seed", seed), ("samples", samples)) if value is not None}
    if given and name not in SAMPLED_SUITES:
        raise ValueError(f"suite {name!r} is not sampled and takes no {' or '.join(given)}")
    return _RUNNERS[name](**given)
