"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
on success) and enforces the criterion's runtime budget.
"""

import math
import time
from fractions import Fraction

import numpy as np

from livelywalk import (
    WalkSpec,
    block_stack,
    coins,
    cross_validate,
    eig3_unitary,
    pell_point,
    period_analytic,
    period_bruteforce,
    period_spectral,
    reduced_block,
    spectrum,
)
from livelywalk.coins import (
    classify,
    coin_from_theta,
    decompose_linear_sum,
    grover_type,
    multiply,
    perm_matrix,
)

from conftest import dense_operator, eigenvalues_closed_form, momentum_state, multiset_distance

DET_OF = {"X": 1, "Y": -1, "Z": -1, "W": 1}


class Criterion:
    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget = budget_s
        self.t0 = time.perf_counter()

    def done(self):
        elapsed = time.perf_counter() - self.t0
        ok = elapsed < self.budget
        print(f"criterion {self.number} ({self.label}): "
              f"{'PASS' if ok else 'FAIL'} in {elapsed:.2f}s (budget {self.budget}s)")
        assert ok, f"criterion {self.number} exceeded runtime budget: {elapsed:.2f}s"


def test_criterion_1_grover_period():
    crit = Criterion(1, "Grover coin: period 6 iff n = 3", 5.0)
    g = grover_type(1)
    cv = cross_validate(WalkSpec(n=3, a=0, coin=g), tmax=10_000)
    assert cv.agreement
    assert [r.period for r in cv.results] == [6, 6, 6]
    for n in (2, 4, 5, 6, 7, 8):
        spec = WalkSpec(n=n, a=0, coin=g)
        assert period_analytic(spec).status == "proven_infinite"
        brute = period_bruteforce(spec, tmax=10_000)
        assert brute.status == "no_period_up_to" and brute.bound == 10_000
        spectral = period_spectral(spec)
        assert not (spectral.finite and spectral.period <= 10_000)
    crit.done()


def test_criterion_2_delta_coins():
    crit = Criterion(2, "quarter-turn coins: period 12, squares to Grover", 1.0)
    grover_float = grover_type(1).as_float()
    for theta in (math.pi / 2, 3 * math.pi / 2):
        delta = coin_from_theta("X", theta)
        cv = cross_validate(WalkSpec(n=3, a=0, coin=delta))
        assert cv.agreement
        assert [r.period for r in cv.results] == [12, 12, 12]
        square = multiply(delta, delta).as_float()
        assert np.linalg.norm(square - grover_float) <= 1e-12
    crit.done()


def test_criterion_3_permutation_coins():
    crit = Criterion(3, "permutation coins: 3 / 2 / n", 10.0)
    cyclic = coin_from_theta("X", 2 * math.pi / 3)
    p5 = perm_matrix(5)
    for n in range(3, 9):
        for coin, expected in ((cyclic, 3), (p5, 2)):
            spec = WalkSpec(n=n, a=0, coin=coin)
            assert period_analytic(spec).period == expected
            assert period_bruteforce(spec).period == expected
            assert period_spectral(spec).period == expected
    identity = perm_matrix(1)
    for n in range(2, 13):
        spec = WalkSpec(n=n, a=0, coin=identity)
        analytic = period_analytic(spec)
        assert analytic.theorem == "x-family:identity-lcm"
        assert analytic.period == n
        assert period_bruteforce(spec).period == n
        assert period_spectral(spec).period == n
    crit.done()


def test_criterion_4_grover_type_table():
    crit = Criterion(4, "Grover-type table at n = 3", 2.0)
    table = {1: 6, 2: 6, 3: 6, 4: 12, 5: 4, 6: 12}
    for p, expected in table.items():
        for negate in (False, True):
            spec = WalkSpec(n=3, a=0, coin=grover_type(p, negate=negate))
            assert period_analytic(spec).period == expected, (p, negate)
            assert period_bruteforce(spec).period == expected, (p, negate)
    crit.done()


def test_criterion_5_rational_angle_coins():
    crit = Criterion(5, "rational-angle X coins at n = 3", 2.0)
    cases = [
        (Fraction(1, 5), 15),
        (Fraction(1, 6), 6),   # theta = pi/3
        (Fraction(2, 7), 21),
    ]
    for frac, expected in cases:
        coin = coins.coin_from_theta_frac("X", frac)
        spec = WalkSpec(n=3, a=0, coin=coin)
        assert period_analytic(spec).period == expected
        assert period_bruteforce(spec).period == expected
    crit.done()


def test_criterion_6_property_suite():
    crit = Criterion(6, "library-wide property battery", 60.0)
    rng = np.random.default_rng(20240806)

    # orthogonality at 1e-12 and determinant signs, 1000 samples per family
    for fam in coins.FAMILIES:
        for _ in range(1000):
            c = coin_from_theta(fam, rng.uniform(0, 2 * math.pi))
            cf = c.as_float()
            assert np.linalg.norm(cf.T @ cf - np.eye(3)) <= 1e-12
            assert abs(np.linalg.det(cf) - DET_OF[fam]) <= 1e-10

    # decompose(construct) round trip
    for _ in range(500):
        fam = coins.FAMILIES[rng.integers(0, 4)]
        c = coin_from_theta(fam, rng.uniform(0, 2 * math.pi))
        coeffs = decompose_linear_sum(c.matrix)
        assert (coeffs.x, coeffs.y, coeffs.z) == c.params

    # closure table over 1000 random products
    sum_sign = {"X": 1, "Y": -1, "Z": 1, "W": -1}
    parity = {"X": 0, "Y": 0, "Z": 1, "W": 1}
    for _ in range(1000):
        fa, fb = (coins.FAMILIES[i] for i in rng.integers(0, 4, size=2))
        a = coin_from_theta(fa, rng.uniform(0, 2 * math.pi))
        b = coin_from_theta(fb, rng.uniform(0, 2 * math.pi))
        cls = classify(multiply(a, b).matrix)
        assert parity[cls.family] == (parity[fa] + parity[fb]) % 2
        assert sum_sign[cls.family] == sum_sign[fa] * sum_sign[fb]

    # one-parameter group homomorphism
    for _ in range(300):
        t1, t2 = rng.uniform(0, 2 * math.pi, size=2)
        lhs = multiply(coin_from_theta("X", t1), coin_from_theta("X", t2)).as_float()
        rhs = coin_from_theta("X", (t1 + t2) % (2 * math.pi)).as_float()
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    # linear sums of permutations are permutative and vice versa, 500 samples
    import itertools

    def permutative(m):
        return all(
            any(np.allclose(row, m[0][list(p)], atol=1e-10)
                for p in itertools.permutations(range(3)))
            for row in m[1:]
        )

    for _ in range(500):
        fam = coins.FAMILIES[rng.integers(0, 4)]
        m = coin_from_theta(fam, rng.uniform(0, 2 * math.pi)).as_float().real
        assert permutative(m)
        decompose_linear_sum(m)

    # block diagonalization equals the dense spectrum for every n <= 12
    for n in range(2, 13):
        for a in range(0, n // 2 + 1):
            for fam in coins.FAMILIES:
                spec = WalkSpec(n=n, a=a, coin=coin_from_theta(fam, rng.uniform(0, 2 * math.pi)))
                dense = np.linalg.eigvals(dense_operator(spec))
                assert multiset_distance(dense, spectrum(spec).ravel()) <= 1e-8

    # block eigenpairs lift to eigenpairs of the full operator, for the
    # single block and for the same block read from the stack
    for _ in range(8):
        n = int(rng.integers(2, 11))
        a = int(rng.integers(0, n // 2 + 1))
        fam = coins.FAMILIES[rng.integers(0, 4)]
        spec = WalkSpec(n=n, a=a, coin=coin_from_theta(fam, rng.uniform(0, 2 * math.pi)))
        u = dense_operator(spec)
        stack = block_stack(spec)
        assert stack.shape == (n, 3, 3)
        for l in range(n):
            phi = momentum_state(n, l)
            for uk in (reduced_block(spec, l), stack[l]):
                lams, vecs = np.linalg.eig(uk)
                for j in range(3):
                    psi = np.kron(vecs[:, j], phi)
                    assert np.linalg.norm(u @ psi - lams[j] * psi) <= 1e-8

    # closed-form block eigenvalues match the numeric solver
    for _ in range(60):
        n = int(rng.integers(2, 13))
        coin = coin_from_theta("X", rng.uniform(0, 2 * math.pi))
        spec = WalkSpec(n=n, a=0, coin=coin)
        x = coin.params[0].real
        for l in range(n):
            assert multiset_distance(
                eigenvalues_closed_form(x, 2 * math.pi * l / n), eig3_unitary(reduced_block(spec, l))
            ) <= 1e-10

    # Pell identity, exactly, for 100 random rationals
    for _ in range(100):
        r = Fraction(int(rng.integers(-10**6, 10**6)), int(rng.integers(1, 10**6)))
        px, py = pell_point(r)
        assert px * px - 3 * py * py == 1

    # norm drift over 10^4 steps
    spec = WalkSpec(n=16, a=3, coin=coin_from_theta("Y", rng.uniform(0, 2 * math.pi)))
    u = dense_operator(spec)
    psi = np.zeros(48, dtype=complex)
    psi[0] = 1.0
    for _ in range(10_000):
        psi = u @ psi
    assert abs(np.vdot(psi, psi).real - 1.0) <= 1e-9

    crit.done()


def test_criterion_7_lively_walks_empirical():
    crit = Criterion(7, "liveliness a = 1 empirical record at n = 3", 5.0)
    for coin in coins.SPECIAL_COINS:
        spec = WalkSpec(n=3, a=1, coin=coin)
        spectral = period_spectral(spec)
        brute = period_bruteforce(spec, tmax=10_000)
        analytic = period_analytic(spec)
        assert analytic.status == "not_applicable"  # no analytic claim is made
        if spectral.finite and spectral.period <= 10_000:
            assert brute.finite and brute.period == spectral.period
        else:
            assert not brute.finite
        cv = cross_validate(spec, tmax=10_000)
        assert cv.agreement
    crit.done()
