import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from livelywalk import WalkSpec, coins, eig3_unitary, exactnum, reduced_block
from livelywalk.errors import DimensionMismatch, NotOrthogonal, NotUnitary, NumericalFailure
from livelywalk.exactnum import (
    exact_matrix,
    orthogonality_defect,
    to_float,
)
from livelywalk.period import ANGLE_ACCURACY
from livelywalk.walk import block_stack

import test_golden_spectral
from conftest import random_unitary3, assert_same_multiset


GROVER = (2.0 / 3.0) * np.ones((3, 3)) - np.eye(3)
CYCLE = np.array([[0.0, 1, 0], [0, 0, 1], [1, 0, 0]])
EXACT_IDENTITY = exact_matrix(np.eye(3, dtype=int).tolist())


class TestEig3:
    def test_identity(self):
        assert eig3_unitary(np.eye(3)) == pytest.approx([1, 1, 1])

    def test_grover(self):
        # char poly of (2/3)J - I factors as (lam - 1)(lam + 1)^2
        lams = eig3_unitary(GROVER)
        assert lams == pytest.approx([1, -1, -1])

    def test_cyclic_permutation(self):
        # companion-matrix oracle: the roots of lam^3 = 1
        oracle = sorted(np.roots([1, 0, 0, -1]), key=lambda z: np.angle(z) % (2 * math.pi))
        lams = eig3_unitary(CYCLE)
        assert np.max(np.abs(np.array(lams) - np.array(oracle))) < 1e-12

    def test_sorted_by_principal_argument(self, rng):
        for _ in range(200):
            lams = eig3_unitary(random_unitary3(rng))
            args = [np.angle(z) % (2 * math.pi) for z in lams]
            args = [0.0 if 2 * math.pi - a < 1e-9 else a for a in args]
            assert args == sorted(args)

    def test_matches_numpy_oracle(self, rng):
        for _ in range(500):
            u = random_unitary3(rng)
            assert_same_multiset(eig3_unitary(u), np.linalg.eigvals(u), tol=1e-10)

    def test_eigenvalue_product_equals_det(self, rng):
        for _ in range(300):
            u = random_unitary3(rng)
            lams = eig3_unitary(u)
            assert abs(np.prod(lams) - np.linalg.det(u)) <= 10 * 1e-10

    def test_moduli_on_unit_circle(self, rng):
        for _ in range(300):
            for lam in eig3_unitary(random_unitary3(rng)):
                assert abs(abs(lam) - 1) < 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            eig3_unitary(np.eye(3) * 1.5)

    def test_rejects_nan_entries(self):
        m = np.eye(3, dtype=complex)
        m[0, 0] = np.nan
        with pytest.raises(NotUnitary):
            eig3_unitary(m)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatch):
            eig3_unitary(np.eye(4))

    def test_stack_matches_each_block(self, rng):
        # a (2, 4, 3, 3) stack gives (2, 4, 3), each row the single-block answer
        stack = np.array([[random_unitary3(rng) for _ in range(4)] for _ in range(2)])
        lams = eig3_unitary(stack)
        assert lams.shape == (2, 4, 3)
        for i, j in itertools.product(range(2), range(4)):
            assert np.array_equal(lams[i, j], eig3_unitary(stack[i, j]))

    def test_stack_rejects_one_non_unitary_block(self, rng):
        stack = np.array([random_unitary3(rng) for _ in range(5)])
        stack[3] *= 1.5
        with pytest.raises(NotUnitary):
            eig3_unitary(stack)

    def test_stack_rejects_wrong_block_shape(self):
        with pytest.raises(DimensionMismatch):
            eig3_unitary(np.ones((4, 3, 2)))

    def test_broken_modulus_is_a_numerical_failure(self, monkeypatch):
        # the modulus check is the one NumericalFailure left: a solver result
        # off the unit circle is refused, not projected
        monkeypatch.setattr(exactnum, "_solve_cluster", lambda m: np.linalg.eigvals(m) * 1.001)
        with pytest.raises(NumericalFailure):
            eig3_unitary(CYCLE)

    def test_sort_of_the_kernel_on_the_golden_spectral_corpus(self):
        # one solve, two orders: eig3_unitary is the kernel's output, each
        # block's roots sorted stably by principal argument with 2*pi wrapped to 0
        stacks = 0
        for coin in test_golden_spectral.corpus().values():
            for n in test_golden_spectral.N_RANGE:
                for a in range(n // 2 + 1):
                    stack = block_stack(WalkSpec(n=n, a=a, coin=coin))
                    raw, shown = exactnum._unit_eigenvalues(stack), eig3_unitary(stack)
                    for block, row in zip(raw, shown):
                        args = np.arctan2(block.imag, block.real) % (2 * math.pi)
                        args[2 * math.pi - args < 1e-12] = 0.0
                        assert block[np.argsort(args, kind="stable")].tobytes() == row.tobytes(), (n, a)
                    stacks += 1
        assert stacks == 5452

    @pytest.mark.parametrize("m, error", [
        (np.eye(3) * 1.5, NotUnitary),
        (np.where(np.eye(3) == 1, np.nan, 0), NotUnitary),
        (np.array([np.eye(3), np.eye(3) * 1.5]), NotUnitary),
        (np.eye(4), DimensionMismatch),
        (np.ones((4, 3, 2)), DimensionMismatch),
        (np.ones(3), DimensionMismatch),
    ])
    def test_kernel_refuses_what_eig3_unitary_refuses(self, m, error):
        with pytest.raises(error) as shown:
            eig3_unitary(m)
        with pytest.raises(error) as kernel:
            exactnum._unit_eigenvalues(m)
        assert type(kernel.value) is type(shown.value) and str(kernel.value) == str(shown.value)

    def test_kernel_broken_modulus_is_a_numerical_failure(self, monkeypatch):
        monkeypatch.setattr(exactnum, "_solve_cluster", lambda m: np.linalg.eigvals(m) * 1.001)
        with pytest.raises(NumericalFailure) as shown:
            eig3_unitary(CYCLE)
        with pytest.raises(NumericalFailure) as kernel:
            exactnum._unit_eigenvalues(CYCLE)
        assert str(kernel.value) == str(shown.value)

    def test_projects_onto_unit_circle(self, rng):
        # a block unitary only within tol has eigenvalues off the circle by
        # ~1e-11; they come back projected to modulus 1 at rounding level
        u = random_unitary3(rng) * (1 + 1e-11)
        assert np.max(np.abs(np.abs(np.linalg.eigvals(u)) - 1)) > 5e-12
        assert np.max(np.abs(np.abs(eig3_unitary(u)) - 1)) < 1e-15

    def test_argument_near_two_pi_wraps_to_zero(self):
        # an eigenvalue 1e-13 rad below 2*pi sorts first, as argument 0
        m = np.diag([np.exp(0.5j), np.exp(-1e-13j), -1.0])
        lams = eig3_unitary(m)
        assert abs(lams[0] - np.exp(-1e-13j)) < 1e-15
        assert np.angle(lams[1:]).tolist() == pytest.approx([0.5, math.pi])

    def test_exact_input(self):
        g = coins.grover_type(1)
        assert eig3_unitary(g.matrix) == pytest.approx([1, -1, -1])

    def test_double_eigenvalue_resolved_to_full_precision(self):
        # involutive coin: spectrum {1, -1, -1}; the roots of its float char
        # poly would split by ~sqrt(eps), the eigenvalues of the matrix do not
        c = coins.coin_from_theta("W", 1.8481147461448004).as_float()
        lams = eig3_unitary(c)
        assert np.max(np.abs(np.array(lams) - np.array([1, -1, -1]))) < 1e-12

    def test_near_degenerate_cluster_matches_constructed_spectrum(self, rng):
        # rotate a defective-direction family through angles near the split;
        # the solver is LAPACK itself, so the oracle is the spectrum the
        # block was built from, not np.linalg.eigvals
        for delta in (0.0, 1e-12, 1e-9, 1e-7, 1e-5):
            m = np.diag(
                [np.exp(1j * (math.pi + delta)), np.exp(1j * math.pi), 1.0]
            )
            q = random_unitary3(rng)
            u = q @ m @ q.conj().T
            assert_same_multiset(eig3_unitary(u), np.diag(m), tol=1e-12)

    def test_close_pair_not_merged(self, rng):
        # two roots ~1e-8 apart must come back as two distinct eigenvalues,
        # each to full precision
        for delta in (3e-9, 1e-8, 5e-8, 1e-7):
            m = np.diag([1.0, np.exp(1j * delta), np.exp(0.4j)])
            q = random_unitary3(rng)
            u = q @ m @ q.conj().T
            lams = eig3_unitary(u)
            assert_same_multiset(lams, np.diag(m), tol=1e-12)

    def test_near_triple_root(self, rng):
        # a root-finder on the char poly scatters triple roots by ~eps^(1/3);
        # the eigensolver on the matrix must not
        for delta in (0.0, 1e-10, 1e-7):
            m = np.diag([1.0, np.exp(1j * delta), np.exp(-1j * delta)])
            q = random_unitary3(rng)
            u = q @ m @ q.conj().T
            assert_same_multiset(eig3_unitary(u), np.diag(m), tol=1e-11)


def _mp(v):
    """A Fraction or a real double as an mpf (doubles are binary rationals)."""
    if isinstance(v, Fraction):
        return mpmath.mpf(v.numerator) / v.denominator
    return mpmath.mpf(complex(v).real)


class TestAngleAccuracy:
    """Pins period.ANGLE_ACCURACY, which the spectral no_period_up_to bound
    rests on, against 40-digit mpmath eigenvalues of every walk block."""

    # the P and Grover-type coins (double and triple block eigenvalues), the
    # exact Pell coins at r = 2 and rational-angle float coins; each one also
    # runs negated
    BASE = (
        [coins.perm_matrix(p) for p in range(1, 7)]
        + [coins.grover_type(p) for p in range(1, 7)]
        + [coins.coin_from_rational(f, Fraction(2)) for f in coins.FAMILIES]
        + [coins.coin_from_theta_frac(f, q) for f, q in
           (("X", Fraction(1, 5)), ("Y", Fraction(1, 8)), ("Z", Fraction(2, 7)))]
    )

    @staticmethod
    def reference(entries, f, g):
        """Eigenvalues of D_k C at k = 2*pi*f, with phases e^{ik}, e^{-ik}, e^{-2*pi*i*g}."""
        phases = [mpmath.expjpi(2 * _mp(f)), mpmath.expjpi(-2 * _mp(f)), mpmath.expjpi(-2 * _mp(g))]
        block = mpmath.matrix([[phases[i] * entries[i][j] for j in range(3)] for i in range(3)])
        return list(mpmath.eig(block, left=False, right=False))

    def test_block_angles_match_mpmath(self, monkeypatch):
        cluster_calls = []
        solve_cluster = exactnum._solve_cluster

        def counted(*args):
            cluster_calls.append(args)
            return solve_cluster(*args)

        monkeypatch.setattr(exactnum, "_solve_cluster", counted)
        worst, blocks = 0.0, 0
        with mpmath.workdps(40):
            for base in self.BASE:
                entries = [[_mp(v) for v in row] for row in base.matrix]
                # -C has blocks -U_k and eigenvalues -lambda
                signed = [(sign, coins.Coin3(matrix=sign * base.matrix)) for sign in (1, -1)]
                refs = {}
                for n in range(2, 9):
                    for a, (sign, coin) in itertools.product(range(n // 2 + 1), signed):
                        spec = WalkSpec(n=n, a=a, coin=coin)
                        for l in range(n):
                            f, g = Fraction(l, n), Fraction(l * a % n, n)
                            if (f, g) not in refs:
                                # the coin is real, so block -k is the conjugate of block k
                                mirror = refs.get((-f % 1, -g % 1))
                                refs[f, g] = ([mpmath.conj(z) for z in mirror] if mirror
                                              else self.reference(entries, f, g))
                            ref = [sign * z for z in refs[f, g]]
                            for lam in eig3_unitary(reduced_block(spec, l)):
                                gaps = [abs(mpmath.arg(mpmath.mpc(lam) * mpmath.conj(z))) for z in ref]
                                j = min(range(len(ref)), key=gaps.__getitem__)
                                worst = max(worst, float(gaps[j] / (2 * mpmath.pi)))
                                ref.pop(j)
                            blocks += 1
        assert blocks == 2 * len(self.BASE) * 129
        assert cluster_calls, "no block took the cluster path"
        assert worst < ANGLE_ACCURACY, f"worst angle error {worst:.2e} of 2*pi"


class TestRepresentations:
    def test_orthogonal_inverse_is_transpose(self, rng):
        for _ in range(200):
            fam = coins.FAMILIES[rng.integers(0, 4)]
            c = coins.coin_from_theta(fam, rng.uniform(0, 2 * math.pi)).as_float()
            assert np.linalg.norm(c @ c.T - np.eye(3)) <= 1e-10

    def test_exact_identity_roundtrip(self):
        assert np.array_equal(to_float(EXACT_IDENTITY), np.eye(3).astype(complex))

    def test_exact_orthogonality_is_exact_zero(self):
        assert orthogonality_defect(coins.grover_type(5).matrix) == 0.0


def test_rational_arithmetic_exact_bulk():
    # every Pell-parametrized coin over a grid of rationals r, in every family
    # and sign pair, is exactly orthogonal: with D the lcm of its entries'
    # denominators, the integer matrix K = D M has K^T K = D^2 I in Python
    # integers (no Fraction arithmetic in the oracle); integer_det3 is +-1 and
    # the library's own exact product M^T M is the exact identity
    grid = {Fraction(p, q) for p in range(-12, 13) for q in range(1, 8)}
    checked = 0
    for r in sorted(grid):
        for fam in coins.FAMILIES:
            for s1, s2 in itertools.product((1, -1), repeat=2):
                m = coins.coin_from_rational(fam, r, s1, s2).matrix
                assert all(type(e) is Fraction for e in m.flat)
                d = math.lcm(*(e.denominator for e in m.flat))
                k = [[e.numerator * (d // e.denominator) for e in row] for row in m]
                for i, j in itertools.product(range(3), repeat=2):
                    gram = sum(k[row][i] * k[row][j] for row in range(3))
                    assert gram == (d * d if i == j else 0), (fam, r, s1, s2)
                assert integer_det3(m) in (1, -1)
                assert np.array_equal(m.T @ m, EXACT_IDENTITY)
                checked += 1
    assert checked == 16 * len(grid) == 1840


def _fraction_orthogonal(m) -> bool:
    """Reference verdict: m^T m = I in Fraction arithmetic, entry by entry."""
    rows = m.tolist()
    k = len(rows)
    return all(
        sum((rows[r][i] * rows[r][j] for r in range(k)), Fraction(0)) == (1 if i == j else 0)
        for i in range(k) for j in range(k)
    )


def _fraction_det3(m) -> Fraction:
    """Reference det: cofactor expansion in Fraction arithmetic."""
    (a, b, c), (d, e, f), (g, h, i) = (tuple(Fraction(v) for v in row) for row in m.tolist())
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def integer_det3(m) -> Fraction:
    """det of an exact 3x3 matrix by the integer kernel `classify` uses:
    det(M) / d^3 for the scaled integers M = d*m."""
    rows, d = exactnum._scaled_integer(m)
    return Fraction(exactnum._integer_det3(rows), d ** 3)


def _float_defect(m) -> float:
    mf = to_float(m)
    return float(np.linalg.norm(mf.T @ mf - np.eye(3)))


class TestIntegerExactPath:
    """orthogonality_defect and integer_det3 on exact matrices scale by the lcm of
    the denominators and work in integers; their verdicts and dets equal the
    Fraction reference above."""

    @settings(max_examples=300, deadline=None)
    @given(family=st.sampled_from(coins.FAMILIES), num=st.integers(-10**6, 10**6),
           den=st.integers(1, 10**6), s1=st.sampled_from((1, -1)), s2=st.sampled_from((1, -1)))
    def test_rational_coins_match_fraction_reference(self, family, num, den, s1, s2):
        m = coins.coin_from_rational(family, Fraction(num, den), s1, s2).matrix
        assert _fraction_orthogonal(m)
        assert orthogonality_defect(m) == 0.0
        det = integer_det3(m)
        assert type(det) is Fraction and det == _fraction_det3(m) == (1 if family in ("X", "W") else -1)

    @settings(max_examples=200, deadline=None)
    @given(family=st.sampled_from(coins.FAMILIES), num=st.integers(-10**6, 10**6),
           den=st.integers(1, 10**6), s1=st.sampled_from((1, -1)), s2=st.sampled_from((1, -1)),
           entry=st.integers(0, 8), sign=st.sampled_from((1, -1)))
    def test_perturbed_rational_coins_match_fraction_reference(self, family, num, den, s1, s2,
                                                               entry, sign):
        m = coins.coin_from_rational(family, Fraction(num, den), s1, s2).matrix.copy()
        m.flat[entry] += sign * Fraction(1, 10**9)
        assert not _fraction_orthogonal(m)
        defect = orthogonality_defect(m)
        assert defect == _float_defect(m) > exactnum.DEFAULT_TOL
        assert integer_det3(m) == _fraction_det3(m)
        with pytest.raises(NotOrthogonal):
            coins.classify(m)

    def test_special_coins_match_fraction_reference(self):
        assert len(coins.SPECIAL_COINS) == 24
        for coin in coins.SPECIAL_COINS:
            m = coin.matrix
            assert _fraction_orthogonal(m) and orthogonality_defect(m) == 0.0
            assert integer_det3(m) == _fraction_det3(m) in (1, -1)
            assert type(integer_det3(m)) is Fraction

    def test_products_of_rational_coins(self):
        a = coins.coin_from_rational("X", Fraction(999983, 1000003), 1, -1)
        b = coins.coin_from_rational("W", Fraction(-7, 123457), -1, 1)
        m = coins.multiply(a, b).matrix
        assert _fraction_orthogonal(m) and orthogonality_defect(m) == 0.0
        assert integer_det3(m) == _fraction_det3(m) == 1

    @pytest.mark.parametrize("rows, det", [
        ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], 1),
        # unit columns that are not orthogonal: only an off-diagonal entry of m^T m is off
        ([["3/5", "4/5", 0], ["4/5", "3/5", 0], [0, 0, 1]], Fraction(-7, 25)),
    ])
    def test_non_orthogonal_matrices(self, rows, det):
        m = exactnum.exact_matrix(rows)
        assert not _fraction_orthogonal(m)
        assert orthogonality_defect(m) == _float_defect(m) > 0
        assert integer_det3(m) == _fraction_det3(m) == det

    @pytest.mark.parametrize("entry", ["1e400", "-3e500", Fraction(10**400, 7)])
    def test_entry_past_the_float_range_gives_an_infinite_defect(self, entry):
        # to_float overflows on the entry; the defect, at least its square less 1, is inf
        m = exactnum.exact_matrix([[entry, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert orthogonality_defect(m) == math.inf
        with pytest.raises(NotOrthogonal, match="^orthogonality defect inf$"):
            coins.classify(m)
