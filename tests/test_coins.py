import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from livelywalk import WalkSpec, coins, period_analytic, period_spectral
from livelywalk.coins import (
    SPECIAL_COINS,
    Coin3,
    classify,
    coin_from_json,
    coin_from_rational,
    coin_from_theta,
    coin_from_theta_frac,
    coin_from_xyz,
    coin_to_json,
    decompose_linear_sum,
    grover_type,
    multiply,
    pell_point,
    perm_matrix,
    solve_y,
)
from livelywalk.errors import (
    ConstraintViolated,
    NotOrthogonal,
    NotPermutative,
    OutOfRange,
    RangeViolated,
)
from livelywalk.exactnum import exact_matrix, orthogonality_defect

SQ3 = math.sqrt(3.0)
EXACT_IDENTITY = exact_matrix(np.eye(3, dtype=int).tolist())
DELTA1 = np.array(
    [
        [1 / 3, (1 + SQ3) / 3, (1 - SQ3) / 3],
        [(1 - SQ3) / 3, 1 / 3, (1 + SQ3) / 3],
        [(1 + SQ3) / 3, (1 - SQ3) / 3, 1 / 3],
    ]
)
GROVER = (2.0 / 3.0) * np.ones((3, 3)) - np.eye(3)

# corrected determinant table: Z = P4 X and W = P4 Y flip the sign of X and Y
DET_OF = {"X": 1, "Y": -1, "Z": -1, "W": 1}


def rows_are_permutations_of_first(m: np.ndarray, tol=1e-10) -> bool:
    """Brute-force permutative check over all 6 row patterns."""
    first = m[0]
    for row in m[1:]:
        if not any(
            np.allclose(row, first[list(p)], atol=tol)
            for p in itertools.permutations(range(3))
        ):
            return False
    return True


class TestPermMatrices:
    def test_p1_is_identity(self):
        assert np.array_equal(perm_matrix(1).matrix, EXACT_IDENTITY)

    def test_p4_swaps_last_two(self):
        assert np.array_equal(
            perm_matrix(4).as_float().real, np.array([[1.0, 0, 0], [0, 0, 1], [0, 1, 0]])
        )

    def test_p2_three_cycle(self):
        # p_ij = 1 iff pi(i) = j applied to 1 -> 2 -> 3 -> 1
        assert np.array_equal(
            perm_matrix(2).as_float().real, np.array([[0.0, 1, 0], [0, 0, 1], [1, 0, 0]])
        )

    def test_all_six_distinct_and_orthogonal(self):
        seen = set()
        for p in range(1, 7):
            m = perm_matrix(p)
            assert orthogonality_defect(m.matrix) == 0.0
            seen.add(tuple(map(float, m.as_float().real.flat)))
        assert len(seen) == 6

    def test_index_out_of_range(self):
        with pytest.raises(OutOfRange):
            perm_matrix(7)


class TestSharedSpecialCoins:
    """perm_matrix and grover_type return the read-only SPECIAL_COINS entries."""

    def test_constructors_return_the_shared_constants(self):
        assert perm_matrix(2) is perm_matrix(2)
        for p in range(1, 7):
            assert perm_matrix(p) is SPECIAL_COINS[p - 1]
            assert grover_type(p) is SPECIAL_COINS[5 + p]
            assert grover_type(p, negate=True) is SPECIAL_COINS[17 + p]

    def test_shared_matrices_are_read_only(self):
        with pytest.raises(ValueError):
            perm_matrix(2).matrix[0, 0] = Fraction(0)
        with pytest.raises(ValueError):
            perm_matrix(2).as_float()[0, 0] = 0.0
        assert perm_matrix(2).as_float() is perm_matrix(2).as_float()

    def test_float_coin_matrix_stays_writable(self):
        coin = coin_from_theta("X", 1.0)
        mf = coin.as_float()
        assert mf is coin.as_float() and not np.shares_memory(mf, coin.matrix)
        assert np.array_equal(mf, coin.matrix)
        with pytest.raises(ValueError):
            mf[0, 0] = 0.0
        coin.matrix[0, 0] = coin.matrix[0, 0]

    def test_negated_constant_is_a_fresh_writable_coin(self):
        coin = Coin3(matrix=-perm_matrix(2).matrix)
        assert all(coin is not shared for shared in SPECIAL_COINS)
        coin.matrix[0, 0] = coin.matrix[0, 0]
        assert coin.classification.family == "Y" and coin.classification.is_special

    def test_each_shared_coin_classified_once(self, monkeypatch):
        calls = []
        real = coins.classify

        def counting_classify(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(coins, "classify", counting_classify)
        for coin in (perm_matrix(2), grover_type(3, negate=True)):
            # forget the classification an earlier test may have cached; restored after the test
            monkeypatch.delitem(vars(coin), "classification", raising=False)
        for n in range(3, 9):
            for spec in (WalkSpec(n, 1, perm_matrix(2)), WalkSpec(n, 1, grover_type(3, negate=True))):
                period_analytic(spec)
                period_spectral(spec)
        assert len(calls) == 2


class TestCoinFromXyz:
    def test_identity_point(self):
        c = coin_from_xyz("X", 1, 0, 0)
        assert np.array_equal(c.matrix, EXACT_IDENTITY)

    def test_grover_point(self):
        c = coin_from_xyz("X", Fraction(-1, 3), Fraction(2, 3), Fraction(2, 3))
        assert np.array_equal(c.matrix, grover_type(1).matrix)

    def test_z_basis_point_is_p4(self):
        c = coin_from_xyz("Z", 1, 0, 0)
        assert np.array_equal(c.matrix, perm_matrix(4).matrix)

    def test_off_ellipse_rejected(self):
        with pytest.raises(NotOrthogonal):
            coin_from_xyz("X", 0.5, 0.5, 0.0)

    def test_point_off_the_ellipse_by_3e_11_rejected_at_construction(self):
        # the sum is exact and the ellipse residual 3.4e-11, so the
        # orthogonality defect, sqrt(18) times the residual, is 1.4e-10:
        # past DEFAULT_TOL, and classify's error for the same matrix
        x = 0.5
        y = solve_y("X", x)[0] + 3e-11
        with pytest.raises(NotOrthogonal):
            coin_from_xyz("X", x, y, 1 - x - y)

    def test_bad_sum_rejected(self):
        with pytest.raises(NotOrthogonal):
            coin_from_xyz("X", Fraction(1), Fraction(0), Fraction(1))

    def test_exact_point_off_the_ellipse_by_1e_12_rejected(self):
        # the ellipse residual is 1e-12, well inside DEFAULT_TOL as a float
        # defect, but an exact coin must be exactly orthogonal
        eps = Fraction(1, 10**6)
        with pytest.raises(NotOrthogonal, match="orthogonality defect 4.243e-12"):
            coin_from_xyz("X", 1, eps, -eps)
        with pytest.raises(NotOrthogonal):
            classify(Coin3(matrix=exact_matrix([[1, eps, -eps], [-eps, 1, eps], [eps, -eps, 1]])), tol=1e-3)

    def test_complex_needs_flag(self):
        # a complex point on the X ellipse, from the complex-angle parametrization
        c = coin_from_theta("X", 0.3 + 0.2j)
        x, y, z = c.params
        with pytest.raises(RangeViolated):
            coin_from_xyz("X", x, y, z)
        ok = coin_from_xyz("X", x, y, z, allow_complex=True)
        assert orthogonality_defect(ok.matrix) <= 1e-8

    @pytest.mark.parametrize("allow_complex", (False, True))
    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    @pytest.mark.parametrize("slot", range(3))
    @pytest.mark.parametrize("family", coins.FAMILIES)
    def test_non_finite_coefficient_rejected(self, family, slot, bad, allow_complex):
        xyz = list(coin_from_theta(family, 0.3).params)
        xyz[slot] = bad
        with pytest.raises(NotOrthogonal):
            coin_from_xyz(family, *xyz, allow_complex=allow_complex)

    @pytest.mark.parametrize("allow_complex", (False, True))
    @pytest.mark.parametrize("family", coins.FAMILIES)
    def test_all_nan_and_cancelling_infinities_rejected(self, family, allow_complex):
        for xyz in ((math.nan,) * 3, (math.inf, -math.inf, 0.0)):
            with pytest.raises(NotOrthogonal):
                coin_from_xyz(family, *xyz, allow_complex=allow_complex)


class TestSolveY:
    def test_endpoint_double_root(self):
        assert solve_y("X", 1) == (0, 0)

    def test_grover_x(self):
        assert solve_y("X", Fraction(-1, 3)) == (Fraction(2, 3), Fraction(2, 3))

    def test_x_zero(self):
        assert solve_y("X", 0) == (1, 0)

    def test_rational_when_discriminant_square(self):
        y_plus, y_minus = solve_y("X", Fraction(3, 7))
        assert isinstance(y_plus, Fraction)
        assert {y_plus, y_minus} == {Fraction(6, 7), Fraction(-2, 7)}

    def test_out_of_interval(self):
        with pytest.raises(OutOfRange):
            solve_y("X", 2)

    def test_roots_lie_on_ellipse(self, rng):
        for _ in range(100):
            x = rng.uniform(-1 / 3, 1.0)
            for y in solve_y("X", x):
                assert abs(x * x + y * y - x - y + x * y) < 1e-10


class TestCoinFromTheta:
    def test_theta_zero_is_identity(self):
        assert np.allclose(coin_from_theta("X", 0.0).as_float(), np.eye(3), atol=1e-15)

    def test_quarter_turn_matches_delta1(self):
        assert np.allclose(coin_from_theta("X", math.pi / 2).as_float().real, DELTA1, atol=1e-15)

    def test_two_thirds_turn_is_cyclic_permutation(self):
        expected = np.array([[0.0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert np.allclose(coin_from_theta("X", 2 * math.pi / 3).as_float().real, expected, atol=1e-15)

    def test_families_orthogonal_everywhere(self, rng):
        for fam in coins.FAMILIES:
            for _ in range(1000):
                c = coin_from_theta(fam, rng.uniform(0, 2 * math.pi))
                assert orthogonality_defect(c.matrix) <= 1e-12

    def test_det_sign_per_family(self, rng):
        for fam in coins.FAMILIES:
            for _ in range(250):
                c = coin_from_theta(fam, rng.uniform(0, 2 * math.pi))
                det = np.linalg.det(c.as_float())
                assert abs(det - DET_OF[fam]) < 1e-10

    def test_z_and_w_swap_rows(self, rng):
        p4 = perm_matrix(4).as_float()
        for _ in range(50):
            t = rng.uniform(0, 2 * math.pi)
            assert np.allclose(
                coin_from_theta("Z", t).as_float(), p4 @ coin_from_theta("X", t).as_float()
            )
            assert np.allclose(
                coin_from_theta("W", t).as_float(), p4 @ coin_from_theta("Y", t).as_float()
            )

    def test_theta_frac_attaches_fraction(self):
        c = coin_from_theta_frac("X", Fraction(1, 5))
        assert c.theta_frac == Fraction(1, 5)
        assert np.allclose(c.as_float(), coin_from_theta("X", 2 * math.pi / 5).as_float())


class TestRationalCoins:
    def test_r3_gives_grover_type_coefficients(self):
        c = coin_from_rational("X", Fraction(3))
        assert c.params == (Fraction(2, 3), Fraction(-1, 3), Fraction(2, 3))

    def test_r1_gives_permutation(self):
        c = coin_from_rational("X", Fraction(1))
        assert c.params == (Fraction(0), Fraction(0), Fraction(1))
        assert classify(c.matrix).is_permutation

    @pytest.mark.parametrize("s1", [1, -1])
    @pytest.mark.parametrize("s2", [1, -1])
    @pytest.mark.parametrize("family", ["X", "Y", "Z", "W"])
    def test_all_sign_combinations_exactly_orthogonal(self, family, s1, s2):
        c = coin_from_rational(family, Fraction(5, 7), s1, s2)
        assert orthogonality_defect(c.matrix) == 0.0

    @given(
        num=st.integers(min_value=-40, max_value=40),
        den=st.integers(min_value=1, max_value=40),
        s1=st.sampled_from([1, -1]),
        s2=st.sampled_from([1, -1]),
    )
    @settings(max_examples=150, deadline=None)
    def test_pell_square_property(self, num, den, s1, s2):
        # (1 - x)(3x + 1) must be the square of a rational for X-family points
        c = coin_from_rational("X", Fraction(num, den), s1, s2)
        x = c.params[0]
        value = (1 - x) * (3 * x + 1)
        assert value >= 0
        assert math.isqrt(value.numerator) ** 2 == value.numerator
        assert math.isqrt(value.denominator) ** 2 == value.denominator


class TestPellPoint:
    @pytest.mark.parametrize(
        "r,expected",
        [
            (Fraction(1), (Fraction(-2), Fraction(1))),
            (Fraction(3), (Fraction(2), Fraction(-1))),
            (Fraction(2), (Fraction(7), Fraction(-4))),
        ],
    )
    def test_examples(self, r, expected):
        assert pell_point(r) == expected

    @given(num=st.integers(-1000, 1000), den=st.integers(1, 1000))
    @settings(max_examples=200, deadline=None)
    def test_on_pell_curve(self, num, den):
        x, y = pell_point(Fraction(num, den))
        assert x * x - 3 * y * y == 1


class TestGroverType:
    def test_grover_matrix(self):
        g = grover_type(1)
        for i in range(3):
            for j in range(3):
                assert g.matrix[i][j] == (Fraction(-1, 3) if i == j else Fraction(2, 3))

    def test_negated(self):
        assert np.array_equal(grover_type(1, negate=True).matrix, -grover_type(1).matrix)

    def test_p5_variant(self):
        expected = np.array([[2, -1, 2], [-1, 2, 2], [2, 2, -1]], dtype=float) / 3
        assert np.allclose(grover_type(5).as_float().real, expected)

    def test_all_variants_are_row_permuted_grover(self):
        rows = {tuple(map(float, grover_type(1).as_float().real[i])) for i in range(3)}
        for p in range(1, 7):
            got = {tuple(map(float, grover_type(p).as_float().real[i])) for i in range(3)}
            assert got == rows


class TestDecompose:
    def test_grover_decomposition(self):
        coeffs = decompose_linear_sum(grover_type(1).matrix)
        assert coeffs.basis == "cyclic"
        assert (coeffs.x, coeffs.y, coeffs.z) == (Fraction(-1, 3), Fraction(2, 3), Fraction(2, 3))

    def test_p4_decomposition(self):
        coeffs = decompose_linear_sum(perm_matrix(4).matrix)
        assert coeffs.basis == "transposition"
        assert (coeffs.x, coeffs.y, coeffs.z) == (1, 0, 0)

    def test_plane_rotation_is_not_permutative(self):
        t = math.pi / 4
        rot = np.array(
            [[math.cos(t), -math.sin(t), 0], [math.sin(t), math.cos(t), 0], [0, 0, 1]]
        )
        assert not rows_are_permutations_of_first(rot)
        with pytest.raises(NotPermutative):
            decompose_linear_sum(rot)

    def test_non_orthogonal_rejected(self):
        with pytest.raises(NotOrthogonal):
            decompose_linear_sum(np.ones((3, 3)))

    def test_roundtrip_identity(self, rng):
        for fam in coins.FAMILIES:
            for _ in range(250):
                c = coin_from_theta(fam, rng.uniform(0, 2 * math.pi))
                coeffs = decompose_linear_sum(c.matrix)
                x, y, z = c.params
                assert coeffs.x == x and coeffs.y == y and coeffs.z == z

    def test_both_directions_at_desk_scale(self, rng):
        # (i) every sampled orthogonal linear sum is permutative;
        # (ii) every sampled permutative orthogonal matrix decomposes
        for _ in range(500):
            fam = coins.FAMILIES[rng.integers(0, 4)]
            m = coin_from_theta(fam, rng.uniform(0, 2 * math.pi)).as_float().real
            assert rows_are_permutations_of_first(m)
            decompose_linear_sum(m)  # must not raise


class TestClassify:
    def test_grover(self):
        cls = classify(grover_type(1).matrix)
        assert cls.family == "X"
        assert cls.is_grover_type and grover_type(1).is_rational and not cls.is_permutation

    def test_p4(self):
        cls = classify(perm_matrix(4).matrix)
        assert cls.family == "Z"
        assert cls.is_permutation

    def test_delta1_no_flags(self):
        cls = classify(DELTA1)
        assert cls.family == "X"
        assert not (cls.is_permutation or cls.is_grover_type or coins.Coin3(matrix=DELTA1).is_rational)

    @settings(max_examples=300, deadline=None)
    @given(fam=st.sampled_from(coins.FAMILIES),
           theta=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
    def test_theta_recovers_the_angle(self, fam, theta):
        got = classify(coin_from_theta(fam, theta)).theta
        assert 0.0 <= got <= 2 * math.pi  # -1e-300 % 2pi rounds to 2pi
        diff = (got - theta) % (2 * math.pi)
        assert min(diff, 2 * math.pi - diff) <= 1e-9

    @pytest.mark.parametrize("coin", SPECIAL_COINS)
    def test_special_coins_are_special(self, coin):
        assert classify(coin).is_special

    @pytest.mark.parametrize("p", range(1, 7))
    def test_both_negations_are_special(self, p):
        for coin in (Coin3(matrix=-perm_matrix(p).matrix), grover_type(p, negate=True)):
            cls = coin.classification
            assert cls.is_special and not (cls.is_permutation or cls.is_grover_type)

    @pytest.mark.parametrize("fam", coins.FAMILIES)
    def test_near_special_angles_are_not_special(self, fam):
        for k in range(6):
            assert classify(coin_from_theta(fam, 2 * math.pi * k / 6)).is_special
            for eps in (-1e-9, 1e-9):
                cls = classify(coin_from_theta(fam, 2 * math.pi * k / 6 + eps))
                assert not (cls.is_special or cls.is_permutation or cls.is_grover_type)

    def test_family_by_basis_and_sign(self, rng):
        for fam in coins.FAMILIES:
            for _ in range(100):
                c = coin_from_theta(fam, rng.uniform(0, 2 * math.pi))
                assert classify(c.matrix).family == fam

    def test_trichotomy(self, rng):
        # each coin satisfies exactly one of the two sum constraints
        for fam in coins.FAMILIES:
            for _ in range(100):
                x, y, z = coin_from_theta(fam, rng.uniform(0, 2 * math.pi)).params
                s = (x + y + z).real
                assert abs(abs(s) - 1) < 1e-10
                assert (abs(s - 1) < 1e-10) != (abs(s + 1) < 1e-10)


class TestMultiply:
    def test_x_theta_homomorphism(self, rng):
        for _ in range(200):
            t1, t2 = rng.uniform(0, 2 * math.pi, size=2)
            prod = multiply(coin_from_theta("X", t1), coin_from_theta("X", t2))
            expected = coin_from_theta("X", (t1 + t2) % (2 * math.pi))
            assert np.max(np.abs(prod.as_float() - expected.as_float())) <= 1e-10

    def test_delta_squares_to_grover(self):
        d1 = coin_from_theta("X", math.pi / 2)
        assert np.max(np.abs(multiply(d1, d1).as_float().real - GROVER)) <= 1e-12

    def test_transposition_squares_to_identity(self):
        p4 = perm_matrix(4)
        assert np.array_equal(multiply(p4, p4).matrix, EXACT_IDENTITY)

    def test_classifies_each_product_once(self, monkeypatch):
        calls = []
        real = coins.classify

        def counting_classify(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(coins, "classify", counting_classify)
        a, b = coin_from_theta("X", 0.4), coin_from_theta("W", 1.3)
        assert (a.classification.family, b.classification.family) == ("X", "W")
        calls.clear()
        prod = multiply(a, b)
        assert prod.classification.family == prod.family == "W"
        assert len(calls) == 1
        assert multiply(prod, a).classification.family == "W"
        assert len(calls) == 2

    def test_product_coefficients_are_its_first_row(self):
        prod = multiply(grover_type(2), perm_matrix(5))
        coeffs = decompose_linear_sum(prod.matrix)
        assert prod.params == tuple(prod.matrix[0]) == (coeffs.x, coeffs.y, coeffs.z)
        assert prod.family == prod.classification.family == "Z"  # X times Z

    def test_closure_table(self, rng):
        sum_sign = {"X": 1, "Y": -1, "Z": 1, "W": -1}
        basis_parity = {"X": 0, "Y": 0, "Z": 1, "W": 1}
        for _ in range(1000):
            fa, fb = (coins.FAMILIES[i] for i in rng.integers(0, 4, size=2))
            a = coin_from_theta(fa, rng.uniform(0, 2 * math.pi))
            b = coin_from_theta(fb, rng.uniform(0, 2 * math.pi))
            prod = multiply(a, b)  # raises on any closure violation
            cls = classify(prod.matrix)
            assert basis_parity[cls.family] == (basis_parity[fa] + basis_parity[fb]) % 2
            assert sum_sign[cls.family] == sum_sign[fa] * sum_sign[fb]

    def test_complex_closure(self, rng):
        # complex-parameter coins are still complex orthogonal and obey the sum rule
        for _ in range(100):
            fa, fb = (coins.FAMILIES[i] for i in rng.integers(0, 4, size=2))
            wa = rng.uniform(0, 2 * math.pi) + 1j * rng.uniform(-0.5, 0.5)
            wb = rng.uniform(0, 2 * math.pi) + 1j * rng.uniform(-0.5, 0.5)
            a, b = coin_from_theta(fa, wa), coin_from_theta(fb, wb)
            m = a.as_float() @ b.as_float()
            assert np.linalg.norm(m.T @ m - np.eye(3)) <= 1e-8
            s = m[0].sum()
            want = (1 if fa in "XZ" else -1) * (1 if fb in "XZ" else -1)
            assert abs(s - want) <= 1e-8


class TestSerialization:
    def test_exact_roundtrip(self):
        doc = coin_to_json(grover_type(6))
        assert doc["repr"] == "exact"
        assert doc["entries"][0][0] == "2/3"
        back = coin_from_json(json.loads(json.dumps(doc)))
        assert np.array_equal(back.matrix, grover_type(6).matrix)

    def test_float_roundtrip(self):
        c = coin_from_theta("Y", 1.0)
        doc = coin_to_json(c)
        assert doc["repr"] == "float"
        back = coin_from_json(json.loads(json.dumps(doc)))
        assert np.allclose(back.as_float(), c.as_float())

    def test_schema_fields(self):
        doc = coin_to_json(coin_from_theta("W", 0.25))
        assert set(doc) == {"repr", "entries", "family", "params"}
        assert doc["family"] == "W"
        assert set(doc["params"]) == {"x", "y", "z"}


class TestParamsAreTheFirstRow:
    NAMED = [
        perm_matrix(4),
        grover_type(2, negate=True),
        coin_from_xyz("Y", Fraction(-1), Fraction(0), Fraction(0)),
        coin_from_theta("Z", 1.0),
        coin_from_theta_frac("W", Fraction(2, 7)),
        coin_from_rational("X", Fraction(5, 7), -1, 1),
        multiply(grover_type(2), coin_from_theta("W", 0.5)),
        coin_from_json(coin_to_json(coin_from_rational("Z", Fraction(2)))),
    ]

    @pytest.mark.parametrize("coin", NAMED)
    def test_named_coin(self, coin):
        assert coin.family is not None
        assert coin.params == tuple(coin.matrix[0].tolist())

    @pytest.mark.parametrize("coin", [
        Coin3(matrix=-perm_matrix(1).matrix),
        coin_from_json({"repr": "exact", "entries": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}),
    ])
    def test_coin_without_family(self, coin):
        assert coin.params is None
        assert coin_to_json(coin)["params"] is None

    def test_classification_rejects_a_wrong_family(self):
        with pytest.raises(ConstraintViolated, match="names family W but its entries are family X"):
            Coin3(matrix=perm_matrix(1).matrix, family="W").classification
