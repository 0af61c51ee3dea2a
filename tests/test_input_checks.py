"""Each input check of the library API raises its own exception type and
message, and `Coin3` equality compares matrices only."""

import math
from fractions import Fraction

import numpy as np
import pytest

from livelywalk import WalkSpec, coins, cross_validate, verify, walk
from livelywalk.errors import ConstraintViolated, DimensionMismatch, OutOfRange, RangeViolated
from livelywalk.exactnum import multiset_distance


def raised(error, call, *args, **kwargs) -> str:
    """The message of the `error` that call(*args, **kwargs) raises."""
    with pytest.raises(error) as exc:
        call(*args, **kwargs)
    assert type(exc.value) is error
    return str(exc.value)


class TestUnknownFamily:
    # the family is checked before any other argument
    @pytest.mark.parametrize("call, args", [
        (coins.coin_from_xyz, (1.0, 0.0, 0.0)),
        (coins.solve_y, (math.nan,)),
        (coins.coin_from_theta, (math.nan,)),
        (coins.coin_from_rational, (Fraction(1), 0, 0)),
    ])
    def test_each_constructor(self, call, args):
        assert raised(OutOfRange, call, "Q", *args) == "unknown family 'Q'"


class TestCoinArguments:
    def test_grover_type_index(self):
        assert raised(OutOfRange, coins.grover_type, 7) == "permutation index must be 1..6, got 7"

    @pytest.mark.parametrize("signs", [(0, 1), (1, 0), (2, -1)])
    def test_rational_coin_signs(self, signs):
        message = raised(OutOfRange, coins.coin_from_rational, "X", Fraction(1, 2), *signs)
        assert message == "sign1 and sign2 must be +1 or -1"

    def test_real_x_range_message(self, monkeypatch):
        # x = 1 is X's upper end; with the range narrowed to [-1/3, 1/2] the
        # identity coin's coefficients reach the real-x-range check
        monkeypatch.setitem(coins.REAL_X_RANGE, "X", (Fraction(-1, 3), Fraction(1, 2)))
        message = raised(RangeViolated, coins.coin_from_xyz, "X", 1.0, 0.0, 0.0)
        assert message == "x = 1.0 outside real range [-1/3, 1/2] of family X"

    @pytest.mark.parametrize("family", coins.FAMILIES)
    def test_x_past_the_real_range_is_off_the_ellipse(self, family):
        # at a real x past the range by d, the ellipse residual is at least d
        # for every real y, so the ellipse check fires before the real-x-range check
        _, s = coins._FAMILY[family]
        lo, hi = coins.REAL_X_RANGE[family]
        for x in (float(hi) + 2e-10, float(lo) - 2e-10):
            y = (s - x) / 2  # the vertex: the least residual over real y
            message = raised(ConstraintViolated, coins.coin_from_xyz, family, x, y, s - x - y)
            assert message == "(x, y) is not on the family ellipse"


class TestSolveY:
    def test_complex_x(self):
        # X at x = 2: y^2 + y + 2 = 0, so y = (-1 +- i sqrt 7) / 2
        y_plus, y_minus = coins.solve_y("X", complex(2))
        assert isinstance(y_plus, complex) and isinstance(y_minus, complex)
        assert y_plus == pytest.approx(complex(-0.5, math.sqrt(7) / 2), abs=1e-15)
        assert y_minus == pytest.approx(complex(-0.5, -math.sqrt(7) / 2), abs=1e-15)

    def test_fraction_x_without_a_rational_root(self):
        # X at x = 1/2: the discriminant is 5/4, not a rational square
        y_plus, y_minus = coins.solve_y("X", Fraction(1, 2))
        assert type(y_plus) is float and type(y_minus) is float
        assert y_plus == pytest.approx((0.5 + math.sqrt(1.25)) / 2, abs=1e-15)
        assert y_minus == pytest.approx((0.5 - math.sqrt(1.25)) / 2, abs=1e-15)


class TestSerializationChecks:
    def test_unknown_repr_tag(self):
        doc = coins.coin_to_json(coins.grover_type(1)) | {"repr": "complex"}
        assert raised(ConstraintViolated, coins.coin_from_json, doc) == "unknown repr tag 'complex'"

    def test_complex_parameter_coin(self):
        message = raised(ConstraintViolated, coins.coin_to_json, coins.coin_from_theta("X", 1j))
        assert message == "cannot serialize a complex-parameter coin"


def test_complex_coin_is_not_rational():
    assert coins.coin_from_theta("X", 0.5 + 0.5j).classification.is_rational is False


class TestCoinEquality:
    def test_equal_matrices_whatever_the_names(self):
        named = coins.coin_from_theta_frac("Z", Fraction(1, 5))
        plain = coins.Coin3(matrix=named.matrix.copy())
        renamed = coins.Coin3(matrix=named.matrix.copy(), family="W", theta_frac=Fraction(2, 7))
        assert named == plain == renamed
        assert named.family != plain.family and named.theta_frac != renamed.theta_frac

    def test_different_matrices(self):
        assert coins.grover_type(1) != coins.grover_type(2)

    def test_non_coin_is_not_implemented(self):
        coin = coins.grover_type(1)
        assert coin.__eq__(coin.matrix) is NotImplemented
        assert coin != "P1"


class TestWalkChecks:
    def test_basis_state_coin_state(self):
        assert raised(OutOfRange, walk.basis_state, 4, 0, 3) == "coin state must be 0, 1 or 2, got 3"

    def test_distribution_length(self):
        message = raised(OutOfRange, walk.distribution, np.zeros(4, dtype=complex))
        assert message == "state length 4 is not a multiple of 3"


def test_multiset_sizes():
    message = raised(DimensionMismatch, multiset_distance, [1, 1j], [1])
    assert message == "multisets differ in size: 2 != 1"


def test_cross_validate_unknown_method():
    spec = WalkSpec(n=3, a=0, coin=coins.grover_type(1))
    assert raised(ValueError, cross_validate, spec, methods=("magic",)) == "unknown method 'magic'"


def test_unknown_suite():
    message = raised(ValueError, verify.run_suite, "nope")
    assert message == f"unknown suite 'nope'; choose from {', '.join(verify.SUITES)}"
