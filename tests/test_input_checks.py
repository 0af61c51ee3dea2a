"""Each input check of the library API raises its own exception type and
message, and `Coin3` equality compares matrices only."""

import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from livelywalk import (
    WalkSpec,
    coins,
    cross_validate,
    period,
    period_bruteforce,
    period_spectral,
    report_json,
    verify,
    walk,
)
from livelywalk.errors import ConstraintViolated, DimensionMismatch, NotOrthogonal, OutOfRange
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

    @pytest.mark.parametrize("family", coins.FAMILIES)
    def test_x_past_the_real_range_is_off_the_ellipse(self, family):
        # real x runs between the roots s and -s/3 of solve_y's discriminant;
        # at a real x past either end by d, the ellipse residual is at least d
        # for every real y, so the orthogonality defect is past DEFAULT_TOL
        _, s = coins._FAMILY[family]
        for end, outward in ((s, s), (-s / 3, -s)):
            x = end + outward * 2e-10
            y = (s - x) / 2  # the vertex: the least residual over real y
            message = raised(NotOrthogonal, coins.coin_from_xyz, family, x, y, s - x - y)
            assert message.startswith("orthogonality defect ")


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

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_is_out_of_range(self, x):
        # a NaN discriminant is not >= 0 either, so NaN fails as inf does
        assert raised(OutOfRange, coins.solve_y, "X", x) == f"x = {x} outside the real interval of family X"


class TestSerializationChecks:
    def test_unknown_repr_tag(self):
        doc = coins.coin_to_json(coins.grover_type(1)) | {"repr": "complex"}
        assert raised(ConstraintViolated, coins.coin_from_json, doc) == "unknown repr tag 'complex'"

    def test_complex_parameter_coin(self):
        message = raised(ConstraintViolated, coins.coin_to_json, coins.coin_from_theta("X", 1j))
        assert message == "cannot serialize a complex-parameter coin"

    def test_report_of_a_coin_within_the_realness_tolerance(self):
        # max |imag| is 5.9e-12, within DEFAULT_TOL: WalkSpec accepts the coin
        # as real, so its report serializes, with the real part's entries
        coin = coins.coin_from_theta("X", 1 + 1e-11j)
        doc = report_json(cross_validate(WalkSpec(5, 1, coin)))
        assert doc == report_json(cross_validate(WalkSpec(5, 1, coins.coin_from_theta("X", 1.0))))


def test_complex_coin_is_not_rational():
    assert coins.coin_from_theta("X", 0.5 + 0.5j).is_rational is False


def test_non_finite_coin_is_not_rational():
    assert coins.Coin3(matrix=np.full((3, 3), math.nan)).is_rational is False
    assert coins.Coin3(matrix=np.diag([math.inf, 1.0, 1.0])).is_rational is False


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
    @pytest.mark.parametrize("n, a", [(3.0, 0), (3, 0.0)])
    def test_spec_sizes_must_be_integers(self, n, a):
        message = raised(OutOfRange, WalkSpec, n, a, coins.perm_matrix(2))
        assert message == f"cycle length and liveliness must be integers, got n={n!r}, a={a!r}"

    @pytest.mark.parametrize("method", [period_spectral, period_bruteforce])
    def test_numpy_integer_sizes(self, method):
        spec = WalkSpec(np.int64(3), np.int64(1), coins.perm_matrix(2))
        assert method(spec) == method(WalkSpec(3, 1, coins.perm_matrix(2)))

    @pytest.mark.parametrize("rows, message", [
        (-1, "block count -1 outside 0..4"), (5, "block count 5 outside 0..4"),
        (2.5, "block count must be an integer, got 2.5"), ("3", "block count must be an integer, got '3'"),
        (3.0, "block count must be an integer, got 3.0"),
    ])
    def test_block_count(self, rows, message):
        assert raised(OutOfRange, walk.block_stack, WalkSpec(4, 1, coins.perm_matrix(2)), rows) == message

    @pytest.mark.parametrize("rows", [0, 3, np.int64(3), 4, None])
    def test_block_count_in_range(self, rows):
        spec = WalkSpec(4, 1, coins.perm_matrix(2))
        stack = walk.block_stack(spec, rows)
        assert stack.shape == (4 if rows is None else int(rows), 3, 3)
        assert np.array_equal(stack, walk.block_stack(spec)[:len(stack)])

    def test_reports_of_numpy_and_bool_integers_are_plain_json(self):
        coin = coins.perm_matrix(2)
        for (n, a, tmax, qmax), plain in [((np.int64(5), np.int64(1), np.int64(10), np.int64(10)), (5, 1, 10, 10)),
                                          ((np.int32(4), False, True, True), (4, 0, 1, 1))]:
            doc = report_json(cross_validate(WalkSpec(n=n, a=a, coin=coin), tmax=tmax, qmax=qmax))
            plain_doc = report_json(cross_validate(WalkSpec(*plain[:2], coin), tmax=plain[2], qmax=plain[3]))
            assert json.dumps(doc) == json.dumps(plain_doc)
            assert doc == plain_doc

    def test_basis_state_coin_state(self):
        assert raised(OutOfRange, walk.basis_state, 4, 0, 3) == "coin state must be 0, 1 or 2, got 3"

    def test_distribution_length(self):
        message = raised(OutOfRange, walk.distribution, np.zeros(4, dtype=complex))
        assert message == "state length 4 is not a multiple of 3"


def test_multiset_sizes():
    message = raised(DimensionMismatch, multiset_distance, [1, 1j], [1])
    assert message == "multisets differ in size: 2 != 1"


@pytest.mark.parametrize("a, b", [([math.nan], [0]), ([0, 1], [1, math.nan])])
def test_multiset_with_nan_is_no_match(a, b):
    # a NaN defect must fail every `distance <= tol` check
    assert math.isnan(multiset_distance(a, b))
    assert math.isnan(multiset_distance(b, a))


def test_cross_validate_unknown_method():
    spec = WalkSpec(n=3, a=0, coin=coins.grover_type(1))
    assert raised(ValueError, cross_validate, spec, methods=("magic",)) == "unknown method 'magic'"


def test_cross_validate_checks_every_method_before_running_any(monkeypatch):
    ran = []
    for name in period.METHODS:
        monkeypatch.setattr(period, f"period_{name}", lambda *args, name=name: ran.append(name))
    spec = WalkSpec(n=1000, a=3, coin=coins.coin_from_theta("X", 1.0))
    message = raised(ValueError, cross_validate, spec, methods=("bruteforce", "spectral", "magic"))
    assert message == "unknown method 'magic'" and ran == []


def test_cross_validate_checks_the_step_bound_before_running_any(monkeypatch):
    ran = []

    def stub(name):
        def run(*args):
            ran.append(name)
            return period.PeriodResult("not_applicable", name)
        return run

    for name in period.METHODS:
        monkeypatch.setattr(period, f"period_{name}", stub(name))
    spec = WalkSpec(n=20_000, a=3, coin=coins.coin_from_theta("X", 1.0))
    for tmax in (-1, math.nan):
        message = raised(OutOfRange, cross_validate, spec, tmax=tmax, methods=("spectral", "bruteforce"))
        assert message == f"step bound tmax must be >= 0, got {tmax}" and ran == []
    # the denominator bound too, when analytic or spectral reads it, even
    # with bruteforce listed first
    for qmax in (0, math.nan):
        message = raised(OutOfRange, cross_validate, spec, qmax=qmax, methods=("bruteforce", "spectral"))
        assert message == f"denominator bound qmax must be >= 1, got {qmax}" and ran == []
    # without bruteforce the step bound is not read
    assert cross_validate(spec, tmax=-1, methods=("analytic", "spectral")).agreement
    assert ran == ["analytic", "spectral"]


def test_nan_step_bound():
    spec = WalkSpec(n=3, a=0, coin=coins.grover_type(1))
    assert raised(OutOfRange, period_bruteforce, spec, tmax=math.nan) == "step bound tmax must be >= 0, got nan"


@pytest.mark.parametrize("qmax", [0, -5, math.nan])
@pytest.mark.parametrize("call, value", [(period.order_of_unit, 1.0), (period.order_of_unit, -1.0),
                                         (period.classify_fraction, 0.0), (period.classify_fraction, 0.5),
                                         (period_spectral, WalkSpec(n=3, a=0, coin=coins.grover_type(1))),
                                         (period.period_analytic, WalkSpec(n=3, a=0, coin=coins.grover_type(1)))])
def test_denominator_bound_below_one(call, value, qmax):
    assert raised(OutOfRange, call, value, qmax=qmax) == f"denominator bound qmax must be >= 1, got {qmax}"


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_value_has_no_fraction(x):
    # no convergent qualifies; qmax is still checked first
    assert period.classify_fraction(x) is None
    assert raised(OutOfRange, period.classify_fraction, x, qmax=0) == "denominator bound qmax must be >= 1, got 0"


class TestBoundsAreIntegers:
    """Step, time and denominator bounds are integers, read by operator.index
    as `WalkSpec` reads n and a: a float, whole or not, a str or None is
    OutOfRange, not a scan that never ends or a TypeError (a NaN step or
    denominator bound keeps its own message, pinned above)."""

    # P1 at n = 4, a = 1 has period 4, in the first chunk, so a scan that did
    # not check its bound would return at once
    SPEC = WalkSpec(n=4, a=1, coin=coins.perm_matrix(1))

    @pytest.mark.parametrize("tmax", [math.inf, 10.0, 2.5, "5", None])
    def test_step_bound(self, tmax):
        message = f"step bound tmax must be an integer, got {tmax!r}"
        assert raised(OutOfRange, period_bruteforce, self.SPEC, tmax=tmax) == message
        assert raised(OutOfRange, cross_validate, self.SPEC, tmax=tmax) == message

    @pytest.mark.parametrize("qmax", [math.inf, 10.0, 2.5, "5"])
    @pytest.mark.parametrize("call, value", [(period.order_of_unit, -1.0), (period.classify_fraction, 0.5),
                                             (period_spectral, SPEC), (period.period_analytic, SPEC)])
    def test_denominator_bound(self, call, value, qmax):
        message = f"denominator bound qmax must be an integer, got {qmax!r}"
        assert raised(OutOfRange, call, value, qmax=qmax) == message

    @pytest.mark.parametrize("t", [2.5, 3.0, math.inf, math.nan, "3"])
    @pytest.mark.parametrize("call", [walk.evolve,
                                      lambda spec, psi, t: walk.write_distribution_csv(spec, psi, t, io.StringIO())])
    def test_time(self, call, t):
        psi = walk.basis_state(4, 0, 0)
        assert raised(OutOfRange, call, self.SPEC, psi, t) == f"time must be an integer, got {t!r}"

    @pytest.mark.parametrize("expected, message", [
        (0, "expected period must be >= 1, got 0"), (math.nan, "expected period must be >= 1, got nan"),
        (2.5, "expected period must be an integer, got 2.5"), ("5", "expected period must be an integer, got '5'"),
        (None, "expected period must be an integer, got None"),  # 1, the default, is nothing expected
    ])
    def test_expected_period(self, expected, message):
        assert raised(OutOfRange, period_bruteforce, self.SPEC, 10, expected) == message

    def test_numpy_integers_pass(self):
        assert period_bruteforce(self.SPEC, tmax=np.int64(10)).period == 4
        for expected in (np.int64(2), np.int64(11)):
            assert period_bruteforce(self.SPEC, np.int64(10), expected).period == 4
        assert period_spectral(self.SPEC, qmax=np.int64(10)).period == 4
        assert np.array_equal(walk.evolve(self.SPEC, walk.basis_state(4, 0, 0), np.int64(4)),
                              walk.basis_state(4, 0, 0))


def test_unknown_suite():
    message = raised(ValueError, verify.run_suite, "nope")
    assert message == f"unknown suite 'nope'; choose from {', '.join(verify.SUITES)}"


@pytest.mark.parametrize("samples", [0, -3, 2.5, 3.0, "5", math.nan])
@pytest.mark.parametrize("name", verify.SAMPLED_SUITES)
def test_sample_count_below_one_or_not_an_integer(name, samples):
    # a count of 0 used to run 0 checks and pass
    message = raised(ValueError, verify.run_suite, name, samples=samples)
    assert message == f"sample count must be an integer >= 1, got {samples!r}"


def test_sample_count_of_a_numpy_integer():
    result = verify.run_suite("closure", samples=np.int64(2))
    assert (result.checks, result.failures) == (2, 0)
