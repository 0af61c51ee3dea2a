"""The per-spec fast paths hold to the slower code they replace.

* `cli._json_text`, the indent-2 JSON writer, prints what
  ``json.dumps(doc, indent=2)`` prints, and raises its TypeError.
* `coins.classify` reads a float coin as nine Python numbers; the numpy
  formulas it used before (||M^T M - I||_F by `np.linalg.norm`, the layout
  by gathered rows, `np.linalg.det`, one compare with all 24 special
  coins) give the same fields or the same exception class.
* `cli.parse_args` hands argv[1:] to the command's subparser; the
  Namespace, or the usage error, is the one `build_parser().parse_args`
  gives, on every argv of the golden CLI corpora and the benchmark
  workloads.
* Negative values of --rational, --theta-frac, --theta, --theta-list and
  --theta-grid are read as values, not as missing arguments.
"""

import contextlib
import importlib.util
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpora
from conftest import run_cli
from livelywalk import cli, coins
from livelywalk.errors import (
    ConstraintViolated,
    InternalInconsistency,
    LivelyWalkError,
    NotOrthogonal,
    NotPermutative,
)
from livelywalk.exactnum import DEFAULT_TOL

# --- the JSON writer ---------------------------------------------------------

SCALARS = (st.text() | st.integers() | st.booleans() | st.none()
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf, 1e308, "é\n\"\\\x00"]))
DOCS = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
                    | st.dictionaries(st.text(max_size=6), inner, max_size=4), max_leaves=25)
#: values JSON cannot hold
UNSERIALIZABLE = st.sampled_from([1j, {1, 2}, b"x", object(), np.int64(3), Fraction(1, 3)])


@settings(max_examples=200, deadline=None)
@given(doc=DOCS)
def test_json_writer_matches_json_dumps(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2)


@settings(max_examples=100, deadline=None)
@given(doc=st.recursive(SCALARS | UNSERIALIZABLE, lambda inner: st.lists(inner, max_size=4)
                        | st.dictionaries(st.text(max_size=6), inner, max_size=4), max_leaves=12))
def test_json_writer_raises_what_json_dumps_raises(doc):
    try:
        expected = json.dumps(doc, indent=2)
    except TypeError as exc:
        with pytest.raises(TypeError) as raised:
            cli._json_text(doc)
        assert str(raised.value) == str(exc)
    else:
        assert cli._json_text(doc) == expected


def test_json_writer_reads_scalar_subclasses_as_their_base():
    doc = {"f": np.float64(0.1), "b": [True, False, None], "e": [], "d": {}}
    assert cli._json_text(doc) == json.dumps(doc, indent=2)


# --- the scalar classify -----------------------------------------------------

_ROW_INDEX = {basis: np.array(orders) for basis, orders in coins._ROW_ORDERS.items()}


def numpy_classify(coin: coins.Coin3, tol: float = DEFAULT_TOL) -> dict:
    """classify's fields of a float coin by the numpy formulas it used before."""
    mf = coin.as_float()
    with np.errstate(invalid="ignore", over="ignore"):
        defect = float(np.linalg.norm(mf.T @ mf - np.eye(3)))
    if not defect <= tol:
        raise NotOrthogonal(defect)
    basis = next((b for b, index in _ROW_INDEX.items() if np.max(np.abs(mf[0][index] - mf)) <= tol), None)
    if basis is None:
        raise NotPermutative(basis)
    x, y, z = mf[0].tolist()
    s, det = x + y + z, np.linalg.det(mf)
    sign = next((v for v in (1, -1) if abs(s - v) <= tol), None)
    if sign is None:
        raise NotPermutative(s)
    family = coins._FAMILY_OF[(basis, sign)]
    if not abs(complex(det) - coins._FAMILY_DET[family]) <= tol:
        raise InternalInconsistency(det)
    if coin.family is not None and coin.family != family:
        raise ConstraintViolated(family)
    hits = coin.is_real & (np.max(np.abs(mf.real - coins._SPECIAL), axis=(1, 2)) <= DEFAULT_TOL)
    return {"basis": basis, "x": x, "y": y, "z": z, "family": family,
            "is_permutation": bool(hits[:6].any()), "is_grover_type": bool(hits[6:12].any()),
            "theta": coins._reconstruct_angle(sign, x, y), "is_special": bool(hits.any())}


def assert_classify_matches(coin, tol=DEFAULT_TOL):
    try:
        expected = numpy_classify(coin, tol)
    except LivelyWalkError as exc:
        with pytest.raises(type(exc)):
            coins.classify(coin, tol)
    else:
        assert vars(coins.classify(coin, tol)) == expected


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(coins.FAMILIES), theta=st.floats(0.0, 2 * math.pi),
       entry=st.integers(0, 8), delta=st.sampled_from([0.0, 1e-13, -5e-11, 2e-10, 1e-6, 0.3]),
       named=st.booleans(), tol=st.sampled_from([DEFAULT_TOL, 1e-13, 1e-6]))
def test_float_coins(family, theta, entry, delta, named, tol):
    m = coins.coin_from_theta(family, theta).matrix.copy()
    m.flat[entry] += delta
    assert_classify_matches(coins.Coin3(matrix=m, family=family if named else None), tol)


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(coins.FAMILIES), k=st.integers(0, 5),
       offset=st.sampled_from([0.0, 5e-11, 1.4e-10, 1.6e-10, 4e-10, 7e-10, 1e-9])
       | st.floats(-1e-9, 1e-9), sign=st.sampled_from((1, -1)))
def test_coins_near_the_special_angles(family, k, offset, sign):
    """theta/2pi = k/6 moved by an offset whose largest entry change falls on
    either side of DEFAULT_TOL, and of the 1/3 pre-check's 4 * DEFAULT_TOL."""
    assert_classify_matches(coins.coin_from_theta(family, 2 * math.pi * k / 6 + sign * offset))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", [0, 4, 8])
def test_nan_and_inf_entries(value, entry):
    m = coins.coin_from_theta("X", 1.0).matrix.copy()
    m.flat[entry] = value
    assert_classify_matches(coins.Coin3(matrix=m))


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(coins.FAMILIES), re=st.floats(0.0, 2 * math.pi),
       im=st.sampled_from([1e-13, 1e-11, -1e-9, 0.01, 0.7, -2.0]))
def test_complex_parameter_coins(family, re, im):
    assert_classify_matches(coins.coin_from_theta(family, complex(re, im)))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_orthogonal_matrices_that_are_no_linear_sum(seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    assert_classify_matches(coins.Coin3(matrix=q.astype(complex)))


def test_special_coins_as_floats():
    for coin in coins.SPECIAL_COINS:
        assert_classify_matches(coins.Coin3(matrix=coin.as_float().copy()))


# --- dispatch to the command's subparser -------------------------------------


def _parsed(parse, argv):
    """(the Namespace's sorted items, in repr so that a NaN equals itself, or
    None; the exit code; stderr) of one parse."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            return repr(sorted(vars(parse(list(argv))).items())), None, err.getvalue()
        except SystemExit as exc:
            return None, exc.code, err.getvalue()


def _load_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def corpus_argvs(workdir: Path) -> list[tuple]:
    """Every argv of the golden CLI corpora and of the three benchmark workloads."""
    out = corpora.golden_argvs(workdir)
    workloads = _load_workloads()
    for name in workloads.WORKLOADS:
        out += [op.argv for op in workloads.build(name, 1, str(workdir))]
    return out


def test_dispatch_parses_what_the_top_level_parser_parses(tmp_path):
    argvs = corpus_argvs(tmp_path)
    argvs += [(), ("--help",), ("nope",), ("period", "--grover", "P1", "--n", "3", "extra", "args"),
              ("period", "--grover", "P1", "--n", "3", "--", "x"), ("coin", "--perm", "P2", "-h")]
    assert len(argvs) > 2500
    for argv in argvs:
        glued = cli._glue_signs(list(argv))
        assert _parsed(cli.parse_args, argv) == _parsed(cli.build_parser().parse_args, glued), argv


# --- negative flag values ----------------------------------------------------


@pytest.mark.parametrize("head, flag, value, tail", [
    (("coin", "--family", "X"), "--rational", "-5/2", ()),
    (("coin", "--family", "W"), "--theta-frac", "-1/5", ()),
    (("coin", "--family", "Y"), "--theta", "-1e-3", ()),
    (("coin", "--family", "Z"), "--theta", "-.25", ()),
    (("table", "--family", "Z"), "--theta-list", "-1,2", ("--n-list", "3", "--methods", "spectral")),
    (("table", "--family", "X"), "--theta-grid", "-1:1:3", ("--n-list", "3", "--methods", "spectral")),
])
def test_negative_value_is_read_as_the_flags_value(head, flag, value, tail):
    code, out, err = run_cli((*head, flag, value, *tail))
    assert code == 0 and out
    assert (code, out, err) == run_cli((*head, f"{flag}={value}", *tail))
