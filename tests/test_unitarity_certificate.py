"""The spectral route certifies each coin unitary once, not every block.

A momentum block is D_l C, D_l a diagonal of unit phases, so it is unitary
within DEFAULT_TOL when the coin C is, up to rounding.  `period` reads the
coin's `Coin3.unitarity_defect`, taken once per coin by the eigensolver's
own formula (`exactnum._unitarity_defect`), in place of a Gram check of
every block of every spec.  So:

* a coin that `coin` accepts, and whose defect is within DEFAULT_TOL, gives a
  report at every n, even where rounding puts some block just over it;
* a coin that is not unitary within DEFAULT_TOL is refused with the message
  the per-block check gave, alone and in a batch;
* a block's defect is the coin's within 1e-14, and block 0's is the coin's
  bit for bit, over the golden spectral corpus and coins near DEFAULT_TOL;
* the defect is taken once per coin, however many specs use it;
* a period report writes each distinct result's document once, and the
  report is the one written without that memo.
"""

import json

import numpy as np
import pytest

import corpora
import test_golden_spectral
from conftest import run_cli
from livelywalk import cli, coins, period, walk
from livelywalk.errors import NotOrthogonal, NotUnitary
from livelywalk.exactnum import DEFAULT_TOL, _unitarity_defect

#: X at theta = 1 times 1.0000000000288674: orthogonal within DEFAULT_TOL,
#: with a defect of 9.99997e-11
NEAR_TOL = {"repr": "float", "entries": [
    [0.6935348705987804, 0.6390560643231665, -0.3325909348930795],
    [-0.3325909348930795, 0.6935348705987804, 0.6390560643231665],
    [0.6390560643231665, -0.3325909348930795, 0.6935348705987804]]}

#: unitary within DEFAULT_TOL nowhere: its imaginary parts, about 6e-11, pass as real
COMPLEX_X = coins.coin_from_theta("X", 1 + 6e-11j)
COMPLEX_X_REFUSAL = "unitarity defect 1.697e-10 exceeds tol 1.000e-10"


def _near_tol_coins() -> list:
    """X at theta = 1 scaled by 1 + s, s about 2.8867e-11, for each s that
    `WalkSpec` accepts: defects from 9.98e-11 to just under DEFAULT_TOL."""
    x = coins.coin_from_theta("X", 1.0).as_float().real
    out = []
    for k in range(-200, 200, 5):
        coin = coins.coin_from_json({"repr": "float", "entries": (x * (1 + 2.8867e-11 * (1 + k * 1e-5))).tolist()})
        try:
            walk.WalkSpec(n=3, a=0, coin=coin)
        except NotOrthogonal:
            continue
        out.append(coin)
    return out


def test_a_near_tolerance_coin_gets_a_report_at_n_101(tmp_path):
    path = tmp_path / "near_tol.json"
    path.write_text(json.dumps(NEAR_TOL))
    coin = coins.coin_from_json(NEAR_TOL)
    blocks = _unitarity_defect(period._half_stack(walk.WalkSpec(n=101, a=1, coin=coin)))
    assert blocks.max() > DEFAULT_TOL >= coin.unitarity_defect  # the premise: one block reads over
    assert run_cli(("coin", "--matrix-file", str(path)))[0] == 0
    code, out, err = run_cli(("period", "--matrix-file", str(path), "--n", "101", "--a", "1"))
    assert (code, err) == (0, "")
    assert [r["method"] for r in json.loads(out)["results"]] == list(period.METHODS)


@pytest.mark.parametrize("n, a", [(2, 0), (3, 1), (5, 1), (12, 6), (101, 50)])
def test_a_coin_not_unitary_is_refused_alone_and_in_a_batch(n, a):
    spec = walk.WalkSpec(n=n, a=a, coin=COMPLEX_X)
    with pytest.raises(NotUnitary) as alone:
        period.period_spectral(spec)
    assert str(alone.value) == COMPLEX_X_REFUSAL
    good = walk.WalkSpec(n=n, a=0, coin=coins.coin_from_theta("X", 1.0))
    for batch in ([spec, spec], [good, spec], [spec, good]):
        with pytest.raises(NotUnitary) as batched:
            list(period._spectra(batch))
        assert str(batched.value) == COMPLEX_X_REFUSAL
    with pytest.raises(NotUnitary) as swept:
        period._sweep([(n, a, COMPLEX_X), (n, 0, COMPLEX_X)], 100, 1000, ("spectral",))
    assert str(swept.value) == COMPLEX_X_REFUSAL


def test_every_block_has_the_coins_defect_up_to_rounding():
    worst = 0.0
    for coin in [*test_golden_spectral.corpus().values(), *_near_tol_coins()]:
        for n in range(2, 41):
            for a in range(n // 2 + 1):
                blocks = _unitarity_defect(period._half_stack(walk.WalkSpec(n=n, a=a, coin=coin)))
                assert blocks[0] == coin.unitarity_defect  # block 0 is the coin
                worst = max(worst, float(np.max(np.abs(blocks - coin.unitarity_defect))))
    assert worst <= 1e-14  # 6.7e-16 measured


def test_each_coin_is_certified_once_per_sweep(monkeypatch):
    calls = []
    real = coins._unitarity_defect
    monkeypatch.setattr(coins, "_unitarity_defect", lambda m: calls.append(m.shape) or real(m))
    fresh = [coins.coin_from_theta(fam, 0.7) for fam in coins.FAMILIES]
    cells = [(n, a, coin) for n in range(2, 13) for a in range(n // 2 + 1) for coin in fresh]
    cvs = period._sweep(cells, 100, 1000, ("spectral",))
    assert len(cvs) == len(cells) and calls == [(3, 3)] * len(fresh)
    period.period_spectral(walk.WalkSpec(n=7, a=2, coin=fresh[0]))
    assert len(calls) == len(fresh)


def test_each_distinct_result_is_written_once_and_as_before():
    cli._result_fragment.cache_clear()
    zs = [coins.coin_from_theta_frac("Z", frac) for frac in corpora.rational_grid(4)]
    cvs = period._sweep([(n, a, coin) for n in (3, 4, 5) for a in (0, 1) for coin in zs], 300,
                        period.QMAX_DEFAULT, period.METHODS)
    plain = json.dumps([period.report_json(cv) for cv in cvs], indent=2) + "\n"
    argv = ("table", "--family", "Z", "--rational-grid", "4", "--n-list", "3,4,5", "--a-list", "0,1", "--tmax", "300")
    assert run_cli(argv) == (0 if all(cv.agreement for cv in cvs) else 3, plain, "")
    distinct = {r for cv in cvs for r in cv.results}
    assert cli._result_fragment.cache_info().misses == len(distinct) < len(cvs)
