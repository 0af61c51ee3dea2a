"""The paper's characterization, checked on every rational orthogonal matrix
+-R(q)/|q|^2 with |q|^2 <= NORM_BOUND (`corpora.rational_orthogonal`):

* `classify` accepts exactly the permutative matrices, those whose every
  row is a permutation of the first;
* every accepted coin is a special coin, or the Pell coin
  ``coin_from_rational(family, r, s1, s2)`` with r recovered exactly from
  cos theta = s1 (r^2 - 3)/(r^2 + 3);
* every product of two accepted coins passes `multiply`'s closure check.

Up to this bound, then, the 24 special coins and the Pell coins are every
rational coin.  The bound is the claim's: nothing here reaches past it.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import corpora
from livelywalk import coins
from livelywalk.errors import LivelyWalkError

NORM_BOUND = 49


@pytest.fixture(scope="module")
def matrices():
    return corpora.rational_orthogonal(NORM_BOUND)


@pytest.fixture(scope="module")
def accepted(matrices):
    """The coins `classify` accepts, with their classifications."""
    out = []
    for m in matrices:
        coin = coins.Coin3(matrix=np.array(m, dtype=object))
        try:
            out.append((coin, coins.classify(coin)))
        except LivelyWalkError:
            continue
    return out


def _permutative(m) -> bool:
    return all(sorted(row) == sorted(m[0]) for row in m)


def _pell_source(coin, cls):
    """(r, s1, s2) of the Pell coin equal to coin, r >= 0 read off cos theta, or None."""
    cos_t = (3 * cls.x - coins._FAMILY[cls.family][1]) / 2  # x = (2 cos theta + s) / 3
    for s1 in (1, -1):
        if cos_t == s1:  # r would be infinite
            continue
        r2 = 3 * (1 + s1 * cos_t) / (1 - s1 * cos_t)
        r = Fraction(math.isqrt(r2.numerator), math.isqrt(r2.denominator))
        if r * r != r2:
            continue
        for s2 in (1, -1):
            if coins.coin_from_rational(cls.family, r, s1, s2) == coin:
                return r, s1, s2
    return None


def test_the_enumeration_is_distinct_orthogonal_matrices(matrices):
    assert len(set(matrices)) == len(matrices) == 10928
    for m in matrices:
        a = np.array(m, dtype=object)
        assert (a.T @ a == np.eye(3, dtype=int)).all()


def test_classify_accepts_exactly_the_permutative_matrices(matrices, accepted):
    permutative = [m for m in matrices if _permutative(m)]
    assert len(permutative) == len(accepted) == 116
    assert [tuple(map(tuple, coin.matrix)) for coin, _ in accepted] == permutative


def test_every_accepted_coin_is_special_or_a_pell_coin(accepted):
    special = [coin for coin, _ in accepted if coin in coins.SPECIAL_COINS]
    assert len(special) == len(coins.SPECIAL_COINS) == 24
    pell = [_pell_source(coin, cls) for coin, cls in accepted if coin not in coins.SPECIAL_COINS]
    assert len(pell) == 92
    assert None not in pell


def test_every_product_of_two_accepted_coins_is_closed(accepted):
    failures = []
    for a, _ in accepted:
        for b, _ in accepted:
            try:
                coins.multiply(a, b)
            except LivelyWalkError as exc:
                failures.append((a.matrix.tolist(), b.matrix.tolist(), exc))
    assert failures == []
