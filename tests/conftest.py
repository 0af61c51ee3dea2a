
import numpy as np
import pytest

from livelywalk import coins
from livelywalk.exactnum import multiset_distance

#: the 24 special coins: +-P1..P6 and +-Grover-type (2/3)J - P1..P6
SPECIAL_COINS = [
    coin
    for p in range(1, 7)
    for base in (coins.perm_matrix(p), coins.grover_type(p))
    for coin in (base, coins.Coin3(matrix=-base.matrix))
]


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_unitary3(rng) -> np.ndarray:
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, r = np.linalg.qr(x)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def assert_same_multiset(a, b, tol=1e-8):
    assert multiset_distance(a, b) <= tol
