
import numpy as np
import pytest

from livelywalk.exactnum import multiset_distance


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_unitary3(rng) -> np.ndarray:
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, r = np.linalg.qr(x)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def assert_same_multiset(a, b, tol=1e-8):
    assert multiset_distance(a, b) <= tol
