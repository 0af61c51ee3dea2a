import contextlib
import hashlib
import io
import math

import numpy as np
import pytest

from livelywalk import cli
from livelywalk.exactnum import multiset_distance

# the golden runners compare their lines through corpora.assert_golden
pytest.register_assert_rewrite("corpora")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_unitary3(rng) -> np.ndarray:
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, r = np.linalg.qr(x)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def assert_same_multiset(a, b, tol=1e-8):
    assert multiset_distance(a, b) <= tol


# --- golden corpora of CLI calls -------------------------------------------


def run_cli(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI call, usage errors included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest_line(label: str, argv) -> str:
    """The golden-corpus line of one CLI call: the label, the sha256 of its
    stdout and its exit code, tab-separated."""
    code, out, _ = run_cli(argv)
    return f"{label}\t{hashlib.sha256(out.encode()).hexdigest()}\t{code}"


# --- independent oracles: the walk written the paper's way -----------------


def shift_operator(n: int, a: int) -> np.ndarray:
    """Coin-conditioned cyclic shift S on the 3n basis states c*n + v (0/1 matrix):
    coin 0 steps to v-1, coin 1 to v+1 and coin 2 to v+a."""
    s = np.zeros((3 * n, 3 * n))
    for c, step in enumerate((-1, 1, a)):
        for x in range(n):
            s[c * n + (x + step) % n, c * n + x] = 1.0
    return s


def dense_operator(spec) -> np.ndarray:
    """The walk operator S (C (x) I_n), built with np.kron and no library walk code."""
    return shift_operator(spec.n, spec.a) @ np.kron(spec.coin.as_float(), np.eye(spec.n))


def momentum_state(n: int, l: int) -> np.ndarray:
    """Normalized Fourier vector phi_k with components e^{ikx}/sqrt(n), k = 2*pi*l/n."""
    k = 2.0 * math.pi * l / n
    return np.exp(1j * k * np.arange(n)) / math.sqrt(n)


def eigenvalues_closed_form(x: float, k: float):
    """Block eigenvalues {1, lam+, lam-} of an X-family coin with parameter x.

    Valid on blocks where e^{-ika} = 1.  With s = x(1 + 2 cos k):

        lam+- = (s - 1)/2 +- sqrt((s + 1)(s - 3))/2,

    a conjugate pair on the unit circle with lam+ lam- = 1.
    """
    s = x * (1.0 + 2.0 * math.cos(k))
    root = np.sqrt(complex((s + 1.0) * (s - 3.0)))
    return 1.0 + 0.0j, complex((s - 1.0) / 2.0 + root / 2.0), complex((s - 1.0) / 2.0 - root / 2.0)
