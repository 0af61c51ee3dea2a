import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from livelywalk import (
    WalkSpec,
    coins,
    cross_validate,
    eig3_unitary,
    order_of_unit,
    period_analytic,
    period_bruteforce,
    period_spectral,
    report_json,
)
from livelywalk import period as period_mod
from livelywalk import walk as walk_mod
from livelywalk.coins import SPECIAL_COINS
from livelywalk.errors import GuardExceeded, NotOrthogonal, NotUnitModulus
from livelywalk.period import (
    ANGLE_ACCURACY,
    CHUNK_STEPS,
    GUARANTEED_ORDER_BOUND,
    QMAX_DEFAULT,
    PeriodResult,
    TMAX_DEFAULT,
    classify_fraction,
)
from livelywalk.walk import DENSE_GUARD, block_stack, spectrum

import corpora
import test_golden_spectral
from conftest import dense_operator


def spec_of(coin, n, a=0):
    return WalkSpec(n=n, a=a, coin=coin)


def brute_oracle(spec, tmax=10_000, tol=1e-8):
    """Independent dense-powering period oracle (no shared period or walk code)."""
    u = dense_operator(spec)
    m = u.copy()
    eye = np.eye(spec.dim)
    for t in range(1, tmax + 1):
        if np.linalg.norm(m - eye) <= tol:
            return t
        m = m @ u
    return None


class TestOrderOfUnit:
    def test_one(self):
        assert order_of_unit(1.0 + 0.0j) == 1

    def test_third_root(self):
        lam = np.exp(2j * math.pi / 3)
        assert lam**3 == pytest.approx(1)  # direct power oracle
        assert order_of_unit(lam) == 3

    def test_one_radian_is_unresolved(self):
        # brute-force convergent scan: every convergent of 1/(2*pi) with
        # q <= 1e6 fails either the 1e-11 error bound or the decisiveness
        # guard, so no rational order may be claimed
        x = 1.0 / (2 * math.pi)
        frac, qualifying = x, []
        h0, k0, h1, k1 = 1, 0, 0, 1
        for _ in range(40):
            if frac <= 0:
                break
            y = 1.0 / frac
            a = math.floor(y)
            frac = y - a
            h0, h1 = h1, a * h1 + h0
            k0, k1 = k1, a * k1 + k0
            if k1 > 10**6:
                break
            err = abs(x - h1 / k1)
            if err < 1e-11 and err * k1 * k1 < 1e-3:
                qualifying.append((h1, k1))
        assert qualifying == []
        assert order_of_unit(np.exp(1j)) is None

    @given(p=st.integers(0, 400), q=st.integers(1, 400))
    @settings(max_examples=200, deadline=None)
    def test_recovers_small_orders(self, p, q):
        f = Fraction(p, q)
        lam = np.exp(2j * math.pi * float(f))
        assert order_of_unit(lam) == f.denominator

    def test_rejects_off_circle(self):
        with pytest.raises(NotUnitModulus):
            order_of_unit(0.5 + 0.0j)

    def test_classification_invariant(self):
        angle = 2 * math.pi * 3 / 7
        x = angle / (2 * math.pi)
        frac = classify_fraction(x)
        assert frac == Fraction(3, 7)
        assert abs(x - 3 / 7) < 1e-11
        assert frac.denominator <= QMAX_DEFAULT


class TestSpectral:
    def test_grover_three_cycle(self):
        res = period_spectral(spec_of(coins.grover_type(1), 3))
        assert res.status == "finite" and res.period == 6

    def test_delta_one(self):
        res = period_spectral(spec_of(coins.coin_from_theta("X", math.pi / 2), 3))
        assert res.period == 12

    def test_grover_five_cycle_unresolved(self):
        res = period_spectral(spec_of(coins.grover_type(1), 5))
        assert res.status == "no_period_up_to"
        # the claimed bound never exceeds what the decisiveness guard warrants
        assert res.bound == min(QMAX_DEFAULT, GUARANTEED_ORDER_BOUND) == 31622
        assert res.bound >= 10_000  # still covers the brute-force range

    def test_lcm_of_orders_equals_brute_period(self, rng):
        for _ in range(10):
            q = int(rng.integers(1, 9))
            m = int(rng.integers(0, q))
            spec = spec_of(coins.coin_from_theta_frac("X", Fraction(m, q)), 3)
            spectral = period_spectral(spec)
            brute = brute_oracle(spec)
            if spectral.finite and brute is not None:
                assert spectral.period == brute


def full_spectrum_period(spec) -> PeriodResult:
    """The spectral report read off every block: the lcm of `order_of_unit`
    over all of `walk.spectrum(spec)`, the route before it solved half the
    blocks."""
    orders = [order_of_unit(lam) for lam in spectrum(spec).flat]
    if None in orders:
        return PeriodResult(status="no_period_up_to", method="spectral",
                            bound=min(QMAX_DEFAULT, GUARANTEED_ORDER_BOUND))
    return PeriodResult(status="finite", method="spectral", period=math.lcm(*orders))


#: the 24 special coins, the four Pell coins at r = 2 and every family at
#: each theta/2pi = m/q with q <= 8
HALF_BLOCK_COINS = (
    list(SPECIAL_COINS)
    + [coins.coin_from_rational(fam, Fraction(2)) for fam in coins.FAMILIES]
    + [coins.coin_from_theta_frac(fam, Fraction(m, q)) for fam in coins.FAMILIES
       for q in range(1, 9) for m in range(q) if math.gcd(m, q) == 1]
)


class TestHalfBlockSpectral:
    """period_spectral solves blocks 0..n//2 only: for a real coin block n - l
    is the conjugate of block l, so it adds no order.  Held to the lcm over
    the full spectrum.  The sweeps below take odd and even n from 2 to 64;
    the same comparison over every n = 2..64 and every a (126,092 specs of
    these coins) was run once when the route was changed, and agreed on
    every spec."""

    @pytest.mark.parametrize("n, a_values", [
        *((n, range(n // 2 + 1)) for n in (2, 3, 4, 5, 6, 7, 8, 9, 16, 17)),
        *((n, (0, 1, n // 2 - 1, n // 2)) for n in (63, 64)),
    ])
    def test_matches_full_spectrum_on_the_coin_corpus(self, n, a_values):
        for coin in HALF_BLOCK_COINS:
            for a in a_values:
                spec = spec_of(coin, n, a)
                assert period_spectral(spec) == full_spectrum_period(spec), (coin.matrix, n, a)

    @settings(max_examples=200, deadline=None)
    @given(family=st.sampled_from(coins.FAMILIES), theta=st.floats(0.0, 2 * math.pi),
           n=st.integers(2, 64), data=st.data())
    def test_matches_full_spectrum_on_float_angles(self, family, theta, n, data):
        spec = spec_of(coins.coin_from_theta(family, theta), n, data.draw(st.integers(0, n // 2)))
        assert period_spectral(spec) == full_spectrum_period(spec)

    @pytest.mark.parametrize("n", [7, 8])
    def test_upper_blocks_conjugate_the_lower(self, n):
        # odd n pairs every block l >= 1 with n - l; even n leaves l = n/2,
        # the phases diag(-1, -1, (-1)^a), paired with itself
        for a in range(n // 2 + 1):
            stack = block_stack(spec_of(coins.coin_from_theta("W", 1.3), n, a))
            for l in range(1, n):
                assert np.allclose(stack[n - l], stack[l].conj(), atol=1e-14, rtol=0)
            assert not np.any(stack[0].imag)
            if n % 2 == 0:
                assert np.allclose(stack[n // 2].imag, 0, atol=1e-14, rtol=0)

    @pytest.mark.parametrize("n, solved", [(2, 2), (3, 2), (7, 4), (8, 5), (64, 33)])
    def test_solves_blocks_zero_to_half_n(self, monkeypatch, n, solved):
        shapes = []
        real = period_mod._solve_unitary

        def recording(m):
            shapes.append(m.shape)
            return real(m)

        monkeypatch.setattr(period_mod, "_solve_unitary", recording)
        assert period_spectral(spec_of(coins.perm_matrix(2), n, n // 2)).finite
        assert shapes == [(solved, 3, 3)]


GOLDEN_SPECTRAL_COINS = list(test_golden_spectral.corpus().values())


class TestEigenvalueOrder:
    """`period_spectral` reads the lcm of the orders, and no_period_up_to at the
    first eigenvalue that does not classify: neither depends on the order of a
    block's eigenvalues, so the route solves them unsorted."""

    @settings(max_examples=200, deadline=None)
    @given(coin=st.one_of(st.sampled_from(GOLDEN_SPECTRAL_COINS),
                          st.builds(coins.coin_from_theta_frac, st.sampled_from(coins.FAMILIES),
                                    st.sampled_from(corpora.rational_grid(12)))),
           n=st.integers(2, 24), data=st.data())
    def test_every_permutation_of_each_block_gives_the_same_result(self, coin, n, data):
        spec = spec_of(coin, n, data.draw(st.integers(0, n // 2)))
        lams = period_mod._solve_unitary(block_stack(spec, n // 2 + 1))
        orders = data.draw(st.lists(st.permutations(range(3)), min_size=len(lams), max_size=len(lams)))
        permuted = np.take_along_axis(lams, np.array(orders), axis=-1)
        assert period_spectral(spec, eigenvalues=permuted) == period_spectral(spec)

    @pytest.mark.parametrize("coin", GOLDEN_SPECTRAL_COINS[::7])
    def test_the_angle_order_gives_the_same_result(self, coin):
        for n in range(2, 13):
            for a in range(n // 2 + 1):
                spec = spec_of(coin, n, a)
                shown = eig3_unitary(block_stack(spec, n // 2 + 1))
                assert period_spectral(spec, eigenvalues=shown) == period_spectral(spec), (n, a)


class TestBruteForce:
    def test_cyclic_coin(self):
        # X-family coin at theta = 2*pi/3 is a cyclic permutation matrix
        res = period_bruteforce(spec_of(coins.coin_from_theta("X", 2 * math.pi / 3), 3))
        assert res.period == 3

    def test_identity_coin_four_cycle(self):
        assert period_bruteforce(spec_of(coins.perm_matrix(1), 4)).period == 4

    def test_grover_type_p5(self):
        assert period_bruteforce(spec_of(coins.grover_type(5), 3)).period == 4

    def test_minimality(self):
        spec = spec_of(coins.grover_type(6), 3)
        res = period_bruteforce(spec)
        u = dense_operator(spec)
        m = u.copy()
        for t in range(1, res.period):
            assert np.linalg.norm(m - np.eye(spec.dim)) > 1e-6
            m = m @ u
        assert np.linalg.norm(m - np.eye(spec.dim)) <= 1e-8

    def test_bound_respected(self):
        res = period_bruteforce(spec_of(coins.grover_type(1), 5), tmax=50)
        assert res.status == "no_period_up_to" and res.bound == 50


class TestConjugateHalfBruteForce:
    """Brute force powers blocks l = 0..n//2 only, as period_spectral solves
    them, and counts each block 0 < l < n/2 twice, for itself and its
    conjugate block n - l."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_asks_for_blocks_zero_to_half_n(self, monkeypatch, n):
        asked, real = [], walk_mod.block_stack
        monkeypatch.setattr(walk_mod, "block_stack", lambda spec, rows=None: asked.append(rows) or real(spec, rows))
        spec = spec_of(coins.grover_type(1), n, n // 2)
        for expected in (4, 1):  # the head U^1..U^4 first, then the scan alone
            asked.clear()
            period_bruteforce(spec, 300, expected)
            assert asked == [n // 2 + 1], expected

    @pytest.mark.parametrize("n", range(2, 10))
    def test_weighted_distance_matches_dense_oracle(self, rng, n):
        # ||U^t - I||_F^2 from the half stack's powers, laid out as brute
        # force's rows and weighted by _pair_weights, against the dense
        # 3n x 3n powers, at sampled t <= 200
        times = sorted({1, 2, 200, *rng.integers(3, 200, size=12).tolist()})
        for coin in (coins.grover_type(1), coins.coin_from_theta("Z", 1.0), coins.perm_matrix(2)):
            for a in range(n // 2 + 1):
                spec = spec_of(coin, n, a)
                half = period_mod._half_stack(spec)
                blocks = len(half)
                powers = period_mod._grow(half, 200).reshape(blocks, 3, 200, 3).transpose(2, 0, 1, 3)
                re_im = (powers - np.eye(3)).reshape(200, -1).view(np.float64)
                weighted = np.square(re_im) @ period_mod._pair_weights(n)
                u, m = dense_operator(spec), np.eye(spec.dim)
                for t in range(1, 201):
                    m = m @ u
                    if t in times:
                        assert abs(weighted[t - 1] - np.linalg.norm(m - np.eye(spec.dim)) ** 2) <= 1e-10, (a, t)


def _matches_oracle(spec, tmax, expected=1):
    res = period_bruteforce(spec, tmax, expected)
    want = brute_oracle(spec, tmax)
    if want is None:
        return res.status == "no_period_up_to" and res.bound == tmax and res.period is None
    return res.status == "finite" and res.period == want and res.bound is None


#: periods 4..15 and aperiodic walks, at sizes the dense oracle powers quickly
CHUNK_SPECS = [
    (coins.perm_matrix(1), 4, 1),
    (coins.grover_type(1), 3, 0),
    (coins.grover_type(6), 3, 0),
    (coins.Coin3(matrix=-coins.perm_matrix(1).matrix), 7, 3),
    (coins.coin_from_theta_frac("X", Fraction(1, 5)), 3, 0),
    (coins.coin_from_theta_frac("W", Fraction(1, 4)), 5, 0),
    (coins.grover_type(1), 5, 2),
]


class TestBlockBruteForceChunks:
    """Block powering in chunks of B = CHUNK_STEPS against the dense oracle."""

    @pytest.mark.parametrize("tmax", [0, 1, CHUNK_STEPS - 1, CHUNK_STEPS, CHUNK_STEPS + 1,
                                      2 * CHUNK_STEPS])
    def test_tmax_at_chunk_edges_matches_oracle(self, tmax):
        for coin, n, a in CHUNK_SPECS:
            assert _matches_oracle(spec_of(coin, n, a), tmax), (n, a, tmax)

    @pytest.mark.parametrize("chunk", [1, 2, 5, 7])
    def test_small_chunks_match_oracle(self, monkeypatch, chunk):
        # the periods 4..15 span several chunks of these sizes, and a tmax
        # just below a period often ends inside a chunk that holds the hit
        monkeypatch.setattr(period_mod, "CHUNK_STEPS", chunk)
        for coin, n, a in CHUNK_SPECS:
            for tmax in (0, 1, 3, 5, 11, 13, 14, 59, 60, 61):
                assert _matches_oracle(spec_of(coin, n, a), tmax), (n, a, tmax)

    @pytest.mark.parametrize("n", [CHUNK_STEPS - 1, CHUNK_STEPS, CHUNK_STEPS + 1])
    def test_identity_coin_hit_around_chunk_edge(self, n):
        # the identity coin at a = 0 has period n (golden analytic rows), so
        # the hit lands one step before the end of the first chunk, on its
        # last step, or on the first step of the second
        assert period_mod._plan(n, TMAX_DEFAULT)[0] == CHUNK_STEPS
        spec = spec_of(coins.perm_matrix(1), n)
        assert period_analytic(spec).period == n
        assert period_bruteforce(spec).period == n
        assert period_bruteforce(spec, tmax=n).period == n
        res = period_bruteforce(spec, tmax=n - 1)
        assert res.status == "no_period_up_to" and res.bound == n - 1

    @pytest.mark.parametrize("coin, n", [
        (coins.perm_matrix(1), 3 * CHUNK_STEPS),  # identity-lcm, period n: the last step of chunk 3
        (coins.perm_matrix(1), 3 * CHUNK_STEPS + 1),  # the first step of chunk 4
        (coins.coin_from_theta_frac("Z", Fraction(0)), 700),  # permutation-lcm, period 2n: chunk 18 of 82 steps
    ])
    def test_hit_in_a_late_chunk_matches_analytic(self, coin, n):
        # past the second chunk each chunk is compared against an accumulated (U^t0)^dagger
        spec = spec_of(coin, n)
        period = period_analytic(spec).period
        assert period > 2 * period_mod._plan(n, TMAX_DEFAULT)[0]
        assert period_bruteforce(spec).period == period
        assert period_bruteforce(spec, tmax=period).period == period
        res = period_bruteforce(spec, tmax=period - 1)
        assert res.status == "no_period_up_to" and res.bound == period - 1

    @settings(max_examples=100, deadline=None)
    @given(family=st.sampled_from(coins.FAMILIES),
           theta=st.one_of(st.floats(0.0, 2 * math.pi),
                           st.builds(lambda m, q: 2 * math.pi * m / q, st.integers(0, 11), st.integers(1, 12))),
           n=st.integers(2, 12), tmax=st.integers(0, 300), data=st.data())
    def test_matches_dense_oracle(self, family, theta, n, tmax, data):
        a = data.draw(st.integers(0, n // 2))
        spec = spec_of(coins.coin_from_theta(family, theta), n, a)
        # no expectation, none up to tmax, or a period up to tmax, mostly a wrong one
        schedules = st.sampled_from((1, tmax + 1))
        if tmax >= 1:
            schedules = st.one_of(schedules, st.integers(1, tmax))
        assert _matches_oracle(spec, tmax, data.draw(schedules, label="expected"))


def _near_special_theta(k, sign, exponent):
    """theta = 2*pi*k/6 + sign * 10^exponent: the special angle k/6, or a float coin near it."""
    return 2 * math.pi * k / 6 + sign * 10.0 ** exponent


def _spy_first_hit(monkeypatch):
    """Record what every exact chunk test of period_bruteforce returns."""
    seen = []
    exact = period_mod._first_hit

    def recording(*args):
        seen.append(exact(*args))
        return seen[-1]

    monkeypatch.setattr(period_mod, "_first_hit", recording)
    return seen


def _unitary_stack(rng, n):
    x = rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3))
    q, r = np.linalg.qr(x)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


class TestBruteForceScreen:
    """The one matrix-vector screen per chunk and the exact test behind it."""

    @settings(max_examples=100, deadline=None)
    @given(family=st.sampled_from(coins.FAMILIES), theta=st.builds(
               _near_special_theta, st.integers(0, 5), st.sampled_from((-1, 1)), st.floats(-15.0, -6.0)),
           n=st.integers(2, 12), tmax=st.integers(0, 600), data=st.data())
    def test_near_special_angles_match_dense_oracle(self, family, theta, n, tmax, data):
        # the powers come within 1e-8 of I, or just miss it, at the special
        # coin's period: the screen passes those chunks on to the exact test
        a = data.draw(st.integers(0, n // 2))
        assert _matches_oracle(spec_of(coins.coin_from_theta(family, theta), n, a), tmax)

    def test_z_just_below_four_thirds_pi(self):
        spec = spec_of(coins.coin_from_theta("Z", 4 * math.pi / 3 - 1.25e-10), 11)
        assert period_bruteforce(spec).period == 22
        assert brute_oracle(spec, tmax=100) == 22

    @pytest.mark.parametrize("n, rows", [(2, 64), (5, 64), (1000, 16), (38_836, 2)])
    def test_slack_bounds_the_screen_rounding(self, rng, n, rows):
        # rows at distance 0, near (U^t0)^dagger and far from it, against the
        # distance squared in extended precision
        target = _unitary_stack(rng, n)
        stack = np.empty((rows + 1, 9 * n), dtype=complex)
        stack[-1] = target.reshape(-1)
        stack[0] = target.reshape(-1)
        for j in range(1, rows):
            scale = 10.0 ** -rng.uniform(0, 12) if j % 2 else 1.0
            near = np.eye(3) + scale * (_unitary_stack(rng, n) - np.eye(3))
            stack[j] = np.matmul(target, near).reshape(-1)
        stack_f = stack.view(np.float64)
        norms = np.einsum("bi,bi->b", stack_f[:rows], stack_f[:rows])
        dots = stack_f @ stack_f[-1]
        approx = norms - 2.0 * dots[:rows] + dots[rows]
        slack = period_mod._screen_slack(n, math.sqrt(norms.max()), math.sqrt(dots[rows]))
        t_ext = stack_f[-1].astype(np.longdouble)
        for j in range(rows):
            exact = np.sum((stack_f[j].astype(np.longdouble) - t_ext) ** 2)
            assert abs(approx[j] - exact) <= slack, (n, j)

    @staticmethod
    def _group(rng, n, rows, giants):
        """Baby steps and giant steps of n random unitary blocks, as the
        float views _screen takes, with ||U^j||^2 / 2 and the largest ||U^j||."""
        stack = np.stack([_unitary_stack(rng, n).reshape(-1) for _ in range(rows + giants)])
        rows_f, giants_f = stack[:rows].view(np.float64), stack[rows:].view(np.float64)
        half_norms = 0.5 * np.einsum("bi,bi->b", rows_f, rows_f)
        return rows_f, half_norms, giants_f, math.sqrt(2.0 * half_norms.max())

    @pytest.mark.parametrize("n", [3, 50, 1000])
    def test_one_slack_per_group_at_its_longest_giant_step(self, rng, n):
        # giant steps at distance 0 and 10^-4..10^-12 from a baby step, and
        # far from every one, one of them twice as long as a unitary one:
        # each giant step's own slack, as the screen once took it, keeps no
        # chunk the group's one slack drops, and giant step 2, between the
        # two slacks, is kept by the group's only
        rows_f, half_norms, giants_f, r_max = self._group(rng, n, 16, 24)
        giants_f = giants_f.copy()
        giants_f[1] *= 2.0
        target = rows_f.view(complex)[3]
        for g in range(0, 24, 2):
            scale = 10.0 ** -(4 + g // 3) if g else 0.0
            near = np.eye(3) + scale * (_unitary_stack(rng, n) - np.eye(3))
            giants_f.view(complex)[g] = np.matmul(target.reshape(n, 3, 3), near).reshape(-1)
        unit = math.sqrt(3 * n)  # ||U||_F of a unitary stack
        low, high = (period_mod._screen_slack(n, r_max, t) for t in (unit, 2 * unit))
        step = rng.normal(size=target.shape) + 1j * rng.normal(size=target.shape)
        giants_f.view(complex)[2] = target + math.sqrt((low + high) / 2) * step / np.linalg.norm(step)
        tt = np.einsum("gi,gi->g", giants_f, giants_f)
        lhs = 2.0 * (half_norms - giants_f @ rows_f.T).min(axis=1) + tt
        own = period_mod._screen_slack(n, r_max, np.sqrt(tt))
        kept = np.flatnonzero(~(lhs > period_mod.IDENTITY_TOL ** 2 + own)).tolist()
        screened = period_mod._screen(rows_f, half_norms, giants_f, n, r_max)
        assert set(kept) <= set(screened)
        assert 0 in kept and 1 not in screened and 2 in screened and 2 not in kept

    def test_a_nan_giant_or_baby_step_keeps_its_chunk(self, rng):
        n = 5
        rows_f, half_norms, giants_f, r_max = self._group(rng, n, 8, 6)
        assert period_mod._screen(rows_f, half_norms, giants_f, n, r_max) == []
        giants_f = giants_f.copy()
        giants_f[2, 7] = math.nan
        assert 2 in period_mod._screen(rows_f, half_norms, giants_f, n, r_max)
        giants_f[2, 7] = 0.0
        rows_f = rows_f.copy()
        rows_f[5, 0] = math.nan
        half_norms = 0.5 * np.einsum("bi,bi->b", rows_f, rows_f)
        assert period_mod._screen(rows_f, half_norms, giants_f, n, r_max) == list(range(6))

    @classmethod
    def _half_group(cls, rng, n, rows, giants):
        """_group for the n//2 + 1 blocks brute force powers, with
        ||U^j||^2 / 2 and the largest norm weighted by _pair_weights."""
        rows_f, _, giants_f, _ = cls._group(rng, n // 2 + 1, rows, giants)
        half_norms = 0.5 * (np.square(rows_f) @ period_mod._pair_weights(n))
        return rows_f, half_norms, giants_f.copy(), math.sqrt(2.0 * half_norms.max())

    @pytest.mark.parametrize("n", [5, 6])
    def test_the_weighted_screen_counts_the_paired_blocks_twice(self, rng, n):
        # giant steps 0..2 are baby step 3 but for block 0, 1 and n//2, each
        # off by a distance squared of 3/4 of the group's limit, and giant
        # step 3 is far: only a block counted once, 0 and for even n the
        # last, stays within the limit, and the far one is dropped; the
        # screen gives the giant steps back bit for bit
        rows_f, half_norms, giants_f, r_max = self._half_group(rng, n, 8, 4)
        paired = period_mod._paired(n)
        limit = period_mod.IDENTITY_TOL ** 2 + period_mod._screen_slack(n, r_max, r_max)
        for g, block in enumerate((0, 1, n // 2)):
            step = rng.normal(size=18)
            giants_f[g] = rows_f[3]
            giants_f[g, 18 * block:18 * block + 18] += math.sqrt(0.75 * limit) * step / np.linalg.norm(step)
        before = giants_f.copy()
        screened = period_mod._screen(rows_f, half_norms, giants_f, n, r_max, paired)
        assert screened == ([0, 2] if n % 2 == 0 else [0])
        assert giants_f.tobytes() == before.tobytes()

    @pytest.mark.parametrize("n", [5, 6])
    def test_a_nan_giant_or_baby_step_keeps_its_chunk_in_the_weighted_screen(self, rng, n):
        rows_f, half_norms, giants_f, r_max = self._half_group(rng, n, 8, 6)
        paired = period_mod._paired(n)
        assert period_mod._screen(rows_f, half_norms, giants_f, n, r_max, paired) == []
        for g, column in ((2, 7), (4, 20)):  # in block 0, and in block 1, a paired one
            giants_f[g, column] = math.nan
            assert g in period_mod._screen(rows_f, half_norms, giants_f, n, r_max, paired)
            giants_f[g, column] = 0.0
        rows_f = rows_f.copy()
        rows_f[5, 20] = math.nan
        assert period_mod._screen(rows_f, half_norms, giants_f, n, r_max, paired) == list(range(6))

    @pytest.mark.parametrize("n", [2, 5, 6, 51])
    def test_given_weights_screen_as_the_paired_slice_alone(self, rng, n):
        # period_bruteforce passes _pair_weights(n) with _paired(n); giant
        # steps at distances 10^-3..10^-9 from baby step 3, around the limit
        rows_f, half_norms, giants_f, r_max = self._half_group(rng, n, 8, 7)
        for g in range(6):
            step = rng.normal(size=giants_f.shape[1])
            giants_f[g] = rows_f[3] + 10.0 ** -(3 + g * 1.2) * step / np.linalg.norm(step)
        paired, before = period_mod._paired(n), giants_f.copy()
        given = period_mod._screen(rows_f, half_norms, giants_f, n, r_max, paired, period_mod._pair_weights(n))
        assert given == period_mod._screen(rows_f, half_norms, giants_f, n, r_max, paired)
        assert 0 not in given and 5 in given and 6 not in given
        assert giants_f.tobytes() == before.tobytes()

    def test_aperiodic_chunks_skip_the_exact_test(self, monkeypatch):
        seen = _spy_first_hit(monkeypatch)
        res = period_bruteforce(spec_of(coins.grover_type(1), 5, 2))
        assert res.status == "no_period_up_to" and res.bound == TMAX_DEFAULT
        assert seen == []

    def test_only_the_chunk_with_the_period_takes_the_exact_test(self, monkeypatch):
        seen = _spy_first_hit(monkeypatch)
        assert period_bruteforce(spec_of(coins.perm_matrix(1), 3 * CHUNK_STEPS)).period == 3 * CHUNK_STEPS
        assert seen == [CHUNK_STEPS - 1]

    def test_chunk_that_passes_the_screen_without_a_hit(self, monkeypatch):
        # U^3 of the cyclic coin moved 1e-8 rad misses I by 4.2e-8, inside
        # the screen's slack but outside IDENTITY_TOL: the scan goes on
        seen = _spy_first_hit(monkeypatch)
        spec = spec_of(coins.coin_from_theta("X", 2 * math.pi / 3 + 1e-8), 3)
        res = period_bruteforce(spec, tmax=600)
        assert seen == [None]
        assert res.status == "no_period_up_to" and brute_oracle(spec, tmax=600) is None

    def test_every_chunk_passing_the_screen_still_finds_a_late_period(self, monkeypatch):
        monkeypatch.setattr(period_mod, "_screen_slack", lambda n, r, t: math.inf)
        seen = _spy_first_hit(monkeypatch)
        spec = spec_of(coins.perm_matrix(1), 3 * CHUNK_STEPS)
        assert period_bruteforce(spec).period == 3 * CHUNK_STEPS
        assert seen == [None, None, CHUNK_STEPS - 1]
        for coin, n, a in CHUNK_SPECS:
            assert _matches_oracle(spec_of(coin, n, a), 300), (n, a)


def _giant_group_chunks(n, tmax):
    """(first, last) chunk of each group of giant steps k = 1..last for n
    blocks: the first group holds GROUP_FLOOR_BYTES of powers, at least one
    and at most _plan's G; each later group doubles the steps so far, until
    the groups are G steps each."""
    chunk, size = period_mod._plan(n, tmax)
    last = (tmax - 1) // chunk
    g = max(1, min(size, period_mod.GROUP_FLOOR_BYTES // (n * 9 * 16)))
    groups, k0 = [], 1
    while k0 <= last:
        groups.append((k0, min(k0 + g - 1, last)))
        k0 += g
        g = min(k0 - 1, size - k0 + 1) if k0 - 1 < size else size
    return groups


def _n3_coin_of_period(t):
    """A coin whose walk at n = 3, a = 0 has period t, for t even or a
    multiple of 3: the X rule lcm(3, q) at theta/2pi = 1/q, or the Z rule
    lcm(2, 2 den(theta/2pi - 1/3))."""
    if t % 3 == 0:
        return coins.coin_from_theta_frac("X", Fraction(1, t))
    return coins.coin_from_theta_frac("Z", (Fraction(1, 3) + Fraction(2, t)) % 1)


def _spy_screen(monkeypatch):
    """Record the number of giant steps in every group screen of period_bruteforce."""
    sizes = []
    screen = period_mod._screen

    def recording(rows_f, half_norms, giants_f, *args):
        sizes.append(len(giants_f))
        return screen(rows_f, half_norms, giants_f, *args)

    monkeypatch.setattr(period_mod, "_screen", recording)
    return sizes


class TestGiantSteps:
    """Giant steps (U^kB)^dagger, screened in groups: a first group led by
    k = 0 that reaches the expected period's chunk, then groups of at least
    GROUP_FLOOR_BYTES of powers, doubling."""

    @staticmethod
    def _periods_on_group_edges_match_oracle(chunk):
        """A period in the first and in the last chunk of every group, at its
        chunk's first and last step where the n = 3 rules give one; at
        tmax = period - 1 the last group is cut short inside that chunk.
        Returns the groups and the single-step chunks that no rule fits."""
        tmax = 600
        groups = _giant_group_chunks(3, tmax)
        tested, missed = set(), set()
        for first, last in groups:
            for k in (first, last):
                periods = [t for t in range(k * chunk + 1, min((k + 1) * chunk, tmax) + 1)
                           if t % 2 == 0 or t % 3 == 0]
                if not periods:
                    missed.add(k * chunk + 1)
                for t in {periods[0], periods[-1]} if periods else ():
                    spec = spec_of(_n3_coin_of_period(t), 3)
                    assert brute_oracle(spec, tmax) == t
                    res = period_bruteforce(spec, tmax)
                    assert res.period == t and type(res.period) is int
                    for bound in (t - 1, t):
                        assert _matches_oracle(spec, bound), (chunk, k, t, bound)
                    tested.add(k)
        assert {k for group in groups for k in group} - tested == {(t - 1) // chunk for t in missed}
        return groups, missed

    @pytest.mark.parametrize("chunk", [1, 2, 5, 7])
    def test_periods_on_group_edges_match_oracle(self, monkeypatch, chunk):
        # with no floor the groups double from one giant step, so every
        # doubling edge is tested
        monkeypatch.setattr(period_mod, "CHUNK_STEPS", chunk)
        monkeypatch.setattr(period_mod, "GROUP_FLOOR_BYTES", 0)
        groups, missed = self._periods_on_group_edges_match_oracle(chunk)
        assert groups[0] == (1, 1) and len(groups) >= 7
        assert missed == ({5, 17, 65, 257} if chunk == 1 else set())  # odd, not 3k

    @pytest.mark.parametrize("chunk", [1, 2, 5, 7])
    def test_periods_on_first_group_edges_match_oracle(self, monkeypatch, chunk):
        # at n = 3 the first group is 18 giant steps: its last chunk and the
        # next group's first are edges
        monkeypatch.setattr(period_mod, "CHUNK_STEPS", chunk)
        groups, missed = self._periods_on_group_edges_match_oracle(chunk)
        assert groups[:2] == [(1, 18), (19, 36)] and len(groups) >= 4
        assert missed == ({19, 37, 73, 145, 289, 577} if chunk == 1 else set())

    def test_aperiodic_scan_screens_every_chunk_once_in_few_groups(self, monkeypatch):
        # 18 and 11 giant steps in the first group: five screens in all
        for n in (3, 5):
            sizes = _spy_screen(monkeypatch)
            seen = _spy_first_hit(monkeypatch)
            res = period_bruteforce(spec_of(coins.grover_type(1), n, n // 2))
            assert res.status == "no_period_up_to" and res.bound == TMAX_DEFAULT
            chunk = period_mod._plan(n, TMAX_DEFAULT)[0]
            assert sizes == [1] + [last - first + 1 for first, last in _giant_group_chunks(n, TMAX_DEFAULT)]
            assert len(sizes) == 5
            assert sum(sizes) == math.ceil(TMAX_DEFAULT / chunk)
            assert seen == []
            monkeypatch.undo()

    def test_scan_expecting_no_period_screens_one_group(self, monkeypatch):
        # expecting a period past tmax, the identity and every giant step are
        # the first group: one screen to tmax 10,000, not five
        for n in (3, 5):
            sizes = _spy_screen(monkeypatch)
            seen = _spy_first_hit(monkeypatch)
            res = period_bruteforce(spec_of(coins.grover_type(1), n, n // 2), TMAX_DEFAULT, TMAX_DEFAULT + 1)
            assert res.status == "no_period_up_to" and res.bound == TMAX_DEFAULT
            assert sizes == [79] and seen == []
            monkeypatch.undo()

    def test_groups_expecting_no_period_are_the_largest(self, monkeypatch):
        # a budget of ten giant steps: the identity and nine steps, then ten
        # steps a group, the last cut short at chunk 78, and a late period
        # is still found in order
        monkeypatch.setattr(period_mod, "CHUNK_BYTES", 2 * 128 * 432 + 10 * (3 * 432 + 136 * 8))
        sizes = _spy_screen(monkeypatch)
        aperiodic, late = spec_of(coins.coin_from_theta("X", 1.0), 3), 40 * CHUNK_STEPS + 2
        assert period_bruteforce(aperiodic, TMAX_DEFAULT, TMAX_DEFAULT + 1).bound == TMAX_DEFAULT
        assert sizes == [10] * 7 + [9]
        sizes.clear()
        assert period_bruteforce(spec_of(_n3_coin_of_period(late), 3), TMAX_DEFAULT, TMAX_DEFAULT + 1).period == late
        assert sizes == [10] * 5

    @pytest.mark.parametrize("coin, n, a, period", [(coins.perm_matrix(2), 50, 1, 150),
                                                    (coins.perm_matrix(1), 200, 0, 200)])
    def test_period_found_when_none_was_expected(self, coin, n, a, period):
        # a wrong expectation changes the schedule, not the result
        for expected in (TMAX_DEFAULT + 1, 1, 2, 64, period - 1, period + 1):
            assert period_bruteforce(spec_of(coin, n, a), TMAX_DEFAULT, expected).period == period

    @pytest.mark.parametrize("coin, n, a, period, screens", [
        (coins.perm_matrix(1), 300, 0, 300, [3]),  # chunk 2, where the groups from k = 0 alone are 1, 1, 1
        (coins.perm_matrix(2), 200, 1, 600, [5]),  # chunk 4: 1, 1, 1, 2
    ])
    def test_first_group_reaches_the_expected_period(self, monkeypatch, coin, n, a, period, screens):
        # the period the other methods report sets the first group's end:
        # one screen, no more giant steps, and the same result
        spec = spec_of(coin, n, a)
        sizes = _spy_screen(monkeypatch)
        cv = cross_validate(spec)
        assert cv.agreement and {r.period for r in cv.results if r.finite} == {period}
        assert sizes == screens
        sizes.clear()
        assert period_bruteforce(spec, TMAX_DEFAULT, period).period == period
        assert sizes == screens

    def test_period_in_the_first_chunk_builds_no_giant_step(self, monkeypatch):
        sizes = _spy_screen(monkeypatch)
        assert period_bruteforce(spec_of(coins.perm_matrix(1), 4)).period == 4
        assert sizes == [1]

    def test_late_period_screens_twice_its_chunks_at_most(self, monkeypatch):
        # period 5122 in chunk k = 40 of 79: the groups up to k = 72 are
        # screened, not the whole scan; a period in the first group costs
        # that group, however early it falls
        sizes = _spy_screen(monkeypatch)
        spec = spec_of(_n3_coin_of_period(40 * CHUNK_STEPS + 2), 3)
        assert period_bruteforce(spec).period == 40 * CHUNK_STEPS + 2
        assert sizes == [1, 18, 18, 36]
        assert sum(sizes) <= max(2 * 40 + 1, sizes[1] + 1)

    @pytest.mark.parametrize("tmax", [2, 129, 257, 640, 4737, TMAX_DEFAULT])
    def test_first_group_never_exceeds_the_largest(self, monkeypatch, tmax):
        # with tmax cutting the scan short, and with a budget of ten giant
        # steps, so that the first group is the largest and every later
        # group the product W^(k0 - 1) @ W^(1..g)
        sizes = _spy_screen(monkeypatch)
        spec = spec_of(coins.coin_from_theta("X", 1.0), 3)
        chunk, size = period_mod._plan(3, tmax)
        assert period_bruteforce(spec, tmax).bound == tmax
        assert max(sizes[1:], default=1) <= size and sum(sizes) == math.ceil(tmax / chunk)
        sizes.clear()
        monkeypatch.setattr(period_mod, "CHUNK_BYTES", 2 * 128 * 432 + 10 * (3 * 432 + 136 * 8))
        chunk, size = period_mod._plan(3, tmax)
        assert chunk == min(CHUNK_STEPS, tmax) and size == min(10, (tmax - 1) // chunk + 1)
        late = spec_of(_n3_coin_of_period(40 * CHUNK_STEPS + 2), 3)
        assert _matches_oracle(late, tmax)
        assert max(sizes[1:], default=1) <= size
        if tmax == TMAX_DEFAULT:
            assert sizes == [1] + [10] * 4

    def test_one_giant_step_per_group_where_the_budget_leaves_no_room_for_two(self):
        # from n = 445 the baby steps leave less than two giant steps of three
        # powers each, so every group is one giant step: the (U^t0)^dagger
        # that _plan counts
        for n in (2, 5, 100, 444):
            assert period_mod._plan(n, TMAX_DEFAULT)[1] > 1
        for n in (445, 453, 454, 700, 1000, 20_000, 38_836):
            assert period_mod._plan(n, TMAX_DEFAULT)[1] == 1


class TestExpectedPeriodFirst:
    """An expected period p whose least power of two b0 >= p is 2..B/2:
    U^1..U^b0 are built and tested against I before the scan."""

    @pytest.mark.parametrize("expected, tests, screens", [
        (6, [5], []),  # the period: found in U^1..U^8, with no screen
        (5, [5], []),  # b0 = 8 holds it too
        (4, [None, 5], [1]),  # U^1..U^4 miss it: the scan goes on from chunk 0
        (64, [5], []),  # b0 = 64, half of B
        (65, [5], [1]),  # b0 = 128 = B: the scan alone
        (1, [5], [1]),  # nothing expected: the scan alone
    ])
    def test_the_head_is_tested_before_the_scan(self, monkeypatch, expected, tests, screens):
        sizes, seen = _spy_screen(monkeypatch), _spy_first_hit(monkeypatch)
        assert period_bruteforce(spec_of(coins.grover_type(1), 3), TMAX_DEFAULT, expected).period == 6
        assert seen == tests and sizes == screens

    @pytest.mark.parametrize("period, expected", [(8, 8), (8, 5), (9, 8), (16, 9), (18, 16), (2, 1), (3, 1)])
    def test_periods_at_the_head_edge_match_oracle(self, period, expected):
        # on the head's last power, and on the first power past it
        spec = spec_of(_n3_coin_of_period(period), 3)
        for tmax in (period - 1, period, 300):
            assert _matches_oracle(spec, tmax, expected), (period, expected, tmax)

    @pytest.mark.parametrize("chunk", [CHUNK_STEPS, 100, 57, 7])
    def test_the_head_grows_on_to_the_same_bits(self, rng, chunk):
        # the doubling steps to b0 are the first of those to B
        for n in (2, 5, 33):
            stack = _unitary_stack(rng, n)
            full = period_mod._grow(stack, chunk).tobytes()
            head = 1
            while 2 * head <= chunk:
                assert period_mod._grow(period_mod._grow(stack, head), chunk).tobytes() == full, (n, head)
                head *= 2


class TestBruteForceMemoryGuard:
    def test_past_dense_guard_gives_report(self):
        spec = spec_of(coins.perm_matrix(2), DENSE_GUARD + 1)
        res = period_bruteforce(spec, tmax=3)
        assert res.status == "finite" and res.period == 3

    def test_guard_only_when_one_power_exceeds_budget(self):
        # a chunk of one power holds the power, its window and (U^t0)^dagger
        per_block = (period_mod._CHUNK_COPIES + 1) * 9 * 16
        largest = period_mod.CHUNK_BYTES // per_block
        assert largest == 38_836
        assert period_mod._plan(largest, TMAX_DEFAULT)[0] == 1
        with pytest.raises(GuardExceeded):
            period_mod._plan(largest + 1, TMAX_DEFAULT)[0]
        with pytest.raises(GuardExceeded):
            period_bruteforce(spec_of(coins.perm_matrix(1), largest + 1), tmax=3)

    def test_cross_validate_keeps_the_other_results_past_the_guard(self):
        spec = spec_of(coins.perm_matrix(1), 38_837)
        cv = cross_validate(spec, tmax=3)
        assert [r.method for r in cv.results] == list(period_mod.METHODS)
        analytic, spectral, brute = cv.results
        assert (analytic.status, analytic.period) == ("finite", 38_837)
        assert (spectral.status, spectral.period) == ("finite", 38_837)
        assert brute == PeriodResult(status="not_applicable", method="bruteforce", theorem="guard-exceeded")
        assert cv.agreement

    def test_peak_memory_within_chunk_budget(self):
        # at n = 20,000 a chunk holds 2 powers: the powers and the window take
        # 11.5 MB of the 16 MiB budget, and (U^t0)^dagger one power, 2.9 MB,
        # more; a third chunk-sized array, or a second power, would exceed it
        spec = spec_of(coins.perm_matrix(2), 20_000)
        assert period_mod._plan(spec.n, 3)[0] == 2
        tracemalloc.start()
        try:
            res = period_bruteforce(spec, tmax=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.period == 3  # a hit in the second chunk, after U^t0 has advanced once
        assert peak <= period_mod.CHUNK_BYTES + 256 * 1024

    def test_chunk_shrinks_with_n_within_budget(self):
        for n in (2, 100, 1000, DENSE_GUARD + 1, 20_000):
            chunk = period_mod._plan(n, TMAX_DEFAULT)[0]
            assert 1 <= chunk <= CHUNK_STEPS
            assert (period_mod._CHUNK_COPIES * chunk + 1) * n * 9 * 16 <= period_mod.CHUNK_BYTES

    def test_chunk_never_exceeds_tmax(self):
        for n in (2, 5, 400, 1000, 20_000):
            for tmax in (0, 1, 2, 3, 57, 127, 128, 129, TMAX_DEFAULT):
                assert 1 <= period_mod._plan(n, tmax)[0] <= max(1, tmax)
        assert period_mod._plan(5, TMAX_DEFAULT)[0] == CHUNK_STEPS  # the period-table sizes

    def test_peak_memory_at_n_1000_within_chunk_budget(self):
        # 57 powers fit: (2 * 57 + 1) powers of 144,000 bytes are 16.56 MB;
        # the chunk once left (U^t0)^dagger out and peaked at 16.85 MB
        spec = spec_of(coins.perm_matrix(2), 1000)
        assert period_mod._plan(spec.n, 200)[0] == 57
        tracemalloc.start()
        try:
            res = period_bruteforce(spec, tmax=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.period == 3
        assert peak <= period_mod.CHUNK_BYTES

    def test_peak_memory_of_a_missed_head_within_chunk_budget(self):
        # at n = 1000, B = 57: a head of 16 powers misses the identity coin's
        # period 1000 and grows on to B, which the scan then fills
        spec = spec_of(coins.perm_matrix(1), 1000)
        tracemalloc.start()
        try:
            res = period_bruteforce(spec, 200, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.status == "no_period_up_to" and res.bound == 200
        assert peak <= period_mod.CHUNK_BYTES

    @pytest.mark.parametrize("expected", [1, 3_000_001])
    def test_peak_memory_at_the_largest_giant_group_within_chunk_budget(self, monkeypatch, expected):
        # 23,437 giant steps at tmax = 3,000,000: the groups reach the cap,
        # where their table, product and rows take 9.1 MB and the (128, g)
        # screen 7.2 MB of the 16 MiB budget; expecting no period, the
        # identity and cap - 1 steps are the first group
        sizes = _spy_screen(monkeypatch)
        spec = spec_of(coins.coin_from_theta("X", 1.0), 3)
        tmax = 3_000_000
        chunk, cap = period_mod._plan(spec.n, tmax)
        assert 1 < cap < (tmax - 1) // chunk
        tracemalloc.start()
        try:
            res = period_bruteforce(spec, tmax, expected)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.status == "no_period_up_to" and res.bound == tmax
        assert max(sizes) == cap and sum(sizes) == math.ceil(tmax / chunk)
        assert peak <= period_mod.CHUNK_BYTES


    @pytest.mark.parametrize("n", [2, 4])
    def test_peak_memory_of_the_half_stack_at_the_largest_giant_group_within_chunk_budget(self, monkeypatch, n):
        # the budget counts powers of all n blocks: at n = 2 the half stack
        # is both blocks and frees none of it, and at n = 4 a weighted copy
        # of every group would take all it frees; one such copy once peaked
        # at 18.9 MB at n = 2
        sizes = _spy_screen(monkeypatch)
        spec = spec_of(coins.coin_from_theta("X", 1.0), n)
        tmax = 3_000_000
        chunk, cap = period_mod._plan(spec.n, tmax)
        tracemalloc.start()
        try:
            res = period_bruteforce(spec, tmax)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.status == "no_period_up_to" and res.bound == tmax
        assert max(sizes) == cap and sum(sizes) == math.ceil(tmax / chunk)
        assert peak <= period_mod.CHUNK_BYTES


class TestAnalytic:
    def test_rational_angle_fifth(self):
        res = period_analytic(spec_of(coins.coin_from_theta("X", 2 * math.pi / 5), 3))
        assert res.period == 15  # lcm{3, 5}

    def test_grover_type_p6(self):
        res = period_analytic(spec_of(coins.grover_type(6), 3))
        assert res.period == 12

    def test_off_three_cycle_is_infinite(self):
        res = period_analytic(spec_of(coins.coin_from_theta("X", math.pi / 4), 7))
        assert res.status == "proven_infinite"
        assert res.theorem == "x-family:aperiodic-off-3cycle"

    def test_lively_walks_not_covered(self):
        res = period_analytic(spec_of(coins.grover_type(1), 3, a=1))
        assert res.status == "not_applicable"

    def test_exact_rational_coin_aperiodic(self):
        coin = coins.coin_from_rational("X", Fraction(2))
        res = period_analytic(spec_of(coin, 3))
        assert res.status == "proven_infinite"
        assert res.theorem == "rational-coin:aperiodic"
        assert brute_oracle(spec_of(coin, 3)) is None

    def test_rational_coin_theorem_needs_exact_orthogonality(self):
        # moving y and z of an exact X coin by 1e-12 keeps the sum and leaves
        # a float defect of 4.8e-12, inside DEFAULT_TOL, yet the matrix is not
        # orthogonal, so no walk of it reaches the rational-coin theorem
        eps = Fraction(1, 10**12)
        x, y, z = coins.coin_from_rational("X", Fraction(2)).params
        y, z = y + eps, z - eps
        near = coins.Coin3(matrix=np.array([[x, y, z], [z, x, y], [y, z, x]], dtype=object))
        with pytest.raises(NotOrthogonal):
            spec_of(near, 3)
        res = period_analytic(spec_of(coins.Coin3(matrix=near.as_float()), 3))
        assert res.theorem != "rational-coin:aperiodic"

    def test_unclassifiable_float_angle(self):
        res = period_analytic(spec_of(coins.coin_from_theta("X", 1.0), 3))
        assert res.status == "not_applicable"

    def test_identity_lcm_formula_matches_oracle(self):
        for n in range(2, 21):
            spec = spec_of(coins.perm_matrix(1), n)
            assert (
                period_analytic(spec).period
                == period_spectral(spec).period
                == brute_oracle(spec)
                == n
            )

    @pytest.mark.parametrize("p", [4, 5, 6])
    def test_transposition_formulas_match_oracle(self, p):
        for n in range(2, 9):
            spec = spec_of(coins.perm_matrix(p), n)
            assert period_analytic(spec).period == brute_oracle(spec)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_negated_permutations_match_oracle(self, p):
        for n in range(2, 9):
            coin = coins.Coin3(matrix=-coins.perm_matrix(p).matrix)
            spec = spec_of(coin, n)
            assert period_analytic(spec).period == brute_oracle(spec)


class TestClosedFormRules:
    """The n-dependent special-angle rules are lcms over the blocks, stated
    in closed form as n, 2n and lcm(2, n)."""

    @staticmethod
    def lcm_over_blocks(n, doubled, half_step):
        # m_l/p_l is 2l/n (doubled) or l/n in lowest terms; identity-lcm takes
        # c_l * p_l with c_l = 2 for odd m_l, the half-step rules lcm{2, 2 p_l}
        vals = [2] if half_step else []
        for l in range(1, n):
            f = Fraction(2 * l, n) if doubled else Fraction(l, n)
            vals.append(2 * f.denominator if half_step else (f.numerator % 2 + 1) * f.denominator)
        return math.lcm(*vals)

    def test_closed_forms_match_the_block_lcms(self):
        for n in range(2, 400):
            assert self.lcm_over_blocks(n, doubled=True, half_step=False) == n
            assert self.lcm_over_blocks(n, doubled=False, half_step=True) == 2 * n
            assert self.lcm_over_blocks(n, doubled=True, half_step=True) == math.lcm(2, n)

    @pytest.mark.parametrize("fam, frac, theorem", [
        ("X", Fraction(0), "x-family:identity-lcm"),
        ("Z", Fraction(0), "z-family:permutation-lcm"),
        ("Z", Fraction(2, 3), "z-family:permutation-lcm"),
        ("Y", Fraction(1, 2), "y-family:negated-identity-lcm"),
        ("W", Fraction(1, 2), "w-family:permutation-lcm"),
        ("W", Fraction(1, 6), "w-family:permutation-lcm"),
    ])
    def test_analytic_matches_spectral(self, fam, frac, theorem):
        coin = coins.coin_from_theta_frac(fam, frac)
        for n in range(2, 65):
            analytic = period_analytic(spec_of(coin, n))
            assert analytic.theorem == theorem
            assert analytic.period == period_spectral(spec_of(coin, n)).period, n


class TestSoundness:
    def make_coins(self, rng):
        out = [coins.perm_matrix(p) for p in range(1, 7)]
        out += [coins.grover_type(p, negate=neg) for p in range(1, 7) for neg in (False, True)]
        for _ in range(40):
            q = int(rng.integers(1, 13))
            m = int(rng.integers(0, q))
            fam = coins.FAMILIES[rng.integers(0, 4)]
            out.append(coins.coin_from_theta_frac(fam, Fraction(m, q)))
        return out

    def test_finite_claims_confirmed_by_oracle(self, rng):
        # claimed finite periods in this sweep are < 300, so a 2000-step
        # oracle bound confirms every one; the 10^4 bound pinned by the
        # acceptance criteria is exercised in test_acceptance
        tmax = 2000
        for coin in self.make_coins(rng):
            for n in range(2, 11):
                spec = spec_of(coin, n)
                brute = brute_oracle(spec, tmax)
                analytic = period_analytic(spec)
                spectral = period_spectral(spec)
                if analytic.finite:
                    assert analytic.period <= tmax, "sweep bound too small for claim"
                    assert brute == analytic.period, (coin.family, coin.params, n)
                if spectral.finite:
                    assert spectral.period <= tmax, "sweep bound too small for claim"
                    assert brute == spectral.period, (coin.family, coin.params, n)
                if analytic.status == "proven_infinite":
                    assert brute is None, (coin.family, coin.params, n)


class TestCyclicPermutationLively:
    """+-P2 and +-P3 with a != 0: each block's eigenvalues are the three cube
    roots of one unit phase (block polynomial lam^3 + c0), spread evenly
    around the circle.  A closed-form cubic solver once raised
    NumericalFailure on 32 of these walks, so the spectral route is held
    to brute force on every one of them."""

    def test_methods_agree_and_spectral_matches_bruteforce(self):
        checked = 0
        for p in (2, 3):
            for coin in (coins.perm_matrix(p), coins.Coin3(matrix=-coins.perm_matrix(p).matrix)):
                for n in range(2, 13):
                    for a in range(1, n // 2 + 1):
                        cv = cross_validate(spec_of(coin, n, a))
                        _, spectral, brute = cv.results
                        assert cv.agreement, (p, n, a)
                        assert spectral.finite and spectral.period == brute.period, (p, n, a)
                        checked += 1
        assert checked == 144

    @settings(max_examples=100, deadline=None)
    @given(index=st.integers(0, len(SPECIAL_COINS) - 1), n=st.integers(2, 64), data=st.data())
    def test_spectral_never_fails_on_special_coins(self, index, n, data):
        a = data.draw(st.integers(0, n // 2))
        result = period_spectral(spec_of(SPECIAL_COINS[index], n, a))
        assert result.status in ("finite", "no_period_up_to")

    @settings(max_examples=100, deadline=None)
    @given(family=st.sampled_from(coins.FAMILIES), theta=st.floats(0.0, 2 * math.pi),
           n=st.integers(2, 64), data=st.data())
    def test_spectral_never_fails_on_generic_coins(self, family, theta, n, data):
        a = data.draw(st.integers(0, n // 2))
        result = period_spectral(spec_of(coins.coin_from_theta(family, theta), n, a))
        assert result.status in ("finite", "no_period_up_to")


class TestCrossValidate:
    def test_grover_agreement(self):
        cv = cross_validate(spec_of(coins.grover_type(1), 3))
        assert cv.agreement
        assert [r.period for r in cv.results] == [6, 6, 6]

    def test_delta2(self):
        cv = cross_validate(spec_of(coins.coin_from_theta("X", 3 * math.pi / 2), 3))
        assert cv.agreement
        assert [r.period for r in cv.results] == [12, 12, 12]

    def test_irrational_angle_six_cycle(self):
        cv = cross_validate(spec_of(coins.coin_from_theta("X", 0.7), 6))
        statuses = {r.method: r.status for r in cv.results}
        assert statuses["analytic"] == "proven_infinite"
        assert statuses["spectral"] == "no_period_up_to"
        assert statuses["bruteforce"] == "no_period_up_to"
        assert cv.agreement

    def test_report_schema(self):
        cv = cross_validate(spec_of(coins.grover_type(1), 3))
        doc = report_json(cv)
        assert set(doc) == {"n", "a", "coin", "results", "agreement"}
        for r in doc["results"]:
            assert set(r) == {"method", "status", "period", "bound", "theorem"}
            assert r["status"] in {"finite", "no_period_up_to", "proven_infinite", "not_applicable"}


#: fixed method results around the period p = 6
_FIXED_RESULTS = {
    "finite_p": PeriodResult(status="finite", method="analytic", period=6),
    "finite_p_again": PeriodResult(status="finite", method="bruteforce", period=6),
    "finite_q": PeriodResult(status="finite", method="spectral", period=12),
    "bound_at_p": PeriodResult(status="no_period_up_to", method="bruteforce", bound=6),
    "bound_below_p": PeriodResult(status="no_period_up_to", method="spectral", bound=5),
    "infinite": PeriodResult(status="proven_infinite", method="analytic", theorem="x-family:aperiodic-off-3cycle"),
    "not_applicable": PeriodResult(status="not_applicable", method="analytic", theorem="phase-condition-unmet"),
}
#: the pairs that disagree: a finite period against another finite period,
#: against proven_infinite, or against no period up to a bound at least that
#: period (finite_q's 12 exceeds bound_at_p's 6, so that pair agrees)
_CONTRADICTIONS = {
    frozenset(pair) for pair in (
        ("finite_p", "finite_q"), ("finite_p_again", "finite_q"),
        ("finite_p", "bound_at_p"), ("finite_p_again", "bound_at_p"),
        ("finite_p", "infinite"), ("finite_p_again", "infinite"), ("finite_q", "infinite"),
    )
}


def _fixed_methods(monkeypatch, analytic=None, spectral=None, bruteforce=None):
    """Make each method return its given fixed result."""
    for name, result in (("analytic", analytic), ("spectral", spectral), ("bruteforce", bruteforce)):
        monkeypatch.setattr(period_mod, f"period_{name}", lambda *args, result=result: result)


class TestContradictions:
    """`cross_validate`'s agreement over every ordered pair of fixed results."""

    @pytest.mark.parametrize("first, second", itertools.product(_FIXED_RESULTS, repeat=2))
    def test_pair_in_both_orders(self, monkeypatch, first, second):
        a, b = _FIXED_RESULTS[first], _FIXED_RESULTS[second]
        _fixed_methods(monkeypatch, analytic=a, spectral=b)
        expected = frozenset((first, second)) not in _CONTRADICTIONS
        forward = cross_validate(spec_of(coins.grover_type(1), 3), methods=("analytic", "spectral"))
        backward = cross_validate(spec_of(coins.grover_type(1), 3), methods=("spectral", "analytic"))
        assert forward.results == (a, b)
        assert backward.results == (b, a)
        assert forward.agreement is backward.agreement is expected

    @pytest.mark.parametrize("first, last, agreement", [
        ("finite_p", "infinite", False),
        ("infinite", "bound_at_p", True),
        ("finite_q", "bound_at_p", True),
        ("bound_at_p", "finite_p", False),
    ])
    def test_first_and_last_of_three(self, monkeypatch, first, last, agreement):
        _fixed_methods(monkeypatch, analytic=_FIXED_RESULTS[first],
                       spectral=_FIXED_RESULTS["not_applicable"], bruteforce=_FIXED_RESULTS[last])
        assert cross_validate(spec_of(coins.grover_type(1), 3)).agreement is agreement

    def test_single_result_agrees(self, monkeypatch):
        _fixed_methods(monkeypatch, analytic=_FIXED_RESULTS["finite_p"])
        assert cross_validate(spec_of(coins.grover_type(1), 3), methods=("analytic",)).agreement

    def test_no_method_agrees(self):
        assert cross_validate(spec_of(coins.grover_type(1), 3), methods=()).agreement


class TestBruteForceExpectation:
    """The period `cross_validate` hands `period_bruteforce` to expect: the
    least period that every earlier result leaves open (`_least_open`), at
    most tmax + 1, and 1 when no result came before."""

    @pytest.mark.parametrize("result, least_open", [
        ("finite_p", 6), ("finite_p_again", 6), ("finite_q", 12), ("bound_at_p", 7),
        ("bound_below_p", 6), ("infinite", math.inf), ("not_applicable", 1),
    ])
    def test_least_open_period_of_each_result(self, result, least_open):
        assert period_mod._least_open(_FIXED_RESULTS[result]) == least_open

    @staticmethod
    def _fixed_with_spy(monkeypatch, analytic, spectral, seen):
        """`_fixed_methods` for analytic and spectral, and a bruteforce that
        appends the period it is handed to `seen` and returns finite_p_again."""
        _fixed_methods(monkeypatch, analytic=analytic, spectral=spectral)
        monkeypatch.setattr(period_mod, "period_bruteforce",
                            lambda *args: seen.append(args[2]) or _FIXED_RESULTS["finite_p_again"])

    @pytest.mark.parametrize("earlier, expected", [
        ("infinite", 7), ("bound_at_p", 7), ("finite_q", 7),
        ("not_applicable", 1), ("finite_p", 6), ("bound_below_p", 6),
    ])
    def test_expectation_follows_the_earlier_result(self, monkeypatch, earlier, expected):
        # tmax = 6 is finite_p's period and bound_at_p's bound
        seen = []
        spec, na = spec_of(coins.grover_type(1), 3), _FIXED_RESULTS["not_applicable"]
        for analytic, spectral in ((_FIXED_RESULTS[earlier], na), (na, _FIXED_RESULTS[earlier])):
            self._fixed_with_spy(monkeypatch, analytic, spectral, seen)
            cross_validate(spec, tmax=6)
        # listed before the others, bruteforce expects nothing
        cross_validate(spec, tmax=6, methods=("bruteforce", "analytic", "spectral"))
        assert seen == [expected, expected, 1]

    @pytest.mark.parametrize("analytic, spectral, tmax, expected", [
        ("finite_p", "finite_q", 12, 12),  # two periods within tmax: the greater
        ("finite_q", "finite_p", 6, 7),  # one within tmax, one past it
        ("infinite", "finite_p", 6, 7),  # a period within tmax that another result rules out
    ])
    def test_disagreeing_results_leave_open_the_greatest(self, monkeypatch, analytic, spectral, tmax, expected):
        seen = []
        self._fixed_with_spy(monkeypatch, _FIXED_RESULTS[analytic], _FIXED_RESULTS[spectral], seen)
        cross_validate(spec_of(coins.grover_type(1), 3), tmax=tmax)
        assert seen == [expected]


class TestGuaranteedOrderBound:
    """The claim behind GUARANTEED_ORDER_BOUND, not just its value: an angle
    within ANGLE_ACCURACY of 2*pi*p/q, gcd(p, q) = 1 and q <= the bound,
    classifies back to p/q, and the unit at that angle has order q.

    order_of_unit measures the angle itself (atan2, then /2*pi mod 1), and
    the unit is built with exp; the round trip adds up to ~1.5e-16 of a
    turn.  At q = 31622 the guard err * q^2 < DECISIVE leaves only 4.9e-17
    of a turn above ANGLE_ACCURACY, so the unit-circle cases move the angle
    by at most ANGLE_ACCURACY - ROUNDTRIP.
    """

    ROUNDTRIP = 2e-16
    TOP = range(GUARANTEED_ORDER_BOUND - 300, GUARANTEED_ORDER_BOUND + 1)

    @staticmethod
    def _numerators(q):
        """1, q - 1 and the coprime numerators nearest above q/3 and q/2."""
        out = [1, q - 1]
        for start in (q // 3, q // 2):
            p = start
            while math.gcd(p, q) != 1:
                p += 1
            out.append(p)
        return out

    def _check(self, p, q, delta):
        assert classify_fraction(p / q + delta) == Fraction(p, q), (p, q, delta)
        inner = math.copysign(max(abs(delta) - self.ROUNDTRIP, 0.0), delta)
        lam = np.exp(2j * math.pi * ((p / q + inner) % 1.0))
        assert order_of_unit(lam) == Fraction(p, q).denominator, (p, q, inner)

    def test_bound_is_the_largest_guarded_order(self):
        assert ANGLE_ACCURACY * GUARANTEED_ORDER_BOUND**2 < period_mod.DECISIVE
        assert ANGLE_ACCURACY * (GUARANTEED_ORDER_BOUND + 1) ** 2 >= period_mod.DECISIVE

    @given(q=st.integers(1, GUARANTEED_ORDER_BOUND), data=st.data())
    @settings(max_examples=500, deadline=None)
    def test_moved_fraction_comes_back(self, q, data):
        p = data.draw(st.integers(0, q - 1))
        f = Fraction(p, q)
        delta = data.draw(st.floats(-ANGLE_ACCURACY, ANGLE_ACCURACY))
        self._check(f.numerator, f.denominator, delta)

    def test_roundtrip_needs_the_margin(self):
        # at the bound, a unit moved by the full ANGLE_ACCURACY can lose its
        # order to the round trip alone; the angle itself still classifies
        p, q = 15815, 31622
        assert classify_fraction(p / q - ANGLE_ACCURACY) == Fraction(p, q)
        assert order_of_unit(np.exp(2j * math.pi * (p / q - ANGLE_ACCURACY))) is None
        self._check(p, q, -ANGLE_ACCURACY)

    def test_top_of_the_bound(self):
        # each q in the 301 below and at the bound, at 0 and +-ANGLE_ACCURACY
        checked = 0
        for q in self.TOP:
            for p in self._numerators(q):
                for delta in (-ANGLE_ACCURACY, 0.0, ANGLE_ACCURACY):
                    self._check(p, q, delta)
                    checked += 1
        assert checked == 301 * 4 * 3


class TestAngleClassifier:
    def test_exact_fraction_found(self):
        assert classify_fraction(0.2) == Fraction(1, 5)

    def test_half_found(self):
        assert classify_fraction(0.5) == Fraction(1, 2)

    def test_wraps_mod_one(self):
        assert classify_fraction(1.75) == Fraction(3, 4)

    def test_decisiveness_guard_rejects_shadow_convergents(self):
        # 49766/312689 approximates 1/(2*pi) within 1.5e-12 but only because
        # the denominator is large; the guard must reject it
        assert classify_fraction(1.0 / (2 * math.pi)) is None

    @given(st.floats(min_value=0.001, max_value=0.999))
    @settings(max_examples=300, deadline=None)
    def test_accepted_fractions_satisfy_stated_bounds(self, x):
        f = classify_fraction(x)
        if f is not None:
            assert abs(x - float(f)) < 1e-11
            assert f.denominator <= QMAX_DEFAULT
