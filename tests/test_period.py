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
    order_of_unit,
    period_analytic,
    period_bruteforce,
    period_spectral,
    report_json,
)
from livelywalk import period as period_mod
from livelywalk.coins import SPECIAL_COINS
from livelywalk.errors import GuardExceeded, NotUnitModulus
from livelywalk.period import (
    ANGLE_ACCURACY,
    CHUNK_STEPS,
    GUARANTEED_ORDER_BOUND,
    QMAX_DEFAULT,
    classify_fraction,
)
from livelywalk.walk import DENSE_GUARD

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


def _matches_oracle(spec, tmax):
    res = period_bruteforce(spec, tmax)
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
        assert period_mod._chunk_steps(n) == CHUNK_STEPS
        spec = spec_of(coins.perm_matrix(1), n)
        assert period_analytic(spec).period == n
        assert period_bruteforce(spec).period == n
        assert period_bruteforce(spec, tmax=n).period == n
        res = period_bruteforce(spec, tmax=n - 1)
        assert res.status == "no_period_up_to" and res.bound == n - 1

    @pytest.mark.parametrize("coin, n", [
        (coins.perm_matrix(1), 3 * CHUNK_STEPS),  # identity-lcm, period n: the last step of chunk 3
        (coins.perm_matrix(1), 3 * CHUNK_STEPS + 1),  # the first step of chunk 4
        (coins.coin_from_theta_frac("Z", Fraction(0)), 700),  # permutation-lcm, period 2n: chunk 17 of 83 steps
    ])
    def test_hit_in_a_late_chunk_matches_analytic(self, coin, n):
        # past the second chunk each chunk is compared against an accumulated (U^t0)^dagger
        spec = spec_of(coin, n)
        period = period_analytic(spec).period
        assert period > 2 * period_mod._chunk_steps(n)
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
        assert _matches_oracle(spec_of(coins.coin_from_theta(family, theta), n, a), tmax)


class TestBruteForceMemoryGuard:
    def test_past_dense_guard_gives_report(self):
        spec = spec_of(coins.perm_matrix(2), DENSE_GUARD + 1)
        res = period_bruteforce(spec, tmax=3)
        assert res.status == "finite" and res.period == 3

    def test_guard_only_when_one_power_exceeds_budget(self):
        per_block = period_mod._CHUNK_COPIES * 9 * 16
        largest = period_mod.CHUNK_BYTES // per_block
        assert period_mod._chunk_steps(largest) == 1
        with pytest.raises(GuardExceeded):
            period_mod._chunk_steps(largest + 1)
        with pytest.raises(GuardExceeded):
            period_bruteforce(spec_of(coins.perm_matrix(1), largest + 1), tmax=3)

    def test_peak_memory_within_chunk_budget(self):
        # at n = 20,000 a chunk holds 2 powers: the powers and the window take
        # 11.5 MB of the 16 MiB budget, and (U^t0)^dagger one power, 2.9 MB,
        # more; a third chunk-sized array, or a second power, would exceed it
        spec = spec_of(coins.perm_matrix(2), 20_000)
        assert period_mod._chunk_steps(spec.n) == 2
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
            chunk = period_mod._chunk_steps(n)
            assert 1 <= chunk <= CHUNK_STEPS
            assert period_mod._CHUNK_COPIES * n * 9 * 16 * chunk <= period_mod.CHUNK_BYTES


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
