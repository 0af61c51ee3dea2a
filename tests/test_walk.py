import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from livelywalk import (
    WalkSpec,
    basis_state,
    block_stack,
    cli,
    coins,
    distribution,
    eig3_unitary,
    evolution_operator,
    evolve,
    reduced_block,
    spectrum,
    walk,
    write_distribution_csv,
)
from livelywalk.coins import SPECIAL_COINS
from livelywalk.errors import (
    GuardExceeded,
    NotNormalized,
    NotUnitary,
    OutOfRange,
)
from livelywalk.walk import DENSE_GUARD

import test_golden_spectral
from conftest import (
    assert_same_multiset,
    dense_operator,
    eigenvalues_closed_form,
    momentum_state,
    shift_operator,
)

WALK_COINS = st.one_of(
    st.sampled_from(SPECIAL_COINS),
    st.builds(
        coins.coin_from_theta,
        st.sampled_from(coins.FAMILIES),
        st.one_of(st.floats(0.0, 2 * math.pi),
                  st.builds(lambda m, q: 2 * math.pi * m / q, st.integers(0, 11), st.integers(1, 12))),
    ),
)


def grover_spec(n, a=0):
    return WalkSpec(n=n, a=a, coin=coins.grover_type(1))


def library_shift(n, a):
    """The library's shift S: the walk operator of the identity coin."""
    return evolution_operator(WalkSpec(n=n, a=a, coin=coins.perm_matrix(1)))


class TestShift:
    def test_coin0_moves_back(self):
        s = library_shift(3, 0)
        psi = np.zeros(9)
        psi[1] = 1.0  # |0> (x) |1|
        out = s @ psi
        assert out[0] == 1.0 and out.sum() == 1.0

    def test_lazy_direction_fixed(self):
        s = library_shift(3, 0)
        psi = np.zeros(9)
        psi[2 * 3 + 1] = 1.0
        assert np.array_equal(s @ psi, psi)

    def test_jump_wraps(self):
        s = library_shift(5, 2)
        psi = np.zeros(15)
        psi[2 * 5 + 4] = 1.0  # |2> (x) |4>
        out = s @ psi
        assert out[2 * 5 + 1] == 1.0  # 4 + 2 mod 5 = 1

    def test_is_permutation_matrix(self):
        s = library_shift(6, 3)
        assert np.array_equal(np.sort(s, axis=0)[-1], np.ones(18))
        assert np.array_equal(s.sum(axis=0), np.ones(18))
        assert np.array_equal(s.sum(axis=1), np.ones(18))


def rolled_step(coin, a, psi):
    """The walk step as np.roll of each coin row and one np.concatenate: the
    oracle that `walk._step`'s slice copies must match bit for bit."""
    mixed = (coin @ psi.reshape(3, -1)).reshape(3, -1, *psi.shape[1:])
    return np.concatenate(
        (np.roll(mixed[0], -1, axis=0), np.roll(mixed[1], 1, axis=0), np.roll(mixed[2], a, axis=0))
    )


class TestStepSlices:
    @pytest.mark.parametrize("n", [2, 3, 17])
    @pytest.mark.parametrize("half", [False, True])
    def test_bitwise_equal_to_rolled_step(self, n, half, rng):
        a = n // 2 if half else 0
        coins_ = (coins.grover_type(1).as_float(), coins.coin_from_theta("W", 2.1).as_float())
        states = (
            rng.normal(size=3 * n) + 1j * rng.normal(size=3 * n),
            rng.normal(size=(3 * n, 4)) + 1j * rng.normal(size=(3 * n, 4)),
            np.eye(3 * n),
            -np.eye(3 * n)[:, :5],  # signed zeros
        )
        for coin in coins_:
            for psi in states:
                want, got = rolled_step(coin, a, psi), walk._step(coin, a, psi)
                assert got.shape == want.shape == psi.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


class TestEvolutionOperator:
    def test_identity_coin_reduces_to_shift(self):
        spec = WalkSpec(n=5, a=2, coin=coins.perm_matrix(1))
        assert np.allclose(evolution_operator(spec), shift_operator(5, 2))

    def test_grover_n3_sixth_power(self):
        u = evolution_operator(grover_spec(3))
        assert np.linalg.norm(np.linalg.matrix_power(u, 3) - np.eye(9)) > 0.1
        assert np.linalg.norm(np.linalg.matrix_power(u, 6) - np.eye(9)) <= 1e-9

    def test_jump_column_routing(self):
        spec = WalkSpec(n=2, a=1, coin=coins.perm_matrix(1))
        u = evolution_operator(spec)
        col = u[:, 2 * 2 + 0]  # |2> (x) |0>
        assert col[2 * 2 + 1] == 1.0  # lands on position 1

    def test_unitarity_up_to_64(self, rng):
        for n in (2, 5, 17, 64):
            fam = coins.FAMILIES[rng.integers(0, 4)]
            spec = WalkSpec(n=n, a=n // 3, coin=coins.coin_from_theta(fam, rng.uniform(0, 2 * math.pi)))
            u = evolution_operator(spec)
            assert np.linalg.norm(u.conj().T @ u - np.eye(3 * n)) <= 1e-10

    def test_guard(self):
        spec = WalkSpec(n=DENSE_GUARD + 1, a=0, coin=coins.perm_matrix(1))
        with pytest.raises(GuardExceeded):
            evolution_operator(spec)

    def test_is_the_dense_oracle(self, rng):
        # the step written out as a matrix equals S (C (x) I_n) built with np.kron, bit for bit
        walk_coins = list(SPECIAL_COINS)
        walk_coins += [coins.coin_from_theta(fam, rng.uniform(0, 2 * math.pi)) for fam in coins.FAMILIES]
        for coin in walk_coins:
            for n in range(2, 13):
                for a in range(n // 2 + 1):
                    spec = WalkSpec(n=n, a=a, coin=coin)
                    assert np.array_equal(evolution_operator(spec), dense_operator(spec))

    def test_complex_coin_rejected(self):
        c = coins.coin_from_theta("X", 1.0 + 0.3j)
        with pytest.raises(NotUnitary):
            WalkSpec(n=3, a=0, coin=c)


class TestEvolve:
    def test_zero_steps(self):
        psi0 = basis_state(4, 2, 1)
        assert np.array_equal(evolve(WalkSpec(n=4, a=0, coin=coins.grover_type(1)), psi0, 0), psi0)

    def test_grover_period_six_on_state(self):
        psi0 = basis_state(3, 0, 0)
        psi6 = evolve(grover_spec(3), psi0, 6)
        assert np.max(np.abs(psi6 - psi0)) <= 1e-9

    def test_p5_period_two_on_state(self, rng):
        psi0 = rng.normal(size=12) + 1j * rng.normal(size=12)
        psi0 /= np.linalg.norm(psi0)
        spec = WalkSpec(n=4, a=0, coin=coins.perm_matrix(5))
        assert np.max(np.abs(evolve(spec, psi0, 2) - psi0)) <= 1e-9

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            evolve(grover_spec(3), np.ones(9), 1)

    def test_distribution_sums_to_one(self, rng):
        psi0 = basis_state(7, 3, 2)
        spec = WalkSpec(n=7, a=2, coin=coins.coin_from_theta("X", 1.2))
        for t in (0, 1, 5, 20):
            probs = distribution(evolve(spec, psi0, t))
            assert probs.shape == (7,)
            assert abs(probs.sum() - 1.0) <= 1e-9

    def test_norm_conserved_over_many_steps(self):
        spec = WalkSpec(n=16, a=5, coin=coins.coin_from_theta("W", 2.1))
        u = dense_operator(spec)
        psi = basis_state(16, 0, 0)
        for _ in range(10_000):
            psi = u @ psi
        assert abs(np.vdot(psi, psi).real - 1.0) <= 1e-9

    def test_matrix_free_norm_conserved_over_many_steps(self):
        spec = WalkSpec(n=16, a=5, coin=coins.coin_from_theta("W", 2.1))
        psi = evolve(spec, basis_state(16, 0, 0), 10_000)
        assert abs(np.vdot(psi, psi).real - 1.0) <= 1e-9

    @settings(max_examples=100, deadline=None)
    @given(coin=WALK_COINS, n=st.integers(2, 12), t=st.integers(0, 40), data=st.data())
    def test_matches_dense_operator_powers(self, coin, n, t, data):
        a = data.draw(st.integers(0, n // 2))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        psi0 = rng.normal(size=3 * n) + 1j * rng.normal(size=3 * n)
        psi0 /= np.linalg.norm(psi0)
        spec = WalkSpec(n=n, a=a, coin=coin)
        u = dense_operator(spec)
        want = psi0
        for _ in range(t):
            want = u @ want
        assert np.max(np.abs(evolve(spec, psi0, t) - want)) <= 1e-12


class TestPastDenseGuard:
    """Simulation is matrix-free, so DENSE_GUARD bounds only the dense oracle."""

    def test_evolve_past_dense_guard(self):
        n = DENSE_GUARD + 1
        spec = WalkSpec(n=n, a=n // 2, coin=coins.coin_from_theta("X", 1.0))
        psi = evolve(spec, basis_state(n, 0, 0), 3)
        assert psi.shape == (3 * n,)
        assert abs(np.vdot(psi, psi).real - 1.0) <= 1e-12

    def test_simulation_never_builds_dense_operator(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("dense operator built")

        monkeypatch.setattr(walk, "evolution_operator", refuse)
        spec = grover_spec(5, a=2)
        evolve(spec, basis_state(5, 0, 0), 7)
        write_distribution_csv(spec, basis_state(5, 1, 2), 7, io.StringIO())
        argv = ["simulate", "--grover", "P1", "--n", "5", "--a", "2", "--start", "0", "--coinstate", "1",
                "--tmax", "7"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.count("\n") == 1 + 8 * 5


class TestReducedBlocks:
    # U_k = D_k C with C real orthogonal, so U_k C^T is the phase matrix D_k
    def test_zero_block_is_coin(self):
        spec = grover_spec(5)
        c = spec.coin.as_float()
        block = reduced_block(spec, 0)
        assert np.allclose(block @ c.T, np.eye(3))
        assert np.allclose(block, c)

    def test_quarter_block(self):
        spec = WalkSpec(n=4, a=0, coin=coins.grover_type(1))
        block = reduced_block(spec, 1)
        assert np.allclose(block @ spec.coin.as_float().T, np.diag([1j, -1j, 1.0]))

    def test_lively_phase(self):
        spec = WalkSpec(n=3, a=1, coin=coins.grover_type(1))
        block = reduced_block(spec, 1)
        w = np.exp(2j * math.pi / 3)
        assert np.allclose(block @ spec.coin.as_float().T, np.diag([w, w.conjugate(), w.conjugate()]))

    def test_block_is_stack_row(self):
        spec = WalkSpec(n=7, a=3, coin=coins.coin_from_theta("W", 1.3))
        stack = block_stack(spec)
        for l in range(7):
            block = reduced_block(spec, l)
            assert block.shape == (3, 3)
            assert np.array_equal(block, stack[l])
        for l in (-1, 7):
            with pytest.raises(OutOfRange):
                reduced_block(spec, l)

    @staticmethod
    def stacked_blocks(spec):
        """All n blocks by the reference np.stack formula: three phase columns, then one exp."""
        k = 2.0 * math.pi * np.arange(spec.n) / spec.n
        return np.exp(np.stack([1j * k, -1j * k, -1j * k * spec.a], axis=-1))[:, :, None] * spec.coin.as_float()

    def test_leading_rows_are_the_full_stacks_bits(self):
        """On the golden spectral corpus (n <= 12) and the special coins at
        n <= 64, every a: block_stack(spec, rows) is the bits of
        block_stack(spec)[:rows], and block_stack(spec) those of the np.stack
        formula."""
        corpus = [(coin, range(2, 13)) for coin in test_golden_spectral.corpus().values()]
        corpus += [(coin, range(13, 65)) for coin in SPECIAL_COINS]
        for coin, ns in corpus:
            for n in ns:
                for a in range(n // 2 + 1):
                    spec = WalkSpec(n=n, a=a, coin=coin)
                    full = block_stack(spec)
                    assert full.tobytes() == self.stacked_blocks(spec).tobytes(), (n, a)
                    for rows in (1, n // 2 + 1):
                        part = block_stack(spec, rows)
                        assert part.shape == (rows, 3, 3)
                        assert part.tobytes() == full[:rows].tobytes(), (n, a, rows)

    def test_blocks_unitary(self, rng):
        spec = WalkSpec(n=9, a=4, coin=coins.coin_from_theta("Y", rng.uniform(0, 2 * math.pi)))
        for l in range(9):
            uk = reduced_block(spec, l)
            assert np.linalg.norm(uk.conj().T @ uk - np.eye(3)) <= 1e-10


class TestSpectrum:
    def test_identity_coin_spectrum(self):
        spec = WalkSpec(n=3, a=0, coin=coins.perm_matrix(1))
        expected = []
        for l in range(3):
            k = 2 * math.pi * l / 3
            expected += [np.exp(1j * k), np.exp(-1j * k), 1.0]
        assert_same_multiset(spectrum(spec).ravel(), expected)

    def test_shape_is_blocks_by_three(self):
        for n, a in ((2, 0), (5, 2), (12, 6)):
            lams = spectrum(WalkSpec(n=n, a=a, coin=coins.coin_from_theta("Z", 0.7)))
            assert lams.shape == (n, 3)

    def test_grover_n3_blocks(self):
        lams = spectrum(grover_spec(3))
        w = np.exp(2j * math.pi / 3)
        assert_same_multiset(lams[0], [1, -1, -1])
        assert_same_multiset(lams[1], [1, w, w.conjugate()])
        assert_same_multiset(lams[2], [1, w, w.conjugate()])

    def test_symmetric_under_k_reflection(self, rng):
        # lam(k) = lam(2 pi - k) for lazy X-family walks
        for _ in range(20):
            n = int(rng.integers(3, 13))
            spec = WalkSpec(n=n, a=0, coin=coins.coin_from_theta("X", rng.uniform(0, 2 * math.pi)))
            lams = spectrum(spec)
            for l in range(1, n):
                assert_same_multiset(lams[l], lams[n - l])

    def test_matches_dense_operator(self, rng):
        # full equivalence sweep lives in the acceptance suite; spot-check here
        for _ in range(10):
            n = int(rng.integers(2, 13))
            a = int(rng.integers(0, n // 2 + 1))
            fam = coins.FAMILIES[rng.integers(0, 4)]
            spec = WalkSpec(n=n, a=a, coin=coins.coin_from_theta(fam, rng.uniform(0, 2 * math.pi)))
            dense = np.linalg.eigvals(dense_operator(spec))
            assert_same_multiset(spectrum(spec).ravel(), dense, tol=1e-8)

    def test_eigenpairs_lift_to_full_operator(self, rng):
        # block eigenvector nu and Fourier vector phi_k combine to an eigenvector
        for _ in range(10):
            n = int(rng.integers(2, 10))
            a = int(rng.integers(0, n // 2 + 1))
            fam = coins.FAMILIES[rng.integers(0, 4)]
            spec = WalkSpec(n=n, a=a, coin=coins.coin_from_theta(fam, rng.uniform(0, 2 * math.pi)))
            u = dense_operator(spec)
            for l in range(n):
                uk = reduced_block(spec, l)
                lams, vecs = np.linalg.eig(uk)
                phi = momentum_state(n, l)
                for j in range(3):
                    psi = np.kron(vecs[:, j], phi)
                    assert np.linalg.norm(u @ psi - lams[j] * psi) <= 1e-8


class TestClosedForm:
    def test_identity_coin_reduces_to_phases(self, rng):
        for _ in range(50):
            k = rng.uniform(0, 2 * math.pi)
            lams = eigenvalues_closed_form(1.0, k)
            assert_same_multiset(lams, [1.0, np.exp(1j * k), np.exp(-1j * k)], tol=1e-10)

    def test_grover_parameter_at_zero(self):
        assert_same_multiset(eigenvalues_closed_form(-1 / 3, 0.0), [1, -1, -1], tol=1e-12)

    def test_x_third_gives_imaginary_pair(self):
        lams = eigenvalues_closed_form(1 / 3, 0.0)
        assert_same_multiset(lams, [1.0, 1j, -1j], tol=1e-12)

    def test_unit_modulus_and_reciprocal_pair(self, rng):
        for _ in range(200):
            x = rng.uniform(-1 / 3, 1.0)
            k = rng.uniform(0, 2 * math.pi)
            one, lp, lm = eigenvalues_closed_form(x, k)
            assert abs(lp * lm - 1) <= 1e-10
            assert abs(abs(lp) - 1) <= 1e-10 and abs(abs(lm) - 1) <= 1e-10

    def test_matches_block_eigenvalues(self, rng):
        # valid on e^{ika} = 1 blocks; a = 0 makes that every block
        for _ in range(50):
            n = int(rng.integers(2, 13))
            theta = rng.uniform(0, 2 * math.pi)
            coin = coins.coin_from_theta("X", theta)
            spec = WalkSpec(n=n, a=0, coin=coin)
            x = coin.params[0].real
            for l in range(n):
                assert_same_multiset(
                    eigenvalues_closed_form(x, 2 * math.pi * l / n), eig3_unitary(reduced_block(spec, l)),
                    tol=1e-10,
                )

    def test_all_real_only_at_identity_and_grover(self):
        thetas = np.concatenate([np.arange(0.0, 2 * math.pi, 1e-3), [math.pi]])
        real_points = []
        for theta in thetas:
            x = (2 * math.cos(theta) + 1) / 3
            lams = eigenvalues_closed_form(x, 0.0)
            if max(abs(l.imag) for l in lams) < 1e-8:
                real_points.append(theta)
        assert real_points == [0.0, math.pi]


class TestCsvExport:
    def test_header_and_shape(self):
        spec = grover_spec(3)
        buf = io.StringIO()
        write_distribution_csv(spec, basis_state(3, 0, 0), 2, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,position,probability"
        assert len(lines) == 1 + 3 * 3

    def test_initial_row_localized(self):
        buf = io.StringIO()
        write_distribution_csv(grover_spec(4), basis_state(4, 2, 0), 0, buf)
        rows = [line.split(",") for line in buf.getvalue().strip().split("\n")[1:]]
        probs = {int(v): float(p) for _, v, p in rows}
        assert probs[2] == 1.0 and sum(probs.values()) == 1.0

    def test_rejects_negative_tmax(self):
        with pytest.raises(OutOfRange):
            write_distribution_csv(grover_spec(3), basis_state(3, 0, 0), -1, io.StringIO())

    def test_rejects_unnormalized_and_wrong_length(self):
        with pytest.raises(NotNormalized):
            write_distribution_csv(grover_spec(3), np.ones(9), 1, io.StringIO())
        with pytest.raises(OutOfRange):
            write_distribution_csv(grover_spec(4), basis_state(3, 0, 0), 1, io.StringIO())

    def test_rows_repeat_at_period(self):
        buf = io.StringIO()
        write_distribution_csv(grover_spec(3), basis_state(3, 1, 1), 6, buf)
        rows = [line.split(",") for line in buf.getvalue().strip().split("\n")[1:]]
        at = {(int(t), int(v)): float(p) for t, v, p in rows}
        for v in range(3):
            assert at[(6, v)] == pytest.approx(at[(0, v)], abs=1e-9)


def naive_csv(spec, psi0, tmax):
    """The CSV written one f-string per row over `distribution(evolve(...))`."""
    out, psi = ["t,position,probability\n"], psi0
    for t in range(tmax + 1):
        out.extend(f"{t},{v},{p:.17g}\n" for v, p in enumerate(distribution(psi).tolist()))
        psi = evolve(spec, psi, 1)
    return "".join(out)


@st.composite
def sparse_starts(draw):
    """(spec, psi0, tmax): a walk and a start supported on one vertex (0, n - 1
    or the middle), an arc that wraps past vertex n - 1, two separated
    clusters or every vertex, with some amplitudes scaled by 1e-6..1e-150 so
    that exponent-form rows sit next to exact zeros."""
    n = draw(st.integers(2, 64))
    spec = WalkSpec(n=n, a=draw(st.integers(0, n // 2)), coin=draw(WALK_COINS))
    kind = draw(st.sampled_from(["vertex", "wrap", "clusters", "dense"]))
    if kind == "vertex":
        support = [draw(st.sampled_from([0, n - 1, n // 2]))]
    elif kind == "wrap":
        left = draw(st.integers(1, n // 2))
        right = draw(st.integers(1, max(1, n - left - 1)))  # a zero outside the arc for n > 2
        support = [*range(n - left, n), *range(right)]
    elif kind == "clusters":
        start = draw(st.integers(0, n - 1))
        width = draw(st.integers(1, max(1, n // 3)))
        gap = draw(st.integers(1, max(1, n - 2 * width - 1)))  # a gap on both sides
        support = sorted({(start + i) % n for i in [*range(width), *range(width + gap, 2 * width + gap)]})
    else:
        support = list(range(n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = np.zeros((3, n), dtype=complex)
    psi[:, support] = rng.normal(size=(3, len(support))) + 1j * rng.normal(size=(3, len(support)))
    tiny = draw(st.lists(st.sampled_from(support), max_size=len(support), unique=True))
    psi[:, tiny] *= 10.0 ** -draw(st.integers(6, 150))
    psi /= np.linalg.norm(psi)
    return spec, psi.ravel(), draw(st.integers(0, 3 * n))


class TestCsvTemplates:
    """The arc of nonzero rows and the zero template leave every byte as it was."""

    @settings(max_examples=200, deadline=None)
    @given(case=sparse_starts())
    def test_matches_naive_writer(self, case):
        spec, psi0, tmax = case
        buf = io.StringIO()
        write_distribution_csv(spec, psi0, tmax, buf)
        assert buf.getvalue() == naive_csv(spec, psi0, tmax)

    @pytest.mark.parametrize("probs, arc", [
        ([1.0, 0, 0, 0, 0], (0, 1)),
        ([0, 0, 0, 0, 1.0], (4, 5)),
        ([0, 0, 1.0, 0, 0], (2, 3)),
        ([0.5, 0, 0, 0, 0.5], (4, 6)),
        ([0.25, 0.25, 0, 0.25, 0.25], (3, 7)),
        ([0, 0.5, 0, 0.5, 0], (1, 4)),
        ([0.25] * 4, (0, 4)),
        ([0.5, 0, 0.5, 0], (0, 3)),
    ])
    def test_support_arc(self, probs, arc):
        assert walk._support_arc(np.array(probs)) == arc


class TestValidation:
    def test_bad_liveliness(self):
        with pytest.raises(OutOfRange):
            WalkSpec(n=4, a=3, coin=coins.grover_type(1))

    def test_bad_cycle(self):
        with pytest.raises(OutOfRange):
            WalkSpec(n=1, a=0, coin=coins.grover_type(1))

    def test_bad_vertex(self):
        with pytest.raises(OutOfRange):
            basis_state(3, 3, 0)
