"""training tests: finite-difference gradient checks, optimizer transcripts,
convergence, and generalization to unseen divisor periods."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import allocating_adam_step
from qperiod import circuit, linalg, training


def finite_difference_gradient(m3, f, p_d, k, h=1e-6):
    """Central differences on the real parameter vector."""
    dim = m3.shape[0]
    w = training.matrix_to_params(m3)
    grad = np.zeros_like(w)
    for i in range(w.size):
        wp = w.copy()
        wp[i] += h
        wm = w.copy()
        wm[i] -= h
        grad[i] = (training.loss(training.params_to_matrix(wp, dim), f, p_d, k)
                   - training.loss(training.params_to_matrix(wm, dim), f, p_d, k)) / (2 * h)
    return grad


def relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def allocating_loss_terms(m3, f, p_d, k):
    """Loss and gradient matrix through a dense grouped-column psi, an
    explicit identity and a psi^T product: the oracle for _sample_step."""
    size = 2 ** f.n
    psi = np.zeros((size, f.r))
    psi[np.arange(size), np.arange(size) % f.r] = 1.0 / np.sqrt(size)
    dim = m3.shape[0]
    anc = dim // size
    a = m3[:, ::anc] @ psi
    p_a = (a.real ** 2 + a.imag ** 2).sum(axis=1).reshape(size, anc).sum(axis=1)
    e = p_a - p_d
    h = m3.conj().T @ m3 - np.eye(dim)
    value = float(e @ e) / size + k * float(np.vdot(h, h).real) / dim ** 2
    grad = (4.0 * k / dim ** 2) * (m3 @ h)
    grad[:, ::anc] += (4.0 / size) * ((np.repeat(e, anc)[:, None] * a) @ psi.T)
    return value, grad


def allocating_train(dataset, loss_cfg, adam_cfg, epochs, init, stop_below=None):
    """Per-sample ADAM that rebuilds a TrainState every step: the oracle
    for train."""
    dim = math.isqrt(init.w.size // 2)
    state = init
    history = []
    for epoch in range(epochs):
        total = 0.0
        for f, p_d in zip(dataset.functions, dataset.targets):
            m3 = state.w.view(np.complex128).reshape(dim, dim)
            value, grad = allocating_loss_terms(m3, f, p_d, loss_cfg.k)
            if not np.isfinite(value) or value > training.DIVERGENCE_LIMIT:
                raise training.DivergenceError("diverged", w=state.w, history=history)
            total += value
            state = allocating_adam_step(state, grad.ravel().view(np.float64), adam_cfg)
        history.append(total / len(dataset))
        if stop_below is not None and history[-1] <= stop_below:
            break
    return state.w.view(np.complex128).reshape(dim, dim).copy(), history


class TestParameterLayout:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.array_equal(training.params_to_matrix(training.matrix_to_params(m), 4), m)

    def test_interleaving_order(self):
        w = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        m = training.params_to_matrix(w, 2)
        assert m[0, 0] == 1.0 + 2.0j
        assert m[0, 1] == 3.0 + 4.0j
        assert m[1, 0] == 5.0 + 6.0j
        assert m[1, 1] == 7.0 + 8.0j

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            training.params_to_matrix(np.zeros(7), 2)


class TestTargetDistribution:
    def test_qft_reference_matches_circuit(self):
        # the staged pipeline is the oracle of the closed form
        # (test_circuit.py::test_fft_closed_form_matches_staged_reference)
        for n in range(1, 6):
            for r in range(1, 2 ** n + 1):
                f = circuit.generate_periodic_function(n, n, r, (n, r))
                assert same_bits(training.target_distribution("qft-reference", f),
                                 circuit._reference_for_period(n, r))

    def test_qft_reference_depends_only_on_the_period(self):
        for r in range(1, 9):
            f, g = (circuit.generate_periodic_function(3, 3, r, s) for s in (1, 2))
            if r > 1:
                assert f.table != g.table
            assert (training.target_distribution("qft-reference", f).tobytes()
                    == training.target_distribution("qft-reference", g).tobytes())

    def test_single_peak(self):
        f = circuit.generate_periodic_function(3, 3, 5, 2)
        p = training.target_distribution("single-peak", f)
        assert p[5] == 1.0
        assert p.sum() == 1.0

    def test_single_peak_rejects_full_period(self):
        f = circuit.generate_periodic_function(3, 3, 8, 3)
        with pytest.raises(ValueError):
            training.target_distribution("single-peak", f)

    def test_step(self):
        f = circuit.generate_periodic_function(3, 3, 5, 4)
        p = training.target_distribution("step", f)
        assert np.allclose(p[:5], 0.0)
        assert np.allclose(p[5:], 1.0 / 3.0)

    def test_gaussian_peaks_at_period_and_normalizes(self):
        f = circuit.generate_periodic_function(3, 3, 4, 5)
        p = training.target_distribution("gaussian", f, gaussian_sigma=1.0)
        assert p.argmax() == 4
        assert p.sum() == pytest.approx(1.0)
        # one-step ratio of a discretized unit gaussian: exp(-1/2)
        assert p[5] / p[4] == pytest.approx(math.exp(-0.5))

    def test_rejects_unknown_kind(self):
        f = circuit.generate_periodic_function(2, 2, 2, 6)
        with pytest.raises(ValueError):
            training.target_distribution("triangle", f)


class TestLoss:
    def test_zero_matrix_value(self):
        # P_a = 0 so the distance term is sum(p_d^2) / 2^n and the penalty
        # counts |I|^2: k * dim / dim^2
        f = circuit.generate_periodic_function(2, 2, 2, 0)
        p_d = circuit.reference_distribution(f)
        k = 1.7
        expected = float(p_d @ p_d) / 4 + k / 4
        assert training.loss(np.zeros((4, 4)), f, p_d, k) == pytest.approx(expected)

    def test_exact_solution_is_near_zero(self):
        f = circuit.generate_periodic_function(3, 3, 6, 1)
        p_d = circuit.reference_distribution(f)
        value = training.loss(circuit.inverse_qft_matrix(3), f, p_d, 1.0)
        assert value < 1e-28

    def test_identity_matrix_value(self):
        # M = I leaves the grouped state alone: P_a(i) = 1 / 2^n, no penalty
        f = circuit.generate_periodic_function(2, 2, 2, 2)
        p_d = circuit.reference_distribution(f)
        e = np.full(4, 0.25) - p_d
        assert training.loss(np.eye(4), f, p_d, 1.0) == pytest.approx(float(e @ e) / 4)

    def test_penalty_scales_linearly_in_k(self):
        f = circuit.generate_periodic_function(2, 2, 3, 3)
        p_d = circuit.reference_distribution(f)
        m = 2.0 * np.eye(4)
        l1 = training.loss(m, f, p_d, 1.0)
        l2 = training.loss(m, f, p_d, 2.0)
        penalty = l2 - l1
        assert l2 + penalty == pytest.approx(training.loss(m, f, p_d, 3.0))


class TestLossGradient:
    def test_matches_finite_differences(self):
        for n, cases in ((2, 6), (3, 4)):
            for case in range(cases):
                rng = np.random.default_rng((n, case))
                m3 = training.params_to_matrix(
                    training.initialize_parameters(n, (n, case)).w, 2 ** n)
                f = circuit.generate_periodic_function(
                    n, n, int(rng.integers(1, 2 ** n + 1)), (n, case, 1))
                p_d = circuit.reference_distribution(f)
                got = training.loss_gradient(m3, f, p_d, 1.0)
                want = finite_difference_gradient(m3, f, p_d, 1.0)
                assert relative_error(got, want) < 1e-6

    def test_vanishes_at_the_exact_solution(self):
        f = circuit.generate_periodic_function(3, 3, 4, 2)
        p_d = circuit.reference_distribution(f)
        grad = training.loss_gradient(circuit.inverse_qft_matrix(3), f, p_d, 1.0)
        assert np.max(np.abs(grad)) < 1e-12

    def test_penalty_only_analytic_value(self):
        # at M = 2I the distance term contributes nothing to the diagonal
        # structure check: grad = (4k/dim^2) * M (M^H M - I) = (24k/dim^2) I
        # plus the distance part; with k large the penalty dominates exactly
        f = circuit.generate_periodic_function(2, 2, 1, 0)
        p_d = circuit.reference_distribution(f)
        m = 2.0 * np.eye(4)
        k = 1.0
        got = training.loss_gradient(m, f, p_d, k)
        fd = finite_difference_gradient(m, f, p_d, k)
        assert relative_error(got, fd) < 1e-6
        # the pure-penalty piece on its own is analytic
        pen_grad = (4.0 * k / 16.0) * (m @ (m.conj().T @ m - np.eye(4)))
        assert np.allclose(pen_grad, 1.5 * np.eye(4))

    def test_descent_direction(self):
        # a short step against the gradient must not increase the loss
        for case in range(8):
            m3 = training.params_to_matrix(
                training.initialize_parameters(2, case).w, 4)
            f = circuit.generate_periodic_function(2, 2, 1 + case % 4, case)
            p_d = circuit.reference_distribution(f)
            before = training.loss(m3, f, p_d, 1.0)
            w = training.matrix_to_params(m3)
            g = training.loss_gradient(m3, f, p_d, 1.0)
            after = training.loss(
                training.params_to_matrix(w - 1e-7 * g, 4), f, p_d, 1.0)
            assert after <= before + 1e-12

    def test_ancilla_gradient_matches_finite_differences(self):
        # one ancilla qubit: an 8x8 matrix over a 4-point X register
        rng = np.random.default_rng(9)
        m3 = (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))) / math.sqrt(8)
        f = circuit.generate_periodic_function(2, 2, 3, 9)
        p_d = circuit.reference_distribution(f)
        got = training.loss_gradient(m3, f, p_d, 1.0)
        want = finite_difference_gradient(m3, f, p_d, 1.0)
        assert relative_error(got, want) < 1e-6


class TestLossTerms:
    @pytest.mark.parametrize("n,ancilla", [(1, 0), (2, 0), (2, 2), (3, 1), (4, 0)])
    def test_matches_the_allocating_formula_bit_for_bit(self, n, ancilla):
        dim = 2 ** (n + ancilla)
        rng = np.random.default_rng(n + ancilla)
        m3 = (linalg.haar_random_unitary(n + ancilla, 4)
              + 0.1 * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))))
        # every period's sample on one run's shared buffers, as train uses them
        run = training._run_buffers(m3)
        functions = [circuit.generate_periodic_function(n, n, r, r)
                     for r in range(1, 2 ** n + 1)]
        targets = [training.target_distribution("qft-reference", f) for f in functions]
        steps = [training._sample_step(f, p_d, 0.7, run) for f, p_d in zip(functions, targets)]
        for f, p_d, step in zip(functions, targets, steps):
            value = step()
            want_value, want_grad = allocating_loss_terms(m3, f, p_d, 0.7)
            assert value == want_value
            assert same_bits(run[-1], want_grad)

    def test_loss_matches_the_training_kernel_value(self):
        # loss is distance + k * defect; train reports _sample_step's value
        worst = 0.0
        for n in range(1, 6):
            for ancilla in range(3):
                dim = 2 ** (n + ancilla)
                rng = np.random.default_rng((n, ancilla))
                for k in (0.7, 1.0, 3.0):
                    for scale in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1):
                        m3 = (linalg.haar_random_unitary(n + ancilla, rng.integers(2 ** 32))
                              + scale * (rng.normal(size=(dim, dim))
                                         + 1j * rng.normal(size=(dim, dim))))
                        r = int(rng.integers(1, 2 ** n + 1))
                        f = circuit.generate_periodic_function(n, n, r, r)
                        p_d = training.target_distribution("qft-reference", f)
                        kernel = training._sample_step(f, p_d, k, training._run_buffers(m3))()
                        worst = max(worst, abs(training.loss(m3, f, p_d, k) - kernel))
        assert worst <= 1e-15

    def test_loss_gradient_returns_fresh_arrays(self):
        f = circuit.generate_periodic_function(3, 3, 3, 0)
        p_d = circuit.reference_distribution(f)
        m3 = linalg.haar_random_unitary(3, 1)
        first = training.loss_gradient(m3, f, p_d, 1.0)
        saved = first.copy()
        second = training.loss_gradient(0.5 * m3, f, p_d, 1.0)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, m3)
        assert same_bits(first, saved)


class TestAchievedDistribution:
    def test_exact_solution_reproduces_reference(self):
        f = circuit.generate_periodic_function(3, 3, 5, 7)
        p = training.achieved_distribution(circuit.inverse_qft_matrix(3), f)
        assert np.allclose(p, circuit.reference_distribution(f), atol=1e-14)

    def test_agrees_with_full_pipeline(self):
        # grouped columns vs the explicit joint-state route
        u = linalg.haar_random_unitary(3, 17)
        f = circuit.generate_periodic_function(3, 3, 6, 17)
        state = circuit.apply_oracle(circuit.prepare_superposition(3, 3), f)
        state = circuit.apply_post_unitary(state, u)
        assert np.allclose(training.achieved_distribution(u, f),
                           circuit.marginal_distribution(state), atol=1e-14)

    def test_matches_grouped_column_product_with_ancillas(self):
        # the psi-matmul formula the column-sum kernel replaced; gate 1e-14
        for ancilla in (0, 1, 2):
            for r in (1, 3, 5, 8):
                f = circuit.generate_periodic_function(3, 3, r, r)
                u = linalg.haar_random_unitary(3 + ancilla, (ancilla, r))
                psi = np.zeros((8, r))
                psi[np.arange(8), np.arange(8) % r] = 1.0 / math.sqrt(8)
                a = u[:, ::2 ** ancilla] @ psi
                expected = (np.abs(a) ** 2).sum(axis=1).reshape(8, 2 ** ancilla).sum(axis=1)
                got = training.achieved_distribution(u, f)
                assert np.abs(got - expected).max() < 1e-14

    def test_rejects_incompatible_dimension(self):
        f = circuit.generate_periodic_function(2, 2, 2, 0)
        with pytest.raises(ValueError):
            training.achieved_distribution(np.eye(6), f)


class TestAdamStep:
    def test_zero_gradient_is_a_fixed_point(self):
        state = training.TrainState(w=np.array([1.0, -2.0]), adam_m=np.zeros(2),
                                    adam_v=np.zeros(2), t=0)
        out = training.adam_step(state, np.zeros(2), training.AdamConfig())
        assert np.array_equal(out.w, state.w)
        assert out.t == 1

    def test_first_step_magnitude(self):
        cfg = training.AdamConfig()
        state = training.TrainState(w=np.array([0.5]), adam_m=np.zeros(1),
                                    adam_v=np.zeros(1), t=0)
        out = training.adam_step(state, np.array([1.0]), cfg)
        assert out.w[0] == 0.5 - cfg.alpha / (1.0 + cfg.epsilon)

    def test_scalar_transcript_bit_for_bit(self):
        # minimize w^2 from 0.5; the hand loop repeats the documented
        # operation order with plain floats
        cfg = training.AdamConfig()
        state = training.TrainState(w=np.array([0.5]), adam_m=np.zeros(1),
                                    adam_v=np.zeros(1), t=0)
        w, m, v = 0.5, 0.0, 0.0
        for t in range(1, 11):
            state = training.adam_step(state, np.array([2.0 * state.w[0]]), cfg)
            g = 2.0 * w
            m = cfg.beta1 * m + (1 - cfg.beta1) * g
            v = cfg.beta2 * v + (1 - cfg.beta2) * (g * g)
            mhat = m / (1 - cfg.beta1 ** t)
            vhat = v / (1 - cfg.beta2 ** t)
            w = w - cfg.alpha * mhat / (math.sqrt(vhat) + cfg.epsilon)
            assert state.w[0] == w
            assert state.t == t

    def test_ten_steps_decrease_the_objective(self):
        cfg = training.AdamConfig()
        state = training.TrainState(w=np.array([0.5]), adam_m=np.zeros(1),
                                    adam_v=np.zeros(1), t=0)
        for _ in range(10):
            state = training.adam_step(state, np.array([2.0 * state.w[0]]), cfg)
        assert 0.0 < state.w[0] < 0.5

    def test_rejects_shape_mismatch(self):
        state = training.TrainState(w=np.zeros(4), adam_m=np.zeros(4),
                                    adam_v=np.zeros(4), t=0)
        with pytest.raises(ValueError):
            training.adam_step(state, np.zeros(3), training.AdamConfig())


class TestAdamKernel:
    @pytest.mark.parametrize("length", [1, 127, training._ADAM_SLICE,
                                        2 * training._ADAM_SLICE + 3])
    def test_matches_the_allocating_formula_bit_for_bit(self, length):
        # lengths on both sides of the slice size, so slices end mid-array
        cfg = training.AdamConfig(alpha=0.01)
        rng = np.random.default_rng(length)
        w = rng.normal(size=length)
        state = training.TrainState(w=w, adam_m=np.zeros(length),
                                    adam_v=np.zeros(length), t=0)
        opt = training._Adam(w.copy(), np.zeros(length), np.zeros(length), 0, cfg)
        for _ in range(5):
            grad = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=length)
            saved = [x.copy() for x in (state.w, state.adam_m, state.adam_v)]
            want = allocating_adam_step(state, grad, cfg)
            got = training.adam_step(state, grad, cfg)
            opt.step(grad)
            for out in (got, training.TrainState(opt.w, opt.m, opt.v, opt.t)):
                assert out.t == want.t
                for x, y in ((out.w, want.w), (out.adam_m, want.adam_m),
                             (out.adam_v, want.adam_v)):
                    assert same_bits(x, y)
            # adam_step is pure
            for x, y in zip((state.w, state.adam_m, state.adam_v), saved):
                assert same_bits(x, y)
            state = want


class TestConfigs:
    def test_loss_config_validation(self):
        with pytest.raises(ValueError):
            training.LossConfig(k=0.0)
        with pytest.raises(ValueError):
            training.LossConfig(target_kind="nope")
        with pytest.raises(ValueError):
            training.LossConfig(gaussian_sigma=0.0)

    def test_adam_config_validation(self):
        with pytest.raises(ValueError):
            training.AdamConfig(alpha=0.0)
        # the moment decays and epsilon are constants, not settings
        with pytest.raises(TypeError):
            training.AdamConfig(beta1=0.5)
        cfg = training.AdamConfig()
        assert (cfg.beta1, cfg.beta2, cfg.epsilon) == (0.9, 0.99, 1e-8)

    def test_dataset_validation(self):
        f2 = circuit.generate_periodic_function(2, 2, 2, 0)
        f3 = circuit.generate_periodic_function(3, 3, 2, 0)
        with pytest.raises(ValueError):
            training.TrainingDataset(functions=[], targets=[])
        with pytest.raises(ValueError):
            training.TrainingDataset(functions=[f2], targets=[])
        with pytest.raises(ValueError):
            training.TrainingDataset(functions=[f2, f3],
                                     targets=[np.ones(4), np.ones(8)])


class TestInitializeParameters:
    def test_shape_and_moments(self):
        state = training.initialize_parameters(3, 0)
        assert state.w.shape == (128,)
        assert state.t == 0
        assert np.all(state.adam_m == 0) and np.all(state.adam_v == 0)

    def test_bounded_over_fixed_seed_pool(self):
        # 100 fixed seeds: every draw stays within 5 standard deviations
        for n in (2, 3):
            scale = 1.0 / math.sqrt(2 ** n)
            worst = max(np.max(np.abs(training.initialize_parameters(n, s).w))
                        for s in range(100))
            assert worst <= 5.0 * scale

    def test_pooled_spread_matches_scale(self):
        pool = np.concatenate([training.initialize_parameters(3, s).w
                               for s in range(50)])
        assert np.std(pool) == pytest.approx(1.0 / math.sqrt(8), rel=0.05)

    def test_deterministic(self):
        a = training.initialize_parameters(2, 5)
        b = training.initialize_parameters(2, 5)
        assert np.array_equal(a.w, b.w)


class TestBuildTrainingDataset:
    def test_periods_cycle_small_values(self):
        ds = training.build_training_dataset(3, 3, 6, 0)
        assert [f.r for f in ds.functions] == [1, 2, 3, 4, 1, 2]

    def test_single_qubit_periods_are_all_one(self):
        ds = training.build_training_dataset(1, 1, 3, 0)
        assert [f.r for f in ds.functions] == [1, 1, 1]

    def test_targets_match_kind(self):
        cfg = training.LossConfig(target_kind="step")
        ds = training.build_training_dataset(3, 3, 4, 1, cfg)
        for f, target in zip(ds.functions, ds.targets):
            assert np.array_equal(target, training.target_distribution("step", f))

    def test_deterministic(self):
        a = training.build_training_dataset(3, 3, 6, 4)
        b = training.build_training_dataset(3, 3, 6, 4)
        assert [f.table for f in a.functions] == [f.table for f in b.functions]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            training.build_training_dataset(2, 2, 0, 0)


class TestDatasetForPeriods:
    def test_listed_periods_in_order(self):
        ds = training.dataset_for_periods(4, 4, [5, 1, 8, 5], (3, 1, 0))
        assert [f.r for f in ds.functions] == [5, 1, 8, 5]

    def test_function_i_uses_the_ith_spawned_seed(self):
        periods = [3, 2, 4]
        ds = training.dataset_for_periods(3, 3, periods, 11)
        seeds = np.random.SeedSequence(11).spawn(3)
        for f, r, s in zip(ds.functions, periods, seeds):
            assert f == circuit.generate_periodic_function(3, 3, r, s)

    def test_build_training_dataset_is_the_cycled_case(self):
        cfg = training.LossConfig(target_kind="gaussian", gaussian_sigma=0.5)
        a = training.build_training_dataset(3, 3, 7, 2, cfg)
        b = training.dataset_for_periods(3, 3, [1, 2, 3, 4, 1, 2, 3], 2, cfg)
        assert a.functions == b.functions
        assert all(np.array_equal(x, y) for x, y in zip(a.targets, b.targets))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            training.dataset_for_periods(2, 2, [], 0)


class TestTrain:
    def test_quick_convergence_n2(self):
        ds = training.build_training_dataset(2, 2, 3, 0)
        m3, history = training.train(ds, training.LossConfig(),
                                     training.AdamConfig(), 1500, seed=0)
        assert history[-1] < 1e-6
        assert linalg.unitarity_defect(m3) < 1e-6
        assert len(history) == 1500

    def test_deterministic(self):
        ds = training.build_training_dataset(2, 2, 3, 0)
        a = training.train(ds, training.LossConfig(), training.AdamConfig(),
                           200, seed=3)
        b = training.train(ds, training.LossConfig(), training.AdamConfig(),
                           200, seed=3)
        assert np.array_equal(a[0], b[0])
        assert a[1] == b[1]

    def test_exact_start_stays_converged(self):
        # the exact solution has numerically zero loss; from it the epsilon
        # floor lets ADAM wander slightly (updates fire even at zero
        # gradient until the moments decay) but never out of the basin.
        # history[0] averages over the epoch's per-sample updates, so the
        # exact-start claim is checked on the loss directly.
        ds = training.build_training_dataset(3, 3, 6, 0)
        iqft = np.asarray(circuit.inverse_qft_matrix(3))
        for f, p_d in zip(ds.functions, ds.targets):
            assert training.loss(iqft, f, p_d, 1.0) < 1e-12
        w = training.matrix_to_params(iqft)
        init = training.TrainState(w=w, adam_m=np.zeros_like(w),
                                   adam_v=np.zeros_like(w), t=0)
        _, history = training.train(ds, training.LossConfig(),
                                    training.AdamConfig(), 200, seed=0, init=init)
        assert max(history) < 1e-5

    def test_stop_below_cuts_the_run_short(self):
        ds = training.build_training_dataset(2, 2, 3, 0)
        _, history = training.train(ds, training.LossConfig(),
                                    training.AdamConfig(), 1500, seed=0,
                                    stop_below=1e-4)
        assert len(history) < 1500
        assert history[-1] <= 1e-4

    def test_divergence_guard_carries_state(self):
        ds = training.build_training_dataset(2, 2, 2, 0)
        with pytest.raises(training.DivergenceError) as excinfo:
            training.train(ds, training.LossConfig(),
                           training.AdamConfig(alpha=1e4), 50, seed=0)
        assert excinfo.value.w.shape == (32,)
        assert isinstance(excinfo.value.history, list)

    @pytest.mark.parametrize("stop", [False, True])
    @pytest.mark.parametrize("n,ancilla,periods", [
        pytest.param(2, 0, None, id="2-0"),
        pytest.param(2, 1, None, id="2-1"),
        pytest.param(2, 2, None, id="2-2"),
        pytest.param(3, 0, None, id="3-0"),
        pytest.param(3, 1, None, id="3-1"),
        # 5, 6 and 7 do not divide 2^n: the last group of x mod r columns is partial
        pytest.param(4, 0, (5, 6, 7, 8, 1, 3), id="4-0-periods"),
    ])
    def test_matches_the_allocating_loop_bit_for_bit(self, n, ancilla, periods, stop):
        if periods is None:
            ds = training.build_training_dataset(n, n, 4, n)
        else:
            ds = training.dataset_for_periods(n, n, periods, n)
        loss_cfg, adam_cfg = training.LossConfig(k=0.5), training.AdamConfig(alpha=0.005)
        init = training.initialize_parameters(n + ancilla, 11)
        saved = [x.copy() for x in (init.w, init.adam_m, init.adam_v)]
        stop_below = None
        if stop:
            # an epoch loss the run reaches halfway, so it ends early
            stop_below = allocating_train(ds, loss_cfg, adam_cfg, 200, init)[1][100]
        want_m3, want_history = allocating_train(ds, loss_cfg, adam_cfg, 200, init,
                                                 stop_below=stop_below)
        m3, history = training.train(ds, loss_cfg, adam_cfg, 200, seed=None,
                                     ancilla=ancilla, init=init, stop_below=stop_below)
        assert same_bits(m3, want_m3)
        assert history == want_history
        assert (len(history) <= 101) if stop else (len(history) == 200)
        for x, y in zip((init.w, init.adam_m, init.adam_v), saved):
            assert same_bits(x, y)

    def test_divergence_state_is_a_copy(self):
        # the start itself diverges, so the state at abort is the init state
        ds = training.build_training_dataset(2, 2, 2, 0)
        init = training.initialize_parameters(2, 0)
        init = training.TrainState(w=1e3 * init.w, adam_m=init.adam_m,
                                   adam_v=init.adam_v, t=0)
        saved = init.w.copy()
        with pytest.raises(training.DivergenceError) as excinfo:
            training.train(ds, training.LossConfig(), training.AdamConfig(), 5,
                           seed=None, init=init)
        with pytest.raises(training.DivergenceError) as want:
            allocating_train(ds, training.LossConfig(), training.AdamConfig(), 5, init)
        w = excinfo.value.w
        assert same_bits(w, want.value.w)
        assert not any(np.shares_memory(w, x) for x in (init.w, init.adam_m, init.adam_v))
        assert same_bits(init.w, saved)

    def test_divergence_after_updates_matches_the_allocating_loop(self):
        # the first update at alpha = 1e4 throws the matrix far out, so the
        # run aborts at the next sample, with the optimizer mid-run
        ds = training.build_training_dataset(3, 3, 4, 0)
        adam_cfg = training.AdamConfig(alpha=1e4)
        init = training.initialize_parameters(3, 5)
        with pytest.raises(training.DivergenceError) as excinfo:
            training.train(ds, training.LossConfig(), adam_cfg, 10, seed=None, init=init)
        with pytest.raises(training.DivergenceError) as want:
            allocating_train(ds, training.LossConfig(), adam_cfg, 10, init)
        assert not same_bits(excinfo.value.w, init.w)
        assert same_bits(excinfo.value.w, want.value.w)
        assert excinfo.value.history == want.value.history

    def test_ancilla_run_produces_wider_matrix(self):
        ds = training.build_training_dataset(2, 2, 2, 0)
        m3, history = training.train(ds, training.LossConfig(),
                                     training.AdamConfig(), 50, seed=0, ancilla=1)
        assert m3.shape == (8, 8)
        assert all(np.isfinite(v) for v in history)

    def test_rejects_bad_epochs(self):
        ds = training.build_training_dataset(2, 2, 2, 0)
        with pytest.raises(ValueError):
            training.train(ds, training.LossConfig(), training.AdamConfig(),
                           0, seed=0)


class TestGeneralization:
    def test_unseen_divisor_period_transfers(self, n3_runs):
        # r = 8 never appears in the training set, but divisor periods ride
        # on the same peak structure the trained matrix already produces
        m3, history = n3_runs[0]
        for value_seed in range(5):
            f = circuit.generate_periodic_function(3, 3, 8, (3000, value_seed))
            p_d = circuit.reference_distribution(f)
            sample_loss = training.loss(m3, f, p_d, 1.0)
            distance = float(np.sum(
                (training.achieved_distribution(m3, f) - p_d) ** 2) / 8)
            assert sample_loss <= 10.0 * max(history[-1], 1e-12)
            assert distance < 1e-6

    def test_fresh_functions_with_trained_periods_transfer(self, n3_runs):
        # same periods, new value tables: the fit is value-independent
        m3, history = n3_runs[0]
        for r in (1, 2, 3, 4):
            f = circuit.generate_periodic_function(3, 3, r, (4000, r))
            p_d = circuit.reference_distribution(f)
            assert training.loss(m3, f, p_d, 1.0) <= 10.0 * max(history[-1], 1e-12)
