"""training tests: finite-difference gradient checks, optimizer transcripts,
convergence, and generalization to unseen divisor periods."""

import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import allocating_adam_step, cli_env
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
    a = m3 @ psi
    p_a = (a.real ** 2 + a.imag ** 2).sum(axis=1)
    e = p_a - p_d
    h = m3.conj().T @ m3 - np.eye(size)
    value = float(e @ e) / size + k * float(np.vdot(h, h).real) / size ** 2
    grad = (4.0 * k / size ** 2) * (m3 @ h)
    grad += (4.0 / size) * ((e[:, None] * a) @ psi.T)
    return value, grad


def allocating_train(dataset, loss_cfg, adam_cfg, epochs, init, stop_below=None):
    """Per-sample ADAM that rebuilds the (w, m, v, t) state every step: the
    oracle for train."""
    dim = math.isqrt(init.size // 2)
    state = (init, np.zeros(init.size), np.zeros(init.size), 0)
    history = []
    for epoch in range(epochs):
        total = 0.0
        for f, p_d in zip(dataset.functions, dataset.targets):
            m3 = state[0].view(np.complex128).reshape(dim, dim)
            value, grad = allocating_loss_terms(m3, f, p_d, loss_cfg.k)
            if not np.isfinite(value) or value > training.DIVERGENCE_LIMIT:
                raise training.DivergenceError("diverged", w=state[0], history=history)
            total += value
            state = allocating_adam_step(state, grad.ravel().view(np.float64), adam_cfg)
        history.append(total / len(dataset))
        if stop_below is not None and history[-1] <= stop_below:
            break
    return state[0].view(np.complex128).reshape(dim, dim).copy(), history


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
                                 circuit._reference_table(n)[r])

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
                    training.initialize_parameters(n, (n, case)), 2 ** n)
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
                training.initialize_parameters(2, case), 4)
            f = circuit.generate_periodic_function(2, 2, 1 + case % 4, case)
            p_d = circuit.reference_distribution(f)
            before = training.loss(m3, f, p_d, 1.0)
            w = training.matrix_to_params(m3)
            g = training.loss_gradient(m3, f, p_d, 1.0)
            after = training.loss(
                training.params_to_matrix(w - 1e-7 * g, 4), f, p_d, 1.0)
            assert after <= before + 1e-12

    def test_rejects_a_matrix_wider_than_the_register(self):
        f = circuit.generate_periodic_function(2, 2, 3, 9)
        p_d = circuit.reference_distribution(f)
        with pytest.raises(ValueError, match=r"\(8, 8\) does not act on a 2-qubit"):
            training.loss_gradient(np.eye(8), f, p_d, 1.0)

    @pytest.mark.parametrize("shape", [(), (1,), (3,)])
    def test_rejects_a_target_not_on_the_register(self, shape):
        f = circuit.generate_periodic_function(2, 2, 1, 0)
        with pytest.raises(ValueError, match="target shape"):
            training.loss_gradient(np.eye(4), f, np.full(shape, 0.25), 1.0)


def assert_steps_match_allocating(n):
    """Every period's step on one run's shared buffers, as train uses them,
    against allocating_loss_terms: the same value and gradient bits."""
    dim = 2 ** n
    rng = np.random.default_rng(n)
    m3 = (linalg.haar_random_unitary(n, 4)
          + 0.1 * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))))
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


class TestLossTerms:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_the_allocating_formula_bit_for_bit(self, n):
        assert_steps_match_allocating(n)

    def test_matches_the_allocating_formula_at_one_blas_thread(self):
        # the suite runs at the default BLAS thread count and the benchmark at
        # one; that the step's np.dot has the bits of @ is a property of the
        # bundled OpenBLAS, so it is checked at both
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import test_training\n"
                "for n in range(1, 6): test_training.assert_steps_match_allocating(n)")
        proc = subprocess.run(
            [sys.executable, "-c", code, str(Path(__file__).parent)],
            env=cli_env({"OPENBLAS_NUM_THREADS": "1"}), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_loss_matches_the_training_kernel_value(self):
        # loss is distance + k * defect; train reports _sample_step's value
        worst = 0.0
        for n in range(1, 6):
            dim = 2 ** n
            rng = np.random.default_rng((n, 0))
            for k in (0.7, 1.0, 3.0):
                for scale in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1):
                    m3 = (linalg.haar_random_unitary(n, rng.integers(2 ** 32))
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


class TestAdamStep:
    def test_zero_gradient_is_a_fixed_point(self):
        opt = training.Adam(np.array([1.0, -2.0]), training.AdamConfig())
        opt.step(np.zeros(2))
        assert np.array_equal(opt.w, [1.0, -2.0])
        assert opt.t == 1

    def test_first_step_magnitude(self):
        cfg = training.AdamConfig()
        opt = training.Adam(np.array([0.5]), cfg)
        opt.step(np.array([1.0]))
        assert opt.w[0] == 0.5 - cfg.alpha / (1.0 + cfg.epsilon)

    def test_scalar_transcript_bit_for_bit(self):
        # minimize w^2 from 0.5; the hand loop repeats the documented
        # operation order with plain floats
        cfg = training.AdamConfig()
        opt = training.Adam(np.array([0.5]), cfg)
        w, m, v = 0.5, 0.0, 0.0
        for t in range(1, 11):
            opt.step(np.array([2.0 * opt.w[0]]))
            g = 2.0 * w
            m = cfg.beta1 * m + (1 - cfg.beta1) * g
            v = cfg.beta2 * v + (1 - cfg.beta2) * (g * g)
            mhat = m / (1 - cfg.beta1 ** t)
            vhat = v / (1 - cfg.beta2 ** t)
            w = w - cfg.alpha * mhat / (math.sqrt(vhat) + cfg.epsilon)
            assert opt.w[0] == w
            assert opt.t == t

    def test_ten_steps_decrease_the_objective(self):
        opt = training.Adam(np.array([0.5]), training.AdamConfig())
        for _ in range(10):
            opt.step(np.array([2.0 * opt.w[0]]))
        assert 0.0 < opt.w[0] < 0.5

    def test_rejects_shape_mismatch(self):
        # a 1-element gradient would otherwise broadcast over every weight
        w = np.zeros(4)
        opt = training.Adam(w, training.AdamConfig())
        for size in (1, 3):
            with pytest.raises(ValueError, match="gradient shape"):
                opt.step(np.ones(size))
        assert opt.t == 0
        assert np.all(w == 0) and np.all(opt.m == 0) and np.all(opt.v == 0)

    def test_rejects_a_vector_it_cannot_update_in_place(self):
        with pytest.raises(ValueError):
            training.Adam(np.zeros(4, dtype=np.float32), training.AdamConfig())
        with pytest.raises(ValueError):
            training.Adam(np.zeros((2, 2)), training.AdamConfig())


class TestAdamKernel:
    @staticmethod
    def step_both(opt, state, rng, cfg, steps):
        """`steps` steps of opt and of the allocating formula on the same
        gradients, the bits compared after each; returns the formula's state
        and the (1 - b1^t == 1, 1 - b2^t == 1) pair of every step."""
        pairs = []
        for _ in range(steps):
            grad = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=opt.w.size)
            state = allocating_adam_step(state, grad, cfg)
            opt.step(grad)
            assert opt.t == state[3]
            for x, y in zip((opt.w, opt.m, opt.v), state):
                assert same_bits(x, y)
            pairs.append((1 - cfg.beta1 ** opt.t == 1.0, 1 - cfg.beta2 ** opt.t == 1.0))
        return state, pairs

    @pytest.mark.parametrize("length", [1, 127, training._ADAM_SLICE,
                                        2 * training._ADAM_SLICE + 3])
    def test_matches_the_allocating_formula_bit_for_bit(self, length):
        # lengths on both sides of the slice size, so slices end mid-array
        cfg = training.AdamConfig(alpha=0.01)
        rng = np.random.default_rng(length)
        w = rng.normal(size=length)
        state = (w.copy(), np.zeros(length), np.zeros(length), 0)
        opt = training.Adam(w, cfg)
        self.step_both(opt, state, rng, cfg, 5)
        # the caller's vector is the one updated
        assert opt.w is w

    # from t = 356 on 1 - b1^t is exactly 1.0, and from t = 3,725 on 1 - b2^t:
    # the step then skips the division by it
    @pytest.mark.parametrize("length", [1, 127])
    def test_matches_the_allocating_formula_past_both_thresholds(self, length):
        cfg = training.AdamConfig(alpha=0.01)
        rng = np.random.default_rng(length)
        w = rng.normal(size=length)
        opt = training.Adam(w, cfg)
        state = (w.copy(), np.zeros(length), np.zeros(length), 0)
        _, pairs = self.step_both(opt, state, rng, cfg, 4000)
        assert pairs.index((True, False)) == 355
        assert pairs.index((True, True)) == 3724

    def test_slices_match_the_allocating_formula_at_both_thresholds(self):
        length = 2 * training._ADAM_SLICE + 3
        cfg = training.AdamConfig(alpha=0.01)
        rng = np.random.default_rng(3)
        w = rng.normal(size=length)
        opt = training.Adam(w, cfg)
        opt.m[:] = rng.normal(size=length)
        opt.v[:] = rng.normal(size=length) ** 2
        state = (w.copy(), opt.m.copy(), opt.v.copy(), 0)
        seen = []
        for start in (351, 3720):  # 4 steps on each side of each threshold
            opt.t = start
            state = state[:3] + (start,)
            state, pairs = self.step_both(opt, state, rng, cfg, 8)
            seen += pairs
        assert seen == [(False, False)] * 4 + [(True, False)] * 8 + [(True, True)] * 4


class TestConfigs:
    def test_loss_config_validation(self):
        with pytest.raises(ValueError):
            training.LossConfig(k=0.0)
        with pytest.raises(ValueError):
            training.LossConfig(target_kind="nope")
        with pytest.raises(ValueError):
            training.LossConfig(gaussian_sigma=0.0)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("field", ["k", "gaussian_sigma"])
    def test_loss_config_rejects_values_not_finite_and_positive(self, field, value):
        # NaN passes a plain `<= 0` check, and train then reported a divergence
        with pytest.raises(ValueError, match=f"^{field} must be finite and positive"):
            training.LossConfig(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    def test_gaussian_target_rejects_values_not_finite_and_positive(self, value):
        f = circuit.generate_periodic_function(2, 2, 1, 0)
        with pytest.raises(ValueError, match="^gaussian_sigma must be finite"):
            training.target_distribution("gaussian", f, gaussian_sigma=value)

    def test_adam_config_validation(self):
        with pytest.raises(ValueError):
            training.AdamConfig(alpha=0.0)
        # the moment decays and epsilon are constants, not settings
        with pytest.raises(TypeError):
            training.AdamConfig(beta1=0.5)
        cfg = training.AdamConfig()
        assert (cfg.beta1, cfg.beta2, cfg.epsilon) == (0.9, 0.99, 1e-8)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_adam_config_rejects_values_not_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="^alpha must be finite and positive"):
            training.AdamConfig(alpha=value)

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
        w = training.initialize_parameters(3, 0)
        assert w.shape == (128,) and w.dtype == np.float64
        # an optimizer on it starts from zero moments at step 0
        opt = training.Adam(w, training.AdamConfig())
        assert opt.t == 0
        assert np.all(opt.m == 0) and np.all(opt.v == 0)

    def test_bounded_over_fixed_seed_pool(self):
        # 100 fixed seeds: every draw stays within 5 standard deviations
        for n in (2, 3):
            scale = 1.0 / math.sqrt(2 ** n)
            worst = max(np.max(np.abs(training.initialize_parameters(n, s)))
                        for s in range(100))
            assert worst <= 5.0 * scale

    def test_pooled_spread_matches_scale(self):
        pool = np.concatenate([training.initialize_parameters(3, s)
                               for s in range(50)])
        assert np.std(pool) == pytest.approx(1.0 / math.sqrt(8), rel=0.05)

    def test_deterministic(self):
        a = training.initialize_parameters(2, 5)
        b = training.initialize_parameters(2, 5)
        assert np.array_equal(a, b)


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
        init = training.matrix_to_params(iqft)
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

    def test_divergence_is_reported_without_warnings(self):
        # the overflow of a run stepped at alpha 1e300 stays inside train, as
        # in a corpus worker, and the divergence check raises
        ds = training.build_training_dataset(2, 2, 2, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(training.DivergenceError, match=r"epoch 0 \(value nan\)"):
                training.train(ds, training.LossConfig(),
                               training.AdamConfig(alpha=1e300), 5, seed=0)

    @pytest.mark.parametrize("stop", [False, True])
    @pytest.mark.parametrize("n,periods", [
        pytest.param(2, None, id="2"),
        pytest.param(3, None, id="3"),
        # 5, 6 and 7 do not divide 2^n: the last group of x mod r columns is partial
        pytest.param(4, (5, 6, 7, 8, 1, 3), id="4-periods"),
    ])
    def test_matches_the_allocating_loop_bit_for_bit(self, n, periods, stop):
        if periods is None:
            ds = training.build_training_dataset(n, n, 4, n)
        else:
            ds = training.dataset_for_periods(n, n, periods, n)
        loss_cfg, adam_cfg = training.LossConfig(k=0.5), training.AdamConfig(alpha=0.005)
        init = training.initialize_parameters(n, 11)
        saved = init.copy()
        stop_below = None
        if stop:
            # an epoch loss the run reaches halfway, so it ends early
            stop_below = allocating_train(ds, loss_cfg, adam_cfg, 200, init)[1][100]
        want_m3, want_history = allocating_train(ds, loss_cfg, adam_cfg, 200, init,
                                                 stop_below=stop_below)
        m3, history = training.train(ds, loss_cfg, adam_cfg, 200, seed=None,
                                     init=init, stop_below=stop_below)
        assert same_bits(m3, want_m3)
        assert history == want_history
        assert (len(history) <= 101) if stop else (len(history) == 200)
        assert same_bits(init, saved)

    def test_divergence_state_is_a_copy(self):
        # the start itself diverges, so the state at abort is the init state
        ds = training.build_training_dataset(2, 2, 2, 0)
        init = 1e3 * training.initialize_parameters(2, 0)
        saved = init.copy()
        with pytest.raises(training.DivergenceError) as excinfo:
            training.train(ds, training.LossConfig(), training.AdamConfig(), 5,
                           seed=None, init=init)
        with pytest.raises(training.DivergenceError) as want:
            allocating_train(ds, training.LossConfig(), training.AdamConfig(), 5, init)
        w = excinfo.value.w
        assert same_bits(w, want.value.w)
        assert not np.shares_memory(w, init)
        assert same_bits(init, saved)

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
        assert not same_bits(excinfo.value.w, init)
        assert same_bits(excinfo.value.w, want.value.w)
        assert excinfo.value.history == want.value.history

    @pytest.mark.parametrize("shape", [(), (1,), (3,)])
    def test_rejects_a_target_not_on_the_register(self, shape):
        # TrainingDataset does not check target shapes; the step does, once
        f = circuit.generate_periodic_function(2, 2, 1, 0)
        ds = training.TrainingDataset(functions=[f], targets=[np.full(shape, 0.25)])
        with pytest.raises(ValueError, match="target shape"):
            training.train(ds, training.LossConfig(), training.AdamConfig(), 3, seed=0)

    def test_steps_share_one_gather_buffer(self):
        # n = 8, 16 samples (periods 1..16). The run's four 256 x 256 complex
        # buffers take 4.2 MB and each sample's own buffers about 18 kB per
        # unit of its period (psi, a, t, sq, mag), 2.5 MB over sum(r) = 136:
        # 6.9 MB measured. A 1 MB gather buffer per sample would add 16 MB
        # (22.6 MB measured); 10 MB lies between the two.
        ds = training.build_training_dataset(8, 8, 16, 0)
        m3 = training.params_to_matrix(training.initialize_parameters(8, 0), 256)
        tracemalloc.start()
        try:
            run = training._run_buffers(m3)
            steps = [training._sample_step(f, p_d, 1.0, run)
                     for f, p_d in zip(ds.functions, ds.targets)]
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(steps) == 16
        assert current < 10e6

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
                (circuit.period_marginal(m3, f.n, f.r) - p_d) ** 2) / 8)
            assert sample_loss <= 10.0 * max(history[-1], 1e-12)
            assert distance < 1e-6

    def test_fresh_functions_with_trained_periods_transfer(self, n3_runs):
        # same periods, new value tables: the fit is value-independent
        m3, history = n3_runs[0]
        for r in (1, 2, 3, 4):
            f = circuit.generate_periodic_function(3, 3, r, (4000, r))
            p_d = circuit.reference_distribution(f)
            assert training.loss(m3, f, p_d, 1.0) <= 10.0 * max(history[-1], 1e-12)
