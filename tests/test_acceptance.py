"""Acceptance gate: the twelve release criteria, one printed verdict each.

Every test measures its quantity, prints a single [PASS]/[FAIL] line with
the numbers, and then asserts the stated threshold. Thresholds are never
relaxed to fit observed behavior; a red entry here is a finding, and the
printed line carries the seeds needed to reproduce it.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from conftest import cli_env

from qperiod import analysis, circuit, classifier, io, linalg, training


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_reference_distribution_exactness():
    # n=5, r=8: equal peaks of 1/8 at every multiple of 2^n / r = 4
    f = circuit.generate_periodic_function(5, 5, 8, 0)
    p = circuit.reference_distribution(f)
    peaks = np.arange(0, 32, 4)
    peak_err = float(np.max(np.abs(p[peaks] - 0.125)))
    off = np.setdiff1d(np.arange(32), peaks)
    off_err = float(np.max(np.abs(p[off])))
    ok = peak_err <= 1e-10 and off_err <= 1e-10
    report("reference-distribution-exactness", ok,
           f"n=5 r=8 peak error {peak_err:.2e}, off-peak error {off_err:.2e}")


def test_02_offset_independence():
    # measuring F first must leave the X statistics alone when r | 2^n
    worst = 0.0
    divisors = [2, 4, 8, 16]
    for case in range(10):
        r = divisors[case % len(divisors)]
        f = circuit.generate_periodic_function(5, 5, r, (200, case))
        grid = circuit.apply_oracle(circuit.prepare_superposition(5, 5), f)
        grid = circuit.apply_post_unitary(grid, circuit.inverse_qft_matrix(5))
        marginal = circuit.marginal_distribution(grid)
        for j in range(32):
            mass = float(np.sum(np.abs(grid[:, j]) ** 2))
            if mass < 1e-12:
                continue
            conditional = np.abs(grid[:, j]) ** 2 / mass
            worst = max(worst, float(np.max(np.abs(conditional - marginal))))
    ok = worst <= 1e-10
    report("offset-independence", ok,
           f"10 functions at n=5, worst conditional-marginal gap {worst:.2e}")


def test_03_gradient_matches_finite_differences():
    def fd_loss_gradient(m3, f, p_d, k, h=1e-6):
        dim = m3.shape[0]
        w = training.matrix_to_params(m3)
        out = np.zeros_like(w)
        for i in range(w.size):
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            out[i] = (training.loss(training.params_to_matrix(wp, dim), f, p_d, k)
                      - training.loss(training.params_to_matrix(wm, dim), f, p_d, k)
                      ) / (2 * h)
        return out

    worst_loss = 0.0
    cases = [(2, c) for c in range(10)] + [(3, c) for c in range(10)]
    for n, case in cases:
        rng = np.random.default_rng((50, n, case))
        m3 = training.params_to_matrix(
            training.initialize_parameters(n, (50, n, case)), 2 ** n)
        f = circuit.generate_periodic_function(
            n, n, int(rng.integers(1, 2 ** n + 1)), (51, n, case))
        p_d = circuit.reference_distribution(f)
        got = training.loss_gradient(m3, f, p_d, 1.0)
        want = fd_loss_gradient(m3, f, p_d, 1.0)
        worst_loss = max(worst_loss,
                         float(np.linalg.norm(got - want) / np.linalg.norm(want)))

    worst_net = 0.0
    for seed in range(20):
        rng = np.random.default_rng((52, seed))
        net = classifier.initialize_mlp(
            classifier.MLPConfig(input_dim=8, hidden_dims=(4,), seed=seed))
        x = rng.normal(size=8)
        label = seed % 2
        g_w, g_b = classifier.backprop_gradient(net, x, label)
        got = np.concatenate([t.ravel() for t in g_w + g_b])

        tensors = net.weights + net.biases
        want = np.zeros_like(got)
        pos = 0
        h = 1e-6
        for t in tensors:
            for i in range(t.size):
                orig = t.flat[i]
                t.flat[i] = orig + h
                up = classifier.bce_loss(classifier.forward(net, x), label)
                t.flat[i] = orig - h
                down = classifier.bce_loss(classifier.forward(net, x), label)
                t.flat[i] = orig
                want[pos] = (up - down) / (2 * h)
                pos += 1
        worst_net = max(worst_net,
                        float(np.linalg.norm(got - want) / np.linalg.norm(want)))

    ok = worst_loss <= 1e-5 and worst_net <= 1e-5
    report("gradient-correctness", ok,
           f"loss gradient rel err {worst_loss:.2e} (20 points, n=2,3), "
           f"backprop rel err {worst_net:.2e} (20 nets)")


def test_04_training_convergence(n3_runs):
    rows = []
    passed = 0
    for seed in range(5):
        m3, history = n3_runs[seed]
        defect = linalg.unitarity_defect(m3)
        good = history[-1] <= 1e-6 and defect <= 1e-6
        passed += good
        rows.append(f"seed {seed}: loss {history[-1]:.2e} defect {defect:.2e}")
    ok = passed >= 4
    report("training-convergence", ok,
           f"{passed}/5 seeds converged at n=3, 6 functions, 5000 epochs "
           f"({'; '.join(rows)})")


def test_05_generalization_to_held_out_periods(n3_runs):
    # held-out periods 5..8 (everything the n=3 dataset does not contain,
    # including r > 2^{n-1}); gates: loss within 10x the final training
    # loss and distribution distance at most 1e-4
    m3, history = n3_runs[0]
    final = history[-1]
    worst_ratio, worst_distance = 0.0, 0.0
    for r in (5, 6, 7, 8):
        f = circuit.generate_periodic_function(3, 3, r, (300, r))
        p_d = circuit.reference_distribution(f)
        value = training.loss(m3, f, p_d, 1.0)
        distance = analysis.distribution_distance(
            circuit.period_marginal(m3, f.n, f.r), p_d)
        worst_ratio = max(worst_ratio, value / final)
        worst_distance = max(worst_distance, distance)
    ok = worst_ratio <= 10.0 and worst_distance <= 1e-4
    report("generalization-held-out", ok,
           f"train seed 0, value seeds (300, r): worst loss ratio {worst_ratio:.3g} "
           f"(gate 10), worst distance {worst_distance:.3g} (gate 1e-4); "
           f"divisor periods transfer (see unit suite) but generic unseen "
           f"periods do not at n=3")


def test_06_converged_runs_differ(n3_runs):
    m_a, _ = n3_runs[3]
    m_b, _ = n3_runs[8]
    iqft = circuit.inverse_qft_matrix(3)
    frobenius = float(np.linalg.norm(m_a - m_b)) / math.sqrt(8)
    echoes = [analysis.echo_report(m, iqft) for m in (m_a, m_b)]
    uniform = min(echo_uniform for _, echo_uniform in echoes)
    zero = max(echo_zero for echo_zero, _ in echoes)
    ok = frobenius > 0.1 and uniform >= 0.99 and zero <= 0.1
    report("non-uniqueness", ok,
           f"seeds 3 vs 8: normalized Frobenius {frobenius:.3f} (> 0.1), "
           f"uniform echoes >= {uniform:.5f} (gate 0.99), "
           f"zero echoes <= {zero:.5f} (gate 0.1)")


def test_07_period_estimation_exhaustive():
    checked, misses = 0, []
    for n in (5, 6):
        for r in range(2, 2 ** (n - 1) + 1):
            f = circuit.generate_periodic_function(n, n, r, (400, n, r))
            p = circuit.reference_distribution(f)
            got = circuit.estimate_period(p, n)
            if got != r:
                misses.append(f"n={n} r={r} estimated {got}")
            checked += 1
    ok = not misses
    report("period-estimation", ok,
           f"every r in 2..2^(n-1) at n=5,6 ({checked} cases)"
           + ("" if ok else f"; misses: {misses}"))


def test_08_adam_transcript():
    cfg = training.AdamConfig()
    grad = np.zeros(1)
    opt = training.Adam(np.array([0.5]), grad, cfg)
    w, m, v = 0.5, 0.0, 0.0
    exact = True
    for t in range(1, 11):
        grad[0] = 2.0 * opt.w[0]
        opt.step()
        g = 2.0 * w
        m = cfg.beta1 * m + (1 - cfg.beta1) * g
        v = cfg.beta2 * v + (1 - cfg.beta2) * (g * g)
        mhat = m / (1 - cfg.beta1 ** t)
        vhat = v / (1 - cfg.beta2 ** t)
        w = w - cfg.alpha * mhat / (math.sqrt(vhat) + cfg.epsilon)
        exact = exact and opt.w[0] == w

    first = training.Adam(np.array([0.5]), np.array([1.0]), cfg)
    first.step()
    first_ok = first.w[0] == 0.5 - cfg.alpha / (1.0 + cfg.epsilon)
    ok = exact and first_ok
    report("adam-conformance", ok,
           f"10-step transcript bit-exact: {exact}; first step equals "
           f"alpha/(1+eps): {first_ok}")


def test_09_eigenphase_flatness(corpus_n4):
    def max_sigma(mats):
        counts = np.zeros(analysis.N_PHASE_BINS, dtype=np.int64)
        for m in mats:
            counts += analysis.eigenphase_histogram(m).counts
        total = int(counts.sum())
        std = math.sqrt(total * (1 / 20) * (19 / 20))
        return float(np.max(np.abs(counts - total / 20)) / std), total

    haar = [linalg.haar_random_unitary(5, (900, i)) for i in range(50)]
    haar_dev, haar_total = max_sigma(haar)
    learned = [m for m, label in corpus_n4.entries if label == 1]
    learned_dev, learned_total = max_sigma(learned)
    ok = haar_dev <= 5.0 and learned_dev <= 5.0
    report("eigenphase-flatness", ok,
           f"50 haar at n=5: worst bin {haar_dev:.2f} sigma ({haar_total} phases); "
           f"{len(learned)} learned at n=4: worst bin {learned_dev:.2f} sigma "
           f"({learned_total} phases); gate 5 sigma")


def test_10_classifier_accuracy_and_qft_score(classifier_run):
    net, history, splits = classifier_run
    accuracy, _ = classifier.evaluate(net, splits.test)
    qft_score = classifier.forward(
        net, classifier.unitary_features(circuit.inverse_qft_matrix(4)))
    ok = accuracy >= 0.9 and qft_score > 0.9
    report("classifier", ok,
           f"n=4, 200 per class: test accuracy {accuracy:.3f} (gate 0.90), "
           f"inverse-QFT score {qft_score:.3f} (gate 0.90); triage seeds: "
           f"corpus_seed=0 split_seed=7 mlp_seed=0 shuffle_seed=10000 "
           f"epochs_run={len(history)}")


def test_11_alternative_targets_fail_to_train():
    adam_cfg = training.AdamConfig()
    finals = {}
    for kind in ("single-peak", "step", "gaussian"):
        loss_cfg = training.LossConfig(target_kind=kind)
        dataset = training.build_training_dataset(3, 3, 6, 0, loss_cfg)
        _, history = training.train(dataset, loss_cfg, adam_cfg, 5000, seed=0)
        finals[kind] = history[-1]
    recorded = all(math.isfinite(v) for v in finals.values())
    plateaued = all(v > 1e-6 for v in finals.values())
    detail = ", ".join(f"{kind} {value:.3e}" for kind, value in finals.items())
    ok = recorded and plateaued
    report("alternative-targets", ok,
           f"final losses after 5000 epochs at n=3 (report-only record): {detail}")


def test_12_round_trips_and_reproducibility(tmp_path):
    matrix = linalg.haar_random_unitary(3, 12)
    io.write_unitary(tmp_path / "m.umat", matrix, 3)
    back, _ = io.read_unitary(tmp_path / "m.umat")
    unitary_exact = bool(np.array_equal(back, matrix))

    net = classifier.initialize_mlp(
        classifier.MLPConfig(input_dim=8, hidden_dims=(4, 3), seed=6))
    io.write_mlp(tmp_path / "n.mlpc", net)
    loaded = io.read_mlp(tmp_path / "n.mlpc")
    mlp_exact = all(np.array_equal(a, b) for a, b in
                    zip(loaded.weights + loaded.biases, net.weights + net.biases))

    args = [sys.executable, "-m", "qperiod", "train", "--qubits", "2",
            "--dataset-size", "2", "--epochs", "200", "--seed", "5"]
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        result = subprocess.run(args + ["--out-dir", str(d)], cwd=tmp_path,
                                env=cli_env(), capture_output=True, text=True,
                                timeout=600)
        assert result.returncode in (0, 2), result.stderr
    cli_exact = ((dirs[0] / "m3.umat").read_bytes()
                 == (dirs[1] / "m3.umat").read_bytes())

    ok = unitary_exact and mlp_exact and cli_exact
    report("round-trips-and-reproducibility", ok,
           f"unitary bit-exact: {unitary_exact}, classifier bit-exact: {mlp_exact}, "
           f"seeded CLI runs identical: {cli_exact}")
