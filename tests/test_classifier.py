"""classifier tests: hand-unrolled forward/backward passes, split invariants,
corpus construction, and a separable end-to-end sanity run."""

import math
import multiprocessing
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import allocating_adam_step, allocating_backprop, allocating_forward
from qperiod import circuit, classifier, io, linalg, training

COMMITTED_CORPUS = (Path(__file__).resolve().parents[1]
                    / "perfbench" / "data" / "corpus_n4" / "corpus_manifest.json")


def tiny_net():
    """Fixed 2-2-1 network for hand transcripts."""
    return classifier.MLP(
        weights=[np.array([[0.3, -0.2], [0.1, 0.4]]), np.array([[0.5], [-0.3]])],
        biases=[np.array([0.05, -0.1]), np.array([0.2])],
    )


def flat_params(net):
    return np.concatenate([t.ravel() for t in net.weights + net.biases])


def set_flat_params(net, flat):
    pos = 0
    for t in net.weights + net.biases:
        t.flat[:] = flat[pos:pos + t.size]
        pos += t.size


def fd_gradient_net(net, x, label, h=1e-6):
    base = flat_params(net)
    grad = np.zeros_like(base)
    for i in range(base.size):
        for sign, bucket in ((+1, 0), (-1, 1)):
            probe = base.copy()
            probe[i] += sign * h
            set_flat_params(net, probe)
            value = classifier.bce_loss(classifier.forward(net, x), label)
            grad[i] += sign * value / (2 * h)
    set_flat_params(net, base)
    return grad


def toy_corpus(per_class, seed):
    """1x1 matrices labeled by the sign of the real part: separable by
    construction, with a margin away from zero."""
    rng = np.random.default_rng(seed)
    entries, provenance = [], []
    for i in range(per_class):
        re = 0.2 + 0.8 * rng.random()
        entries.append((np.array([[re + 1j * rng.normal()]]), 1))
        provenance.append({"source": "toy", "index": i})
        entries.append((np.array([[-re + 1j * rng.normal()]]), 0))
        provenance.append({"source": "toy", "index": i})
    return classifier.LabeledUnitaryCorpus(entries=entries, provenance=provenance)


def fake_train(diverging_attempts):
    """Stand-in for training.train: the exact inverse QFT at once, or a
    DivergenceError for the listed attempts (read from the attempt seed)."""
    def train(dataset, loss_cfg, adam_cfg, epochs, seed, **kwargs):
        if seed[2] in diverging_attempts:
            raise training.DivergenceError("loss diverged at epoch 0 (value inf)",
                                           history=[])
        return np.array(circuit.inverse_qft_matrix(dataset.n)), [0.0]
    return train


def logging_train(train, log):
    """train that first appends its attempt index (seed[2]) to the file log,
    which the worker processes of build_corpus share with the test."""
    def run(dataset, *args, seed, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{seed[2]}\n")
        return train(dataset, *args, seed=seed, **kwargs)
    return run


def attempts_run(log):
    return sorted(int(line) for line in log.read_text().split())


def build_on_workers(monkeypatch, workers, *args, **kwargs):
    """build_corpus with its worker count forced: the corpus, or the error
    it raised; no worker may outlive the build either way."""
    monkeypatch.setattr(classifier, "_corpus_workers", lambda per_class: workers)
    try:
        return classifier.build_corpus(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - compared by the caller
        return exc
    finally:
        assert multiprocessing.active_children() == []


def haar_splits():
    """Haar matrices at n=2 under alternating labels, split with seed 3:
    nothing to learn, so a run wanders and may stop early."""
    entries = [(linalg.haar_random_unitary(2, (5, i)), i % 2) for i in range(20)]
    corpus = classifier.LabeledUnitaryCorpus(
        entries=entries, provenance=[{"index": i} for i in range(20)])
    return classifier.split_corpus(corpus, 3)


def net_bytes(net):
    return [t.tobytes() for t in net.weights + net.biases]


def nan_gradient_views(net):
    """(weights, biases) views shaped like the net's tensors, of one flat
    NaN-filled vector, as train_classifier passes _backprop_batch."""
    flat = np.full(sum(t.size for t in net.weights + net.biases), np.nan)
    views, pos = [], 0
    for t in net.weights + net.biases:
        views.append(flat[pos:pos + t.size].reshape(t.shape))
        pos += t.size
    layers = len(net.weights)
    return views[:layers], views[layers:]


@pytest.fixture(scope="module")
def committed_net():
    """The committed corpus's split-7 training rows (features x, labels y;
    270 rows) and the initial 512-1024-512-1 net (MLP seed 0) of the
    canonical run on them."""
    corpus, n = io.read_corpus(COMMITTED_CORPUS)
    x, y = classifier._featurize(classifier.split_corpus(corpus, 7).train)
    net = classifier.initialize_mlp(classifier.MLPConfig(input_dim=2 ** (2 * n + 1),
                                                         seed=0))
    return net, x, y


def corpus_bytes(corpus):
    return [(m.tobytes(), label) for m, label in corpus.entries], corpus.provenance


class TestFeatures:
    def test_flatten_identity(self):
        got = classifier.unitary_features(np.eye(2))
        assert np.array_equal(got, [2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0])

    def test_flatten_interleaves_re_im(self):
        m = np.array([[1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j]])
        assert np.array_equal(classifier.unitary_features(m),
                              [2, 4, 6, 8, 10, 12, 14, 16])

    def test_flatten_rejects_non_square(self):
        for bad in (np.ones((2, 3)), np.ones(4), np.ones((2, 2, 2))):
            with pytest.raises(ValueError, match="square"):
                classifier.unitary_features(bad)

    def test_feature_scale_is_the_dimension(self):
        # the parameter layout of training, scaled by dim = 4
        u = circuit.inverse_qft_matrix(2)
        assert np.array_equal(classifier.unitary_features(u),
                              4.0 * training.matrix_to_params(u))

    def test_feature_length(self):
        u = linalg.haar_random_unitary(3, 0)
        assert classifier.unitary_features(u).shape == (128,)


class TestInitializeMlp:
    def test_shape_rule_dims(self):
        config = classifier.MLPConfig(input_dim=512)
        assert config.layer_dims() == (512, 1024, 512, 1)

    def test_explicit_hidden_dims_override(self):
        config = classifier.MLPConfig(input_dim=8, hidden_dims=(4, 4))
        assert config.layer_dims() == (8, 4, 4, 1)

    def test_weights_within_glorot_bounds(self):
        net = classifier.initialize_mlp(classifier.MLPConfig(input_dim=32, seed=1))
        dims = (32, 64, 512, 1)
        for w, din, dout in zip(net.weights, dims[:-1], dims[1:]):
            limit = math.sqrt(6.0 / (din + dout))
            assert w.shape == (din, dout)
            assert np.max(np.abs(w)) <= limit

    def test_biases_start_at_zero(self):
        net = classifier.initialize_mlp(classifier.MLPConfig(input_dim=8, seed=2))
        assert all(np.all(b == 0) for b in net.biases)

    def test_deterministic(self):
        a = classifier.initialize_mlp(classifier.MLPConfig(input_dim=8, seed=3))
        b = classifier.initialize_mlp(classifier.MLPConfig(input_dim=8, seed=3))
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))


class TestForward:
    def test_hand_unrolled_positive_path(self):
        net = tiny_net()
        x = np.array([1.0, 2.0])
        # z1 = (1*0.3 + 2*0.1 + 0.05, 1*(-0.2) + 2*0.4 - 0.1) = (0.55, 0.5)
        # both positive, so relu passes them through
        z2 = 0.55 * 0.5 + 0.5 * (-0.3) + 0.2
        expected = 1.0 / (1.0 + math.exp(-z2))
        assert classifier.forward(net, x) == pytest.approx(expected, abs=1e-15)

    def test_hand_unrolled_relu_clips(self):
        net = tiny_net()
        x = np.array([-1.0, 0.0])
        # z1 = (-0.25, 0.1): the first hidden unit is cut to zero
        z2 = 0.0 * 0.5 + 0.1 * (-0.3) + 0.2
        expected = 1.0 / (1.0 + math.exp(-z2))
        assert classifier.forward(net, x) == pytest.approx(expected, abs=1e-15)

    def test_zero_net_outputs_half(self):
        net = classifier.MLP(weights=[np.zeros((2, 1))], biases=[np.zeros(1)])
        assert classifier.forward(net, np.zeros(2)) == 0.5

    def test_rejects_wrong_input_shape(self):
        with pytest.raises(ValueError):
            classifier.forward(tiny_net(), np.zeros(3))


class TestBceLoss:
    def test_half_prediction_is_log_two(self):
        assert classifier.bce_loss(0.5, 1) == math.log(2.0)
        assert classifier.bce_loss(0.5, 0) == math.log(2.0)

    def test_confident_and_correct_is_small(self):
        assert classifier.bce_loss(1.0, 1) < 1e-11

    def test_confident_and_wrong_is_clamped_finite(self):
        value = classifier.bce_loss(1.0, 0)
        assert math.isfinite(value)
        assert value == pytest.approx(-math.log(1e-12), rel=1e-6)

    def test_hand_value(self):
        assert classifier.bce_loss(0.8, 1) == pytest.approx(-math.log(0.8))
        assert classifier.bce_loss(0.8, 0) == pytest.approx(-math.log(0.2))


class TestBackprop:
    def test_matches_finite_differences(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            net = classifier.initialize_mlp(
                classifier.MLPConfig(input_dim=8, hidden_dims=(4,), seed=seed))
            x = rng.normal(size=8)
            label = seed % 2
            g_w, g_b = classifier.backprop_gradient(net, x, label)
            got = np.concatenate([t.ravel() for t in g_w + g_b])
            want = fd_gradient_net(net, x, label)
            assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-5

    def test_output_residual_form(self):
        # with no hidden layer the weight gradient is (p - y) * x exactly
        net = classifier.MLP(weights=[np.zeros((3, 1))], biases=[np.zeros(1)])
        x = np.array([1.0, -2.0, 0.5])
        g_w, g_b = classifier.backprop_gradient(net, x, 1)
        assert np.allclose(g_w[0][:, 0], (0.5 - 1.0) * x)
        assert g_b[0][0] == pytest.approx(-0.5)

    def test_gradients_written_in_place_match_new_arrays_bit_for_bit(self):
        rng = np.random.default_rng(3)
        net = classifier.initialize_mlp(classifier.MLPConfig(input_dim=32, seed=3))
        xb, yb = rng.normal(size=(5, 32)), np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        want_w, want_b = allocating_backprop(net, xb, yb)
        views = nan_gradient_views(net)
        classifier._backprop_batch(net, xb, yb, out=views)
        for got, want in zip(views[0] + views[1], want_w + want_b):
            assert got.tobytes() == want.tobytes()

    def test_identical_hidden_units_get_identical_gradients(self):
        # a symmetric start cannot break symmetry within one step
        net = classifier.MLP(
            weights=[np.full((3, 2), 0.1), np.full((2, 1), 0.2)],
            biases=[np.zeros(2), np.zeros(1)],
        )
        g_w, _ = classifier.backprop_gradient(net, np.array([0.5, 1.0, -0.25]), 1)
        assert np.allclose(g_w[0][:, 0], g_w[0][:, 1])


class TestHalvesMatchSingleCalls:
    """_forward_batch and _backprop_batch cut their products into fixed row
    halves; on the committed-corpus net, every activation and gradient has
    the bits of one numpy call per product (tolerance 0), whether the second
    half runs on a helper thread or not. This is a measured property of the
    bundled BLAS, not a guarantee of numpy."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("rows", [1, 2, 3, 14, 30, 32, 100, 270])
    def test_forward(self, committed_net, rows, threads):
        net, x, _ = committed_net
        with classifier._half_runner(threads) as run:
            got = classifier._forward_batch(net, x[:rows], run)
        assert [a.tobytes() for a in got] == [
            a.tobytes() for a in allocating_forward(net, x[:rows])]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("rows", [1, 2, 3, 14, 30, 32, 100, 270])
    def test_backprop_in_place(self, committed_net, rows, threads):
        net, x, y = committed_net
        views = nan_gradient_views(net)
        with classifier._half_runner(threads) as run:
            classifier._backprop_batch(net, x[:rows], y[:rows], out=views, run=run)
        want_w, want_b = allocating_backprop(net, x[:rows], y[:rows])
        assert [v.tobytes() for v in views[0] + views[1]] == [
            t.tobytes() for t in want_w + want_b]


class TestSplitCorpus:
    def test_canonical_sizes_at_full_scale(self):
        corpus = toy_corpus(1200, 0)
        splits = classifier.split_corpus(corpus, 7)
        assert (len(splits.train), len(splits.validation), len(splits.test)) \
            == (1620, 180, 600)

    def test_small_corpus_sizes(self):
        corpus = toy_corpus(20, 1)
        splits = classifier.split_corpus(corpus, 7)
        assert (len(splits.train), len(splits.validation), len(splits.test)) \
            == (27, 3, 10)

    def test_each_split_is_balanced(self):
        corpus = toy_corpus(200, 2)
        splits = classifier.split_corpus(corpus, 7)
        for part in (splits.train, splits.validation, splits.test):
            ones = sum(label for _, label in part)
            assert abs(2 * ones - len(part)) <= 1

    def test_disjoint_and_covering(self):
        corpus = toy_corpus(30, 3)
        splits = classifier.split_corpus(corpus, 5)
        tags = []
        for part in (splits.train, splits.validation, splits.test):
            tags.extend(complex(m[0, 0]) for m, _ in part)
        assert len(tags) == len(corpus)
        assert sorted(t.real for t in tags) == sorted(
            complex(m[0, 0]).real for m, _ in corpus.entries)

    def test_deterministic_and_seed_sensitive(self):
        corpus = toy_corpus(30, 4)
        a = classifier.split_corpus(corpus, 7)
        b = classifier.split_corpus(corpus, 7)
        c = classifier.split_corpus(corpus, 8)

        def key(part):
            return [complex(m[0, 0]) for m, _ in part]

        assert key(a.test) == key(b.test)
        assert key(a.test) != key(c.test)

    def test_rejects_tiny_corpus(self):
        with pytest.raises(ValueError):
            classifier.split_corpus(toy_corpus(4, 5), 7)

    def test_corpus_rejects_imbalance(self):
        entries = [(np.eye(1, dtype=complex), 1) for _ in range(4)]
        entries += [(np.eye(1, dtype=complex), 0) for _ in range(2)]
        with pytest.raises(ValueError):
            classifier.LabeledUnitaryCorpus(entries=entries,
                                            provenance=[{}] * len(entries))

    @given(st.integers(6, 60), st.integers(0, 10 ** 4))
    @settings(max_examples=25)
    def test_property_sizes_add_up(self, per_class, seed):
        corpus = toy_corpus(per_class, seed)
        splits = classifier.split_corpus(corpus, seed)
        total = len(corpus)
        assert len(splits.test) == math.ceil(total / 4)
        assert len(splits.validation) == math.ceil((total - len(splits.test)) / 10)
        assert len(splits.train) == total - len(splits.test) - len(splits.validation)


class TestTrainClassifier:
    def test_separable_toy_reaches_full_accuracy(self):
        corpus = toy_corpus(30, 6)
        splits = classifier.split_corpus(corpus, 7)
        net = classifier.initialize_mlp(
            classifier.MLPConfig(input_dim=2, hidden_dims=(8,), seed=0))
        net, history = classifier.train_classifier(net, splits, max_epochs=50,
                                                   shuffle_seed=10_000)
        accuracy, scores = classifier.evaluate(net, splits.test)
        assert accuracy == 1.0
        assert len(scores) == len(splits.test)

    def test_history_rows_are_complete(self):
        corpus = toy_corpus(20, 7)
        splits = classifier.split_corpus(corpus, 7)
        net = classifier.initialize_mlp(
            classifier.MLPConfig(input_dim=2, hidden_dims=(4,), seed=1))
        net, history = classifier.train_classifier(net, splits, max_epochs=10,
                                                   shuffle_seed=17)
        assert 0 < len(history) <= 10
        for row in history:
            assert set(row) == {"epoch", "train_loss", "train_accuracy",
                                "val_loss", "val_accuracy"}

    def test_returns_best_validation_snapshot(self):
        corpus = toy_corpus(25, 8)
        splits = classifier.split_corpus(corpus, 7)
        net = classifier.initialize_mlp(
            classifier.MLPConfig(input_dim=2, hidden_dims=(4,), seed=2))
        net, history = classifier.train_classifier(net, splits, max_epochs=40,
                                                   shuffle_seed=5)
        x_va = np.array([classifier.unitary_features(m) for m, _ in splits.validation])
        y_va = np.array([float(label) for _, label in splits.validation])
        p_va = classifier._forward_batch(net, x_va)[-1][:, 0]
        recomputed = classifier.bce_loss(p_va, y_va)
        assert recomputed == pytest.approx(min(row["val_loss"] for row in history),
                                           rel=1e-12)

    def test_deterministic_given_shuffle_seed(self):
        corpus = toy_corpus(20, 9)
        splits = classifier.split_corpus(corpus, 7)

        def run():
            net = classifier.initialize_mlp(
                classifier.MLPConfig(input_dim=2, hidden_dims=(4,), seed=3))
            return classifier.train_classifier(net, splits, max_epochs=15,
                                               shuffle_seed=99)

        a_net, a_hist = run()
        b_net, b_hist = run()
        assert a_hist == b_hist
        assert all(np.array_equal(x, y) for x, y in zip(a_net.weights, b_net.weights))

    def test_leaves_the_callers_arrays_unchanged(self):
        corpus = toy_corpus(20, 10)
        splits = classifier.split_corpus(corpus, 7)
        net = classifier.initialize_mlp(
            classifier.MLPConfig(input_dim=2, hidden_dims=(4,), seed=4))
        tensors = net.weights + net.biases
        tensor_bytes = [t.tobytes() for t in tensors]
        matrix_bytes = [m.tobytes() for part in (splits.train, splits.validation)
                        for m, _ in part]
        trained, _ = classifier.train_classifier(net, splits, max_epochs=10, shuffle_seed=4)
        assert [t.tobytes() for t in tensors] == tensor_bytes
        assert [m.tobytes() for part in (splits.train, splits.validation)
                for m, _ in part] == matrix_bytes
        # the net did train: its tensors are new ones with other values
        assert [t.tobytes() for t in trained.weights + trained.biases] != tensor_bytes

    def test_trained_net_round_trips_through_mlp_files_byte_for_byte(self, tmp_path):
        corpus = toy_corpus(20, 11)
        splits = classifier.split_corpus(corpus, 7)
        net = classifier.initialize_mlp(
            classifier.MLPConfig(input_dim=2, hidden_dims=(5, 3), seed=5))
        net, _ = classifier.train_classifier(net, splits, max_epochs=10, shuffle_seed=5)
        io.write_mlp(tmp_path / "a.mlpc", net)
        back = io.read_mlp(tmp_path / "a.mlpc")
        io.write_mlp(tmp_path / "b.mlpc", back)
        assert (tmp_path / "a.mlpc").read_bytes() == (tmp_path / "b.mlpc").read_bytes()
        for got, want in zip(back.weights + back.biases, net.weights + net.biases):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_traced_peak_is_bounded_by_the_parameter_bytes(self):
        # weights, ADAM's m and v, one gradient and one best snapshot are 5x
        # the parameter bytes; the full-split forward passes add about 1x.
        # Committed corpus, split 7, MLP seed 0, 3 epochs: 6.50x when each
        # batch allocated its gradients and each improving epoch its
        # snapshot while the previous set was alive; 6.07x with one flat
        # gradient and one flat snapshot; 6.27x with one flat gradient but a
        # fresh snapshot copy per improving epoch; 5.80x once each hidden
        # layer was written in place into one array (two ADAM halves, each
        # with its own scratch rows).
        corpus, n = io.read_corpus(COMMITTED_CORPUS)
        splits = classifier.split_corpus(corpus, 7)
        net = classifier.initialize_mlp(classifier.MLPConfig(input_dim=2 ** (2 * n + 1),
                                                             seed=0))
        assert net.input_dim == 512
        param_bytes = sum(t.nbytes for t in net.weights + net.biases)
        tracemalloc.start()
        try:
            _, history = classifier.train_classifier(net, splits, max_epochs=3,
                                                     shuffle_seed=10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(history) == 3
        assert peak / param_bytes < 6.2

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("option", ["max_epochs", "batch_size", "patience"])
    def test_counts_below_one_are_rejected_before_any_work(self, option, value):
        # no splits at all: the check comes first
        with pytest.raises(ValueError, match=f"^{option} must be >= 1, got {value}$"):
            classifier.train_classifier(tiny_net(), None, shuffle_seed=0, **{option: value})


class TestHalfRunner:
    """The runner's split of a flat call list: on 2 threads, calls[0::2] on
    the caller's thread and calls[1::2] on one helper; on 1, every call in
    order on the caller's thread."""

    @staticmethod
    def run_logged(threads, count):
        """(call index, thread id) per call, in the order the calls ran."""
        log = []
        with classifier._half_runner(threads) as run:
            for _ in range(2):  # a second list on the same runner
                run([lambda i=i: log.append((i, threading.get_ident()))
                     for i in range(count)])
        return log

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_two_threads_split_the_list_by_parity(self, count):
        before = threading.active_count()
        log = self.run_logged(2, count)
        assert threading.active_count() == before
        me = threading.get_ident()
        mine = [i for i, thread in log if thread == me]
        helper = [i for i, thread in log if thread != me]
        assert mine == 2 * list(range(0, count, 2))
        assert helper == 2 * list(range(1, count, 2))
        assert len({thread for _, thread in log if thread != me}) == min(count - 1, 1)

    @pytest.mark.parametrize("count", [1, 3, 4])
    def test_one_thread_runs_every_call_in_order(self, count):
        assert self.run_logged(1, count) == 2 * [
            (i, threading.get_ident()) for i in range(count)]


class TestTrainClassifierThreads:
    """train_classifier on 1 CPU (no helper thread) and on 2: same bits,
    and no thread outlives the call."""

    @staticmethod
    def train(monkeypatch, cpus, *args, **kwargs):
        monkeypatch.setattr(classifier, "_cpus", lambda: cpus)
        before = threading.active_count()
        try:
            return classifier.train_classifier(*args, **kwargs)
        finally:
            assert threading.active_count() == before

    @pytest.mark.parametrize("batch_size", [3, 4, 5, 32])
    def test_haar_net_bits_do_not_depend_on_the_cpu_count(self, monkeypatch, batch_size):
        config = classifier.MLPConfig(input_dim=32, seed=4)

        def train(cpus):
            return self.train(monkeypatch, cpus, classifier.initialize_mlp(config),
                              haar_splits(), training.AdamConfig(alpha=0.003), max_epochs=12,
                              batch_size=batch_size, patience=100, shuffle_seed=8)

        one, one_hist = train(1)
        # the threads switch as often as the interpreter allows, so that a
        # race between the halves would show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            two, two_hist = train(2)
        finally:
            sys.setswitchinterval(interval)
        assert two_hist == one_hist
        assert net_bytes(two) == net_bytes(one)

    def test_committed_corpus_bits_do_not_depend_on_the_cpu_count(self, monkeypatch):
        corpus, n = io.read_corpus(COMMITTED_CORPUS)
        splits = classifier.split_corpus(corpus, 7)
        config = classifier.MLPConfig(input_dim=2 ** (2 * n + 1), seed=0)
        (one, one_hist), (two, two_hist) = (
            self.train(monkeypatch, cpus, classifier.initialize_mlp(config), splits,
                       max_epochs=2, batch_size=50, shuffle_seed=10_000)
            for cpus in (1, 2))
        assert len(one_hist) == 2
        assert two_hist == one_hist
        assert net_bytes(two) == net_bytes(one)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_a_helper_runs_half_of_each_layer_from_two_cpus(self, monkeypatch, cpus):
        callers = set()
        relu_layer = classifier._relu_layer

        def spy(*args):
            callers.add(threading.get_ident())
            relu_layer(*args)

        monkeypatch.setattr(classifier, "_relu_layer", spy)
        config = classifier.MLPConfig(input_dim=32, seed=4)
        self.train(monkeypatch, cpus, classifier.initialize_mlp(config), haar_splits(),
                   max_epochs=1, shuffle_seed=8)
        assert len(callers) == min(cpus, 2)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_divergence_is_reported_without_warnings(self, monkeypatch, cpus):
        # a huge step overflows the products to inf and nan; both threads run
        # under the call's error state, which ignores that, and the history
        # check raises
        config = classifier.MLPConfig(input_dim=32, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(training.DivergenceError, match="diverged at epoch 0"):
                self.train(monkeypatch, cpus, classifier.initialize_mlp(config),
                           haar_splits(), training.AdamConfig(alpha=1e300), max_epochs=5,
                           shuffle_seed=8)


def allocating_train_classifier(net, splits, adam_cfg, max_epochs, batch_size, patience,
                                shuffle_seed):
    """Mini-batch ADAM that rebuilds the (w, m, v, t) state per tensor and
    batch and rebinds the net's tensors to it, with single-call forward and
    backward passes: the oracle for train_classifier."""
    x_tr, y_tr = classifier._featurize(splits.train)
    x_va, y_va = classifier._featurize(splits.validation)
    rng = np.random.default_rng(shuffle_seed)
    states = [(t.ravel().copy(), np.zeros(t.size), np.zeros(t.size), 0)
              for t in net.weights + net.biases]
    best, best_val, stale, history = None, np.inf, 0, []
    for epoch in range(max_epochs):
        order = rng.permutation(len(x_tr))
        for start in range(0, len(x_tr), batch_size):
            sel = order[start:start + batch_size]
            g_w, g_b = allocating_backprop(net, x_tr[sel], y_tr[sel])
            states = [allocating_adam_step(s, g.ravel(), adam_cfg)
                      for s, g in zip(states, g_w + g_b)]
            layers = len(net.weights)
            net.weights = [s[0].reshape(w.shape) for s, w in zip(states, net.weights)]
            net.biases = [s[0].reshape(b.shape) for s, b in zip(states[layers:], net.biases)]
        p_tr = allocating_forward(net, x_tr)[-1][:, 0]
        p_va = allocating_forward(net, x_va)[-1][:, 0]
        history.append({
            "epoch": epoch,
            "train_loss": classifier.bce_loss(p_tr, y_tr),
            "train_accuracy": float(np.mean((p_tr > 0.5) == (y_tr == 1.0))),
            "val_loss": classifier.bce_loss(p_va, y_va),
            "val_accuracy": float(np.mean((p_va > 0.5) == (y_va == 1.0))),
        })
        if history[-1]["val_loss"] < best_val - 1e-12:
            best_val, stale = history[-1]["val_loss"], 0
            best = ([w.copy() for w in net.weights], [b.copy() for b in net.biases])
        else:
            stale += 1
            if stale >= patience:
                break
    net.weights, net.biases = best
    return net, history


class TestTrainClassifierMatchesAllocatingLoop:
    @pytest.mark.parametrize("patience", [2, 100])
    def test_bit_for_bit(self, patience):
        # the run wanders and may stop early, which the oracle must follow
        splits = haar_splits()
        cfg = training.AdamConfig(alpha=0.003)
        config = classifier.MLPConfig(input_dim=32, seed=4)
        net, history = classifier.train_classifier(
            classifier.initialize_mlp(config), splits, cfg, max_epochs=12, batch_size=4,
            patience=patience, shuffle_seed=8)
        want_net, want_history = allocating_train_classifier(
            classifier.initialize_mlp(config), splits, cfg, max_epochs=12, batch_size=4,
            patience=patience, shuffle_seed=8)
        assert history == want_history
        for got, want in zip(net.weights + net.biases, want_net.weights + want_net.biases):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestEvaluate:
    def test_score_exactly_half_counts_as_random(self):
        net = classifier.MLP(weights=[np.zeros((2, 1))], biases=[np.zeros(1)])
        mat = np.eye(1, dtype=complex)
        accuracy_zero, _ = classifier.evaluate(net, [(mat, 0)])
        accuracy_one, _ = classifier.evaluate(net, [(mat, 1)])
        assert accuracy_zero == 1.0
        assert accuracy_one == 0.0

    def test_rejects_empty(self):
        net = classifier.MLP(weights=[np.zeros((2, 1))], biases=[np.zeros(1)])
        with pytest.raises(ValueError):
            classifier.evaluate(net, [])


class TestBuildCorpus:
    @pytest.mark.parametrize("field", ["dataset_size", "epochs"])
    def test_config_rejects_counts_below_one_before_any_worker(self, field):
        before = set(multiprocessing.active_children())
        with pytest.raises(ValueError, match=f"^{field} must be >= 1, got 0"):
            classifier.build_corpus(2, 2, classifier.CorpusConfig(**{field: 0}), seed=0)
        assert set(multiprocessing.active_children()) == before

    def test_small_corpus_composition(self):
        cfg = classifier.CorpusConfig(dataset_size=3, epochs=1500)
        corpus = classifier.build_corpus(2, 2, cfg, seed=0)
        labels = [label for _, label in corpus.entries]
        assert labels.count(1) == 2
        assert labels.count(0) == 2
        assert len(corpus.provenance) == 4

    def test_learned_entries_pass_the_gate(self):
        cfg = classifier.CorpusConfig(dataset_size=3, epochs=1500)
        corpus = classifier.build_corpus(2, 2, cfg, seed=0)
        for (m3, label), prov in zip(corpus.entries, corpus.provenance):
            if label != 1:
                continue
            assert prov["source"] == "training"
            assert prov["final_loss"] <= classifier.CORPUS_LOSS_THRESHOLD
            assert prov["unitarity_defect"] <= classifier.CORPUS_DEFECT_THRESHOLD
            assert prov["max_check_loss"] <= classifier.CORPUS_LOSS_THRESHOLD
            assert linalg.unitarity_defect(m3) <= classifier.CORPUS_DEFECT_THRESHOLD

    def test_check_loss_is_the_worst_loss_over_the_periods(self):
        cfg = classifier.CorpusConfig(dataset_size=3, epochs=1500)
        corpus = classifier.build_corpus(2, 2, cfg, seed=0)
        for (m3, label), prov in zip(corpus.entries, corpus.provenance):
            if label != 1:
                continue
            assert set(prov) == {"source", "base_seed", "attempt", "periods", "final_loss",
                                 "unitarity_defect", "max_check_loss", "epochs_run",
                                 "loss_history"}
            # any function of a period has that period's loss: other tables here
            functions = [circuit.generate_periodic_function(2, 2, r, 99)
                         for r in prov["periods"]]
            assert prov["max_check_loss"] == max(
                training.loss(m3, f, training.target_distribution("qft-reference", f),
                              classifier.CORPUS_LOSS_CFG.k)
                for f in functions)

    def test_haar_entries_are_exactly_unitary(self):
        cfg = classifier.CorpusConfig(dataset_size=3, epochs=1500)
        corpus = classifier.build_corpus(2, 2, cfg, seed=0)
        for (m3, label), prov in zip(corpus.entries, corpus.provenance):
            if label != 0:
                continue
            assert prov["source"] == "haar"
            assert linalg.unitarity_defect(m3) < 1e-24

    def test_deterministic(self):
        cfg = classifier.CorpusConfig(dataset_size=3, epochs=1500)
        a = classifier.build_corpus(2, 2, cfg, seed=1)
        b = classifier.build_corpus(2, 2, cfg, seed=1)
        assert all(np.array_equal(x, y)
                   for (x, _), (y, _) in zip(a.entries, b.entries))

    def test_rejects_bad_per_class(self):
        with pytest.raises(ValueError):
            classifier.build_corpus(2, 0)

    def test_divergence_is_one_rejected_attempt(self, monkeypatch):
        monkeypatch.setattr(classifier, "train", fake_train(()))
        clean = classifier.build_corpus(3, 2, seed=5)
        monkeypatch.setattr(classifier, "train", fake_train({0}))
        patched = classifier.build_corpus(3, 2, seed=5)
        learned = [prov for prov in patched.provenance if prov["source"] == "training"]
        assert [prov["attempt"] for prov in learned] == [1, 2]
        # attempts that do not diverge keep their seeds and their acceptance
        assert learned[0] == clean.provenance[1]
        haar = [m for m, label in patched.entries if label == 0]
        assert all(np.array_equal(a, b) for a, b in
                   zip(haar, [m for m, label in clean.entries if label == 0]))

    def test_exhausted_attempts_keep_the_rejected_provenance(self, monkeypatch):
        monkeypatch.setattr(classifier, "train", fake_train(range(100)))
        monkeypatch.setattr(classifier, "CORPUS_MAX_ATTEMPTS_FACTOR", 3)
        with pytest.raises(classifier.CorpusExhaustedError) as info:
            classifier.build_corpus(3, 2, seed=5)
        rejected = info.value.rejected
        assert [prov["attempt"] for prov in rejected] == list(range(6))
        assert all("diverged" in prov for prov in rejected)
        assert "6 rejected, 6 of them diverged" in str(info.value)

    def test_workers_are_the_cpus_at_most_per_class(self):
        cpus = len(os.sched_getaffinity(0))
        assert classifier._corpus_workers(1) == 1
        assert classifier._corpus_workers(10 ** 6) == cpus
        assert classifier._corpus_workers(cpus + 1) == cpus

    @pytest.mark.parametrize("cpus", [1, 2, 3, 64])
    def test_workers_are_the_cpus_that_training_threads_read(self, monkeypatch, cpus):
        # train_classifier's side: test_a_helper_runs_half_of_each_layer_from_two_cpus
        monkeypatch.setattr(classifier, "_cpus", lambda: cpus)
        assert classifier._corpus_workers(10 ** 6) == cpus


class TestBuildCorpusOnWorkers:
    """build_corpus on 2 worker processes against 1, which runs the attempts
    one after another in the test's process: same bytes, same attempts."""

    def test_trained_corpus_is_the_serial_one_bit_for_bit(self, monkeypatch):
        cfg = classifier.CorpusConfig(dataset_size=3, epochs=1500)
        pooled, serial = (build_on_workers(monkeypatch, workers, 2, 3, cfg, seed=0)
                          for workers in (2, 1))
        assert corpus_bytes(pooled) == corpus_bytes(serial)

    @pytest.mark.parametrize("diverging, attempts", [({0}, [0, 1, 2, 3]),
                                                     ({0, 2, 3}, [0, 1, 2, 3, 4, 5])])
    def test_rejections_run_the_serial_attempts(self, monkeypatch, tmp_path, diverging,
                                                attempts):
        results = {}
        for workers in (2, 1):
            log = tmp_path / f"attempts-{workers}"
            monkeypatch.setattr(classifier, "train", logging_train(fake_train(diverging), log))
            results[workers] = build_on_workers(monkeypatch, workers, 3, 3, seed=5)
            assert attempts_run(log) == attempts
        assert corpus_bytes(results[2]) == corpus_bytes(results[1])
        learned = [p["attempt"] for p in results[2].provenance if p["source"] == "training"]
        assert learned == [a for a in attempts if a not in diverging]

    def test_exhausted_build_raises_the_serial_error(self, monkeypatch, tmp_path):
        monkeypatch.setattr(classifier, "CORPUS_MAX_ATTEMPTS_FACTOR", 3)
        errors = {}
        for workers in (2, 1):
            log = tmp_path / f"attempts-{workers}"
            monkeypatch.setattr(classifier, "train", logging_train(fake_train(range(100)), log))
            errors[workers] = build_on_workers(monkeypatch, workers, 3, 2, seed=5)
            assert isinstance(errors[workers], classifier.CorpusExhaustedError)
            assert attempts_run(log) == list(range(6))
        assert str(errors[2]) == str(errors[1])
        assert errors[2].rejected == errors[1].rejected

    def test_an_error_inside_an_attempt_reaches_the_caller(self, monkeypatch):
        clean = fake_train(())

        def train(dataset, *args, seed, **kwargs):
            if seed[2] == 1:
                raise ValueError("attempt 1 went wrong")
            return clean(dataset, *args, seed=seed, **kwargs)

        monkeypatch.setattr(classifier, "train", train)
        pooled, serial = (build_on_workers(monkeypatch, workers, 3, 2, seed=5)
                          for workers in (2, 1))
        assert type(pooled) is type(serial) is ValueError
        assert str(pooled) == str(serial) == "attempt 1 went wrong"

    def test_a_dead_worker_ends_the_build(self, monkeypatch):
        # the pool replaces a worker that dies, and the attempt it ran never
        # returns; the build reports the death instead of waiting for good
        clean = fake_train(())

        def train(dataset, *args, seed, **kwargs):
            if seed[2] == 1:
                os._exit(1)
            return clean(dataset, *args, seed=seed, **kwargs)

        monkeypatch.setattr(classifier, "train", train)
        start = time.monotonic()
        error = build_on_workers(monkeypatch, 2, 2, 2, seed=5)
        assert time.monotonic() - start < 30
        assert isinstance(error, classifier.CorpusWorkerError)
        assert str(error) == ("a corpus worker died with exit code 1 "
                              "while attempt 1 was pending")

    def test_an_interrupt_stops_the_workers(self, monkeypatch):
        def train(*args, **kwargs):
            time.sleep(60)

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        monkeypatch.setattr(classifier, "train", train)
        monkeypatch.setattr(classifier, "_corpus_workers", lambda per_class: 2)
        previous = signal.signal(signal.SIGALRM, interrupt)
        start = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            with pytest.raises(KeyboardInterrupt):
                classifier.build_corpus(2, 2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []
        assert time.monotonic() - start < 30

