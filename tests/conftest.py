"""Session fixtures shared across the suite.

Training is the expensive part, so converged runs and the labeled corpus
are built once per session; every consumer treats them as read-only.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import qperiod
from qperiod import classifier, training

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


def cli_env(extra=None):
    """Environment for a `python -m qperiod` child process.

    The directory holding the imported qperiod package goes first on the
    child's PYTHONPATH, ahead of whatever was set already, so the child runs
    the package under test whatever its cwd and whether or not (or which
    copy of) qperiod is installed.
    """
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(qperiod.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (package_root, env.get("PYTHONPATH"))))
    if extra:
        env.update(extra)
    return env


def allocating_adam_step(state, grad, cfg):
    """The ADAM update as a plain allocating formula, in training.Adam's
    documented operation order: the oracle for the in-place kernel. `state`
    is a (w, m, v, t) tuple, left unchanged; the next one is returned."""
    w, m, v, t = state
    t += 1
    m = cfg.beta1 * m + (1 - cfg.beta1) * grad
    v = cfg.beta2 * v + (1 - cfg.beta2) * (grad * grad)
    mhat = m / (1 - cfg.beta1 ** t)
    vhat = v / (1 - cfg.beta2 ** t)
    w = w - cfg.alpha * mhat / (np.sqrt(vhat) + cfg.epsilon)
    return w, m, v, t


def allocating_forward(net, xb):
    """Activations per layer, each layer one numpy product on the whole
    batch: the oracle for classifier._forward_batch."""
    acts = [xb]
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[-1] @ w + b
        acts.append(np.maximum(z, 0.0) if i < last else 1.0 / (1.0 + np.exp(-z)))
    return acts


def allocating_backprop(net, xb, yb):
    """Mean-reduced BCE gradients (weights, biases), each product one numpy
    call on the whole batch: the oracle for classifier._backprop_batch."""
    acts = allocating_forward(net, xb)
    p = np.clip(acts[-1][:, 0], classifier.BCE_CLAMP, 1.0 - classifier.BCE_CLAMP)
    delta = ((p - yb) / xb.shape[0])[:, None]
    g_w, g_b = [None] * len(net.weights), [None] * len(net.biases)
    for i in range(len(net.weights) - 1, -1, -1):
        g_w[i] = acts[i].T @ delta
        g_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ net.weights[i].T) * (acts[i] > 0)
    return g_w, g_b


def pooled_eigenphase_counts(matrices):
    """20-bin counts over [-pi, pi] of every eigenphase of the matrices, from
    numpy alone: the oracle for analysis.eigenphase_histogram. np.angle maps
    -1 - 0j to -pi; the fold puts it in the last bin with +pi."""
    phases = np.angle(np.concatenate([np.linalg.eigvals(m) for m in matrices]))
    phases[phases == -np.pi] = np.pi
    return np.histogram(phases, bins=20, range=(-np.pi, np.pi))


# 0-4 form the convergence pool; 8 pairs with 3 for the non-uniqueness
# comparison (both land well inside the echo gates)
N3_SEEDS = (0, 1, 2, 3, 4, 8)
N3_EPOCHS = 5000


@pytest.fixture(scope="session")
def n3_dataset():
    return training.build_training_dataset(3, 3, 6, 0, training.LossConfig())


@pytest.fixture(scope="session")
def n3_runs(n3_dataset):
    """seed -> (m3, history) for the shared n=3 training configuration."""
    loss_cfg = training.LossConfig()
    adam_cfg = training.AdamConfig()
    return {
        seed: training.train(n3_dataset, loss_cfg, adam_cfg, N3_EPOCHS, seed=seed)
        for seed in N3_SEEDS
    }


@pytest.fixture(scope="session")
def corpus_n4():
    """Full-protocol labeled corpus at n=4; the slow fixture (minutes)."""
    return classifier.build_corpus(4, 200, classifier.CorpusConfig(), seed=0)


@pytest.fixture(scope="session")
def classifier_run(corpus_n4):
    """Classifier trained on the canonical n=4 split: (net, history, splits)."""
    splits = classifier.split_corpus(corpus_n4, 7)
    config = classifier.MLPConfig(input_dim=2 ** 9, seed=0)
    net = classifier.initialize_mlp(config)
    net, history = classifier.train_classifier(
        net, splits, max_epochs=600, shuffle_seed=10_000
    )
    return net, history, splits
