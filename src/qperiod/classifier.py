"""From-scratch MLP separating learned post-processing unitaries from Haar ones.

Architecture follows the shape rule: hidden layers (2 * input_dim, 512)
with ReLU, a single sigmoid output, binary cross-entropy loss, mini-batch
ADAM, and validation-based early stopping with a best-snapshot return.
"""

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .linalg import haar_random_unitary, unitarity_defect
from .training import (
    Adam,
    AdamConfig,
    DivergenceError,
    LossConfig,
    dataset_for_periods,
    loss as sample_loss,
    matrix_to_params,
    train,
)

__all__ = [
    "MLPConfig",
    "MLP",
    "LabeledUnitaryCorpus",
    "CorpusSplits",
    "CorpusConfig",
    "CorpusExhaustedError",
    "CorpusWorkerError",
    "unitary_features",
    "initialize_mlp",
    "forward",
    "bce_loss",
    "backprop_gradient",
    "build_corpus",
    "split_corpus",
    "train_classifier",
    "evaluate",
]

BCE_CLAMP = 1e-12

# the learned half of a corpus: an attempt stops early once its epoch loss
# reaches CORPUS_STOP_BELOW, and is accepted when its final epoch loss, its
# worst loss over its dataset and its unitarity defect are all at most
# CORPUS_LOSS_THRESHOLD / CORPUS_DEFECT_THRESHOLD; a build gives up after
# CORPUS_MAX_ATTEMPTS_FACTOR * per_class attempts
CORPUS_STOP_BELOW = 1e-8
CORPUS_LOSS_THRESHOLD = 1e-6
CORPUS_DEFECT_THRESHOLD = 1e-6
CORPUS_MAX_ATTEMPTS_FACTOR = 5
CORPUS_LOSS_CFG = LossConfig()
CORPUS_ADAM_CFG = AdamConfig()
# seconds between checks for a dead corpus worker while an attempt is pending
_WORKER_POLL_S = 1.0


@dataclass(frozen=True)
class MLPConfig:
    input_dim: int
    hidden_dims: tuple = None
    seed: int = 0

    def layer_dims(self) -> tuple:
        """Input, hidden and output widths; without hidden_dims, the shape
        rule: first hidden twice the input width, second hidden 2^9."""
        hidden = self.hidden_dims
        if hidden is None:
            hidden = (2 * self.input_dim, 512)
        return (self.input_dim, *hidden, 1)


@dataclass
class MLP:
    """Weight matrices (fan_in x fan_out) and bias vectors, one pair per layer."""

    weights: list
    biases: list

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]


@dataclass(frozen=True)
class LabeledUnitaryCorpus:
    """(matrix, label) pairs: label 1 = learned, 0 = random.

    provenance[i] records how entries[i] was produced (seeds, periods,
    final loss for learned runs; the generator seed for Haar draws).
    """

    entries: list
    provenance: list

    def __post_init__(self):
        for index, (_, label) in enumerate(self.entries):
            if label not in (0, 1):
                raise ValueError(f"entry {index} has label {label!r}, not 0 or 1")
        ones = sum(label for _, label in self.entries)
        zeros = len(self.entries) - ones
        if abs(ones - zeros) > 1:
            raise ValueError(f"class imbalance: {ones} learned vs {zeros} random")
        if len(self.provenance) != len(self.entries):
            raise ValueError("provenance must align with entries")

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class CorpusSplits:
    train: list
    validation: list
    test: list


@dataclass(frozen=True)
class CorpusConfig:
    """Protocol for the learned half of a corpus."""

    dataset_size: int = 8
    epochs: int = 4000

    def __post_init__(self):
        # here, before build_corpus starts a worker that would fail on them
        for name, x in (("dataset_size", self.dataset_size), ("epochs", self.epochs)):
            if x < 1:
                raise ValueError(f"{name} must be >= 1, got {x!r}")


class CorpusExhaustedError(RuntimeError):
    """build_corpus ran out of attempts; `rejected` holds each rejected
    attempt's provenance, in attempt order."""

    def __init__(self, message, rejected):
        super().__init__(message)
        self.rejected = rejected


class CorpusWorkerError(RuntimeError):
    """A worker process of build_corpus died: the attempt it ran never returns."""


def unitary_features(u) -> np.ndarray:
    """Classifier input features: the row-major interleaved (re, im) entries
    (training.matrix_to_params) scaled by the dimension.

    Raw unitary entries shrink like 2^{-n/2}; scaling by dim keeps the
    feature magnitudes (and hence gradient scales under the fixed init)
    in a regime where training behaves uniformly across n.
    """
    shape = np.shape(u)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"expected a square matrix, got shape {shape}")
    return matrix_to_params(u) * shape[0]


def initialize_mlp(config: MLPConfig) -> MLP:
    """Uniform(-sqrt(6/(fan_in+fan_out)), +...) weights, zero biases."""
    dims = config.layer_dims()
    rng = np.random.default_rng(config.seed)
    weights, biases = [], []
    for din, dout in zip(dims[:-1], dims[1:]):
        lim = np.sqrt(6.0 / (din + dout))
        weights.append(rng.uniform(-lim, lim, (din, dout)))
        biases.append(np.zeros(dout))
    return MLP(weights=weights, biases=biases)


def _halves(size: int) -> tuple:
    """The fixed halves an axis of `size` rows is cut into: two when each
    has at least 2 rows (a product on a 1-row slice takes numpy's
    matrix-vector path, whose bits differ), else the whole axis."""
    if size < 4:
        return (slice(0, size),)
    return slice(0, size // 2), slice(size // 2, size)


def _in_turn(calls) -> None:
    """Run the calls in this thread, in list order."""
    for call in calls:
        call()


@contextmanager
def _half_runner():
    """A runner for the flat call list of each step: it runs calls[1::2] on
    a helper thread, under this thread's numpy error state (a new thread
    starts with numpy's default one), while this thread runs calls[0::2].
    The helper is joined when the block ends, however it ends."""
    with ThreadPoolExecutor(1, initializer=partial(np.seterr, **np.geterr())) as helper:
        def run(calls):
            pending = helper.submit(_in_turn, calls[1::2])
            try:
                _in_turn(calls[0::2])
            finally:
                pending.result()
        yield run


def _relu_layer(h, w, b, out) -> None:
    np.matmul(h, w, out=out)
    np.add(out, b, out=out)
    np.maximum(out, 0.0, out=out)


def _forward_batch(net: MLP, xb: np.ndarray, run=_in_turn) -> list:
    """Activations per layer; ReLU on hidden layers, sigmoid on the last.

    `run` computes each hidden layer on the fixed row halves of its input
    (_halves), writing one output array; the width-1 output layer is one
    call. The halves are the same whoever runs them, so are the bits.
    """
    acts = [xb]
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        h = acts[-1]
        out = np.empty((h.shape[0], w.shape[1]))
        run([partial(_relu_layer, h[rows], w, b, out[rows])
             for rows in _halves(h.shape[0])])
        acts.append(out)
    acts.append(1.0 / (1.0 + np.exp(-(acts[-1] @ net.weights[-1] + net.biases[-1]))))
    return acts


def forward(net: MLP, x) -> float:
    """Probability that x is a learned unitary's feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.input_dim,):
        raise ValueError(f"input shape {x.shape} does not match net input {net.input_dim}")
    return float(_forward_batch(net, x[None, :])[-1][0, 0])


def bce_loss(prediction, label) -> float:
    """Binary cross-entropy with predictions clamped away from {0, 1}: the
    mean over the entries when prediction and label are arrays."""
    p = np.clip(prediction, BCE_CLAMP, 1.0 - BCE_CLAMP)
    y = np.asarray(label, dtype=np.float64)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


def _masked_product(delta, w, act, out) -> None:
    np.matmul(delta, w.T, out=out)
    np.multiply(out, act > 0, out=out)


def _backprop_batch(net: MLP, xb: np.ndarray, yb: np.ndarray, out, run=_in_turn):
    """Mean-reduced BCE gradients for every weight and bias tensor.

    The sigmoid+BCE pair collapses to the residual clip(p) - y at the output,
    p clamped to [BCE_CLAMP, 1 - BCE_CLAMP] as for the loss: within 1e-12 of p - y.
    `out`, a (weights, biases) pair of tensor lists shaped like the net's,
    receives the gradients in place. Below the width-1 output layer, `run`
    computes each weight gradient on fixed halves of its fan-in rows (the
    batch sum is never cut) and each back-propagated delta on fixed halves
    of the batch rows, as _forward_batch does its layers; the helper's
    share, calls[1::2], is then the second half of each.
    """
    acts = _forward_batch(net, xb, run)
    batch = xb.shape[0]
    p = np.clip(acts[-1][:, 0], BCE_CLAMP, 1.0 - BCE_CLAMP)
    delta = ((p - yb) / batch)[:, None]
    g_w, g_b = out
    last = len(net.weights) - 1
    np.matmul(acts[last].T, delta, out=g_w[last])
    np.add.reduce(delta, axis=0, out=g_b[last])
    if last > 0:
        delta = (delta @ net.weights[last].T) * (acts[last] > 0)
    for i in range(last - 1, -1, -1):
        w = net.weights[i]
        calls = [partial(np.matmul, acts[i][:, rows].T, delta, out=g_w[i][rows])
                 for rows in _halves(w.shape[0])]
        if i > 0:
            below = np.empty((batch, w.shape[0]))
            calls += [partial(_masked_product, delta[rows], w, acts[i][rows], below[rows])
                      for rows in _halves(batch)]
        run(calls)
        np.add.reduce(delta, axis=0, out=g_b[i])
        if i > 0:
            delta = below
    return g_w, g_b


def backprop_gradient(net: MLP, x, label):
    """Gradients of bce_loss(forward(net, x), label) for a single example."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray([float(label)])
    out = [np.empty_like(w) for w in net.weights], [np.empty_like(b) for b in net.biases]
    return _backprop_batch(net, x[None, :], y, out)


def _corpus_training_run(n: int, cfg: CorpusConfig, base_seed, attempt: int):
    """One candidate learned matrix: (matrix, provenance), or (None, provenance)
    for a rejected attempt; a diverged run is rejected with a "diverged" entry.
    max_check_loss is the returned matrix's worst loss over the run's dataset."""
    period_rng = np.random.default_rng((base_seed, 0, attempt))
    periods = [int(r) for r in period_rng.integers(1, 2 ** (n - 1) + 1, size=cfg.dataset_size)]
    dataset = dataset_for_periods(n, n, periods, (base_seed, 1, attempt), CORPUS_LOSS_CFG)
    provenance = {
        "source": "training",
        "base_seed": base_seed,
        "attempt": attempt,
        "periods": periods,
    }
    try:
        m3, history = train(dataset, CORPUS_LOSS_CFG, CORPUS_ADAM_CFG, cfg.epochs,
                            seed=(base_seed, 2, attempt), stop_below=CORPUS_STOP_BELOW)
    except DivergenceError as exc:
        provenance["diverged"] = str(exc)
        return None, provenance
    defect = unitarity_defect(m3)
    check_loss = max(sample_loss(m3, f, p_d, CORPUS_LOSS_CFG.k)
                     for f, p_d in zip(dataset.functions, dataset.targets))
    accepted = (history[-1] <= CORPUS_LOSS_THRESHOLD
                and defect <= CORPUS_DEFECT_THRESHOLD
                and check_loss <= CORPUS_LOSS_THRESHOLD)
    provenance.update({
        "final_loss": history[-1],
        "unitarity_defect": defect,
        "max_check_loss": check_loss,
        "epochs_run": len(history),
        "loss_history": history,
    })
    return (m3, provenance) if accepted else (None, provenance)


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _corpus_workers(per_class: int) -> int:
    """Processes that build_corpus trains its attempts on: one per CPU this
    process may run on, at most per_class; 1, which runs them in this
    process, where there is no fork."""
    if not hasattr(os, "fork"):
        return 1
    return min(_cpus(), per_class)


def build_corpus(n: int, per_class: int, cfg: CorpusConfig = CorpusConfig(),
                 seed=0) -> LabeledUnitaryCorpus:
    """per_class learned matrices (independent seeded runs) + per_class Haar.

    Runs failing the convergence gate, or diverging, are rejected and
    retried with the next attempt seed, up to CORPUS_MAX_ATTEMPTS_FACTOR *
    per_class attempts; past that, CorpusExhaustedError.

    The attempts train side by side on _corpus_workers(per_class) forked
    processes (in this process when that is 1). Attempts 0 .. per_class - 1
    start at once, their results are taken strictly in attempt order, and
    each rejected one starts the next attempt. So an attempt runs only while
    fewer than per_class of the ones before it can still be accepted: the
    attempts run are those of a loop that runs one after another, and the
    corpus, its provenance and any error do not depend on the worker count.
    Workers are stopped when the build ends, however it ends. A worker
    that dies (a kill, a crash, os._exit) ends the build with
    CorpusWorkerError within about _WORKER_POLL_S seconds: the pool would
    start a new worker in its place, but the dead one's attempt never returns.
    """
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    entries, provenance, rejected = [], [], []
    limit = CORPUS_MAX_ATTEMPTS_FACTOR * per_class
    workers = _corpus_workers(per_class)
    if workers > 1:
        import multiprocessing  # here, so that the other commands do not load it
        before = set(multiprocessing.active_children())
        pool = multiprocessing.get_context("fork").Pool(workers)
        # the pool's own workers; any replacement starts only after one dies
        procs = [p for p in multiprocessing.active_children() if p not in before]
    else:
        pool = nullcontext()

    def wait(result, attempt):
        while True:
            try:
                return result.get(timeout=_WORKER_POLL_S)
            except multiprocessing.TimeoutError:
                for proc in procs:
                    if proc.exitcode is not None:
                        raise CorpusWorkerError(
                            f"a corpus worker died with exit code {proc.exitcode} "
                            f"while attempt {attempt} was pending") from None

    def start(attempt):
        """A callable returning the attempt's result; a worker starts on it now."""
        if workers == 1:
            return partial(_corpus_training_run, n, cfg, seed, attempt)
        return partial(wait, pool.apply_async(_corpus_training_run, (n, cfg, seed, attempt)),
                       attempt)

    with pool:
        pending = deque(map(start, range(per_class)))
        next_attempt = per_class
        while pending:
            m3, prov = pending.popleft()()  # the oldest pending attempt's result
            if m3 is None:
                rejected.append(prov)
                if next_attempt < limit:
                    pending.append(start(next_attempt))
                    next_attempt += 1
            else:
                entries.append((m3, 1))
                provenance.append(prov)
    if len(entries) < per_class:
        diverged = sum(1 for prov in rejected if "diverged" in prov)
        raise CorpusExhaustedError(
            f"corpus generation exhausted {limit} attempts for {per_class} accepted runs "
            f"({len(entries)} accepted; {len(rejected)} rejected, {diverged} of them diverged)",
            rejected)
    for j in range(per_class):
        u = haar_random_unitary(n, (seed, 3, j))
        entries.append((u, 0))
        provenance.append({"source": "haar", "base_seed": seed, "index": j})
    return LabeledUnitaryCorpus(entries=entries, provenance=provenance)


def split_corpus(corpus: LabeledUnitaryCorpus, seed) -> CorpusSplits:
    """Stratified 75/25 train-pool/test split, then 10% of the pool as validation.

    Fractional seats round toward validation, then test. Each split's seats
    go to the classes by largest remainder: for the two classes of a
    LabeledUnitaryCorpus (labels 0 and 1, counts within one of each other),
    the learned class gets its share rounded half up, the Haar class the
    rest. Deterministic: one permutation per class (label 1 first) and one
    shuffle of the combined training order, all from the same generator.
    """
    if len(corpus) < 10:
        raise ValueError("corpus too small to split (need >= 10 entries)")
    total = len(corpus)
    n_test = math.ceil(total / 4)
    n_val = math.ceil((total - n_test) / 10)
    learned = [i for i, (_, label) in enumerate(corpus.entries) if label == 1]
    haar = [i for i, (_, label) in enumerate(corpus.entries) if label == 0]
    learned_test = (2 * n_test * len(learned) + total) // (2 * total)
    learned_val = (2 * n_val * len(learned) + total) // (2 * total)
    rng = np.random.default_rng(seed)
    train_idx, val_idx, test_idx = [], [], []
    for ix, n_te, n_va in ((learned, learned_test, learned_val),
                           (haar, n_test - learned_test, n_val - learned_val)):
        perm = np.asarray(ix)[rng.permutation(len(ix))]
        val_idx.extend(perm[:n_va])
        train_idx.extend(perm[n_va:len(ix) - n_te])
        test_idx.extend(perm[len(ix) - n_te:])
    train_idx = np.asarray(train_idx)
    rng.shuffle(train_idx)

    def pick(idx):
        return [corpus.entries[i] for i in idx]

    return CorpusSplits(train=pick(train_idx), validation=pick(val_idx), test=pick(test_idx))


def _featurize(entries) -> tuple:
    x = np.array([unitary_features(m) for m, _ in entries])
    y = np.array([float(label) for _, label in entries])
    return x, y


# a diverging run overflows to inf and nan; the history check reports it
@np.errstate(over="ignore", invalid="ignore")
def train_classifier(net: MLP, splits: CorpusSplits, adam_cfg: AdamConfig = AdamConfig(),
                     max_epochs: int = 400, batch_size: int = 32, patience: int = 5, *,
                     shuffle_seed):
    """Mini-batch ADAM with early stopping on validation loss.

    Returns (best_net, history) where history rows are dicts with per-epoch
    train/validation loss and accuracy. The returned parameters are the
    snapshot from the epoch with the lowest validation loss, never a later
    one. `shuffle_seed` seeds the per-epoch minibatch permutation.

    The forward and backward products and the ADAM step run as fixed
    halves, the second on a helper thread that lives only inside the call.
    The halves do not depend on the CPU count, so neither do the results.
    """
    for name, value in (("max_epochs", max_epochs), ("batch_size", batch_size),
                        ("patience", patience)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    x_tr, y_tr = _featurize(splits.train)
    x_va, y_va = _featurize(splits.validation)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    # every tensor is a view of one flat vector, weights then biases; two
    # ADAMs step its halves (element-wise, so the bits are those of one per
    # tensor), and the gradient and the best snapshot have flat vectors of
    # their own. The caller's tensors are only read, and are let go before
    # the optimizer's vectors are made, an order that lowers peak resident
    # memory.
    layers = len(net.weights)
    shapes = [t.shape for t in net.weights + net.biases]
    cuts = np.cumsum([t.size for t in net.weights + net.biases])[:-1]
    params = np.concatenate([np.ravel(t) for t in net.weights + net.biases],
                            dtype=np.float64)

    def layer_views(flat):
        views = [part.reshape(shape) for part, shape in zip(np.split(flat, cuts), shapes)]
        return views[:layers], views[layers:]

    net.weights[:], net.biases[:] = layer_views(params)
    grad = np.empty_like(params)
    best = np.empty_like(params)
    grad_views = layer_views(grad)
    steps = [Adam(params[rows], grad[rows], adam_cfg).step for rows in _halves(params.size)]
    best_val = np.inf
    stale = 0
    history = []
    with _half_runner() as run:
        for epoch in range(max_epochs):
            order = shuffle_rng.permutation(len(x_tr))
            for start in range(0, len(x_tr), batch_size):
                sel = order[start:start + batch_size]
                _backprop_batch(net, x_tr[sel], y_tr[sel], out=grad_views, run=run)
                run(steps)
            p_tr = _forward_batch(net, x_tr, run)[-1][:, 0]
            p_va = _forward_batch(net, x_va, run)[-1][:, 0]
            row = {
                "epoch": epoch,
                "train_loss": bce_loss(p_tr, y_tr),
                "train_accuracy": float(np.mean((p_tr > 0.5) == (y_tr == 1.0))),
                "val_loss": bce_loss(p_va, y_va),
                "val_accuracy": float(np.mean((p_va > 0.5) == (y_va == 1.0))),
            }
            history.append(row)
            if not np.isfinite(row["train_loss"]):
                raise DivergenceError(f"classifier training diverged at epoch {epoch}")
            if row["val_loss"] < best_val - 1e-12:
                best_val = row["val_loss"]
                stale = 0
                np.copyto(best, params)
            else:
                stale += 1
                if stale >= patience:
                    break
    if np.isfinite(best_val):  # some epoch improved, so best holds its snapshot
        np.copyto(params, best)
    return net, history


def evaluate(net: MLP, examples) -> tuple:
    """Accuracy and raw scores; score > 0.5 predicts learned (0.5 is class 0)."""
    if not examples:
        raise ValueError("cannot evaluate on an empty example list")
    x, y = _featurize(examples)
    scores = _forward_batch(net, x)[-1][:, 0]
    accuracy = float(np.mean((scores > 0.5) == (y == 1.0)))
    return accuracy, [float(s) for s in scores]
