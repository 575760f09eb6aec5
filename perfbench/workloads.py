"""The four workloads: what each round runs, times, counts and checks.

A workload gets the run's seed, a scratch directory and the package's
modules. `setup()` is one repetition of its set-up (program calls only,
run with the package's caches cleared). `run_round(i, ledger, pause)` runs
round i: it times only the calls into the program, adds the units of work
done to the ledger, and checks every output, untimed. A round of several
operations calls `pause()` between them where the package's caches may be
cleared; the runner uses it to sample set-up time across the run.
"""

import contextlib
import csv
import io as _stdio
import json
import math
import time
import traceback
from pathlib import Path

import numpy as np

import checks

CORPUS_MANIFEST = Path(__file__).resolve().parent / "data" / "corpus_n4" / "corpus_manifest.json"


def cache_clearer(modules: dict):
    """Clears every functools cache in the package: a fresh process's state."""
    caches = [value for module in modules.values() for value in vars(module).values()
              if callable(getattr(value, "cache_clear", None))]

    def clear():
        for cache in caches:
            cache.cache_clear()
    return clear


class Ledger:
    """Operations attempted and failed, work done, busy time and check failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.units = 0
        self.busy_s = 0.0
        self.samples_ms = []  # milliseconds per unit of work, one sample per done() call
        self.errors = []  # operations that failed
        self.failures = []  # outputs that failed a check

    def done(self, units: int, elapsed: float) -> None:
        self.units += units
        self.busy_s += elapsed
        self.samples_ms.append(elapsed * 1e3 / units)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(f"operation failed: {message}")

    def check(self, failures: list) -> None:
        self.failures.extend(failures)


def _cli(modules, argv):
    """cli.main in-process: (exit code, seconds, stdout)."""
    out = _stdio.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = modules["cli"].main(argv)
    return code, time.perf_counter() - start, out.getvalue()


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


class TrainN3:
    """The README `train` command at n=3, one seed per round."""

    unit = "per-sample ADAM updates"
    QUBITS, DATASET_SIZE, EPOCHS = 3, 6, 5000

    def __init__(self, seed, workdir, modules):
        self.seed, self.workdir, self.qp = seed, workdir, modules

    def train_seed(self, i: int) -> int:
        return self.seed * 1000 + i

    def setup(self):
        training = self.qp["training"]
        self.dataset = training.build_training_dataset(
            self.QUBITS, self.QUBITS, self.DATASET_SIZE, self.train_seed(0), training.LossConfig())

    def run_round(self, i, ledger, pause):
        out = self.workdir / f"train-{i}"
        argv = ["train", "--qubits", str(self.QUBITS), "--dataset-size", str(self.DATASET_SIZE),
                "--epochs", str(self.EPOCHS), "--seed", str(self.train_seed(i)),
                "--out-dir", str(out)]
        ledger.attempted += 1
        code, elapsed, _ = _cli(self.qp, argv)
        if code != 0:
            ledger.fail(f"train seed {self.train_seed(i)} exited {code}")
            return
        with open(out / "run_manifest.json") as fh:
            manifest = json.load(fh)
        history = manifest["loss_history"]
        ledger.done(len(history) * len(manifest["dataset"]), elapsed)

        label = f"train seed {self.train_seed(i)}"
        m3 = checks.read_umat(out / "m3.umat")
        functions = [(f["n"], f["r"], f["table"]) for f in manifest["dataset"]]
        # Exit 0 bounds the last epoch's mean per-sample loss by the gate, so no
        # sample's loss in that epoch exceeded dataset size x gate; the final
        # matrix, one update later, is held to that bound for every function.
        gate = len(functions) * checks.LOSS_GATE
        ledger.check(checks.check_learned(m3, functions, label, gate))
        with open(out / "loss_history.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        if float(rows[-1][1]) != history[-1]:
            ledger.check([f"{label}: manifest last loss {history[-1]!r} != "
                          f"loss_history.csv {rows[-1][1]!r}"])
        if i == 0 and [f["table"] for f in manifest["dataset"]] != \
                [list(f.table) for f in self.dataset.functions]:
            ledger.check([f"{label}: manifest dataset differs from build_training_dataset"])


class CorpusN4:
    """build_corpus at n=4 plus a write_corpus/read_corpus round trip.

    Single builds vary from 0.5 to 7.5 s with the epochs a run needs, so a
    round is one pass over a fixed pool of builds; the seed sets their order
    and the fresh functions of the acceptance check.
    """

    unit = "accepted learned matrices"
    QUBITS, PER_CLASS = 4, 2
    POOL = (1, 2, 3)

    def __init__(self, seed, workdir, modules):
        self.seed, self.workdir, self.qp = seed, workdir, modules
        self.rng = np.random.default_rng(seed)

    def setup(self):
        circuit, training = self.qp["circuit"], self.qp["training"]
        periods = range(1, 2 ** (self.QUBITS - 1) + 1)
        self.targets = {
            r: training.target_distribution(
                "qft-reference", circuit.generate_periodic_function(
                    self.QUBITS, self.QUBITS, r, (self.seed, r)))
            for r in periods
        }

    def run_round(self, i, ledger, pause):
        classifier, io = self.qp["classifier"], self.qp["io"]
        if i == 0:
            worst = max(np.abs(p - checks.reference_distribution(self.QUBITS, r)).max()
                        for r, p in self.targets.items())
            if not worst <= 1e-12:
                ledger.check([f"reference_distribution at n=4 is {worst:.3e} from numpy.fft"])
        units, busy = 0, 0.0
        for j in range(len(self.POOL)):
            if j:
                pause()
            build_seed = self.POOL[(self.seed + j) % len(self.POOL)]
            out = self.workdir / f"corpus-{i}-{j}"
            ledger.attempted += 1
            try:
                (corpus, path, (back, back_n)), elapsed = _timed(
                    self._build_and_round_trip, classifier, io, build_seed, out)
            except Exception:  # noqa: BLE001 - one failed build must not end the run
                ledger.fail(f"corpus seed {build_seed}:\n{traceback.format_exc()}")
                continue
            learned = [(m, p) for (m, label), p in zip(corpus.entries, corpus.provenance)
                       if label == 1]
            units, busy = units + len(learned), busy + elapsed
            ledger.check(self._check(corpus, learned, back, back_n, build_seed))
        if units:
            # one sample per pass: single builds differ in cost by design
            ledger.done(units, busy)

    def _build_and_round_trip(self, classifier, io, build_seed, out):
        corpus = classifier.build_corpus(self.QUBITS, self.PER_CLASS,
                                         classifier.CorpusConfig(), seed=build_seed)
        path = io.write_corpus(out, corpus, self.QUBITS)
        return corpus, path, io.read_corpus(path)

    def _check(self, corpus, learned, back, back_n, build_seed):
        label = f"corpus seed {build_seed}"
        failures = []
        haar = [m for m, lab in corpus.entries if lab == 0]
        if len(learned) != self.PER_CLASS or len(haar) != self.PER_CLASS:
            failures.append(f"{label}: {len(learned)} learned vs {len(haar)} haar, "
                            f"want {self.PER_CLASS} each")
        for k, (m, prov) in enumerate(learned):
            fresh = [(self.QUBITS, r, checks.fresh_table(self.QUBITS, r, self.rng))
                     for r in prov["periods"]]
            failures += checks.check_learned(m, fresh, f"{label} learned {k}")
        for k, m in enumerate(haar):
            failures += checks.check_haar(m, f"{label} haar {k}")
        same = back_n == self.QUBITS and len(back.entries) == len(corpus.entries) and all(
            lab_a == lab_b and m_a.tobytes() == m_b.tobytes()
            for (m_a, lab_a), (m_b, lab_b) in zip(corpus.entries, back.entries))
        if not same:
            failures.append(f"{label}: write_corpus/read_corpus round trip is not bit-exact")
        return failures


class ClassifyN4:
    """split, train to early stopping, evaluate, QFT score and per-label
    eigenphase histograms on the committed n=4 corpus."""

    unit = "training examples (epochs x train size)"
    SHUFFLE_SEED_OFFSET = 10_000  # the CLI's offset between MLP and shuffle seeds
    MAX_EPOCHS = 400

    def __init__(self, seed, workdir, modules):
        self.seed, self.workdir, self.qp = seed, workdir, modules
        self._recounts = {}

    def setup(self):
        self.corpus, self.n = self.qp["io"].read_corpus(CORPUS_MANIFEST)

    def run_round(self, i, ledger, pause):
        mlp_seed = self.seed * 1000 + i
        ledger.attempted += 1
        try:
            result, elapsed = _timed(self._classify, self.seed, mlp_seed)
        except Exception:  # noqa: BLE001 - one failed round must not end the run
            ledger.fail(f"classify seed {mlp_seed}:\n{traceback.format_exc()}")
            return
        splits, net, history, accuracy, scores, qft_score, hists = result
        ledger.done(len(history) * len(splits.train), elapsed)
        ledger.check(self._check(splits, net, history, accuracy, scores, qft_score, hists,
                                 f"classify seed {mlp_seed}"))

    def _classify(self, split_seed, mlp_seed):
        classifier, training = self.qp["classifier"], self.qp["training"]
        analysis, circuit = self.qp["analysis"], self.qp["circuit"]
        splits = classifier.split_corpus(self.corpus, split_seed)
        net = classifier.initialize_mlp(
            classifier.MLPConfig(input_dim=2 ** (2 * self.n + 1), seed=mlp_seed))
        net, history = classifier.train_classifier(
            net, splits, training.AdamConfig(), max_epochs=self.MAX_EPOCHS,
            shuffle_seed=mlp_seed + self.SHUFFLE_SEED_OFFSET)
        accuracy, scores = classifier.evaluate(net, splits.test)
        qft_score = classifier.forward(
            net, classifier.unitary_features(circuit.inverse_qft_matrix(self.n)))
        hists = {}
        for label in (1, 0):
            counts = np.zeros(analysis.N_PHASE_BINS, dtype=np.int64)
            for m, lab in self.corpus.entries:
                if lab == label:
                    counts += analysis.eigenphase_histogram(m).counts
            hists[label] = counts
        return splits, net, history, accuracy, scores, qft_score, hists

    def _check(self, splits, net, history, accuracy, scores, qft_score, hists, label):
        failures = []
        x_val = np.array([checks.features(m) for m, _ in splits.validation])
        y_val = np.array([float(lab) for _, lab in splits.validation])
        val_loss = checks.bce(checks.mlp_scores(net.weights, net.biases, x_val), y_val)
        best = min(row["val_loss"] for row in history)
        if not abs(val_loss - best) <= 1e-12:
            failures.append(f"{label}: returned net's validation loss {val_loss!r} != "
                            f"history minimum {best!r}")
        test = [m for m, _ in splits.test]
        failures += checks.check_scores(net.weights, net.biases, test, scores, label)
        y_test = np.array([lab for _, lab in splits.test])
        recomputed = float(np.mean((checks.mlp_scores(
            net.weights, net.biases, np.array([checks.features(m) for m in test])) > 0.5)
            == (y_test == 1)))
        if recomputed != accuracy:
            failures.append(f"{label}: evaluate accuracy {accuracy} != recomputed {recomputed}")
        qft = np.fft.fft(np.eye(2 ** self.n)) / math.sqrt(2 ** self.n)
        failures += checks.check_scores(net.weights, net.biases, [qft], [qft_score],
                                        f"{label} qft score")
        for lab, counts in hists.items():
            if not np.array_equal(self._recount(lab, counts.size), counts):
                failures.append(f"{label}: eigenphase histogram of label {lab} differs")
        return failures


    def _recount(self, lab, bins):
        """Eigenphase histogram of one label's matrices, in (-pi, pi], by numpy."""
        if lab not in self._recounts:
            phases = np.concatenate([np.angle(np.linalg.eigvals(m))
                                     for m, ell in self.corpus.entries if ell == lab])
            phases[phases == -np.pi] = np.pi
            self._recounts[lab] = np.histogram(phases, bins=bins, range=(-np.pi, np.pi))[0]
        return self._recounts[lab]


class PeriodN8:
    """The `period` command for r = 2..128 at n=8 through the inverse QFT and
    a row-phase-gauged inverse QFT. A round is one sweep over both matrices,
    started with the package's caches cleared, as in a fresh process."""

    unit = "period commands"
    QUBITS = 8
    PERIODS = range(2, 2 ** 7 + 1)

    def __init__(self, seed, workdir, modules):
        self.seed, self.workdir, self.qp = seed, workdir, modules
        self.clear_caches = cache_clearer(modules)
        size = 2 ** self.QUBITS
        theta = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, size)
        self.qft = np.fft.fft(np.eye(size)) / math.sqrt(size)
        self.gauged = np.exp(1j * theta)[:, None] * self.qft
        self.paths = {"qft": workdir / "qft8.umat", "gauged": workdir / "gauged8.umat"}

    def setup(self):
        circuit, io = self.qp["circuit"], self.qp["io"]
        qft = circuit.inverse_qft_matrix(self.QUBITS)
        io.write_unitary(self.paths["qft"], qft, self.QUBITS)
        io.write_unitary(self.paths["gauged"], self.gauged, self.QUBITS)
        self.program_qft = qft

    def run_round(self, i, ledger, pause):
        if i == 0:
            worst = float(np.abs(self.program_qft - self.qft).max())
            if not worst <= 1e-12:
                ledger.check([f"inverse_qft_matrix(8) is {worst:.3e} from the DFT matrix"])
        self.clear_caches()
        for name, matrix in (("qft", self.qft), ("gauged", self.gauged)):
            for r in self.PERIODS:
                argv = ["period", "--matrix", str(self.paths[name]), "--r", str(r),
                        "--seed", str(self.seed * 1000 + r)]
                ledger.attempted += 1
                code, elapsed, stdout = _cli(self.qp, argv)
                if code != 0:
                    ledger.fail(f"period --r {r} through {name} exited {code}")
                    continue
                ledger.done(1, elapsed)
                try:
                    estimate = int(stdout)
                except ValueError:
                    ledger.check([f"{name} r={r}: printed {stdout!r}, not a period"])
                    continue
                ledger.check(checks.check_estimate(estimate, r, matrix, self.QUBITS,
                                                   f"{name} r={r}"))


BY_NAME = {"train-n3": TrainN3, "corpus-n4": CorpusN4, "classify-n4": ClassifyN4,
           "period-n8": PeriodN8}
