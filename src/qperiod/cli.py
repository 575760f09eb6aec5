"""Command-line harness: training runs, analysis reports, corpus, classifier.

Exit codes: 0 success, 1 I/O or data error, 2 non-convergence,
3 period-estimation failure, 64 usage error.
"""

import argparse
import math
import os
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import analysis, circuit, classifier, io, linalg, training

EXIT_OK = 0
EXIT_DATA = 1
EXIT_NONCONVERGENCE = 2
EXIT_ESTIMATION = 3
EXIT_USAGE = 64

OUT_DIR_ENV = "QPERIOD_OUT_DIR"

# shuffle stream offset for classifier minibatches, fixed for reproducibility
SHUFFLE_SEED_OFFSET = 10_000
DEFAULT_SPLIT_SEED = 7

# widest register a command may build: dense 2^10 x 2^10
MAX_QUBITS = 10


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here reserves 2 for
    non-convergence, so usage problems remap to 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _qubits(value: str) -> int:
    n = int(value)
    if not 1 <= n <= MAX_QUBITS:
        raise argparse.ArgumentTypeError(f"qubits must be in [1, {MAX_QUBITS}], got {n}")
    return n


def _positive(value: str) -> int:
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def _periods(value: str) -> list:
    """A comma-separated list of periods, each >= 1 (empty items skipped)."""
    try:
        periods = [int(tok) for tok in value.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {value!r}") from None
    if not periods:
        raise argparse.ArgumentTypeError("no periods given")
    if min(periods) < 1:
        raise argparse.ArgumentTypeError(f"entries must be >= 1, got {value!r}")
    return periods


def _seed(value: str) -> int:
    seed = int(value)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def _positive_float(value: str) -> float:
    x = float(value)
    if not 0 < x < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return x


def _add_out_dir(sub):
    sub.add_argument("--out-dir",
                     help=f"output directory (default ${OUT_DIR_ENV} or '.')")


def _out_dir(args) -> Path:
    """--out-dir, else $QPERIOD_OUT_DIR as the command runs, else '.'."""
    if args.out_dir is not None:
        return Path(args.out_dir)
    return Path(os.environ.get(OUT_DIR_ENV, "."))


@cache
def build_parser() -> _Parser:
    """The parser, built on the first command of the process: it holds no
    per-command state (--out-dir's default is resolved when a command runs)."""
    parser = _Parser(prog="qperiod",
                     description="Learn and analyze post-processing unitaries "
                                 "for quantum period finding.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("train", help="train a post-processing matrix")
    p.add_argument("--qubits", type=_qubits, required=True)
    p.add_argument("--dataset-size", type=_positive, default=6)
    p.add_argument("--epochs", type=_positive, default=5000)
    p.add_argument("--lr", type=_positive_float, default=0.001)
    p.add_argument("--k", type=_positive_float, default=1.0)
    p.add_argument("--target", choices=["qft", "single-peak", "step", "gaussian"],
                   default="qft")
    p.add_argument("--gaussian-sigma", type=_positive_float, default=1.0)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--loss-threshold", type=_positive_float, default=1e-6)
    _add_out_dir(p)

    p = subs.add_parser("eval", help="per-period loss/distance of a saved matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--periods", type=_periods, required=True,
                   help="comma-separated list, e.g. 1,2,5")
    p.add_argument("--k", type=_positive_float, default=1.0)
    p.add_argument("--out", help="CSV path (default stdout)")

    p = subs.add_parser("echo", help="Loschmidt echoes against a reference")
    p.add_argument("--matrix", required=True)
    p.add_argument("--reference", default="qft", help="'qft' or a matrix path")
    p.add_argument("--out", help="CSV path (default stdout)")

    p = subs.add_parser("spectrum", help="20-bin eigenphase histogram")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--matrix", help="matrix file to analyze")
    source.add_argument("--haar-samples", type=_positive,
                        help="pool this many Haar unitaries instead")
    p.add_argument("--qubits", type=_qubits, help="required with --haar-samples")
    p.add_argument("--seed", type=_seed, help="Haar draws only (default 0)")
    p.add_argument("--out", help="CSV path (default stdout)")

    p = subs.add_parser("period", help="estimate a period through a saved matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--r", type=_positive, required=True,
                   help="true period of the test function")
    p.add_argument("--seed", type=_seed, default=0,
                   help="accepted for compatibility; the marginal depends only "
                        "on the period, so the estimate does not depend on it")

    p = subs.add_parser("corpus", help="build a labeled corpus of unitaries")
    p.add_argument("--qubits", type=_qubits, required=True)
    p.add_argument("--per-class", type=_positive, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--dataset-size", type=_positive, default=8)
    p.add_argument("--epochs", type=_positive, default=4000)
    _add_out_dir(p)

    p = subs.add_parser("classify-train", help="train the learned-vs-random classifier")
    p.add_argument("--corpus", required=True, help="corpus manifest path")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--split-seed", type=_seed, default=DEFAULT_SPLIT_SEED)
    p.add_argument("--max-epochs", type=_positive, default=400)
    p.add_argument("--batch", type=_positive, default=32)
    p.add_argument("--patience", type=_positive, default=5)
    p.add_argument("--alpha", type=_positive_float, default=0.001)
    _add_out_dir(p)

    p = subs.add_parser("classify-eval", help="evaluate a trained classifier")
    p.add_argument("--net", required=True, help="MLPC file path")
    p.add_argument("--corpus", required=True, help="corpus manifest path")
    p.add_argument("--split-seed", type=_seed, default=DEFAULT_SPLIT_SEED)
    p.add_argument("--split", choices=["train", "validation", "test"], default="test")
    p.add_argument("--score-qft", action="store_true",
                   help="also score the inverse QFT matrix")
    p.add_argument("--out", help="CSV path for per-example scores (default stdout)")
    return parser


# a diverged run's matrix overflows to inf and nan in the summary
@np.errstate(over="ignore", invalid="ignore")
def cmd_train(args) -> int:
    out_dir = _out_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    kind = "qft-reference" if args.target == "qft" else args.target
    loss_cfg = training.LossConfig(k=args.k, target_kind=kind,
                                   gaussian_sigma=args.gaussian_sigma)
    adam_cfg = training.AdamConfig(alpha=args.lr)
    dataset = training.build_training_dataset(args.qubits, args.qubits,
                                              args.dataset_size, args.seed, loss_cfg)
    diverged = False
    try:
        m3, history = training.train(dataset, loss_cfg, adam_cfg, args.epochs,
                                     seed=args.seed)
    except training.DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        m3 = training.params_to_matrix(exc.w, 2 ** args.qubits).copy()
        history = exc.history  # the completed epochs only, possibly none
        diverged = True

    # a rewrite that fails part-way leaves no manifest describing the new files
    (out_dir / "run_manifest.json").unlink(missing_ok=True)
    io.write_unitary(out_dir / "m3.umat", m3, args.qubits)
    io.write_csv(out_dir / "loss_history.csv", ["epoch", "mean_loss"],
                 list(enumerate(history)))
    manifest = {
        "n": args.qubits, "m": args.qubits,
        "k": args.k, "target": args.target, "gaussian_sigma": args.gaussian_sigma,
        "alpha": args.lr,
        "beta1": adam_cfg.beta1, "beta2": adam_cfg.beta2, "epsilon": adam_cfg.epsilon,
        "epochs": args.epochs, "seed": args.seed,
        "dataset": [f.to_dict() for f in dataset.functions],
        "loss_history": history,
    }
    io.write_run_manifest(out_dir / "run_manifest.json", manifest)
    final = history[-1] if history else float("inf")
    # the returned matrix's worst per-function loss; the exit code still
    # follows the epoch mean of the pre-update losses
    max_final = max(training.loss(m3, f, p_d, args.k)
                    for f, p_d in zip(dataset.functions, dataset.targets))
    print(f"final_loss={final:.6e} max_final_loss={max_final:.6e} "
          f"unitarity_defect={linalg.unitarity_defect(m3):.6e} "
          f"epochs={len(history)} out={out_dir / 'm3.umat'}")
    if diverged or final > args.loss_threshold:
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def cmd_eval(args) -> int:
    m3, n = io.read_unitary(args.matrix)
    # the rows depend only on the periods, not on the functions' values
    dataset = training.dataset_for_periods(n, n, args.periods, 0)
    rows = []
    for f, p_d in zip(dataset.functions, dataset.targets):
        dist = analysis.distribution_distance(circuit.period_marginal(m3, f.n, f.r), p_d)
        rows.append((f.r, f"{training.loss(m3, f, p_d, args.k):.12e}", f"{dist:.12e}"))
    io.write_csv(args.out or sys.stdout, ["period", "loss", "distance"], rows)
    return EXIT_OK


def cmd_echo(args) -> int:
    subject, n = io.read_unitary(args.matrix)
    if args.reference == "qft":
        reference = circuit.inverse_qft_matrix(n)
    else:
        reference, ref_n = io.read_unitary(args.reference)
        if ref_n != n:
            print(f"reference is on {ref_n} qubits, subject on {n}", file=sys.stderr)
            return EXIT_DATA
    report = analysis.echo_report(subject, reference, n)
    io.write_csv(args.out or sys.stdout,
                 ["subject_path", "reference", "echo_zero", "echo_uniform"],
                 [(args.matrix, args.reference,
                   f"{report.echo_on_zero:.12e}", f"{report.echo_on_uniform:.12e}")])
    return EXIT_OK


def cmd_spectrum(args) -> int:
    if args.matrix is not None:
        if args.qubits is not None or args.seed is not None:
            print("--qubits and --seed apply only to --haar-samples", file=sys.stderr)
            return EXIT_USAGE
        m3, _ = io.read_unitary(args.matrix)
        matrices = [m3]
    else:
        if args.qubits is None:
            print("--haar-samples requires --qubits", file=sys.stderr)
            return EXIT_USAGE
        seeds = np.random.SeedSequence(args.seed or 0).spawn(args.haar_samples)
        matrices = [linalg.haar_random_unitary(args.qubits, s) for s in seeds]
    hist = analysis.eigenphase_histogram(*matrices)
    edges = hist.bin_edges
    rows = [(f"{lo:.12f}", f"{hi:.12f}", int(c))
            for lo, hi, c in zip(edges[:-1], edges[1:], hist.counts)]
    io.write_csv(args.out or sys.stdout, ["bin_lo", "bin_hi", "count"], rows)
    return EXIT_OK


def cmd_period(args) -> int:
    m3, n = io.read_unitary(args.matrix)
    print(circuit.estimate_period(circuit.period_marginal(m3, n, args.r), n))
    return EXIT_OK


def cmd_corpus(args) -> int:
    cfg = classifier.CorpusConfig(dataset_size=args.dataset_size, epochs=args.epochs)
    try:
        corpus = classifier.build_corpus(args.qubits, args.per_class, cfg, seed=args.seed)
    except classifier.CorpusExhaustedError as exc:
        print(f"corpus build failed: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except classifier.CorpusWorkerError as exc:
        print(f"corpus build failed: {exc}", file=sys.stderr)
        return EXIT_DATA
    manifest_path = io.write_corpus(_out_dir(args), corpus, args.qubits)
    print(f"corpus_manifest={manifest_path} entries={len(corpus)}")
    return EXIT_OK


def cmd_classify_train(args) -> int:
    corpus, n = io.read_corpus(args.corpus)
    splits = classifier.split_corpus(corpus, args.split_seed)
    config = classifier.MLPConfig(input_dim=2 ** (2 * n + 1), seed=args.seed)
    net = classifier.initialize_mlp(config)
    adam_cfg = training.AdamConfig(alpha=args.alpha)
    net, history = classifier.train_classifier(
        net, splits, adam_cfg, max_epochs=args.max_epochs, batch_size=args.batch,
        patience=args.patience, shuffle_seed=args.seed + SHUFFLE_SEED_OFFSET)
    out_dir = _out_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    io.write_mlp(out_dir / "classifier.mlpc", net)
    io.write_csv(out_dir / "classifier_metrics.csv",
                 ["epoch", "train_loss", "train_accuracy", "val_loss", "val_accuracy"],
                 [(row["epoch"], f"{row['train_loss']:.8e}", f"{row['train_accuracy']:.4f}",
                   f"{row['val_loss']:.8e}", f"{row['val_accuracy']:.4f}")
                  for row in history])
    best = min(row["val_loss"] for row in history)
    print(f"net={out_dir / 'classifier.mlpc'} epochs={len(history)} best_val_loss={best:.6e}")
    return EXIT_OK


def cmd_classify_eval(args) -> int:
    net = io.read_mlp(args.net)
    corpus, n = io.read_corpus(args.corpus)
    if net.input_dim != 2 ** (2 * n + 1):
        print(f"net input dim {net.input_dim} does not match corpus n={n}",
              file=sys.stderr)
        return EXIT_DATA
    splits = classifier.split_corpus(corpus, args.split_seed)
    examples = getattr(splits, args.split)
    accuracy, scores = classifier.evaluate(net, examples)
    rows = [(i, label, f"{score:.6f}")
            for i, ((_, label), score) in enumerate(zip(examples, scores))]
    io.write_csv(args.out or sys.stdout, ["index", "label", "score"], rows)
    print(f"accuracy={accuracy:.4f} split={args.split} examples={len(examples)}")
    if args.score_qft:
        qft_score = classifier.forward(
            net, classifier.unitary_features(circuit.inverse_qft_matrix(n)))
        print(f"qft_score={qft_score:.6f}")
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "echo": cmd_echo,
    "spectrum": cmd_spectrum,
    "period": cmd_period,
    "corpus": cmd_corpus,
    "classify-train": cmd_classify_train,
    "classify-eval": cmd_classify_eval,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except circuit.EstimationError as exc:
        print(f"period estimation failed: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except training.DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (io.DataFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
