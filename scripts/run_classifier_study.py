#!/usr/bin/env python3
"""Classifier study: corpus build, spectra, training, and QFT probe.

Runs the `corpus`, `classify-train` and `classify-eval --score-qft`
commands in turn, then writes the pooled eigenphase histogram of each
class. The commands print the test accuracy and the score assigned to
the inverse QFT.

Writes artifacts under --out-dir (default results/classifier_study).
"""

import argparse
import sys
from pathlib import Path

from qperiod import analysis, cli, io


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--qubits", type=int, default=3)
    ap.add_argument("--per-class", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--split-seed", type=int, default=7)
    ap.add_argument("--mlp-seed", type=int, default=0)
    ap.add_argument("--max-epochs", type=int, default=600)
    ap.add_argument("--out-dir", default="results/classifier_study")
    args = ap.parse_args()

    out = Path(args.out_dir)
    manifest = out / "corpus" / "corpus_manifest.json"
    split = ["--corpus", str(manifest), "--split-seed", str(args.split_seed)]
    for argv in (
        ["corpus", "--qubits", str(args.qubits), "--per-class", str(args.per_class),
         "--seed", str(args.seed), "--out-dir", str(out / "corpus")],
        ["classify-train", *split, "--seed", str(args.mlp_seed),
         "--max-epochs", str(args.max_epochs), "--out-dir", str(out)],
        ["classify-eval", "--net", str(out / "classifier.mlpc"), *split,
         "--score-qft", "--out", str(out / "test_scores.csv")],
    ):
        code = cli.main(argv)
        if code != cli.EXIT_OK:
            sys.exit(code)

    corpus, _ = io.read_corpus(manifest)
    hist_rows = []
    for label in (1, 0):
        h = analysis.eigenphase_histogram(*(mat for mat, lab in corpus.entries
                                            if lab == label))
        edges = h.bin_edges
        hist_rows += [(label, f"{lo:.6f}", f"{hi:.6f}", int(c))
                      for lo, hi, c in zip(edges[:-1], edges[1:], h.counts)]
    io.write_csv(out / "eigenphase_histograms.csv",
                 ["label", "bin_lo", "bin_hi", "count"], hist_rows)
    print(f"artifacts written under {out}")


if __name__ == "__main__":
    main()
