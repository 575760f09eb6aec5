#!/usr/bin/env python3
"""Remake the fixed n=4 corpus that the classify-n4 workload reads.

    python3 perfbench/make_corpus.py

Runs `classifier.build_corpus(4, 200, CorpusConfig(), seed=0)` (the
protocol of the test suite's `corpus_n4` fixture) with the package in
`src/`, and writes it with `io.write_corpus` to `perfbench/data/corpus_n4/`.
The per-epoch `loss_history` of each learned run is dropped from the
provenance before writing (its last value stays as `final_loss`), which
keeps the manifest small; the matrices are written bit for bit. Takes
about five minutes on one core. The result is committed, so the code under
test never rebuilds it and two commits compared with the benchmark read
the same input.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "data" / "corpus_n4"
N_QUBITS = 4
PER_CLASS = 200
SEED = 0


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from qperiod import classifier, io

    corpus = classifier.build_corpus(N_QUBITS, PER_CLASS, classifier.CorpusConfig(), seed=SEED)
    provenance = [{k: v for k, v in p.items() if k != "loss_history"}
                  for p in corpus.provenance]
    slim = classifier.LabeledUnitaryCorpus(entries=corpus.entries, provenance=provenance)
    if OUT.exists():
        for old in OUT.iterdir():
            old.unlink()
    path = io.write_corpus(OUT, slim, N_QUBITS)
    print(f"wrote {path} ({len(slim)} entries)")
    return 0


if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())
