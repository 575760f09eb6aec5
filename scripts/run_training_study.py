#!/usr/bin/env python3
"""Training study at desk scale: convergence, echoes, generalization, targets.

Trains post-processing matrices at n=3 across several seeds on one shared
dataset, reports per-seed convergence and Loschmidt echoes against the
inverse QFT, sweeps every period with the `eval` command, and reruns
training against the alternative target shapes with the `train` command
(these plateau instead of converging, so `train` exits 2 for them).

Writes CSVs under --out-dir (default results/training_study).
"""

import argparse
import sys
import time
from pathlib import Path

from qperiod import analysis, circuit, cli, io, linalg, training


def run(argv, ok=(cli.EXIT_OK,)):
    code = cli.main(argv)
    if code not in ok:
        sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--qubits", type=int, default=3)
    ap.add_argument("--dataset-size", type=int, default=6)
    ap.add_argument("--epochs", type=int, default=5000)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--out-dir", default="results/training_study")
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n = args.qubits
    loss_cfg = training.LossConfig()
    adam_cfg = training.AdamConfig()
    dataset = training.build_training_dataset(n, n, args.dataset_size, 0, loss_cfg)
    iqft = circuit.inverse_qft_matrix(n)
    periods = ",".join(str(r) for r in range(1, 2 ** n + 1))

    conv_rows, echo_rows = [], []
    for seed in range(args.seeds):
        t0 = time.time()
        m3, hist = training.train(dataset, loss_cfg, adam_cfg, args.epochs, seed=seed)
        defect = linalg.unitarity_defect(m3)
        conv_rows.append((seed, f"{hist[-1]:.6e}", f"{defect:.6e}",
                          len(hist), f"{time.time() - t0:.1f}"))
        matrix = out / f"m3_seed{seed}.umat"
        io.write_unitary(matrix, m3, n)

        echo_zero, echo_uniform = analysis.echo_report(m3, iqft)
        echo_rows.append((f"seed{seed}", "qft", f"{echo_zero:.8f}", f"{echo_uniform:.8f}"))
        run(["eval", "--matrix", str(matrix), "--periods", periods,
             "--out", str(out / f"period_sweep_seed{seed}.csv")])
        print(f"seed {seed}: final loss {hist[-1]:.3e}, defect {defect:.3e}")

    io.write_csv(out / "convergence.csv",
                 ["seed", "final_loss", "unitarity_defect", "epochs", "seconds"],
                 conv_rows)
    io.write_csv(out / "echoes.csv",
                 ["subject_path", "reference", "echo_zero", "echo_uniform"], echo_rows)

    for kind in ("single-peak", "step", "gaussian"):
        run(["train", "--qubits", str(n), "--dataset-size", str(args.dataset_size),
             "--epochs", str(args.epochs), "--target", kind, "--seed", "0",
             "--out-dir", str(out / f"target_{kind}")],
            ok=(cli.EXIT_OK, cli.EXIT_NONCONVERGENCE))
    print(f"reports written under {out}")


if __name__ == "__main__":
    main()
