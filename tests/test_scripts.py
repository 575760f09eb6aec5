"""Smoke tests: each study script runs end to end at a tiny size and writes
the files the README lists."""

import csv
import subprocess
import sys
from pathlib import Path

from conftest import cli_env, pooled_eigenphase_counts

from qperiod import io

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, args, cwd):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd,
                          env=cli_env(), capture_output=True, text=True, timeout=600)


def test_training_study(tmp_path):
    out = tmp_path / "study"
    result = run_script("run_training_study.py",
                        ["--qubits", "2", "--seeds", "1", "--epochs", "50",
                         "--dataset-size", "2", "--out-dir", str(out)], tmp_path)
    assert result.returncode == 0, result.stderr
    expected = ["convergence.csv", "echoes.csv", "m3_seed0.umat", "period_sweep_seed0.csv"]
    for kind in ("single-peak", "step", "gaussian"):
        expected += [f"target_{kind}/{name}"
                     for name in ("m3.umat", "loss_history.csv", "run_manifest.json")]
    for name in expected:
        assert (out / name).is_file(), name
    # one sweep row per period 1..2^n
    assert len((out / "period_sweep_seed0.csv").read_text().splitlines()) == 1 + 4


def test_classifier_study(tmp_path):
    out = tmp_path / "study"
    result = run_script("run_classifier_study.py",
                        ["--qubits", "2", "--per-class", "5", "--max-epochs", "20",
                         "--out-dir", str(out)], tmp_path)
    assert result.returncode == 0, result.stderr
    for name in ("corpus/corpus_manifest.json", "classifier.mlpc",
                 "classifier_metrics.csv", "test_scores.csv", "eigenphase_histograms.csv"):
        assert (out / name).is_file(), name
    assert len(list((out / "corpus").glob("*.umat"))) == 10
    assert "qft_score=" in result.stdout
    # each class's rows pool the spectra of that class's matrix files
    rows = list(csv.reader((out / "eigenphase_histograms.csv").read_text().splitlines()))
    assert rows[0] == ["label", "bin_lo", "bin_hi", "count"]
    for label, stem in ((1, "learned"), (0, "haar")):
        matrices = [io.read_unitary(path)[0]
                    for path in sorted((out / "corpus").glob(f"{stem}_*.umat"))]
        counts, edges = pooled_eigenphase_counts(matrices)
        assert [row for row in rows[1:] if row[0] == str(label)] == [
            [str(label), f"{lo:.6f}", f"{hi:.6f}", str(c)]
            for lo, hi, c in zip(edges[:-1], edges[1:], counts)]
