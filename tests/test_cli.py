"""CLI tests through real subprocesses: exit codes, artifacts, reproducibility."""

import argparse
import csv
import json
import multiprocessing
import os
import re
import shlex
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import cli_env, pooled_eigenphase_counts

from qperiod import analysis, circuit, classifier, io, linalg, training
from qperiod.cli import build_parser, main

BASE = [sys.executable, "-m", "qperiod"]
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(args, cwd, env_extra=None):
    return subprocess.run(BASE + args, cwd=cwd, env=cli_env(env_extra),
                          capture_output=True, text=True, timeout=600)


def parse_csv(text):
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def iqft3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("mats") / "iqft3.umat"
    io.write_unitary(path, np.asarray(circuit.inverse_qft_matrix(3)), 3)
    return path


@pytest.fixture(scope="module")
def iqft5_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("mats") / "iqft5.umat"
    io.write_unitary(path, np.asarray(circuit.inverse_qft_matrix(5)), 5)
    return path


@pytest.fixture(scope="module")
def converged_run(tmp_path_factory):
    """One converged n=2 training run shared by the read-only CLI tests."""
    out = tmp_path_factory.mktemp("run")
    result = run_cli(["train", "--qubits", "2", "--dataset-size", "3",
                      "--epochs", "1500", "--seed", "0", "--out-dir", str(out)],
                     cwd=out)
    assert result.returncode == 0, result.stderr
    return out, result


class TestTrainCommand:
    def test_converged_run_artifacts(self, converged_run):
        out, result = converged_run
        assert "final_loss=" in result.stdout
        assert (out / "m3.umat").exists()
        assert (out / "loss_history.csv").exists()
        manifest = io.read_run_manifest(out / "run_manifest.json")
        assert manifest["n"] == 2
        assert manifest["epochs"] == 1500
        assert len(manifest["loss_history"]) == 1500
        assert manifest["loss_history"][-1] < 1e-6
        m3, n = io.read_unitary(out / "m3.umat")
        assert n == 2 and m3.shape == (4, 4)

    def test_max_final_loss_is_the_worst_function_loss(self, converged_run):
        # recomputed from the artifacts: the returned matrix against every
        # dataset function's target, with the manifest's k; exact to the
        # printed digits
        out, result = converged_run
        manifest = io.read_run_manifest(out / "run_manifest.json")
        m3, _ = io.read_unitary(out / "m3.umat")
        losses = []
        for d in manifest["dataset"]:
            f = circuit.PeriodicFunction(d["n"], d["m"], d["r"], tuple(d["table"]))
            p_d = training.target_distribution("qft-reference", f)
            losses.append(training.loss(m3, f, p_d, manifest["k"]))
        fields = result.stdout.split()
        assert fields[0].startswith("final_loss=")
        assert fields[1] == f"max_final_loss={max(losses):.6e}"

    def test_loss_history_csv_matches_manifest(self, converged_run):
        out, _ = converged_run
        header, rows = parse_csv((out / "loss_history.csv").read_text())
        assert header == ["epoch", "mean_loss"]
        manifest = io.read_run_manifest(out / "run_manifest.json")
        assert len(rows) == len(manifest["loss_history"])
        assert float(rows[-1][1]) == pytest.approx(manifest["loss_history"][-1])

    def test_non_convergence_exits_two_but_saves(self, tmp_path):
        result = run_cli(["train", "--qubits", "2", "--dataset-size", "2",
                          "--epochs", "40", "--seed", "0",
                          "--out-dir", str(tmp_path)], cwd=tmp_path)
        assert result.returncode == 2
        assert (tmp_path / "m3.umat").exists()
        assert (tmp_path / "run_manifest.json").exists()

    def test_diverged_run_writes_strict_json(self, tmp_path):
        # the first update at --lr 10000 diverges before any epoch completes
        result = run_cli(["train", "--qubits", "2", "--lr", "10000", "--epochs", "50",
                          "--out-dir", str(tmp_path)], cwd=tmp_path)
        assert result.returncode == 2
        assert "training diverged" in result.stderr
        assert result.stdout.startswith("final_loss=inf ")
        assert "epochs=0 " in result.stdout

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        text = (tmp_path / "run_manifest.json").read_text()
        manifest = json.loads(text, parse_constant=reject)
        assert manifest["loss_history"] == []
        header, rows = parse_csv((tmp_path / "loss_history.csv").read_text())
        assert header == ["epoch", "mean_loss"] and rows == []
        assert (tmp_path / "m3.umat").exists()

    def test_seeded_runs_are_bit_identical(self, tmp_path):
        args = ["train", "--qubits", "2", "--dataset-size", "2",
                "--epochs", "300", "--seed", "7"]
        a, b = tmp_path / "a", tmp_path / "b"
        ra = run_cli(args + ["--out-dir", str(a)], cwd=tmp_path)
        rb = run_cli(args + ["--out-dir", str(b)], cwd=tmp_path)
        assert {ra.returncode, rb.returncode} <= {0, 2}
        assert (a / "m3.umat").read_bytes() == (b / "m3.umat").read_bytes()
        assert ((a / "loss_history.csv").read_text()
                == (b / "loss_history.csv").read_text())

    def test_manifest_reproduces_a_target_run(self, tmp_path):
        # the loss config, the optimizer and the dataset rebuilt from the
        # manifest alone retrain to the same bytes
        result = run_cli(["train", "--qubits", "2", "--target", "gaussian",
                          "--gaussian-sigma", "2.5", "--epochs", "60", "--seed", "4",
                          "--out-dir", str(tmp_path)], cwd=tmp_path)
        assert result.returncode == 2, result.stderr  # the gaussian target plateaus
        manifest = io.read_run_manifest(tmp_path / "run_manifest.json")
        assert (manifest["target"], manifest["gaussian_sigma"]) == ("gaussian", 2.5)
        kind = "qft-reference" if manifest["target"] == "qft" else manifest["target"]
        loss_cfg = training.LossConfig(k=manifest["k"], target_kind=kind,
                                       gaussian_sigma=manifest["gaussian_sigma"])
        adam_cfg = training.AdamConfig(alpha=manifest["alpha"])
        assert ((adam_cfg.beta1, adam_cfg.beta2, adam_cfg.epsilon)
                == (manifest["beta1"], manifest["beta2"], manifest["epsilon"]))
        functions = [circuit.PeriodicFunction(d["n"], d["m"], d["r"], tuple(d["table"]))
                     for d in manifest["dataset"]]
        dataset = training.TrainingDataset(
            functions=functions,
            targets=[training.target_distribution(kind, f, loss_cfg.gaussian_sigma)
                     for f in functions])
        m3, _ = training.train(dataset, loss_cfg, adam_cfg, manifest["epochs"],
                               seed=manifest["seed"])
        io.write_unitary(tmp_path / "again.umat", m3, manifest["n"])
        assert (tmp_path / "again.umat").read_bytes() == (tmp_path / "m3.umat").read_bytes()

    @pytest.mark.parametrize("ancilla", ["1", "8", "1000", "-1"])
    def test_ancilla_is_not_an_option(self, tmp_path, ancilla):
        result = run_cli(["train", "--qubits", "2", "--ancilla", ancilla,
                          "--out-dir", str(tmp_path / "out")], cwd=tmp_path)
        assert result.returncode == 64
        assert result.stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_out_dir_env_var_is_read_per_command(self, tmp_path, monkeypatch, capsys):
        # in process: the parser is built once, the variable read per command
        monkeypatch.chdir(tmp_path)
        args = ["train", "--qubits", "1", "--dataset-size", "1", "--epochs", "5"]
        for name in ("first", "second"):
            monkeypatch.setenv("QPERIOD_OUT_DIR", str(tmp_path / name))
            assert main(args) in (0, 2)
        capsys.readouterr()
        assert (tmp_path / "first" / "m3.umat").exists()
        assert (tmp_path / "second" / "m3.umat").exists()
        assert not (tmp_path / "m3.umat").exists()

    def test_out_dir_env_var(self, tmp_path):
        target = tmp_path / "from_env"
        result = run_cli(["train", "--qubits", "1", "--dataset-size", "1",
                          "--epochs", "5", "--seed", "0"],
                         cwd=tmp_path, env_extra={"QPERIOD_OUT_DIR": str(target)})
        assert result.returncode in (0, 2)
        assert (target / "m3.umat").exists()


class TestEvalCommand:
    def test_exact_matrix_has_zero_distances(self, iqft3_file, tmp_path):
        result = run_cli(["eval", "--matrix", str(iqft3_file),
                          "--periods", "1,2,3,4,5,6,7,8"], cwd=tmp_path)
        assert result.returncode == 0
        header, rows = parse_csv(result.stdout)
        assert header == ["period", "loss", "distance"]
        assert len(rows) == 8
        for row in rows:
            assert float(row[1]) < 1e-12
            assert float(row[2]) < 1e-12

    def test_seed_is_not_an_option(self, iqft3_file, tmp_path):
        result = run_cli(["eval", "--matrix", str(iqft3_file), "--periods", "1",
                          "--seed", "1"], cwd=tmp_path)
        assert result.returncode == 64
        assert result.stdout == ""

    def test_rows_match_the_library_for_any_function_seed(self, tmp_path):
        # the rows depend only on the periods, so functions drawn with any
        # seed give them; the matrix is a 3-qubit inverse QFT plus noise (no
        # loss or distance is zero)
        rng = np.random.default_rng(3)
        m3 = (np.asarray(circuit.inverse_qft_matrix(3))
              + 0.05 * (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))))
        io.write_unitary(tmp_path / "m3.umat", m3, 3)
        periods, k = [1, 2, 3, 4, 5, 6, 7, 8, 2], 0.5
        result = run_cli(["eval", "--matrix", str(tmp_path / "m3.umat"),
                          "--periods", ",".join(map(str, periods)), "--k", str(k)],
                         cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        header, rows = parse_csv(result.stdout)
        assert header == ["period", "loss", "distance"]
        for seed in (0, 1, 7):
            dataset = training.dataset_for_periods(3, 3, periods, seed)
            assert rows == [
                [str(f.r), f"{training.loss(m3, f, p_d, k):.12e}",
                 f"{analysis.distribution_distance(circuit.period_marginal(m3, f.n, f.r), p_d):.12e}"]
                for f, p_d in zip(dataset.functions, dataset.targets)]
        assert all(float(row[1]) > 0 and float(row[2]) > 0 for row in rows)

    def test_takes_the_unitarity_defect_once_per_matrix(self, iqft3_file, monkeypatch,
                                                         capsys):
        calls, defect = [], linalg.unitarity_defect

        def counted(m):
            calls.append(1)
            return defect(m)

        monkeypatch.setattr(linalg, "unitarity_defect", counted)
        monkeypatch.setattr(training, "unitarity_defect", counted)
        assert main(["eval", "--matrix", str(iqft3_file), "--periods", "1,2,3,4,5,6,7,8,2"]) == 0
        assert len(parse_csv(capsys.readouterr().out)[1]) == 9
        assert len(calls) == 1

    def test_rejects_missing_file(self, tmp_path):
        result = run_cli(["eval", "--matrix", str(tmp_path / "nope.umat"),
                          "--periods", "1"], cwd=tmp_path)
        assert result.returncode == 1
        assert "No such file or directory" in result.stderr

    def test_rejects_malformed_periods(self, iqft3_file, tmp_path):
        for periods, message in [("1,x", "not a comma-separated list of integers: '1,x'"),
                                 (",", "no periods given")]:
            result = run_cli(["eval", "--matrix", str(iqft3_file),
                              "--periods", periods], cwd=tmp_path)
            assert result.returncode == 64
            assert f"--periods: {message}" in result.stderr

    def test_period_above_the_register_exits_one(self, iqft3_file, tmp_path):
        # whether a period fits depends on the matrix file, not on the usage
        result = run_cli(["eval", "--matrix", str(iqft3_file), "--periods", "1,9"],
                         cwd=tmp_path)
        assert result.returncode == 1
        assert "period 9 outside [1, 8]" in result.stderr

    def test_qubits_is_not_an_option(self, iqft3_file, tmp_path):
        # the register is the matrix file's n
        out = tmp_path / "out.csv"
        result = run_cli(["eval", "--matrix", str(iqft3_file), "--qubits", "3",
                          "--periods", "1", "--out", str(out)], cwd=tmp_path)
        assert result.returncode == 64
        assert result.stdout == ""
        assert not out.exists()


class TestEchoCommand:
    def test_identity_pair_echoes_one(self, iqft3_file, tmp_path):
        result = run_cli(["echo", "--matrix", str(iqft3_file),
                          "--reference", "qft"], cwd=tmp_path)
        assert result.returncode == 0
        header, rows = parse_csv(result.stdout)
        assert header == ["subject_path", "reference", "echo_zero", "echo_uniform"]
        assert float(rows[0][2]) == pytest.approx(1.0)
        assert float(rows[0][3]) == pytest.approx(1.0)

    def test_matrix_reference_widths_must_match(self, iqft3_file, iqft5_file, tmp_path):
        result = run_cli(["echo", "--matrix", str(iqft3_file),
                          "--reference", str(iqft5_file)], cwd=tmp_path)
        assert result.returncode == 1
        assert "reference is on 5 qubits" in result.stderr


class TestSpectrumCommand:
    def test_matrix_counts_sum_to_dimension(self, iqft3_file, tmp_path):
        result = run_cli(["spectrum", "--matrix", str(iqft3_file)], cwd=tmp_path)
        assert result.returncode == 0
        header, rows = parse_csv(result.stdout)
        assert header == ["bin_lo", "bin_hi", "count"]
        assert len(rows) == 20
        assert sum(int(r[2]) for r in rows) == 8

    def test_haar_aggregate_counts(self, tmp_path):
        result = run_cli(["spectrum", "--haar-samples", "5", "--qubits", "3",
                          "--seed", "1"], cwd=tmp_path)
        assert result.returncode == 0
        _, rows = parse_csv(result.stdout)
        assert sum(int(r[2]) for r in rows) == 40

    def test_requires_exactly_one_source(self, iqft3_file, tmp_path):
        both = run_cli(["spectrum", "--matrix", str(iqft3_file),
                        "--haar-samples", "3", "--qubits", "3"], cwd=tmp_path)
        neither = run_cli(["spectrum"], cwd=tmp_path)
        assert both.returncode == 64
        assert neither.returncode == 64

    @pytest.mark.parametrize("option", [["--qubits", "5"], ["--seed", "0"]])
    def test_matrix_refuses_the_haar_options(self, option, tmp_path):
        # --qubits and --seed belong to --haar-samples; even an explicit
        # default seed is refused with --matrix
        io.write_unitary(tmp_path / "q2.umat", np.asarray(circuit.inverse_qft_matrix(2)), 2)
        result = run_cli(["spectrum", "--matrix", str(tmp_path / "q2.umat"), *option],
                         cwd=tmp_path)
        assert result.returncode == 64
        assert "apply only to --haar-samples" in result.stderr
        assert result.stdout == ""

    def test_haar_seed_defaults_to_zero(self, tmp_path):
        args = ["spectrum", "--haar-samples", "3", "--qubits", "2"]
        unset, zero = (run_cli(args + extra, cwd=tmp_path) for extra in ([], ["--seed", "0"]))
        assert unset.returncode == zero.returncode == 0
        matrices = [linalg.haar_random_unitary(2, s)
                    for s in np.random.SeedSequence(0).spawn(3)]
        counts, edges = pooled_eigenphase_counts(matrices)
        # text mode reads the CSV's CRLF line ends as "\n"
        expected = "".join(f"{lo:.12f},{hi:.12f},{c}\n"
                           for lo, hi, c in zip(edges[:-1], edges[1:], counts))
        assert unset.stdout == zero.stdout == "bin_lo,bin_hi,count\n" + expected


class TestPeriodCommand:
    def test_recovers_divisor_period_through_qft(self, iqft5_file, tmp_path):
        result = run_cli(["period", "--matrix", str(iqft5_file), "--r", "8",
                          "--seed", "0"], cwd=tmp_path)
        assert result.returncode == 0
        assert result.stdout.strip() == "8"

    def test_register_edge_period_through_qft(self, iqft3_file, tmp_path):
        result = run_cli(["period", "--matrix", str(iqft3_file), "--r", "8"], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "8"

    def test_seed_does_not_change_the_estimate(self, tmp_path):
        # row phases leave the marginal alone, and the seed reaches nothing
        theta = np.random.default_rng(5).uniform(0.0, 2 * np.pi, 32)
        path = tmp_path / "gauged5.umat"
        io.write_unitary(path, np.exp(1j * theta)[:, None] * circuit.inverse_qft_matrix(5), 5)
        results = [run_cli(["period", "--matrix", str(path), "--r", "6", "--seed", seed],
                           cwd=tmp_path) for seed in ("0", "987654")]
        assert [r.returncode for r in results] == [0, 0]
        assert results[0].stdout == results[1].stdout == "6\n"

    def test_unconverged_matrix_exits_three(self, tmp_path):
        from qperiod import linalg
        path = tmp_path / "haar.umat"
        io.write_unitary(path, linalg.haar_random_unitary(5, 1), 5)
        result = run_cli(["period", "--matrix", str(path), "--r", "8",
                          "--seed", "0"], cwd=tmp_path)
        assert result.returncode == 3

    def test_missing_file_exits_one(self, tmp_path):
        result = run_cli(["period", "--matrix", str(tmp_path / "nope.umat"),
                          "--r", "4"], cwd=tmp_path)
        assert result.returncode == 1
        assert "No such file or directory" in result.stderr

    def test_period_above_the_register_exits_one(self, iqft3_file, tmp_path):
        result = run_cli(["period", "--matrix", str(iqft3_file), "--r", "9"], cwd=tmp_path)
        assert result.returncode == 1
        assert "period 9 outside [1, 8]" in result.stderr

    @pytest.mark.parametrize("n,r", [(0, 1), (1, 1), (1, 2)])
    def test_smallest_registers_through_dft(self, tmp_path, n, r):
        # a 1x1 (n=0) and a 2x2 matrix file: the smallest tables
        path = tmp_path / f"dft{n}.umat"
        io.write_unitary(path, np.fft.fft(np.eye(2 ** n)) / np.sqrt(2 ** n), n)
        result = run_cli(["period", "--matrix", str(path), "--r", str(r)], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"{r}\n"

    def test_near_full_period_at_n10(self, tmp_path):
        path = tmp_path / "qft10.umat"
        io.write_unitary(path, np.asarray(circuit.inverse_qft_matrix(10)), 10)
        result = run_cli(["period", "--matrix", str(path), "--r", "511"], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "511"


class TestUsageErrors:
    def test_register_width_out_of_range(self, tmp_path):
        result = run_cli(["train", "--qubits", "0"], cwd=tmp_path)
        assert result.returncode == 64

    def test_unknown_subcommand(self, tmp_path):
        result = run_cli(["transmogrify"], cwd=tmp_path)
        assert result.returncode == 64

    def test_no_subcommand(self, tmp_path):
        result = run_cli([], cwd=tmp_path)
        assert result.returncode == 64

    # each command's other required options, and its output option
    USAGE_ARGS = {
        "train": ["--qubits", "2", "--out-dir"],
        "eval": ["--matrix", "m3.umat", "--periods", "1", "--out"],
        "corpus": ["--qubits", "2", "--per-class", "1", "--out-dir"],
        "classify-train": ["--corpus", "corpus_manifest.json", "--out-dir"],
        "spectrum": ["--qubits", "2", "--out"],
    }

    def assert_usage_error(self, tmp_path, command, flag, value, message):
        out = tmp_path / "out"
        result = run_cli([command, flag, value, *self.USAGE_ARGS[command], str(out)],
                         cwd=tmp_path)
        assert result.returncode == 64
        assert f"{flag}: {message}" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flag,command", [
        ("--epochs", "train"), ("--epochs", "corpus"),
        ("--dataset-size", "train"), ("--dataset-size", "corpus"),
        ("--batch", "classify-train"), ("--max-epochs", "classify-train"),
        ("--patience", "classify-train"), ("--haar-samples", "spectrum"),
    ])
    def test_zero_counts_are_usage_errors(self, tmp_path, command, flag):
        self.assert_usage_error(tmp_path, command, flag, "0", "must be >= 1, got 0")

    @pytest.mark.parametrize("flag,command,value", [
        ("--batch", "classify-train", "-1"),
        ("--k", "train", "0"), ("--lr", "train", "-0.001"),
        ("--gaussian-sigma", "train", "0"), ("--lr", "train", "nan"),
        ("--alpha", "classify-train", "0"), ("--alpha", "classify-train", "inf"),
        ("--loss-threshold", "train", "nan"), ("--loss-threshold", "train", "0"),
        ("--loss-threshold", "train", "-1"),
        ("--k", "eval", "-1"), ("--k", "eval", "0"),
        ("--patience", "classify-train", "-1"),
    ])
    def test_non_positive_values_are_usage_errors(self, tmp_path, command, flag, value):
        counts = ("--batch", "--patience")
        message = "must be >= 1" if flag in counts else "must be finite and > 0"
        self.assert_usage_error(tmp_path, command, flag, value, f"{message}, got {value}")

    @pytest.mark.parametrize("flag,command", [
        ("--seed", "train"), ("--seed", "corpus"), ("--seed", "classify-train"),
        ("--split-seed", "classify-train"), ("--seed", "spectrum"),
    ])
    def test_negative_seeds_are_usage_errors(self, tmp_path, command, flag):
        self.assert_usage_error(tmp_path, command, flag, "-1", "must be >= 0, got -1")

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_period_below_one_is_a_usage_error(self, tmp_path, value):
        result = run_cli(["period", "--matrix", "m3.umat", "--r", value], cwd=tmp_path)
        assert result.returncode == 64
        assert f"--r: must be >= 1, got {value}" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("periods", ["0", "1,0", "2,-1"])
    def test_eval_periods_below_one_are_usage_errors(self, tmp_path, periods):
        out = tmp_path / "out.csv"
        result = run_cli(["eval", "--matrix", "m3.umat", "--periods", periods,
                          "--out", str(out)], cwd=tmp_path)
        assert result.returncode == 64
        assert f"--periods: entries must be >= 1, got {periods!r}" in result.stderr
        assert not out.exists()


def test_readme_commands_parse():
    prefix = "python -m qperiod "
    commands = [line[len(prefix):] for line in README.read_text().splitlines()
                if line.startswith(prefix)]
    assert len(commands) == 8
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command))
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


def commands_with_option(option):
    subs = next(action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
    return {name for name, sub in subs.choices.items() if option in sub._option_string_actions}


def readme_commands_before(phrase):
    """The `command` names in the README sentence that ends at phrase."""
    text = " ".join(README.read_text().split())
    head = text[:text.index(phrase)]
    return set(re.findall(r"`([a-z-]+)`", head[head.rindex(". ") + 2:]))


def test_readme_names_the_commands_with_out_dir_and_out():
    assert (readme_commands_before("write their artifacts to `--out-dir`")
            == commands_with_option("--out-dir"))
    assert readme_commands_before("write a CSV to `--out`") == commands_with_option("--out")


class TestClassifierPipeline:
    @pytest.fixture(scope="class")
    @classmethod
    def tiny_corpus_dir(cls, tmp_path_factory):
        out = tmp_path_factory.mktemp("corpus")
        result = run_cli(["corpus", "--qubits", "2", "--per-class", "6",
                          "--dataset-size", "3", "--epochs", "1500",
                          "--seed", "0", "--out-dir", str(out)], cwd=out)
        assert result.returncode == 0, result.stderr
        return out

    def test_corpus_artifacts(self, tiny_corpus_dir):
        manifest = json.loads((tiny_corpus_dir / "corpus_manifest.json").read_text())
        assert manifest["n_qubits"] == 2
        assert len(manifest["entries"]) == 12
        labels = [e["label"] for e in manifest["entries"]]
        assert labels.count(1) == 6 and labels.count(0) == 6
        for entry in manifest["entries"]:
            assert (tiny_corpus_dir / entry["matrix_path"]).exists()

    def test_period_policy_is_not_an_option(self, tmp_path):
        result = run_cli(["corpus", "--qubits", "2", "--per-class", "1",
                          "--period-policy", "cycle", "--out-dir", str(tmp_path)],
                         cwd=tmp_path)
        assert result.returncode == 64
        assert result.stdout == ""
        assert not (tmp_path / "corpus_manifest.json").exists()

    def test_classify_train_then_eval(self, tiny_corpus_dir, tmp_path):
        manifest = tiny_corpus_dir / "corpus_manifest.json"
        train_result = run_cli(["classify-train", "--corpus", str(manifest),
                                "--seed", "0", "--max-epochs", "30",
                                "--out-dir", str(tmp_path)], cwd=tmp_path)
        assert train_result.returncode == 0, train_result.stderr
        assert (tmp_path / "classifier.mlpc").exists()
        header, rows = parse_csv((tmp_path / "classifier_metrics.csv").read_text())
        assert header == ["epoch", "train_loss", "train_accuracy",
                          "val_loss", "val_accuracy"]
        assert 0 < len(rows) <= 30

        eval_result = run_cli(["classify-eval",
                               "--net", str(tmp_path / "classifier.mlpc"),
                               "--corpus", str(manifest), "--score-qft",
                               "--out", str(tmp_path / "scores.csv")], cwd=tmp_path)
        assert eval_result.returncode == 0, eval_result.stderr
        assert "accuracy=" in eval_result.stdout
        assert "qft_score=" in eval_result.stdout
        _, score_rows = parse_csv((tmp_path / "scores.csv").read_text())
        assert len(score_rows) == 3  # test split of a 12-entry corpus

    @pytest.mark.parametrize("key", ["matrix_path", "label"])
    def test_classify_eval_rejects_record_without_key(self, tiny_corpus_dir, tmp_path, key):
        manifest = json.loads((tiny_corpus_dir / "corpus_manifest.json").read_text())
        for entry in manifest["entries"]:
            entry["matrix_path"] = str(tiny_corpus_dir / entry["matrix_path"])
        del manifest["entries"][3][key]
        path = tmp_path / "corpus_manifest.json"
        path.write_text(json.dumps(manifest))
        net = classifier.initialize_mlp(classifier.MLPConfig(input_dim=32, hidden_dims=(4,)))
        io.write_mlp(tmp_path / "net.mlpc", net)
        result = run_cli(["classify-eval", "--net", str(tmp_path / "net.mlpc"),
                          "--corpus", str(path)], cwd=tmp_path)
        assert result.returncode == 1
        assert f"entry 3 has no '{key}'" in result.stderr
        assert "Traceback" not in result.stderr

    def test_classify_train_rejects_a_label_other_than_zero_or_one(self, tiny_corpus_dir,
                                                                    tmp_path):
        # labels [2, 1, 1, 1, 1, 0 x 7] would pass the balance check: 2 counts twice
        manifest = json.loads((tiny_corpus_dir / "corpus_manifest.json").read_text())
        for entry in manifest["entries"]:
            entry["matrix_path"] = str(tiny_corpus_dir / entry["matrix_path"])
        learned = [e for e in manifest["entries"] if e["label"] == 1]
        learned[0]["label"] = 2
        learned[-1]["label"] = 0
        path = tmp_path / "corpus_manifest.json"
        path.write_text(json.dumps(manifest))
        result = run_cli(["classify-train", "--corpus", str(path), "--max-epochs", "2",
                          "--out-dir", str(tmp_path / "out")], cwd=tmp_path)
        assert result.returncode == 1
        index = manifest["entries"].index(learned[0])
        assert f"entry {index} has label 2, not 0 or 1" in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "out").exists()

    def test_classify_train_divergence_exits_two(self, tiny_corpus_dir, tmp_path):
        result = run_cli(["classify-train",
                          "--corpus", str(tiny_corpus_dir / "corpus_manifest.json"),
                          "--alpha", "1e300", "--out-dir", str(tmp_path / "out")],
                         cwd=tmp_path)
        assert result.returncode == 2
        assert result.stderr == ("training diverged: "
                                 "classifier training diverged at epoch 0\n")
        assert not (tmp_path / "out").exists()

    def test_classify_train_rejects_a_matrix_path_that_is_not_a_string(self, tmp_path):
        # this was a TypeError traceback; read_corpus fails before any file is read
        path = tmp_path / "corpus_manifest.json"
        path.write_text(json.dumps({"n_qubits": 2,
                                    "entries": [{"matrix_path": 5, "label": 1}]}))
        result = run_cli(["classify-train", "--corpus", str(path), "--max-epochs", "2",
                          "--out-dir", str(tmp_path / "out")], cwd=tmp_path)
        assert result.returncode == 1
        assert result.stderr == (f"error: {path}: entry 0 has matrix_path 5, "
                                 "not a string\n")
        assert not (tmp_path / "out").exists()

    def test_classify_train_rejects_a_manifest_that_is_not_json(self, tmp_path):
        path = tmp_path / "corpus_manifest.json"
        path.write_text("{not json")
        result = run_cli(["classify-train", "--corpus", str(path), "--max-epochs", "2",
                          "--out-dir", str(tmp_path / "out")], cwd=tmp_path)
        assert result.returncode == 1
        assert result.stderr == (f"error: {path}: not valid JSON: Expecting property name "
                                 "enclosed in double quotes: line 1 column 2 (char 1)\n")
        assert not (tmp_path / "out").exists()

    def test_classify_eval_rejects_width_mismatch(self, tiny_corpus_dir, tmp_path):
        from qperiod import classifier as clf
        net = clf.initialize_mlp(clf.MLPConfig(input_dim=8, hidden_dims=(4,)))
        io.write_mlp(tmp_path / "wrong.mlpc", net)
        result = run_cli(["classify-eval", "--net", str(tmp_path / "wrong.mlpc"),
                          "--corpus", str(tiny_corpus_dir / "corpus_manifest.json")],
                         cwd=tmp_path)
        assert result.returncode == 1

    def test_classify_eval_rejects_an_output_layer_wider_than_one(self, tiny_corpus_dir,
                                                                  tmp_path):
        # the input width matches the n=2 corpus; only the output width is wrong.
        # write_mlp refuses such a net, so the file is packed by hand
        payload = np.full(32 * 4 + 4 + 4 * 2 + 2, 0.1).astype("<f8").tobytes()
        (tmp_path / "wide.mlpc").write_bytes(
            b"MLPC0001" + struct.pack("<4I", 2, 32, 4, 2) + payload)
        result = run_cli(["classify-eval", "--net", str(tmp_path / "wide.mlpc"),
                          "--corpus", str(tiny_corpus_dir / "corpus_manifest.json")],
                         cwd=tmp_path)
        assert result.returncode == 1
        assert "layer widths (32, 4, 2)" in result.stderr
        assert "Traceback" not in result.stderr
        assert "accuracy=" not in result.stdout


def test_diverged_train_exits_two_without_numpy_warnings(tmp_path, capsys):
    # in process, with warnings as errors: the overflow of a run stepped at
    # --lr 1e300, and of its summary, must not escape as a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["train", "--qubits", "2", "--dataset-size", "2", "--epochs", "5",
                     "--lr", "1e300", "--out-dir", str(tmp_path)])
    assert code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "loss_history.csv", "m3.umat", "run_manifest.json"]
    out, err = capsys.readouterr()
    assert err == "training diverged: loss diverged at epoch 0 (value nan)\n"
    assert out.startswith("final_loss=inf max_final_loss=nan unitarity_defect=nan epochs=0 ")


def test_train_rewrite_that_fails_part_way_leaves_no_manifest(tmp_path, monkeypatch, capsys):
    # in process, so the loss-history writer can fail after m3.umat is replaced
    argv = ["train", "--qubits", "2", "--dataset-size", "2", "--epochs", "5",
            "--out-dir", str(tmp_path)]
    main(argv)
    assert (tmp_path / "run_manifest.json").exists()
    old_m3 = (tmp_path / "m3.umat").read_bytes()

    def failing_write_csv(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(io, "write_csv", failing_write_csv)
    assert main(argv + ["--seed", "1"]) == 1
    assert "No space left on device" in capsys.readouterr().err
    # m3.umat is the new run's, loss_history.csv still the old one's
    assert sorted(p.name for p in tmp_path.iterdir()) == ["loss_history.csv", "m3.umat"]
    assert (tmp_path / "m3.umat").read_bytes() != old_m3


def test_corpus_out_of_attempts_exits_two(tmp_path, monkeypatch, capsys):
    # in process, so training can be replaced by one that always diverges
    def diverging_train(*args, **kwargs):
        raise training.DivergenceError("loss diverged at epoch 0 (value inf)")

    monkeypatch.setattr(classifier, "train", diverging_train)
    code = main(["corpus", "--qubits", "2", "--per-class", "1",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("corpus build failed: corpus generation exhausted 5 attempts")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_corpus_out_of_attempts_on_two_workers_exits_two(tmp_path, monkeypatch, capsys):
    # the forked workers inherit the replaced train
    def diverging_train(*args, **kwargs):
        raise training.DivergenceError("loss diverged at epoch 0 (value inf)")

    monkeypatch.setattr(classifier, "train", diverging_train)
    monkeypatch.setattr(classifier, "_corpus_workers", lambda per_class: 2)
    code = main(["corpus", "--qubits", "2", "--per-class", "2",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == (
        "corpus build failed: corpus generation exhausted 10 attempts for 2 accepted runs "
        "(0 accepted; 10 rejected, 10 of them diverged)\n")
    assert not (tmp_path / "out").exists()


def test_corpus_worker_death_exits_one(tmp_path, monkeypatch, capsys):
    # the forked workers inherit the replaced train; attempt 1's worker dies
    def train(dataset, *args, seed, **kwargs):
        if seed[2] == 1:
            os._exit(1)
        return np.array(circuit.inverse_qft_matrix(dataset.n)), [0.0]

    monkeypatch.setattr(classifier, "train", train)
    monkeypatch.setattr(classifier, "_corpus_workers", lambda per_class: 2)
    code = main(["corpus", "--qubits", "2", "--per-class", "2",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("corpus build failed: a corpus worker died with exit code 1")
    assert err.count("\n") == 1
    assert not (tmp_path / "out" / "corpus_manifest.json").exists()
    assert multiprocessing.active_children() == []
