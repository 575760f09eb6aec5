#!/usr/bin/env python3
"""Show that the benchmark's independent checkers catch wrong answers.

    python3 perfbench/selftest.py

Run from the root of a source checkout. For each checker it feeds the
right answer, which must pass, and a planted wrong one, which must be
reported: a Haar matrix in place of a learned one, a period estimate of
r+1, and a classifier net with one weight perturbed. It also compares the
numpy.fft reference with `circuit.reference_distribution` for every r at
n=3, 4 and 8, and the metric names in BENCHMARK.json with the ones the
benchmark prints. Exits 0 when every check behaves, 1 otherwise.
"""

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import checks
    import run
    import tracer
    import workloads
    from qperiod import circuit, classifier

    bad = []

    def expect(name, failures, should_fail):
        caught = bool(failures)
        ok = caught == should_fail
        verdict = ("reported" if caught else "passed") + ("" if ok else "  <-- WRONG")
        detail = f": {failures[0]}" if failures else ""
        print(f"{'ok ' if ok else 'BAD'} {name}: {verdict}{detail}")
        if not ok:
            bad.append(name)

    worst = 0.0
    for n in (3, 4, 8):
        for r in range(1, 2 ** n + 1):
            f = circuit.generate_periodic_function(n, n, r, r)
            worst = max(worst, float(np.abs(circuit.reference_distribution(f)
                                            - checks.reference_distribution(n, r)).max()))
    expect(f"numpy.fft reference vs circuit.reference_distribution, n=3,4,8 (max {worst:.2e})",
           [] if worst <= 1e-13 else [f"max difference {worst:.3e}"], False)

    manifest_path = HERE / "data" / "corpus_n4" / "corpus_manifest.json"
    with open(manifest_path) as fh:
        records = json.load(fh)["entries"]
    learned = next(rec for rec in records if rec["label"] == 1)
    haar = next(rec for rec in records if rec["label"] == 0)
    rng = np.random.default_rng(0)
    functions = [(4, r, checks.fresh_table(4, r, rng)) for r in learned["provenance"]["periods"]]
    m_learned = checks.read_umat(manifest_path.parent / learned["matrix_path"])
    m_haar = checks.read_umat(manifest_path.parent / haar["matrix_path"])
    expect("learned matrix on fresh functions of its periods",
           checks.check_learned(m_learned, functions), False)
    expect("planted: Haar matrix in place of the learned one",
           checks.check_learned(m_haar, functions), True)
    expect("planted: the Haar matrix against the train-n3 bound (6 x the gate)",
           checks.check_learned(m_haar, functions, gate=6 * checks.LOSS_GATE), True)
    expect("Haar matrix is unitary", checks.check_haar(m_haar), False)
    expect("planted: learned matrix where a Haar draw belongs", checks.check_haar(m_learned), True)

    n = 8
    size = 2 ** n
    qft = np.fft.fft(np.eye(size)) / np.sqrt(size)
    gauged = np.exp(1j * rng.uniform(0, 2 * np.pi, size))[:, None] * qft
    right = [f for r in range(2, 129) for f in checks.check_estimate(r, r, gauged, n)]
    wrong = [r for r in range(2, 129) if not checks.check_estimate(r + 1, r, gauged, n)]
    expect("estimate r through the gauged inverse QFT, r=2..128", right, False)
    expect("planted: estimate r+1 for every r=2..128",
           [f"r+1 reported for {127 - len(wrong)} of 127"] if not wrong else [], True)

    net = classifier.initialize_mlp(classifier.MLPConfig(input_dim=2 ** 9, seed=0))
    examples = [(checks.read_umat(manifest_path.parent / rec["matrix_path"]), rec["label"])
                for rec in records[:8] + records[-8:]]
    _, scores = classifier.evaluate(net, examples)
    matrices = [m for m, _ in examples]
    expect("classifier scores vs plain forward pass",
           checks.check_scores(net.weights, net.biases, matrices, scores), False)
    perturbed = copy.deepcopy(net.weights)
    hidden = np.array([checks.features(m) for m in matrices])
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        hidden = np.maximum(hidden @ w + b, 0.0)
    perturbed[-1][int(np.argmax(hidden.sum(axis=0))), 0] += 1e-3
    expect("planted: one output-layer weight perturbed by 1e-3",
           checks.check_scores(perturbed, net.biases, matrices, scores), True)

    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    listed_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    listed_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    printed_layer = {name: unit for name, (_, unit) in tracer.Tracer().metrics(1).items()}
    expect("BENCHMARK.json end_to_end matches the printed metrics",
           [] if listed_e2e == run.END_TO_END else [f"{listed_e2e} != {run.END_TO_END}"], False)
    expect("BENCHMARK.json per_layer matches the traced metrics",
           [] if listed_layer == printed_layer else
           [f"differ in {sorted(set(listed_layer.items()) ^ set(printed_layer.items()))}"],
           False)
    names = [w["name"] for w in bench["workloads"]]
    expect("BENCHMARK.json workloads match the runnable ones",
           [] if names == list(run.WORKLOADS) == list(workloads.BY_NAME) else ["differ"], False)

    print("all checkers behave" if not bad else f"{len(bad)} checks misbehaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
