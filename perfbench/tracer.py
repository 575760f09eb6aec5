"""Per-layer tracing from outside the package: wrappers on its public functions.

`Tracer.install` wraps every public function of the package's modules and
rebinds every module attribute that refers to one, so a name a module
imported from another (`classifier.adam_step`, `classifier.sample_loss`,
`circuit.distribution_distance`, ...) is traced where it is looked up. Each
wrapper records a span: calls, inclusive time and self time (the span minus
the wrapped spans nested in it), plus parent -> child call counts. Spans
are aggregated in memory and written out once, at the end of the run.
"""

import inspect
import math
import os
import statistics
import time
from collections import Counter, defaultdict

LAYERS = ("linalg", "circuit", "training", "analysis", "classifier", "io", "cli")


def package_modules(package: str) -> dict:
    import importlib
    return {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}


def public_functions(layer: str, module) -> dict:
    """Public callables defined in the module itself (not re-exported names)."""
    names = getattr(module, "__all__", None) or ["main"]
    found = {}
    for name in names:
        obj = getattr(module, name, None)
        if callable(obj) and not isinstance(obj, type) \
                and getattr(obj, "__module__", None) == module.__name__:
            found[f"{layer}.{name}"] = obj
    return found


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.edges = Counter()
        self.counts = Counter()
        self.seconds = defaultdict(float)
        self.cli_ms = []  # duration of each cli.main call, for its tail
        self._stack = []  # [span name, seconds covered by child spans]
        self._restore = []

    def install(self, modules: dict) -> None:
        wrapped = {}
        for layer, module in modules.items():
            for qualname, fn in public_functions(layer, module).items():
                wrapped[id(fn)] = (fn, self._wrap(qualname, fn))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, qualname: str, fn):
        signature = inspect.signature(fn)
        observe = _OBSERVERS.get(qualname) or (_observe_io if qualname.startswith("io.") else None)

        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            frame = [qualname, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.calls[qualname] += 1
                self.total_s[qualname] += elapsed
                self.self_s[qualname] += elapsed - frame[1]
                self.edges[(parent, qualname)] += 1
                if self._stack:
                    self._stack[-1][1] += elapsed
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(self, qualname, bound.arguments, result, elapsed)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        return wrapper

    def metrics(self, rounds: int) -> dict:
        """Per-layer figures; counts and self times are per round of the workload."""
        rounds = max(rounds, 1)
        c, s = self.counts, self.seconds
        out = {}
        for qualname in PER_CALL_METRICS:
            out[f"{qualname}.calls"] = (self.calls[qualname] / rounds, "count")
            out[f"{qualname}.self_s"] = (self.self_s[qualname] / rounds, "s")
        estimates = self.calls["circuit.estimate_period"]
        comparisons = self.edges[("circuit.estimate_period", "analysis.distribution_distance")]
        out.update({
            "training.steps": (c["train_steps"] / rounds, "count"),
            "training.step_us": (_ratio(s["train"] * 1e6, c["train_steps"]), "us"),
            "training.epochs_per_run": (_ratio(c["train_epochs"], c["train_runs"]), "count"),
            "classifier.attempts": (c["corpus_attempts"] / rounds, "count"),
            "classifier.accepted": (c["corpus_accepted"] / rounds, "count"),
            "classifier.accept_ratio": (_ratio(c["corpus_accepted"], c["corpus_attempts"]),
                                        "ratio"),
            "classifier.epochs": (c["mlp_epochs"] / rounds, "count"),
            "classifier.batches": (c["mlp_batches"] / rounds, "count"),
            "classifier.epoch_ms": (_ratio(s["train_classifier"] * 1e3, c["mlp_epochs"]), "ms"),
            "circuit.candidates_per_estimate": (_ratio(comparisons, estimates), "count"),
            "cli.main.p95_ms": (_p95(self.cli_ms), "ms"),
            "io.bytes_read": (c["bytes_read"] / rounds, "B"),
            "io.bytes_written": (c["bytes_written"] / rounds, "B"),
        })
        return out

    def dump(self) -> dict:
        return {
            "functions": {
                name: {"calls": self.calls[name], "total_s": self.total_s[name],
                       "self_s": self.self_s[name]}
                for name in sorted(self.calls)
            },
            "edges": [{"parent": p, "child": ch, "calls": n}
                      for (p, ch), n in sorted(self.edges.items(), key=lambda kv: str(kv[0]))],
            "counts": dict(self.counts),
        }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _p95(values) -> float:
    """95th percentile, interpolated as numpy's default does; 0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def _observe_cli_main(tracer, qualname, args, result, elapsed):
    tracer.cli_ms.append(elapsed * 1e3)


def _observe_train(tracer, qualname, args, result, elapsed):
    _, history = result
    tracer.counts["train_runs"] += 1
    tracer.counts["train_epochs"] += len(history)
    tracer.counts["train_steps"] += len(history) * len(args["dataset"])
    tracer.seconds["train"] += elapsed


def _observe_build_corpus(tracer, qualname, args, result, elapsed):
    learned = [p for (_, label), p in zip(result.entries, result.provenance) if label == 1]
    tracer.counts["corpus_accepted"] += len(learned)
    # the build stops right after its last acceptance
    tracer.counts["corpus_attempts"] += max(p["attempt"] for p in learned) + 1


def _observe_train_classifier(tracer, qualname, args, result, elapsed):
    _, history = result
    batches = math.ceil(len(args["splits"].train) / args["batch_size"])
    tracer.counts["mlp_epochs"] += len(history)
    tracer.counts["mlp_batches"] += len(history) * batches
    tracer.seconds["train_classifier"] += elapsed


def _observe_io(tracer, qualname, args, result, elapsed):
    """Bytes of the one file an io call names: a corpus call counts its manifest,
    the nested unitary calls count the matrix files."""
    target = result if isinstance(result, (str, os.PathLike)) else next(iter(args.values()), None)
    if not isinstance(target, (str, os.PathLike)) or not os.path.isfile(target):
        return
    kind = "bytes_read" if qualname.startswith("io.read_") else "bytes_written"
    tracer.counts[kind] += os.path.getsize(target)


_OBSERVERS = {
    "cli.main": _observe_cli_main,
    "training.train": _observe_train,
    "classifier.build_corpus": _observe_build_corpus,
    "classifier.train_classifier": _observe_train_classifier,
}

# functions whose calls and self time are reported as per-layer metrics
PER_CALL_METRICS = (
    "training.train", "training.adam_step", "training.loss", "training.target_distribution",
    "classifier.build_corpus", "classifier.train_classifier", "classifier.split_corpus",
    "classifier.evaluate",
    "circuit.estimate_period", "circuit.reference_distribution", "circuit.apply_post_unitary",
    "circuit.generate_periodic_function",
    "analysis.distribution_distance", "analysis.eigenphase_histogram",
    "linalg.haar_random_unitary", "linalg.unitarity_defect", "linalg.eigenphases",
    "io.read_unitary", "io.write_unitary", "io.write_run_manifest", "io.write_csv",
    "io.read_corpus", "io.write_corpus",
    "cli.main",
)
