#!/usr/bin/env python3
"""qperiod benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload train-n3 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. The run repeats the workload's set-up (caches cleared each time),
then runs whole rounds until `--seconds` have passed, checks every output,
and prints as its last line one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of a traced run with `--trace 1`. The line before it
records the environment. Exits 0 when it printed a result, 1 when the
package is missing, 64 on a usage error.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# BLAS threads for every workload: one, so runs on a shared two-core machine
# stay steady; it must not exceed the machine's cores.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOADS = ("train-n3", "corpus-n4", "classify-n4", "period-n8")
END_TO_END = {  # name -> unit
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput": "1/s",
    "unit_ms_p50": "ms",
}
# Set-up runs in slices of at least this long: one before the first round
# and, untraced, one between later rounds and operations, so its median
# samples the machine over the whole run as the rounds do.
SETUP_SLICE_S, SETUP_FIRST_REPS = 0.1, 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(64)


def parse_args(argv):
    ap = _Parser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def blas_info(numpy) -> dict:
    """BLAS name, version and the thread count the loaded library reports."""
    import ctypes
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
        if threads is not None:
            break
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads if threads is not None else BLAS_THREADS}


def environment(numpy) -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            **blas_info(numpy), "blas_threads_requested": BLAS_THREADS,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def set_up(workload, clear_caches, times, min_reps):
    """One slice of set-up repetitions, each from cleared caches, timed one by one."""
    started = time.perf_counter()
    while min_reps > 0 or time.perf_counter() - started < SETUP_SLICE_S:
        clear_caches()
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
        min_reps -= 1


def measure(args, modules, workdir):
    import tracer as tracing
    import workloads

    clear_caches = workloads.cache_clearer(modules)
    workload = workloads.BY_NAME[args.workload](args.seed, workdir, modules)

    setup_times = []
    set_up(workload, clear_caches, setup_times, SETUP_FIRST_REPS)

    def pause():
        if not args.trace:
            set_up(workload, clear_caches, setup_times, 1)

    tracer = tracing.Tracer()
    if args.trace:
        tracer.install(modules)
    ledger = workloads.Ledger()
    rounds = 0
    started = time.perf_counter()
    try:
        while rounds == 0 or time.perf_counter() - started < args.seconds:
            if rounds:
                pause()
            workload.run_round(rounds, ledger, pause)
            rounds += 1
    finally:
        tracer.uninstall()
    wall = time.perf_counter() - started

    if args.trace:
        metrics = tracer.metrics(rounds)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "throughput": ledger.units / ledger.busy_s if ledger.busy_s else 0.0,
            "unit_ms_p50": statistics.median(ledger.samples_ms or [0.0]),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "rounds": rounds, "wall_s": wall, "busy_s": ledger.busy_s,
               "units": ledger.units, "unit": workload.unit,
               "samples": len(ledger.samples_ms), "setup_reps": len(setup_times)}
    return ledger, metrics, summary, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qperiod" / "__init__.py").is_file():
        print(f"error: no qperiod package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 1
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import numpy
    import tracer as tracing

    modules = tracing.package_modules("qperiod")
    if Path(modules["cli"].__file__).resolve().parent != SRC / "qperiod":
        print(f"error: imported qperiod from {modules['cli'].__file__}, not {SRC}",
              file=sys.stderr)
        return 1

    workdir = HERE / "out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ledger, metrics, summary, tracer = measure(args, modules, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(numpy)
    for message in ledger.errors + ledger.failures:
        print(message, file=sys.stderr)
    if args.trace:
        traces = HERE / "traces"
        traces.mkdir(exist_ok=True)
        record = {"env": env, "summary": summary, "per_layer": metrics, **tracer.dump()}
        with open(traces / f"{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    print("env " + json.dumps(env, sort_keys=True))
    print("run " + json.dumps(summary, sort_keys=True))
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
