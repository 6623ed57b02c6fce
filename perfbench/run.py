"""Benchmark of noncvxpro: one workload per process, BLAS pinned to one thread.

    python3 perfbench/run.py --workload lasso-wide --seed 1 --seconds 35 --trace 0

Runs rounds of the workload (see workloads.py) until --seconds have passed,
at least three, checks every output, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones (medians over the run's samples); with
--trace 1 untraced and traced rounds alternate, and the metrics are the
per-layer ones from the traced rounds plus trace_overhead_s.  The spans of a
traced run are written to perfbench/out/ as JSONL.
"""

import os

# Before numpy is imported: OpenBLAS reads these once, when it loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ROUNDS = 3  # untraced rounds; a traced run makes at least two of each kind

# The two OpenBLAS copies in the process (numpy's 64-bit-integer one and
# scipy's) and the symbol that reads each one's thread count.
BLAS_THREAD_GETTERS = {
    "libscipy_openblas64_": "scipy_openblas_get_num_threads64_",
    "libscipy_openblas-": "scipy_openblas_get_num_threads",
}


def blas_threads():
    """Thread count of each loaded OpenBLAS copy, read back from the library."""
    import numpy  # noqa: F401  loads numpy's OpenBLAS
    import scipy.linalg  # noqa: F401  loads scipy's

    with open("/proc/self/maps") as fh:
        loaded = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]}
    counts = {}
    for path in sorted(loaded):
        base = path.rsplit("/", 1)[-1]
        for prefix, symbol in BLAS_THREAD_GETTERS.items():
            if base.startswith(prefix):
                getter = getattr(ctypes.CDLL(path), symbol)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                counts[symbol] = getter()
    return counts


def git_commit():
    """The checked-out commit, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_plain(runner, seconds, start):
    samples = {"setup": [], "solve": [], "race": []}
    durations = []
    clock = time.perf_counter
    while True:
        t0 = clock()
        got = runner.round()
        durations.append(clock() - t0)
        for key, vals in samples.items():
            vals.extend(got[key])
        if len(durations) >= MIN_ROUNDS and clock() - start + max(durations) > seconds:
            break
    metrics = {
        "setup_s": (statistics.median(samples["setup"]), "s"),
        "solve_s": (statistics.median(samples["solve"]), "s"),
        "race_s": (statistics.median(samples["race"]), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    return metrics, {k: len(v) for k, v in samples.items()}


def run_traced(runner, seconds, start, tracer, required):
    """Alternate untraced and traced rounds; per-layer metrics from the traced."""
    import tracing
    from checks import CheckFailed

    solve = {False: [], True: []}
    traced_rounds = []
    lbfgs = {}  # traced round -> the (iters, nfev) the round's own results report
    pair_durations = []
    clock = time.perf_counter
    while True:
        t0 = clock()
        for traced in (False, True):
            if traced:
                tracer.round = len(traced_rounds)
                traced_rounds.append(tracer.round)
                tracer.install()
            try:
                got = runner.round()
            finally:
                tracer.uninstall()
            solve[traced].extend(got["solve"])
            if traced:
                lbfgs[tracer.round] = got["lbfgs"]
        pair_durations.append(clock() - t0)
        if len(traced_rounds) >= 2 and clock() - start + max(pair_durations) > seconds:
            break

    metrics, per_round, mismatched = tracing.summarize(tracer, traced_rounds)
    if mismatched:
        raise CheckFailed(f"counts differ between traced rounds: {mismatched}")
    for rnd, rs in zip(traced_rounds, per_round):
        missing = [name for name in required if not rs.calls.get(name)]
        if missing:
            raise CheckFailed(f"wrappers saw no calls: {missing}")
        spans = rs.phases["solve"]
        if (spans.iters, spans.nfev) != lbfgs[rnd]:
            raise CheckFailed(f"lbfgs.minimize spans of the solves count (iters, nfev) "
                              f"{(spans.iters, spans.nfev)}, the solves report {lbfgs[rnd]}")
    overhead = statistics.median(solve[True]) - statistics.median(solve[False])
    metrics["trace_overhead_s"] = (overhead, "s")
    return metrics, {"rounds": 2 * len(traced_rounds), "traced rounds": len(traced_rounds),
                     "solves": len(solve[False]), "traced solves": len(solve[True])}


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "noncvxpro" / "__init__.py").is_file():
        print(f"no noncvxpro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    threads = blas_threads()
    if sorted(threads) != sorted(BLAS_THREAD_GETTERS.values()) or set(threads.values()) != {1}:
        print(f"BLAS is not pinned to one thread in both OpenBLAS copies: {threads}", file=sys.stderr)
        return 3

    import numpy
    import scipy

    import checks
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    start = time.perf_counter()
    runner = workloads.Runner(wl, args.seed)
    print(f"# workload {wl.name}  seed {args.seed}  instance seeds {[c.seed for c in runner.configs]}"
          + (f"  sweep seed {wl.sweep.seed}" if wl.sweep else "")
          + f"  seconds {args.seconds:g}  trace {args.trace}")
    print(f"# python {platform.python_version()}  numpy {numpy.__version__}  scipy {scipy.__version__}"
          f"  nproc {os.cpu_count()}  blas threads {threads}  commit {git_commit()}")

    correct = True
    metrics, counts = {}, {}
    tracer = tracing.Tracer()
    try:
        checks.self_test()
        runner.warmup()
        if args.trace:
            metrics, counts = run_traced(
                runner, args.seconds, start, tracer, workloads.REQUIRED_SPANS[wl.name])
        else:
            metrics, counts = run_plain(runner, args.seconds, start)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    finally:
        if tracer.spans:
            out = HERE / "out"
            out.mkdir(exist_ok=True)
            tracer.write_jsonl(out / f"spans-{wl.name}-seed{args.seed}.jsonl")

    print(f"# samples {counts}  wall {time.perf_counter() - start:.1f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
