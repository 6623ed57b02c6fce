"""Run the benchmark once per seed and report each metric's quartile spread.

    python3 perfbench/spread.py --workload lasso-wide --seeds 1-10 [--seconds 35] [--trace 0]

Runs are sequential, one process each.  For every metric it prints the
median, the quartiles (statistics.quantiles(values, n=4)) and the distance
between the quartiles as a share of the median, which is the figure each
end-to-end metric's bound in BENCHMARK.json is compared against.  The
per-run JSON results are appended to perfbench/out/spread.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    values = {}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(out / "spread.jsonl", "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        share = result["failed"] / result["attempted"]
        print(f"seed {seed}: correct {result['correct']} attempted {result['attempted']} "
              f"failed share {share:g}  " + "  ".join(
                  f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:28s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}")


if __name__ == "__main__":
    main()
