"""Command line interface: bench, lq-phase, and solve subcommands.

Flags may also come from a flat key=value config file (--config); any flag
given on the command line overrides the file.  Exit codes: 0 success,
2 configuration error, 3 problem-load error.
"""

from __future__ import annotations

import argparse
import sys

from .bench import (
    BenchConfig,
    ConfigError,
    ProblemLoadError,
    emit_csv,
    emit_phase_csv,
    lq_phase_experiment,
    run_benchmark,
)
from .problems import InfeasibleAtLambdaZero, ParseError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROBLEM = 3


def _read_config_file(path: str) -> dict:
    out = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                k, v = line.split("=", 1)
                out[k.strip().replace("-", "_")] = v.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out


# dest -> (converter, default); conversions apply to config-file strings
_BENCH_FIELDS = {
    "problem": (str, None),
    "reg": (str, "l1"),
    "groups": (int, 0),
    "lambda_frac": (float, None),
    "lambda_abs": (float, None),
    "solvers": (str, "noncvx-pro,cd"),
    "budget_s": (float, None),
    "iters": (int, 500),
    "seed": (int, 0),
    "out": (str, None),
}

_PHASE_FIELDS = {
    "n": (int, 64),
    "k": (int, 10),
    "m_range": (str, "24:44:4"),
    "q_list": (str, "0.8,1.0"),
    "trials": (int, 20),
    "restarts": (int, 10),
    "seed": (int, 0),
    "out": (str, None),
}


def _merge(args: argparse.Namespace, fields: dict) -> dict:
    file_cfg = _read_config_file(args.config) if getattr(args, "config", None) else {}
    merged = {}
    for dest, (conv, default) in fields.items():
        cli = getattr(args, dest, None)
        if cli is not None:
            merged[dest] = cli
        elif dest in file_cfg:
            try:
                merged[dest] = conv(file_cfg[dest])
            except ValueError as exc:
                raise ConfigError(f"config key {dest}: {exc}") from None
        else:
            merged[dest] = default
    return merged


def _add_bench_flags(p: argparse.ArgumentParser):
    p.add_argument("--problem", help="synth:m=..,n=..,s=.. | libsvm:PATH | graph:PATH[,src=I,sink=J] | mt:t=..,m=..,n=..")
    p.add_argument("--reg", help="l1 | group | trace | lq:<q> (default l1)")
    p.add_argument("--groups", type=int, help="contiguous group count for reg=group")
    p.add_argument("--lambda-frac", type=float, dest="lambda_frac",
                   help="set lam = lambda_max / this value")
    p.add_argument("--lambda", type=float, dest="lambda_abs",
                   help="absolute lam (0 gives the constrained problem); overrides --lambda-frac")
    p.add_argument("--budget-s", type=float, dest="budget_s", help="per-solver wall budget in seconds")
    p.add_argument("--iters", type=int, help="iteration cap per solver (default 500)")
    p.add_argument("--seed", type=int, help="random seed (default 0)")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--config", help="flat key=value config file; CLI flags win")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="noncvxpro", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="race several solvers on one problem")
    _add_bench_flags(b)
    b.add_argument("--solvers", help="comma list (default noncvx-pro,cd)")

    s = sub.add_parser("solve", help="run a single solver and print the result")
    _add_bench_flags(s)
    s.add_argument("--solver", default=None, help="solver name (default noncvx-pro)")

    q = sub.add_parser("lq-phase", help="sparse-recovery success counts over (m, q)")
    q.add_argument("--n", type=int, help="dimension (default 64)")
    q.add_argument("--k", type=int, help="sparsity of the ground truth (default 10)")
    q.add_argument("--m-range", dest="m_range", help="a:b:step (inclusive) or comma list")
    q.add_argument("--q-list", dest="q_list", help="comma list of exponents (default 0.8,1.0)")
    q.add_argument("--trials", type=int, help="trials per cell (default 20)")
    q.add_argument("--restarts", type=int, help="random starts per trial (default 10)")
    q.add_argument("--seed", type=int)
    q.add_argument("--out", help="CSV output path")
    q.add_argument("--config", help="flat key=value config file; CLI flags win")
    return ap


def _parse_m_range(spec: str) -> list:
    if ":" in spec:
        parts = [int(p) for p in spec.split(":")]
        if len(parts) == 2:
            parts.append(1)
        a, b, step = parts
        return list(range(a, b + 1, step))
    return [int(p) for p in spec.split(",")]


def _bench_config(merged: dict, solvers: tuple) -> BenchConfig:
    if not merged["problem"]:
        raise ConfigError("--problem is required")
    return BenchConfig(
        problem=merged["problem"],
        reg=merged["reg"],
        groups=merged["groups"],
        lambda_frac=merged["lambda_frac"],
        lambda_abs=merged["lambda_abs"],
        solvers=solvers,
        budget_s=merged["budget_s"],
        iters=merged["iters"],
        seed=merged["seed"],
        out=merged["out"],
    )


def _cmd_bench(args) -> int:
    merged = _merge(args, _BENCH_FIELDS)
    solvers = tuple(s.strip() for s in merged["solvers"].split(",") if s.strip())
    config = _bench_config(merged, solvers)
    report = run_benchmark(config)
    for tr in report.traces:
        best = min(tr.objectives) if tr.objectives else float("nan")
        print(f"{tr.name}: samples={len(tr.objectives)} best={best:.12g}")
    for name, msg in report.failures.items():
        print(f"{name}: FAILED {msg}", file=sys.stderr)
    for flag in report.flags:
        print(f"warning: {flag}", file=sys.stderr)
    print(f"f* = {report.f_star:.12g}")
    if config.out:
        emit_csv(report, config.out)
        print(f"wrote {config.out}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    merged = _merge(args, _BENCH_FIELDS)
    solver = args.solver or "noncvx-pro"
    config = _bench_config(merged, (solver,))
    report = run_benchmark(config)
    if report.failures:
        for name, msg in report.failures.items():
            print(f"{name}: FAILED {msg}", file=sys.stderr)
        return EXIT_PROBLEM
    tr = report.traces[0]
    print(f"{tr.name}: objective={min(tr.objectives):.12g} samples={len(tr.objectives)}")
    if config.out:
        emit_csv(report, config.out)
        print(f"wrote {config.out}")
    return EXIT_OK


def _cmd_phase(args) -> int:
    merged = _merge(args, _PHASE_FIELDS)
    table = lq_phase_experiment(
        n=merged["n"],
        k_sparse=merged["k"],
        m_range=_parse_m_range(merged["m_range"]),
        q_list=[float(s) for s in merged["q_list"].split(",") if s.strip()],
        trials=merged["trials"],
        restarts=merged["restarts"],
        seed=merged["seed"],
    )
    print("m " + " ".join(f"q={q}" for q in table.qs))
    for mi, m in enumerate(table.m_range):
        print(f"{m} " + " ".join(str(table.success[q][mi]) for q in table.qs))
    if merged["out"]:
        emit_phase_csv(table, merged["out"])
        print(f"wrote {merged['out']}")
    return EXIT_OK


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_phase(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ProblemLoadError, ParseError, InfeasibleAtLambdaZero, OSError) as exc:
        print(f"problem error: {exc}", file=sys.stderr)
        return EXIT_PROBLEM


if __name__ == "__main__":
    sys.exit(main())
