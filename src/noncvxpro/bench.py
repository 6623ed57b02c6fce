"""Benchmark orchestration: problem loading, solver races, CSV, phase study.

A benchmark run builds one problem, races the requested solvers under a
shared wall-clock budget, and reports every sampled objective together
with its suboptimality against the best value any solver reached.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from . import baselines
from .lbfgs import LbfgsConfig, last_point_cache, minimize
from .problems import (
    BeckmannProblem,
    InfeasibleAtLambdaZero,
    MultiTaskProblem,
    Problem,
    multitask_objective,
    parse_libsvm,
    primal_objective,
    standardize,
    synth_lasso,
)
from .regularizers import GroupL2, GroupStructure, L1, Lq, lambda_max
from .varpro import InconsistentSystem, eval_state, f_and_grad_matrix, recover_beta


class ConfigError(ValueError):
    """The benchmark configuration is invalid."""


class ProblemLoadError(ValueError):
    """The problem source could not be loaded or built."""


@dataclass
class BenchConfig:
    """Everything one benchmark run needs.

    problem strings: "synth:m=20,n=40,s=5", "libsvm:PATH",
    "graph:PATH[,src=I,sink=J]", "mt:t=3,m=12,n=6".  lambda_frac r means
    lam = lambda_max / r; lambda_abs wins when both are set and may be 0.
    """

    problem: str
    reg: str = "l1"
    groups: int = 0
    lambda_frac: float | None = None
    lambda_abs: float | None = None
    solvers: tuple = ("noncvx-pro", "cd")
    budget_s: float | None = None
    iters: int = 500
    seed: int = 0
    out: str | None = None
    solver_configs: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.solvers:
            raise ConfigError("need at least one solver")
        if self.lambda_frac is not None and self.lambda_frac <= 0:
            raise ConfigError("lambda_frac must be positive")
        if self.lambda_abs is not None and self.lambda_abs < 0:
            raise ConfigError("lambda must be nonnegative")


@dataclass
class BenchReport:
    """Solver traces plus the cross-solver reference value f*."""

    traces: list
    f_star: float
    failures: dict
    flags: list
    config: BenchConfig

    def rows(self):
        """Yield (solver, iteration, time_s, objective, suboptimality)."""
        for tr in self.traces:
            for it, t, obj in zip(tr.iterations, tr.times, tr.objectives):
                yield tr.name, it, t, obj, obj - self.f_star


def _parse_kv(body: str) -> dict:
    out = {}
    for part in body.split(","):
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"expected key=value, got {part!r}")
        k, v = part.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _build_reg(spec: str, n: int, groups: int):
    if spec == "l1":
        return L1()
    if spec == "group":
        if groups <= 0:
            raise ConfigError("reg=group needs a positive --groups count")
        return GroupL2(GroupStructure.contiguous(n, groups))
    if spec.startswith("lq:"):
        try:
            return Lq(float(spec[3:]))
        except ValueError as exc:
            raise ConfigError(f"bad lq spec {spec!r}: {exc}") from None
    raise ConfigError(f"unknown regularizer {spec!r}")


def _trace_lambda_max(mt: MultiTaskProblem) -> float:
    G = np.stack([X.T @ y for X, y in zip(mt.Xs, mt.ys)], axis=1)
    return float(np.linalg.norm(G, 2))


def load_problem(config: BenchConfig):
    """Build the Problem or MultiTaskProblem a config describes."""
    kind, _, body = config.problem.partition(":")
    if config.reg == "trace" and kind != "mt":
        raise ConfigError("reg=trace applies to mt: problems only (mt: selects the trace norm itself)")
    rng = np.random.default_rng(config.seed)
    try:
        if kind == "synth":
            kv = _parse_kv(body)
            m, n, s = int(kv["m"]), int(kv["n"]), int(kv.get("s", max(1, int(kv["n"]) // 10)))
            noise = float(kv.get("noise", 0.0))
            reg = _build_reg(config.reg, n, config.groups)
            prob, _ = synth_lasso(m, n, s, seed=config.seed, lam=1.0, noise=noise, reg=reg)
            lam = _resolve_lambda(config, prob.X, prob.y, reg)
            return Problem(prob.X, prob.y, lam, reg)
        if kind == "libsvm":
            with open(body.split(",")[0]) as fh:
                X, y = parse_libsvm(fh)
            X, y = standardize(X, y)
            reg = _build_reg(config.reg, X.shape[1], config.groups)
            lam = _resolve_lambda(config, X, y, reg)
            return Problem(X, y, lam, reg)
        if kind == "graph":
            parts = _parse_kv(",".join(body.split(",")[1:])) if "," in body else {}
            path = body.split(",")[0]
            edges = []
            nodes = 0
            with open(path) as fh:
                for line in fh:
                    toks = line.split()
                    if not toks:
                        continue
                    i, j = int(toks[0]), int(toks[1])
                    edges.append((i, j))
                    nodes = max(nodes, i + 1, j + 1)
            src = int(parts.get("src", 0))
            sink = int(parts.get("sink", nodes - 1))
            a = np.zeros(nodes)
            b = np.zeros(nodes)
            a[src] = 1.0
            b[sink] = 1.0
            return BeckmannProblem(nodes, edges, a, b).to_problem()
        if kind == "mt":
            kv = _parse_kv(body)
            T, m, n = int(kv.get("t", 3)), int(kv["m"]), int(kv["n"])
            r = int(kv.get("r", max(1, min(T, n) // 2 + 1)))
            B = rng.standard_normal((n, r)) @ rng.standard_normal((r, T))
            Xs = [rng.standard_normal((m, n)) for _ in range(T)]
            ys = [X @ B[:, t] for t, X in enumerate(Xs)]
            mt = MultiTaskProblem(Xs, ys, lam=1.0)
            if config.lambda_abs is not None:
                lam = config.lambda_abs
            else:
                frac = config.lambda_frac if config.lambda_frac is not None else 10.0
                lam = _trace_lambda_max(mt) / frac
            if lam <= 0:
                raise ConfigError("trace problems need lam > 0")
            return MultiTaskProblem(Xs, ys, lam=lam)
    except (KeyError, ValueError, OSError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ProblemLoadError(f"cannot load problem {config.problem!r}: {exc}") from exc
    raise ConfigError(f"unknown problem kind {kind!r}")


def _resolve_lambda(config: BenchConfig, X, y, reg) -> float:
    if config.lambda_abs is not None:
        return config.lambda_abs
    frac = config.lambda_frac if config.lambda_frac is not None else 10.0
    base_reg = reg if isinstance(reg, GroupL2) else L1()
    return lambda_max(X, y, base_reg) / frac


def _state_oracle(prob):
    """L-BFGS oracle over eval_state (infinite where y is unreachable), and
    a reader of the VarProState at a point that reuses the oracle's last one."""
    eval_at, state_at = last_point_cache(lambda v: eval_state(prob, v))

    def oracle(v):
        try:
            st = eval_at(v)
        except InconsistentSystem:
            return np.inf, np.zeros_like(v)
        return st.f, st.grad

    return oracle, state_at


def _matrix_oracle(mt: MultiTaskProblem):
    """L-BFGS oracle over the flattened trace-norm factor V, and a reader of
    B at a point that reuses the oracle's last evaluation."""
    n = mt.n
    eval_at, out_at = last_point_cache(lambda x: f_and_grad_matrix(mt, x.reshape(n, n)))

    def oracle(x):
        f, G, _ = eval_at(x)
        return f, G.ravel()

    return oracle, lambda x: out_at(x)[2]


def run_noncvxpro(prob, budget_s=None, seed: int = 0, iters: int = 500,
                  config: LbfgsConfig | None = None) -> baselines.SolverTrace:
    """Race entry for the smooth bilevel method itself.

    Outer start is standard normal (seeded).  Each accepted step records
    the primal objective of the recovered coefficients; at lam = 0 the
    recovered point satisfies the constraint by construction, so the
    objective is just R(beta).  The callback and the final coefficients
    reuse the inner solves the oracle made at the accepted point, so a
    solve makes one inner evaluation per oracle call.
    """
    cfg = config or LbfgsConfig(max_iters=iters)
    tr = baselines.SolverTrace("noncvx-pro", config={"iters": cfg.max_iters, "seed": seed})
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)

    if isinstance(prob, MultiTaskProblem):
        x0 = (rng.standard_normal((prob.n, prob.n)) / np.sqrt(prob.n)).ravel()
        oracle, beta_at = _matrix_oracle(prob)
        objective = multitask_objective
    else:
        x0 = rng.standard_normal(prob.groups.k)
        oracle, state_at = _state_oracle(prob)
        objective = primal_objective

        def beta_at(v):
            return recover_beta(prob, v, u=state_at(v).u)

    def cb(it, x, fv, g):
        try:
            tr.record(it, time.perf_counter() - t0, objective(prob, beta_at(x)))
        except (InconsistentSystem, InfeasibleAtLambdaZero):
            pass
        return budget_s is not None and time.perf_counter() - t0 > budget_s

    res = minimize(oracle, x0, cfg, cb)
    try:
        tr.beta = beta_at(res.x)
    except InconsistentSystem:
        tr.beta = None
    tr.aux["result"] = res
    tr.aux["v"] = res.x
    return tr


def _runner(name: str):
    table = {
        "noncvx-pro": run_noncvxpro,
        "ista": lambda p, budget_s, seed, iters, **kw: baselines.ista(p, iters=iters, budget_s=budget_s, **kw),
        "fista-bb": lambda p, budget_s, seed, iters, **kw: baselines.fista_bb_restart(p, iters=iters, budget_s=budget_s, **kw),
        "cd": lambda p, budget_s, seed, iters, **kw: baselines.coordinate_descent_lasso(p, iters=iters, budget_s=budget_s, **kw),
        "irls": lambda p, budget_s, seed, iters, **kw: baselines.irls_vector(p, kw.pop("eps", 1e-8), iters=iters, budget_s=budget_s, **kw),
        "irls-matrix": lambda p, budget_s, seed, iters, **kw: baselines.irls_matrix(p, eps=kw.pop("eps", 1e-8), iters=iters, budget_s=budget_s, **kw),
        "altmin": lambda p, budget_s, seed, iters, **kw: baselines.altmin_noncvx(
            p, iters=iters, v0=np.random.default_rng(seed).standard_normal(p.groups.k), budget_s=budget_s, **kw),
        "quad-var": lambda p, budget_s, seed, iters, **kw: baselines.quad_variational(p, iters=iters, budget_s=budget_s, **kw),
        "lbfgsb-split": lambda p, budget_s, seed, iters, **kw: baselines.split_box_lasso(p, iters=iters, budget_s=budget_s, **kw),
        "dr": lambda p, budget_s, seed, iters, **kw: baselines.douglas_rachford_bp(p, iters=iters, budget_s=budget_s, **kw),
        "cp": lambda p, budget_s, seed, iters, **kw: baselines.chambolle_pock_bp(p, iters=iters, budget_s=budget_s, **kw),
    }
    if name not in table:
        raise ConfigError(f"unknown solver {name!r}")
    return table[name]


def run_benchmark(config: BenchConfig) -> BenchReport:
    """Race the configured solvers on one problem.

    Per-solver failures are recorded, not fatal.  f* is the best objective
    across all traces; a flag notes any solver whose own best disagrees
    with f* by more than 1e-6 relative.
    """
    prob = load_problem(config)
    runners = [(name, _runner(name)) for name in config.solvers]
    traces = []
    failures = {}

    for name, fn in runners:
        kw = dict(config.solver_configs.get(name, {}))
        try:
            traces.append(fn(prob, config.budget_s, config.seed, config.iters, **kw))
        except Exception as exc:
            failures[name] = repr(exc)

    finite = [obj for tr in traces for obj in tr.objectives if np.isfinite(obj)]
    f_star = min(finite) if finite else float("nan")
    flags = []
    for tr in traces:
        if not tr.objectives:
            continue
        best = min(tr.objectives)
        if best - f_star > 1e-6 * (1.0 + abs(f_star)):
            flags.append(
                f"{tr.name}: best objective {best:.12g} is more than 1e-6 above f*={f_star:.12g}"
            )
    return BenchReport(traces, f_star, failures, flags, config)


def emit_csv(report: BenchReport, path: str) -> None:
    """Write one row per trace sample; floats keep 17 significant digits."""

    def fmt(x: float) -> str:
        return format(float(x), ".17g")

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        w.writerow(["solver", "iteration", "time_s", "objective", "suboptimality"])
        for solver, it, t, obj, sub in report.rows():
            w.writerow([solver, it, fmt(t), fmt(obj), fmt(sub)])


@dataclass
class PhaseTable:
    """Success counts of the sparse-recovery phase experiment."""

    m_range: list
    qs: list
    trials: int
    success: dict  # q -> list of counts, aligned with m_range


def lq_phase_experiment(
    n: int,
    k_sparse: int,
    m_range,
    q_list,
    trials: int = 20,
    restarts: int = 10,
    seed: int = 0,
    max_iters: int = 400,
) -> PhaseTable:
    """Count exact-recovery successes of the constrained lq minimization.

    For each trial a Gaussian design and a k-sparse ground truth are drawn
    once at the largest m; smaller instances reuse the leading rows.  A
    trial succeeds at (m, q) when any of the random restarts lands within
    1e-3 of the ground truth in Euclidean norm.
    """
    m_range = list(m_range)
    q_list = list(q_list)
    if k_sparse >= min(m_range):
        raise ValueError("need k_sparse < min(m_range)")
    m_max = max(m_range)
    counts = {q: [0] * len(m_range) for q in q_list}
    cfg = LbfgsConfig(max_iters=max_iters, tol=1e-10)
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        X_full = rng.standard_normal((m_max, n))
        beta_true = np.zeros(n)
        support = rng.choice(n, size=k_sparse, replace=False)
        beta_true[support] = rng.standard_normal(k_sparse)
        for mi, m in enumerate(m_range):
            X = X_full[:m]
            y = X @ beta_true
            for q in q_list:
                prob = Problem(X, y, 0.0, Lq(q))
                oracle, state_at = _state_oracle(prob)
                for _ in range(restarts):
                    v0 = rng.standard_normal(n)
                    try:
                        res = minimize(oracle, v0, cfg)
                        st = state_at(res.x)
                    except ValueError:
                        continue
                    beta = recover_beta(prob, res.x, u=st.u)
                    if np.linalg.norm(beta - beta_true) <= 1e-3:
                        counts[q][mi] += 1
                        break
    return PhaseTable(m_range, q_list, trials, counts)


def emit_phase_csv(table: PhaseTable, path: str) -> None:
    """CSV with one row per (m, q) cell of the phase table."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        w.writerow(["m", "q", "successes", "trials"])
        for q in table.qs:
            for mi, m in enumerate(table.m_range):
                w.writerow([m, q, table.success[q][mi], table.trials])
