"""Span tracing of the noncvxpro layers, installed from outside the package.

Every public function of the traced modules (and a few public methods that
carry a layer metric) is replaced by a wrapper that records one span: its
name, the round and the phase it ran in, its parent span, its start and
end, and the time its direct child spans covered.  A function is replaced under every
name a module imported it by (``varpro.cholesky_solve``,
``bench.eval_state``, ...), so no call path bypasses its wrapper.  Spans
stay in memory and are written as JSONL when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

LAYERS = ("problems", "regularizers", "linalg", "varpro", "lbfgs", "baselines", "bench")

# Race solver name -> the function that implements it.
SOLVER_FUNCS = {
    "noncvx-pro": "bench.run_noncvxpro",
    "cd": "baselines.coordinate_descent_lasso",
    "fista-bb": "baselines.fista_bb_restart",
    "ista": "baselines.ista",
    "lbfgsb-split": "baselines.split_box_lasso",
    "quad-var": "baselines.quad_variational",
    "altmin": "baselines.altmin_noncvx",
    "dr": "baselines.douglas_rachford_bp",
    "cp": "baselines.chambolle_pock_bp",
}

# The phase of a round a span belongs to, given by the name of its root
# span (the call the benchmark itself made): set-up builds, solves (or the
# sweep), and races.  Solve-side layer metrics count solve spans only, so
# the solvers raced alongside noncvx-pro do not leak into them.
ROOT_PHASES = {
    "bench.load_problem": "setup",
    "bench.run_noncvxpro": "solve",
    "bench.lq_phase_experiment": "solve",
    "bench.run_benchmark": "race",
}

# Span record fields (a list per span, so the parent's child time can grow).
NAME, ROUND, PARENT, START, END, CHILD, ERROR, RESULT, PHASE = range(9)


def _traced_methods(layer, module):
    """(class, method, span name) for the public methods that carry a metric."""
    if layer == "problems":
        return [(module.Problem, "__post_init__", "problems.Problem")]
    if layer == "regularizers":
        out = [(module.GroupStructure, "__init__", "regularizers.GroupStructure")]
        for name, cls in vars(module).items():
            if inspect.isclass(cls) and issubclass(cls, module.Regularizer) and "prox" in vars(cls):
                out.append((cls, "prox", f"regularizers.{name}.prox"))
        return out
    return []


class Tracer:
    """Holds the spans of one run and installs or removes the wrappers."""

    def __init__(self):
        self.spans = []
        self.round = -1
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            phase = spans[parent][PHASE] if parent >= 0 else ROOT_PHASES.get(name, "other")
            rec = [name, self.round, parent, clock(), 0.0, 0.0, None, None, phase]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                stack.pop()
                rec[END] = end = clock()
                if parent >= 0:
                    spans[parent][CHILD] += end - rec[START]
            if hasattr(out, "nfev") and hasattr(out, "iterations"):
                rec[RESULT] = (int(out.iterations), int(out.nfev))
            return out

        return wrapper

    def install(self):
        """Replace every traced function, under all its names, by its wrapper."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"noncvxpro.{layer}")
            for attr, obj in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
            for cls, meth, name in _traced_methods(layer, module):
                orig = vars(cls)[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
        for modname, module in list(sys.modules.items()):
            if modname != "noncvxpro" and not modname.startswith("noncvxpro."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def write_jsonl(self, path):
        """One JSON list per span, after a first line naming the fields.

        A span's id is its line number after the header; parent -1 marks a
        span called from the benchmark itself.
        """
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "round", "phase", "parent", "start_s", "end_s",
                                            "self_s", "error", "iters_nfev"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps([s[NAME], s[ROUND], s[PHASE], s[PARENT], round(s[START], 9),
                                     round(s[END], 9), round(s[END] - s[START] - s[CHILD], 9), s[ERROR],
                                     s[RESULT]]) + "\n")


class Tally:
    """Per-name call counts, inclusive and self times and errors of a set of spans."""

    def __init__(self):
        self.calls, self.total, self.self_s, self.errors = {}, {}, {}, {}
        self.iters = self.nfev = 0

    def add(self, s):
        name, dur = s[NAME], s[END] - s[START]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + dur
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - s[CHILD]
        if s[ERROR]:
            key = (name, s[ERROR])
            self.errors[key] = self.errors.get(key, 0) + 1
        if name == "lbfgs.minimize" and s[RESULT]:
            self.iters += s[RESULT][0]
            self.nfev += s[RESULT][1]


class RoundStats:
    """The spans of one round, tallied per phase and over the whole round."""

    def __init__(self, spans, rnd):
        self.phases = {phase: Tally() for phase in set(ROOT_PHASES.values())}
        self.calls = {}
        for s in spans:
            if s[ROUND] != rnd:
                continue
            self.phases.setdefault(s[PHASE], Tally()).add(s)
            self.calls[s[NAME]] = self.calls.get(s[NAME], 0) + 1

    def metrics(self):
        """Layer metrics of this round: name -> (value, unit).

        Each metric counts the phase whose end-to-end metric it should
        move: set-up builds for setup_s, solves for solve_s, races for
        race_s.
        """
        setup, solve, race = (self.phases[p] for p in ("setup", "solve", "race"))
        evals = solve.calls.get("varpro.eval_state", 0)
        out = {
            "regularizers.group_builds": (solve.calls.get("regularizers.GroupStructure", 0), "count"),
            "regularizers.group_build_s": (solve.total.get("regularizers.GroupStructure", 0.0), "s"),
            "varpro.evals": (evals, "count"),
            "varpro.evals_per_nfev": (evals / solve.nfev if solve.nfev else 0.0, "ratio"),
            "varpro.eval_self_s": (solve.self_s.get("varpro.eval_state", 0.0), "s"),
            "varpro.inner_dual_s": (solve.self_s.get("varpro.inner_solve_dual", 0.0), "s"),
            "varpro.inner_primal_s": (solve.self_s.get("varpro.inner_solve_primal", 0.0), "s"),
            "linalg.chol_calls": (solve.calls.get("linalg.cholesky_solve", 0), "count"),
            "linalg.chol_s": (solve.total.get("linalg.cholesky_solve", 0.0), "s"),
            "linalg.chol_notspd": (solve.errors.get(("linalg.cholesky_solve", "NotSpd"), 0), "count"),
            "lbfgs.iters": (solve.iters, "count"),
            "lbfgs.nfev": (solve.nfev, "count"),
            "lbfgs.self_s": (solve.self_s.get("lbfgs.minimize", 0.0), "s"),
            "problems.build_calls": (setup.calls.get("problems.Problem", 0), "count"),
            "problems.build_s": (setup.total.get("problems.Problem", 0.0), "s"),
            "problems.objective_calls": (race.calls.get("problems.primal_objective", 0), "count"),
            "problems.objective_s": (race.total.get("problems.primal_objective", 0.0), "s"),
            # the method spans only: regularizers.prox delegates to them
            "regularizers.prox_s": (sum(v for k, v in race.total.items()
                                        if k.endswith(".prox") and k.count(".") == 2), "s"),
            "bench.load_s": (race.total.get("bench.load_problem", 0.0), "s"),
        }
        for solver, func in SOLVER_FUNCS.items():
            layer = func.split(".")[0]
            out[f"{layer}.{solver}_s"] = (race.total.get(func, 0.0), "s")
        return out


def summarize(tracer, traced_rounds):
    """Median layer metrics over the traced rounds, plus the counts' agreement.

    Returns (metrics, per-round RoundStats, mismatched) where mismatched
    names the count metrics that differed between traced rounds; every
    traced round does the same work, so they must not.
    """
    per_round = [RoundStats(tracer.spans, r) for r in traced_rounds]
    tables = [rs.metrics() for rs in per_round]
    metrics, mismatched = {}, []
    for name, (_, unit) in tables[0].items():
        values = [tab[name][0] for tab in tables]
        if unit in ("count", "ratio"):
            if len(set(values)) != 1:
                mismatched.append(name)
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    return metrics, per_round, mismatched
