"""Limited-memory BFGS: scipy's L-BFGS-B (Byrd, Lu, Nocedal and Zhu, SISC 1995).

minimize drives the smooth outer objectives; minimize_box adds the bounds x >= lower
that the positivity-constrained baselines need; with no finite bounds both make the
identical unconstrained call.  tol is L-BFGS-B's gtol, a bound on the largest
projected-gradient entry.  Its ftol is fixed at 1e-15, so a run at the rounding floor
stops once a step lowers f by at most 1e-15 max(|f|, 1).  OptimResult.reason is one of
    converged           projected gradient at most tol (scipy's pgtol test)
    converged_f         relative reduction of f at most ftol (its factr test)
    max_iters           max_iters accepted steps
    callback_stop       the callback returned True
    line_search_failed  no acceptable step (scipy's ABNORMAL), or a stop after
                        a trial point with a non-finite value or gradient
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.optimize


@dataclass
class LbfgsConfig:
    """Correction pairs kept, gradient tolerance and cap on accepted steps."""

    memory: int = 10
    tol: float = 1e-8
    max_iters: int = 500

    def __post_init__(self):
        if self.memory < 1:
            raise ValueError("memory must be at least 1")


@dataclass
class OptimResult:
    x: np.ndarray
    f: float
    grad_norm: float
    iterations: int
    reason: str
    nfev: int = 0


def _engine(oracle, x0, lb, config: LbfgsConfig, callback) -> OptimResult:
    x = np.array(x0, dtype=float) if lb is None else np.maximum(np.asarray(x0, dtype=float), lb)
    bounds = scipy.optimize.Bounds(lb, np.inf) if lb is not None and np.isfinite(lb).any() else None
    last, nfev, it, stalled = None, 0, 0, False  # last: the last point evaluated, with f and g

    def fun(xt):
        nonlocal last, nfev
        if last is not None and np.array_equal(xt, last[0]):
            return last[1:]  # scipy's first call, at the start point
        ft, gt = oracle(xt)
        nfev += 1
        if not (math.isfinite(ft) and np.isfinite(gt).all()):
            ft, gt = np.inf, np.zeros_like(xt)
        last = (xt, ft, gt)
        return ft, gt

    def step(intermediate_result):  # the name scipy requires; L-BFGS-B steps to the last point
        nonlocal accepted, it, stalled
        # after a non-finite trial L-BFGS-B reports a zero step, which passes its factr test
        stalled = np.array_equal(last[0], accepted[0])
        if stalled:
            return
        accepted, it = last, it + 1
        if callback is not None and callback(it, *accepted):
            raise StopIteration

    if not math.isfinite(fun(x)[0]):
        raise ValueError("objective not finite at the starting point")
    accepted = last
    if callback is not None and callback(0, *accepted):
        reason = "callback_stop"
    elif config.max_iters == 0:
        reason = "max_iters"
    else:
        res = scipy.optimize.minimize(
            fun, x, jac=True, method="L-BFGS-B", bounds=bounds, callback=step,
            options=dict(maxcor=config.memory, maxiter=config.max_iters, gtol=config.tol,
                         ftol=1e-15, maxls=30, maxfun=np.inf))
        reason = ("callback_stop" if res.status == 99 else "line_search_failed" if stalled or res.status == 2
                  else "max_iters" if res.status == 1
                  else "converged" if "PGTOL" in res.message else "converged_f")
    return OptimResult(accepted[0], accepted[1], float(np.linalg.norm(accepted[2])), it, reason, nfev)


def last_point_cache(fn: Callable):
    """(eval_at, out_at): eval_at(x) calls fn and keeps fn(x); out_at(x) reuses it if x is
    eval_at's last point, as at every callback, else calls fn (a failed line search returns
    an earlier point)."""
    last = []

    def eval_at(x):
        last[:] = [np.array(x), fn(x)]
        return last[1]

    def out_at(x):
        return last[1] if last and np.array_equal(last[0], x) else fn(x)

    return eval_at, out_at


def minimize(oracle: Callable, x0: np.ndarray, config: LbfgsConfig | None = None,
             callback: Callable | None = None) -> OptimResult:
    """Minimize a smooth function given an oracle x -> (f, grad).  callback(k, x, f, g)
    runs at the start (k = 0) and after each accepted step and may return True to
    stop.  The last accepted point is returned; a non-finite start raises ValueError."""
    return _engine(oracle, x0, None, config or LbfgsConfig(), callback)


def minimize_box(oracle: Callable, x0: np.ndarray, lower, config: LbfgsConfig | None = None,
                 callback: Callable | None = None) -> OptimResult:
    """minimize subject to x >= lower (elementwise, -inf allowed) from x0 projected
    onto the bounds.  grad_norm is the norm of the raw gradient."""
    return _engine(oracle, x0, lower, config or LbfgsConfig(), callback)
