"""Limited-memory BFGS with a strong Wolfe line search, plus a box variant.

minimize drives the smooth outer objectives; minimize_box adds lower-bound
constraints through gradient projection (active coordinates are frozen out
of the quasi-Newton direction and steps are capped at the feasible range),
which is all the positivity-constrained baselines need.  With no finite
bounds the two entry points run the identical code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

_ACTIVE_EPS = 1e-10  # distance from a lower bound at which it counts as active
_ALPHA_MAX = 1e16


@dataclass
class LbfgsConfig:
    """Tuning knobs; defaults suit the desk-scale problems here.

    tol is relative: termination at ||projected grad|| <= tol * (1 + |f|).
    """

    memory: int = 10
    tol: float = 1e-8
    max_iters: int = 500
    c1: float = 1e-4
    c2: float = 0.9
    max_ls: int = 30

    def __post_init__(self):
        if not 0 < self.c1 < self.c2 < 1:
            raise ValueError("need 0 < c1 < c2 < 1")
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


def _finite(f: float, g: np.ndarray) -> float:
    return f if math.isfinite(f) and np.isfinite(g).all() else np.inf


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a real vector by np.linalg.norm's own formula, sqrt(x . x)."""
    return math.sqrt(x.dot(x))


def _cubic_step(a_lo, f_lo, d_lo, a_hi, f_hi, d_hi):
    """Cubic-interpolation minimizer between two points; NaN when ill posed."""
    if not (np.isfinite(f_lo) and np.isfinite(f_hi) and np.isfinite(d_lo) and np.isfinite(d_hi)):
        return np.nan
    if a_lo == a_hi:
        return np.nan
    d1 = d_lo + d_hi - 3.0 * (f_lo - f_hi) / (a_lo - a_hi)
    disc = d1 * d1 - d_lo * d_hi
    if not disc >= 0:
        return np.nan
    d2 = np.sign(a_hi - a_lo) * np.sqrt(disc)
    denom = d_hi - d_lo + 2.0 * d2
    if denom == 0:
        return np.nan
    return a_hi - (a_hi - a_lo) * (d_hi + d2 - d1) / denom


class _LineSearch:
    """Strong Wolfe line search (bracket then zoom, cubic interpolation)."""

    def __init__(self, phi, phi0, dphi0, c1, c2, max_evals):
        self.phi = phi  # alpha -> (f, dphi, payload)
        self.phi0 = phi0
        self.dphi0 = dphi0
        self.c1 = c1
        self.c2 = c2
        self.evals_left = max_evals

    def _armijo(self, a, f):
        return f <= self.phi0 + self.c1 * a * self.dphi0

    def _curvature(self, d):
        return abs(d) <= -self.c2 * self.dphi0

    def run(self, alpha0: float, alpha_max: float):
        """Returns (alpha, payload) or (None, best payload seen)."""
        c1, c2 = self.c1, self.c2
        a_prev, f_prev, d_prev = 0.0, self.phi0, self.dphi0
        a = min(alpha0, alpha_max)
        best = None
        first = True
        while self.evals_left > 0:
            self.evals_left -= 1
            f, d, payload = self.phi(a)
            if np.isfinite(f) and (best is None or f < best[1]):
                best = (a, f, payload)
            if not np.isfinite(f) or not self._armijo(a, f) or (not first and f >= f_prev):
                return self._zoom(a_prev, f_prev, d_prev, a, f, d, best)
            if self._curvature(d):
                return a, payload
            if d >= 0:
                return self._zoom(a, f, d, a_prev, f_prev, d_prev, best)
            if a >= alpha_max:
                # Cannot extend further (a bound or the cap); Armijo holds.
                return a, payload
            a_prev, f_prev, d_prev = a, f, d
            a = min(2.0 * a, alpha_max)
            first = False
        return (None, best)

    def _zoom(self, a_lo, f_lo, d_lo, a_hi, f_hi, d_hi, best):
        """Invariant: f_lo is finite, Armijo holds at a_lo (or a_lo = 0)."""
        for _ in range(60):
            if self.evals_left <= 0:
                break
            a = _cubic_step(a_lo, f_lo, d_lo, a_hi, f_hi, d_hi)
            lo, hi = min(a_lo, a_hi), max(a_lo, a_hi)
            width = hi - lo
            if not np.isfinite(a) or a < lo + 0.1 * width or a > hi - 0.1 * width:
                a = 0.5 * (lo + hi)
            if width <= 1e-16 * max(1.0, abs(a_lo)):
                break
            self.evals_left -= 1
            f, d, payload = self.phi(a)
            if np.isfinite(f) and (best is None or f < best[1]):
                best = (a, f, payload)
            if not np.isfinite(f) or not self._armijo(a, f) or f >= f_lo:
                a_hi, f_hi, d_hi = a, f, d
                continue
            if self._curvature(d):
                return a, payload
            if d * (a_hi - a_lo) >= 0:
                a_hi, f_hi, d_hi = a_lo, f_lo, d_lo
            a_lo, f_lo, d_lo = a, f, d
        # No strong Wolfe point found; fall back to the best finite decrease.
        if best is not None and best[1] < self.phi0:
            return best[0], best[2]
        return None, best


def _two_loop(g: np.ndarray, pairs: list) -> np.ndarray:
    """Two-loop recursion: the inverse-Hessian approximation applied to g.

    Inner products use ndarray.dot, the BLAS ddot that the @ operator runs
    on two vectors, without the operator's dispatch.
    """
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s.dot(q))
        q -= a * y
        alphas.append(a)
    if pairs:
        s, y, _ = pairs[-1]
        gamma = float(s.dot(y)) / float(y.dot(y))
    else:
        gamma = 1.0
    r = gamma * q
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(y.dot(r))
        r += s * (a - b)
    return r


def _engine(
    oracle: Callable,
    x0: np.ndarray,
    lb: Optional[np.ndarray],
    config: LbfgsConfig,
    callback: Optional[Callable],
) -> OptimResult:
    x = np.asarray(x0, dtype=float).copy()
    bounded = lb is not None
    if bounded:
        lb = np.broadcast_to(np.asarray(lb, dtype=float), x.shape).copy()
        x = np.maximum(x, lb)

    f, g = oracle(x)
    g = np.asarray(g, dtype=float)
    nfev = 1
    if _finite(f, g) == np.inf:
        raise ValueError("objective not finite at the starting point")
    if callback is not None and callback(0, x, f, g):
        return OptimResult(x, f, _norm(g), 0, "callback_stop", nfev)

    pairs: list = []
    reason = "max_iters"
    it = 0
    for it in range(1, config.max_iters + 1):
        if bounded:
            active = (x - lb <= _ACTIVE_EPS) & (g > 0)
            pg = np.where(x - lb <= _ACTIVE_EPS, np.minimum(g, 0.0), g)
        else:
            active = None
            pg = g
        if _norm(pg) <= config.tol * (1.0 + abs(f)):
            reason = "converged"
            it -= 1
            break

        gm = g.copy()
        if bounded:
            gm[active] = 0.0
        d = -_two_loop(gm, pairs)
        if bounded:
            d[active] = 0.0
            # Never let the quasi-Newton direction push a coordinate that
            # already sits on its bound further out.
            d[(x - lb <= _ACTIVE_EPS) & (d < 0)] = 0.0
        dg = float(d.dot(g))
        if dg >= -1e-14 * _norm(d) * _norm(g):
            d = -gm
            dg = float(d.dot(g))
            if dg >= 0:
                reason = "converged" if _norm(pg) <= 1e-8 * (1 + abs(f)) else "line_search_failed"
                break

        if bounded:
            dec = d < 0
            alpha_bd = np.min((lb[dec] - x[dec]) / d[dec]) if np.any(dec) else _ALPHA_MAX
            alpha_bd = max(alpha_bd, 0.0)
        else:
            alpha_bd = _ALPHA_MAX

        def phi(a):
            nonlocal nfev
            xa = x + a * d
            if bounded:
                xa = np.maximum(xa, lb)
            fa, ga = oracle(xa)
            ga = np.asarray(ga, dtype=float)
            nfev += 1
            return _finite(fa, ga), float(ga.dot(d)), (xa, fa, ga)

        ls = _LineSearch(phi, f, dg, config.c1, config.c2, config.max_ls)
        alpha, payload = ls.run(1.0, alpha_bd)

        if alpha is None:
            if payload is not None and payload[1] < f:
                # Accepted a plain decrease without the curvature condition.
                x_new, f_new, g_new = payload[2]
            else:
                reason = "line_search_failed"
                break
        else:
            x_new, f_new, g_new = payload

        s = x_new - x
        yv = g_new - g
        sy = float(s.dot(yv))
        if sy > 1e-12 * _norm(s) * _norm(yv):
            pairs.append((s, yv, 1.0 / sy))
            if len(pairs) > config.memory:
                pairs.pop(0)
        x, f, g = x_new, float(f_new), g_new
        if callback is not None and callback(it, x, f, g):
            reason = "callback_stop"
            break

    return OptimResult(x, f, _norm(g), it, reason, nfev)


def last_point_cache(fn: Callable):
    """(eval_at, out_at): eval_at(x) calls fn and keeps fn(x); out_at(x) reuses it
    if x is eval_at's last point (after a line-search fallback the accepted
    point need not be), else calls fn."""
    last = []

    def eval_at(x):
        last[:] = [np.array(x), fn(x)]
        return last[1]

    def out_at(x):
        return last[1] if last and np.array_equal(last[0], x) else fn(x)

    return eval_at, out_at


def minimize(
    oracle: Callable,
    x0: np.ndarray,
    config: LbfgsConfig | None = None,
    callback: Optional[Callable] = None,
) -> OptimResult:
    """Minimize a smooth function given an oracle x -> (f, grad).

    Terminates when ||grad|| <= tol * (1 + |f|), on iteration budget, or
    when the line search cannot make progress (best iterate returned,
    flagged in reason).  callback(k, x, f, g) runs once per accepted step
    and may return True to stop early.
    """
    return _engine(oracle, x0, None, config or LbfgsConfig(), callback)


def minimize_box(
    oracle: Callable,
    x0: np.ndarray,
    lower,
    config: LbfgsConfig | None = None,
    callback: Optional[Callable] = None,
) -> OptimResult:
    """minimize subject to x >= lower (elementwise, -inf allowed).

    Coordinates at their bound with nonnegative gradient are frozen for the
    step; trial steps are capped at the feasible range and projected.  The
    termination test is the KKT condition: gradient components at least
    -tol on active bounds and at most tol in magnitude elsewhere.
    """
    return _engine(oracle, x0, lower, config or LbfgsConfig(), callback)
