"""Reference solvers: proximal, coordinate, IRLS, alternating, and splitting.

These provide the correctness oracles and the competitors raced by the
benchmark harness.  Every solver has the race signature
(prob, *, iters, budget_s=None, seed=0, <its own options>) and returns a
SolverTrace of per-iteration (wall time, primal objective) samples plus its
final coefficients.  seed is read only by a solver with a random start;
budget_s bounds the wall time, which the trace keeps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .lbfgs import LbfgsConfig, last_point_cache, minimize_box
from .linalg import DENSE_DIRECT_MAX, Side, cholesky_solve, operator_norm_estimate, range_solver, solve_spd, woodbury_side
from .problems import BeckmannProblem, MultiTaskProblem, Problem, multitask_objective, primal_objective
from .regularizers import GroupL2, L1, _shrink
from .varpro import eval_state, inner_solve_primal, recover_beta


class StepConditionViolated(ValueError):
    """Primal-dual step sizes must satisfy tau * sigma * ||X||^2 < 1."""


@dataclass
class SolverTrace:
    """Per-iteration record of one solver run, with the run's clock and budget.

    The clock starts when the trace is built, which a solver does after its
    set-up.  record stamps each sample with the seconds since then, so times
    are nondecreasing; each entry pairs with an iteration number and the
    primal objective of the iterate at that point.  over() tells whether
    the wall-clock budget (None: unbounded) is spent.
    """

    name: str
    budget_s: float | None = None
    iterations: list = field(default_factory=list)
    times: list = field(default_factory=list)
    objectives: list = field(default_factory=list)
    beta: np.ndarray | None = None
    aux: dict = field(default_factory=dict)
    start: float = field(default_factory=time.perf_counter, init=False, repr=False)

    def record(self, it: int, obj: float):
        self.iterations.append(int(it))
        self.times.append(time.perf_counter() - self.start)
        self.objectives.append(float(obj))

    def over(self) -> bool:
        return self.budget_s is not None and time.perf_counter() - self.start > self.budget_s


def _spectral_norm(X) -> float:
    if scipy.sparse.issparse(X):
        est = operator_norm_estimate(
            lambda w: np.asarray(X @ w), lambda w: np.asarray(X.T @ w), X.shape[1], iters=300
        )
        return est * 1.01  # power iteration underestimates; pad for safe steps
    return float(np.linalg.norm(np.asarray(X, float), 2))


def ista(prob: Problem, *, iters: int = 500, budget_s=None, seed: int = 0, step=None) -> SolverTrace:
    """Proximal gradient: beta <- prox_{step R}(beta - (step/lam) X^T (X beta - y)).

    The default step lam/||X||^2 is the largest that keeps the objective
    monotone.
    """
    if prob.lam <= 0:
        raise ValueError("ista needs lam > 0")
    X, y, lam = prob.X, prob.y, prob.lam
    beta = np.zeros((prob.n,) + y.shape[1:])
    if step is None:
        step = lam / _spectral_norm(X) ** 2
    tr = SolverTrace("ista", budget_s)
    tr.record(0, primal_objective(prob, beta))
    for k in range(1, iters + 1):
        if tr.over():
            break
        grad = np.asarray(X.T @ (X @ beta - y)) / lam
        beta = prob.reg.prox(beta - step * grad, step)
        tr.record(k, primal_objective(prob, beta))
    tr.beta = beta
    return tr


def fista_bb_restart(prob: Problem, *, iters: int = 500, budget_s=None, seed: int = 0) -> SolverTrace:
    """FISTA with a Barzilai-Borwein spectral step and function-value restart.

    The BB step is clipped to [1e-8, 1e8] times the safe step lam/||X||^2;
    whenever the objective increases the momentum is reset and the sweep is
    redone with the safe step.
    """
    if prob.lam <= 0:
        raise ValueError("fista needs lam > 0")
    X, y, lam = prob.X, prob.y, prob.lam
    safe = lam / _spectral_norm(X) ** 2
    lo, hi = 1e-8 * safe, 1e8 * safe

    def smooth_grad(b):
        return np.asarray(X.T @ (X @ b - y)) / lam

    beta = np.zeros((prob.n,) + y.shape[1:])
    z = beta.copy()
    prev_beta = beta.copy()
    prev_grad = None
    fcur = primal_objective(prob, beta)
    tr = SolverTrace("fista-bb", budget_s)
    tr.record(0, fcur)
    j = 0  # momentum age
    for k in range(1, iters + 1):
        if tr.over():
            break
        gz = smooth_grad(z)
        if prev_grad is not None:
            s = z - prev_z
            yg = gz - prev_grad
            sy = float(np.vdot(s, yg))
            step = float(np.vdot(s, s)) / sy if sy > 0 else safe
            step = min(max(step, lo), hi)
        else:
            step = safe
        prev_z, prev_grad = z, gz
        cand = prob.reg.prox(z - step * gz, step)
        fc = primal_objective(prob, cand)
        if fc > fcur:
            # restart: plain safe proximal step from the last good point
            j = 0
            gb = smooth_grad(beta)
            cand = prob.reg.prox(beta - safe * gb, safe)
            fc = primal_objective(prob, cand)
            prev_grad = None
        j += 1
        prev_beta, beta, fcur = beta, cand, fc
        z = beta + ((j - 1.0) / (j + 2.0)) * (beta - prev_beta)
        tr.record(k, fcur)
    tr.beta = beta
    return tr


def coordinate_descent_lasso(prob: Problem, *, iters: int = 1000, budget_s=None, seed: int = 0,
                             tol: float = 1e-10) -> SolverTrace:
    """Cyclic block coordinate descent with a duality-gap certificate.

    Singleton groups get the exact coordinate update; larger groups take a
    majorized prox step with the block Lipschitz constant.  Terminates when
    the Lasso duality gap (in problem scale) drops below tol.
    """
    if prob.lam <= 0:
        raise ValueError("coordinate descent needs lam > 0")
    if not isinstance(prob.reg, GroupL2):
        raise ValueError("coordinate descent covers the group family only")
    X, y, lam = prob.X, prob.y, prob.lam
    groups = prob.groups
    cols = []
    lips = []
    for g in groups.groups:
        Xg = X[:, g].toarray() if scipy.sparse.issparse(X) else np.asarray(X, float)[:, g]
        cols.append(Xg)
        lips.append(float(np.linalg.norm(Xg, 2) ** 2))
    beta = np.zeros((prob.n,) + y.shape[1:])
    r = y.copy()  # r = y - X beta
    tr = SolverTrace("cd", budget_s)
    tr.record(0, primal_objective(prob, beta))
    gap = np.inf
    for sweep in range(1, iters + 1):
        if tr.over():
            break
        for gid, g in enumerate(groups.groups):
            Lg = lips[gid]
            if Lg == 0.0:
                continue
            Xg = cols[gid]
            bg = beta[g]
            z = bg + Xg.T @ r / Lg
            new = _shrink(z, math.sqrt(np.vdot(z, z)), lam / Lg)
            delta = new - bg
            if delta.any():
                r -= Xg @ delta
                beta[g] = new
        obj = primal_objective(prob, beta)
        tr.record(sweep, obj)
        corr = np.asarray(X.T @ r)
        cmax = groups.norms(corr).max()
        theta = r * min(1.0, lam / cmax) if cmax > 0 else r
        dual = 0.5 * float(np.sum(y * y)) - 0.5 * float(np.sum((theta - y) ** 2))
        gap = (lam * prob.reg.r_value(beta) + 0.5 * float(np.sum(r * r)) - dual) / lam
        if gap <= tol * max(1.0, abs(obj)):
            break
    tr.beta = beta
    tr.aux["gap"] = float(gap)
    return tr


def irls_vector(prob: Problem, *, iters: int = 100, budget_s=None, seed: int = 0, eps: float = 1e-8,
                eta0=None) -> SolverTrace:
    """Iteratively reweighted least squares with a fixed barrier eps.

    Alternates the reweighted ridge solve with the closed-form weight
    update eta_g = sqrt(||beta_g||^2 + eps).  The ridge solve at weights
    eta is the projected inner solve at v = sqrt(eta).  The barrier biases
    the solution by O(eps); no decrease schedule is applied.
    """
    if prob.lam <= 0 or eps <= 0:
        raise ValueError("irls needs lam > 0 and eps > 0")
    y = prob.y
    groups = prob.groups
    eta = np.ones(groups.k) if eta0 is None else np.asarray(eta0, float).copy()
    tr = SolverTrace("irls", budget_s)
    beta = np.zeros((prob.n,) + y.shape[1:])
    tr.record(0, primal_objective(prob, beta))
    for k in range(1, iters + 1):
        if tr.over():
            break
        v = np.sqrt(eta)
        beta = recover_beta(prob, v, u=eval_state(prob, v).u)
        eta = np.sqrt(groups.sumsq(beta) + eps)
        tr.record(k, primal_objective(prob, beta))
    tr.beta = beta
    tr.aux["eta"] = eta
    return tr


def irls_matrix(mt: MultiTaskProblem, *, iters: int = 100, budget_s=None, seed: int = 0,
                eps: float = 1e-8) -> SolverTrace:
    """Trace-norm IRLS: per-task ridge systems, then Z <- (B B^T + eps I)^{1/2}.

    The matrix square root goes through a symmetric eigendecomposition, so
    Z stays symmetric PSD with smallest eigenvalue at least sqrt(eps).
    """
    lam = mt.lam
    if eps <= 0:
        raise ValueError("irls needs eps > 0")
    n = mt.n
    Z = np.eye(n)
    B = np.zeros((n, mt.T))
    tr = SolverTrace("irls-matrix", budget_s)
    tr.record(0, multitask_objective(mt, B))
    for k in range(1, iters + 1):
        if tr.over():
            break
        Zinv = cholesky_solve(Z, np.eye(n))
        Zinv = 0.5 * (Zinv + Zinv.T)
        for t, (X, y) in enumerate(zip(mt.Xs, mt.ys)):
            B[:, t] = solve_spd(lam * Zinv + X.T @ X, X.T @ y)
        w, V = np.linalg.eigh(B @ B.T + eps * np.eye(n))
        Z = (V * np.sqrt(np.maximum(w, 0.0))) @ V.T
        Z = 0.5 * (Z + Z.T)
        tr.record(k, multitask_objective(mt, B))
    tr.beta = B
    tr.aux["z_min_eig"] = float(np.linalg.eigvalsh(Z).min())
    return tr


def altmin_noncvx(prob: Problem, *, iters: int = 200, budget_s=None, seed: int = 0, v0=None) -> SolverTrace:
    """Exact alternating minimization of the split objective in u and v.

    The u step is the inner ridge system at fixed v, solved on the side the
    shape picks: inner_solve_primal on the n side, eval_state's u on the m
    side.  The v step is the ridge problem in the per-group weights whose
    design M = X diag(u), grouped to k columns, has one row per entry of y;
    it too takes the smaller side, solving
    (lam I + M^T M) v = M^T y on the k side and v = M^T (lam I + M M^T)^{-1} y
    on the m side.  Where the u step reads the cached Gram (n < m, dense),
    M^T M is summed per group from it without forming M, which stays fast
    once u decays into subnormals.  The joint objective is monotone
    nonincreasing (recorded in aux["joint"]); starting at v = 0 stays at
    the saddle.  Without v0 the start is standard normal, drawn from seed.
    """
    if prob.lam <= 0:
        raise ValueError("alternating minimization needs lam > 0")
    groups = prob.groups
    k, n = groups.k, prob.n
    v = np.random.default_rng(seed).standard_normal(k) if v0 is None else np.asarray(v0, float).copy()
    lam, y = prob.lam, prob.y
    X = prob.X.toarray() if scipy.sparse.issparse(prob.X) else np.asarray(prob.X, float)
    # the Gram is read only where the u step forms it anyway; then k <= n < m
    u_primal = woodbury_side(prob.m, n) is Side.PRIMAL_N
    gram_side = u_primal and n <= DENSE_DIRECT_MAX
    k_side = woodbury_side(y.size, k) is Side.PRIMAL_N
    Xty = (X.T @ y).reshape(n, -1) if gram_side else None
    tr = SolverTrace("altmin", budget_s)
    u = np.zeros((n,) if y.ndim == 1 else (n, y.shape[1]))
    beta = recover_beta(prob, v, u=u)
    joint = []
    tr.record(0, primal_objective(prob, beta))
    for it in range(1, iters + 1):
        if tr.over():
            break
        u = inner_solve_primal(prob, v) if u_primal else eval_state(prob, v).u
        U = u.reshape(n, -1)
        if gram_side:
            MtM = groups.sum_groups(groups.sum_groups(prob.gram * (U @ U.T)).T)
            v = solve_spd(lam * np.eye(k) + MtM, groups.sum_groups(np.sum(U * Xty, axis=1)))
        else:
            # residual is sum_g v_g (X_g u_g): column g of M stacks X_g u_g over y's columns
            M = groups.sum_groups(X.T[:, :, None] * U[:, None, :]).reshape(k, -1).T
            if k_side:
                v = solve_spd(lam * np.eye(k) + M.T @ M, M.T @ y.ravel())
            else:
                v = M.T @ solve_spd(lam * np.eye(y.size) + M @ M.T, y.ravel())
        beta = recover_beta(prob, v, u=u)
        resid = X @ beta - y
        joint.append(0.5 * float(v @ v) + 0.5 * float(np.sum(u * u))
                     + float(np.sum(resid * resid)) / (2.0 * lam))
        tr.record(it, primal_objective(prob, beta))
    tr.beta = beta
    tr.aux["joint"] = joint
    tr.aux["v"] = v
    tr.aux["u"] = u
    return tr


def quad_var_oracle(prob: Problem):
    """Value, gradient, and coefficients of the convex variational objective.

    g(eta) = (1/2) sum eta + (1/2) <alpha, y> with alpha solving
    (lam I + X diag(etabar) X^T) alpha = y; the gradient is
    1/2 - (1/2) ||X_g^T alpha||^2 per group, and beta = etabar (x) X^T alpha.
    g is the projected objective f at v = sqrt(eta), so one eval_state, on
    whichever inner system is smaller, gives all three.
    """
    if prob.lam <= 0:
        raise ValueError("quad variational needs lam > 0")
    if not isinstance(prob.reg, GroupL2):
        raise ValueError("quad variational covers the group family only")
    groups = prob.groups

    def eval_eta(eta):
        v = np.sqrt(eta)
        st = eval_state(prob, v)
        grad = 0.5 - 0.5 * groups.norms(st.xi) ** 2
        return st.f, grad, recover_beta(prob, v, u=st.u)

    return eval_eta


def quad_variational(prob: Problem, *, iters: int = 300, budget_s=None, seed: int = 0) -> SolverTrace:
    """Bound-constrained quasi-Newton on the convex variational objective.

    See quad_var_oracle for the objective; this drives minimize_box over
    eta >= 0 from eta = 1 and reports the primal objective of the
    recovered beta.
    """
    eval_eta = quad_var_oracle(prob)
    k = prob.groups.k
    tr = SolverTrace("quad-var", budget_s)
    eval_at, out_at = last_point_cache(eval_eta)

    def oracle(eta):
        return eval_at(eta)[:2]

    def cb(it, eta, fval, grad):
        tr.record(it, primal_objective(prob, out_at(eta)[2]))
        return tr.over()

    res = minimize_box(oracle, np.ones(k), np.zeros(k), LbfgsConfig(max_iters=iters), cb)
    tr.beta = out_at(res.x)[2]
    tr.aux["eta"] = res.x
    tr.aux["result"] = res
    return tr


def split_box_lasso(prob: Problem, *, iters: int = 500, budget_s=None, seed: int = 0,
                    config: LbfgsConfig | None = None) -> SolverTrace:
    """Lasso via the positive split beta = p - q with p, q >= 0.

    The objective sum(p) + sum(q) + (1/(2 lam)) ||X (p - q) - y||^2 is
    smooth in (p, q), so the box-constrained quasi-Newton driver applies
    directly.  An explicit config overrides the iters cap.
    """
    if prob.lam <= 0:
        raise ValueError("split formulation needs lam > 0")
    if not isinstance(prob.reg, L1):
        raise ValueError("split formulation is for the l1 family")
    if prob.y.ndim > 1:
        raise ValueError("split formulation needs a single-column y: it splits beta entrywise, "
                         "while L1 of a coefficient matrix sums its row norms")
    X, y, lam = prob.X, prob.y, prob.lam
    n = prob.n

    def oracle(z):
        p, q = z[:n], z[n:]
        beta = p - q
        r = np.asarray(X @ beta) - y
        gr = np.asarray(X.T @ r) / lam
        val = float(p.sum() + q.sum()) + float(np.sum(r * r)) / (2.0 * lam)
        return val, np.concatenate([1.0 + gr, 1.0 - gr])

    cfg = config or LbfgsConfig(max_iters=iters)
    tr = SolverTrace("lbfgsb-split", budget_s)

    def cb(it, z, fval, grad):
        tr.record(it, primal_objective(prob, z[:n] - z[n:]))
        return tr.over()

    res = minimize_box(oracle, np.zeros(2 * n), np.zeros(2 * n), cfg, cb)
    tr.beta = res.x[:n] - res.x[n:]
    tr.aux["result"] = res
    return tr


def _as_constrained(prob) -> Problem:
    if isinstance(prob, BeckmannProblem):
        return prob.to_problem()
    if prob.lam != 0:
        raise ValueError("this solver handles the constrained (lam = 0) problem")
    return prob


class _AffineProjector:
    """Projection onto {beta : X beta = y}; factor X X^T once, reuse.

    The factor is linalg.range_solver's, so a singular X X^T (the graph
    Laplacian of a divergence matrix, whose kernel is the constants) is
    solved on its range, and a y that X cannot reach raises
    InconsistentSystem instead of returning an infeasible point.
    """

    def __init__(self, X, y):
        self.X = X
        self.y = y
        K = (X @ X.T).toarray() if scipy.sparse.issparse(X) else X @ X.T
        self._solve = range_solver(K)

    def __call__(self, beta):
        resid = self.y - np.asarray(self.X @ beta)
        return beta + np.asarray(self.X.T @ self._solve(resid))


def douglas_rachford_bp(prob, *, iters: int = 500, budget_s=None, seed: int = 0,
                        gamma: float = 1.0) -> SolverTrace:
    """Douglas-Rachford splitting for the constrained sparse problem.

    beta_k is the affine projection of z_k onto X beta = y, hence always
    feasible; the reflected group soft-threshold then pulls toward small
    norm.  gamma in (0, 2) averages the reflections (1 recovers the classic
    scheme).
    """
    if not 0 < gamma < 2:
        raise ValueError("gamma must lie in (0, 2)")
    p = _as_constrained(prob)
    proj = _AffineProjector(p.X, p.y)
    z = np.zeros(p.n)
    tr = SolverTrace("dr", budget_s)
    beta = proj(z)
    tr.record(0, p.reg.r_value(beta))
    for k in range(1, iters + 1):
        if tr.over():
            break
        beta = proj(z)
        refl_g = 2.0 * beta - z
        refl_f = 2.0 * p.reg.prox(refl_g, 1.0) - refl_g
        z = (1.0 - gamma / 2.0) * z + (gamma / 2.0) * refl_f
        tr.record(k, p.reg.r_value(beta))
    tr.beta = proj(z)
    return tr


def chambolle_pock_bp(prob, *, iters: int = 500, budget_s=None, seed: int = 0, sigma: float | None = None,
                      tau: float | None = None, theta: float = 1.0) -> SolverTrace:
    """Primal-dual iterations for the constrained sparse problem.

    Steps default to tau * sigma * ||X||^2 = 0.9 with tau = sigma; passing
    both with tau * sigma * ||X||^2 >= 1 is rejected up front.  Objectives
    are reported on the affine projection of the running iterate (the raw
    iterates are infeasible until convergence); the returned beta is the
    projected final iterate.
    """
    if not 0 < theta <= 1:
        raise ValueError("theta must lie in (0, 1]")
    p = _as_constrained(prob)
    L = _spectral_norm(p.X)
    L2 = L * L
    if sigma is None and tau is None:
        sigma = tau = np.sqrt(0.9 / L2) if L2 > 0 else 1.0
    elif sigma is None:
        sigma = 0.9 / (tau * L2)
    elif tau is None:
        tau = 0.9 / (sigma * L2)
    if tau * sigma * L2 >= 1.0:
        raise StepConditionViolated(
            f"tau*sigma*||X||^2 = {tau * sigma * L2:.3g} must be < 1"
        )
    proj = _AffineProjector(p.X, p.y)
    X, y = p.X, p.y
    beta = np.zeros(p.n)
    beta_bar = beta.copy()
    w = np.zeros(p.m)
    tr = SolverTrace("cp", budget_s)
    tr.record(0, p.reg.r_value(proj(beta)))
    for k in range(1, iters + 1):
        if tr.over():
            break
        w = w + sigma * np.asarray(X @ beta_bar) - sigma * y
        beta_new = p.reg.prox(beta - tau * np.asarray(X.T @ w), tau)
        beta_bar = beta_new + theta * (beta_new - beta)
        beta = beta_new
        tr.record(k, p.reg.r_value(proj(beta)))
    tr.beta = proj(beta)
    return tr
