"""Variable-projected objective: inner solves, gradients, Hessian, saddles.

The nonconvex reparametrization beta = v (x)_groups u turns the regularized
least squares problem into a smooth function of the outer variable v alone:

    f(v) = (1/2) h(v*v) + min_u (1/2)||u||^2 + (1/(2 lam)) ||X (v (x) u) - y||^2

The inner minimization is a ridge system in u, or equivalently an m-sized
system in a multiplier alpha; both are linear solves.  This module evaluates
f and its gradient through either route, assembles the exact Hessian for the
group family, and classifies stationary points (every one is either a global
minimum or a strict saddle).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse

from .linalg import DENSE_DIRECT_MAX, InconsistentSystem, Side, cholesky_solve, solve_spd, woodbury_side
from .problems import MultiTaskProblem, Problem
from .regularizers import GroupL2

SUPPORT_CUTOFF = 1e-10  # |v_g| > cutoff * max|v| puts group g in the support J


@dataclass
class VarProState:
    """Cached quantities at one outer point v.

    xi is the correlation vector X^T alpha; its per-group blocks drive both
    the gradient (grad_g = v_g (1 - ||xi_g||^2) for the group family) and
    the Hessian.  u and alpha satisfy their defining systems to solver
    tolerance and are linked by u_g = -v_g xi_g at every v.
    """

    v: np.ndarray
    u: np.ndarray
    alpha: np.ndarray
    xi: np.ndarray
    f: float
    grad: np.ndarray


@dataclass
class HessianBlocks:
    """Exact Hessian of f for the group family at lam > 0.

    The support block (groups g with v_g != 0) is
    diag(1 - ||xi_g||^2) + 4 U^T W U; off-support groups contribute the bare
    diagonal 1 - ||xi_g||^2.  W = I - lam * H_J^{-1} where H_J is the
    v-weighted Gram matrix plus lam I on the support coordinates, and U
    stacks the xi_g blocks diagonally.
    """

    k: int
    support: list
    diag: np.ndarray
    W: np.ndarray
    U: np.ndarray
    sigma_hat: float
    xi: np.ndarray

    def assemble(self) -> np.ndarray:
        """Dense symmetric k x k Hessian."""
        H = np.diag(self.diag.copy())
        if self.support:
            J = np.asarray(self.support, dtype=int)
            block = 4.0 * self.U.T @ self.W @ self.U
            H[np.ix_(J, J)] += block
        return 0.5 * (H + H.T)


def _scale_rows(w: np.ndarray, M: np.ndarray) -> np.ndarray:
    """w (x) M with w per-row; M may be a vector or a matrix of columns."""
    return w * M if M.ndim == 1 else w[:, None] * M


def inner_solve_primal(prob: Problem, v: np.ndarray) -> np.ndarray:
    """Solve (diag(vbar) X^T X diag(vbar) + lam I) u = vbar (x) X^T y.

    Up to DENSE_DIRECT_MAX the matrix is the cached Gram prob.gram times
    vbar vbar^T, n^2 work per call and exactly symmetric; larger systems
    run CG on matvecs with X and never form an n x n matrix.  Requires
    lam > 0 (the system matrix is otherwise only semidefinite).
    """
    if prob.lam <= 0:
        raise ValueError("primal inner solve needs lam > 0")
    vbar = prob.groups.expand(v)
    X = prob.X
    rhs = _scale_rows(vbar, np.asarray(X.T @ prob.y, dtype=float))
    n = prob.n
    if n <= DENSE_DIRECT_MAX:
        G = prob.gram * np.outer(vbar, vbar)
        G.flat[:: n + 1] += prob.lam
        return solve_spd(G, rhs)

    def apply(w):
        return vbar * np.asarray(X.T @ (X @ (vbar * w))) + prob.lam * w

    return solve_spd(apply, rhs)


def _dual_matrix(prob: Problem, vbar2: np.ndarray) -> np.ndarray:
    X = prob.X
    if scipy.sparse.issparse(X):
        K = (X.multiply(vbar2) @ X.T).toarray()
    else:
        K = (X * vbar2) @ X.T
    return np.asarray(K)


def inner_solve_dual(prob: Problem, v: np.ndarray) -> np.ndarray:
    """Solve (X diag(vbar^2) X^T + lam I) alpha = -y.

    At lam = 0 the matrix can be singular; solve_spd then takes the
    minimum-norm solution on its range (or runs CG from zero for
    operators), and an unreachable y raises InconsistentSystem.
    """
    vbar = prob.groups.expand(v)
    vbar2 = vbar * vbar
    y = prob.y
    m = prob.m
    if m <= DENSE_DIRECT_MAX:
        K = _dual_matrix(prob, vbar2)
        if prob.lam:
            K.flat[:: m + 1] += prob.lam
        return solve_spd(K, -y)

    X = prob.X

    def apply(w):
        return np.asarray(X @ (vbar2 * np.asarray(X.T @ w))) + prob.lam * w

    return solve_spd(apply, -y)


def recover_beta(
    prob: Problem,
    v: np.ndarray,
    u: Optional[np.ndarray] = None,
    alpha: Optional[np.ndarray] = None,
) -> np.ndarray:
    """beta = vbar (x) u, or equivalently -vbar^2 (x) X^T alpha."""
    vbar = prob.groups.expand(v)
    if u is not None:
        return _scale_rows(vbar, u)
    if alpha is not None:
        return _scale_rows(-vbar * vbar, np.asarray(prob.X.T @ alpha, dtype=float))
    raise ValueError("need u or alpha")


def eval_state(prob: Problem, v: np.ndarray, route: Side | None = None) -> VarProState:
    """Evaluate f, its gradient, and all cached inner quantities at v."""
    v = np.asarray(v, dtype=float)
    groups = prob.groups
    lam = prob.lam
    if route is None:
        route = woodbury_side(prob.m, prob.n, lam)
    elif not isinstance(route, Side):
        raise ValueError(f"route must be a Side value, got {route!r}")
    vbar = groups.expand(v)
    half_h = 0.5 * prob.reg.h_value(v * v)
    outer = prob.reg.h_outer_grad(v)

    if route is Side.DUAL_M or lam == 0:
        alpha = inner_solve_dual(prob, v)
        xi = np.asarray(prob.X.T @ alpha, dtype=float)
        u = _scale_rows(-vbar, xi)
        s = groups.sumsq(xi)
        fit = float((_scale_rows(vbar, xi) ** 2).sum())
        f = half_h - float((prob.y * alpha).sum()) - 0.5 * lam * float((alpha * alpha).sum()) - 0.5 * fit
        grad = outer - v * s
    else:
        u = inner_solve_primal(prob, v)
        beta = _scale_rows(vbar, u)
        r = np.asarray(prob.X @ beta) - prob.y
        alpha = r / lam
        xi = np.asarray(prob.X.T @ alpha, dtype=float)
        f = half_h + 0.5 * float((u * u).sum()) + float((r * r).sum()) / (2.0 * lam)
        inner = u * xi if u.ndim == 1 else (u * xi).sum(axis=1)
        grad = outer + groups.sum_groups(inner)
    return VarProState(v=v, u=u, alpha=alpha, xi=xi, f=float(f), grad=grad)


def f_and_grad(prob: Problem, v: np.ndarray, route: Side | None = None):
    """Value and gradient of the projected objective at v.

    The gradient is exact through either inner route: the dual form
    subtracts the per-group correlation energies, the primal form adds the
    residual correlations of the inner minimizer; both agree for lam > 0.
    """
    st = eval_state(prob, v, route)
    return st.f, st.grad


def f_and_grad_matrix(mt: MultiTaskProblem, V: np.ndarray):
    """Trace-norm projected objective over the square factor V, and B = V U.

    One ridge system per task, (lam I + A_t^T A_t) u_t = A_t^T y_t with
    A_t = X_t V, gives the inner coefficients u_t; the gradient is V plus
    the weighted sum of residual-correlation outer products, and column t
    of the coefficient matrix B is V u_t.
    """
    V = np.asarray(V, dtype=float)
    lam = mt.lam
    f = 0.5 * float(np.sum(V * V))
    grad = V.copy()
    B = np.empty((mt.n, mt.T))
    for t, (X, y) in enumerate(zip(mt.Xs, mt.ys)):
        A = X @ V
        u = solve_spd(lam * np.eye(V.shape[1]) + A.T @ A, A.T @ y)
        r = A @ u - y
        f += 0.5 * float(u @ u) + float(r @ r) / (2.0 * lam)
        grad += np.outer(X.T @ r, u) / lam
        B[:, t] = V @ u
    return f, grad, B


def hessian(prob: Problem, v: np.ndarray) -> HessianBlocks:
    """Exact Hessian blocks of f at v for the group family, lam > 0.

    Valid at every v, including points where groups sit exactly at zero
    (the blocks vary continuously as v_g -> 0).
    """
    if prob.lam <= 0:
        raise ValueError("hessian requires lam > 0")
    if not isinstance(prob.reg, GroupL2):
        raise ValueError("hessian is defined for the group family only")
    v = np.asarray(v, dtype=float)
    groups = prob.groups
    xi = eval_state(prob, v).xi
    diag = 1.0 - groups.sumsq(xi)
    on = np.abs(v) > SUPPORT_CUTOFF * (np.abs(v).max() if v.size else 0.0)
    support = np.flatnonzero(on).tolist()
    if not support:
        return HessianBlocks(
            k=groups.k, support=[], diag=diag, W=np.zeros((0, 0)),
            U=np.zeros((0, 0)), sigma_hat=0.0, xi=xi,
        )

    idx = groups.perm[on[groups.group_of[groups.perm]]]
    X = prob.X
    XJ = X[:, idx].toarray() if scipy.sparse.issparse(X) else np.asarray(X)[:, idx]
    A = XJ * groups.expand(v)[idx]
    M = A.T @ A
    nJ = idx.size
    HJ = M + prob.lam * np.eye(nJ)
    W = np.eye(nJ) - prob.lam * cholesky_solve(HJ, np.eye(nJ))
    W = 0.5 * (W + W.T)

    U = np.zeros((nJ, len(support)))
    U[np.arange(nJ), (np.cumsum(on) - 1)[groups.group_of[idx]]] = xi[idx]
    sigma_hat = float(np.linalg.eigvalsh(M).min())
    return HessianBlocks(
        k=groups.k, support=support, diag=diag, W=W, U=U,
        sigma_hat=sigma_hat, xi=xi,
    )


class StationaryKind(enum.Enum):
    GLOBAL_MIN = "global-min"
    STRICT_SADDLE = "strict-saddle"
    NOT_STATIONARY = "not-stationary"


def classify_stationary(prob: Problem, v: np.ndarray, tol: float = 1e-6) -> StationaryKind:
    """Classify v: every stationary point is a global min or strict saddle.

    NOT_STATIONARY when the gradient norm exceeds tol; otherwise a negative
    Hessian eigenvalue below -tol certifies a strict saddle, and its
    absence a global minimum.
    """
    _, grad = f_and_grad(prob, v)
    if np.linalg.norm(grad) > tol:
        return StationaryKind.NOT_STATIONARY
    H = hessian(prob, v).assemble()
    if np.linalg.eigvalsh(H).min() < -tol:
        return StationaryKind.STRICT_SADDLE
    return StationaryKind.GLOBAL_MIN
