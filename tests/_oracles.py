"""Independent reference computations the tests check the package against."""

import itertools

import numpy as np
import scipy.sparse

from noncvxpro.linalg import range_solver


def fd_grad(fun, x, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def fd_jacobian(vfun, x, h=1e-5):
    """Central finite-difference Jacobian of a vector function."""
    x = np.asarray(x, float)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((vfun(x + e) - vfun(x - e)) / (2.0 * h))
    return np.stack(cols, axis=1)


def min_l1_flow(X, y, tol=1e-9):
    """Minimum of sum |beta| subject to X beta = y, by vertex enumeration.

    An optimal basic solution of the underlying linear program has at most
    rank(X) nonzero coordinates, so trying every column subset up to that
    size and least-squares solving the restricted system visits the optimum.
    Only usable on small instances (a handful of nodes and edges).
    """
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    n = X.shape[1]
    r = np.linalg.matrix_rank(X)
    scale = 1.0 + float(np.linalg.norm(y))
    best = None
    for size in range(0, r + 1):
        for cols in itertools.combinations(range(n), size):
            if size == 0:
                resid = float(np.linalg.norm(y))
                val = 0.0
            else:
                sub = X[:, list(cols)]
                coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
                resid = float(np.linalg.norm(sub @ coef - y))
                val = float(np.abs(coef).sum())
            if resid <= tol * scale and (best is None or val < best):
                best = val
    return best


def affine_projection_reference(X, y):
    """Projection onto {beta : X beta = y} by one checked range solve per call.

    Factors X X^T once with range_solver and, on every call, solves for the
    residual y - X beta (checking its consistency) before applying X^T.
    """
    K = (X @ X.T).toarray() if scipy.sparse.issparse(X) else X @ X.T
    solve = range_solver(K)

    def project(beta):
        return beta + np.asarray(X.T @ solve(y - np.asarray(X @ beta)))

    return project


def dual_matrix_reference(X, vbar):
    """X diag(vbar^2) X^T as the general product (X diag(vbar^2)) X^T.

    The form the m-sized inner system was first built with; the package
    forms it as A A^T with A = X diag(vbar), which rounds differently.
    """
    vbar2 = vbar * vbar
    if scipy.sparse.issparse(X):
        return (X.multiply(vbar2) @ X.T).toarray()
    return (X * vbar2) @ X.T


def dense_bfgs_direction(pairs, g):
    """Search direction from the textbook BFGS inverse-Hessian update.

    Rebuilds H from a gamma-scaled identity (gamma from the newest pair)
    through every stored (s, y) pair in order, then returns -H g.  L-BFGS
    with unbounded memory must produce the same direction.
    """
    d = g.size
    if not pairs:
        return -g
    s_new, y_new = pairs[-1]
    gamma = float(s_new @ y_new) / float(y_new @ y_new)
    H = gamma * np.eye(d)
    for s, y in pairs:
        rho = 1.0 / float(s @ y)
        V = np.eye(d) - rho * np.outer(s, y)
        H = V @ H @ V.T + rho * np.outer(s, s)
    return -H @ g


def random_group_problem(rng, m_max=30, n_max=30, lam_frac=10.0, reg_kind="group"):
    """Small random group-Lasso instance with lam a fraction of lambda_max."""
    from noncvxpro.problems import Problem
    from noncvxpro.regularizers import GroupL2, GroupStructure, L1, lambda_max

    m = int(rng.integers(4, m_max + 1))
    n = int(rng.integers(2, n_max + 1))
    X = rng.standard_normal((m, n))
    s = max(1, n // 3)
    beta = np.zeros(n)
    beta[rng.choice(n, size=s, replace=False)] = rng.standard_normal(s)
    y = X @ beta + 0.05 * rng.standard_normal(m)
    if reg_kind == "l1":
        reg = L1()
    else:
        k = int(rng.integers(1, min(5, n) + 1))
        reg = GroupL2(GroupStructure.contiguous(n, k))
    lam = lambda_max(X, y, reg) / lam_frac
    return Problem(X, y, lam, reg)
