"""Output checks computed outside the package, with plain numpy and scipy.

Nothing here calls noncvxpro: the duality gap, the primal objective and the
basis-pursuit optimum are recomputed from X, y and lam alone, so a fault in
the package's own certificate (coordinate descent's gap, the race's f*)
cannot hide a wrong answer.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

GAP_TOL = 1e-6  # relative duality gap every lam > 0 solver must reach
OBJ_TOL = 1e-9  # relative agreement of the reported and recomputed objective
BP_OBJ_TOL = 1e-6  # relative distance to the linear-programming optimum
BP_FEAS_TOL = 1e-8  # ||X beta - y|| / ||y|| at lam = 0


class CheckFailed(AssertionError):
    """A program output failed an independent check."""


def _block_norms(z, group_size):
    return np.linalg.norm(np.asarray(z, float).reshape(-1, group_size), axis=1)


def primal_and_gap(X, y, lam, beta, group_size):
    """P(beta) and its relative duality gap for contiguous equal groups.

    P(beta) = sum_g ||beta_g|| + ||X beta - y||^2 / (2 lam).  The dual point
    is the residual scaled into {theta : max_g ||X_g^T theta|| <= lam}, whose
    value is (||y||^2 - ||y - theta||^2) / (2 lam); group_size = 1 is the
    Lasso.
    """
    r = y - X @ beta
    primal = float(_block_norms(beta, group_size).sum() + r @ r / (2.0 * lam))
    cmax = float(_block_norms(X.T @ r, group_size).max())
    theta = r * min(1.0, lam / cmax) if cmax > 0 else r
    dual = float(y @ y - (y - theta) @ (y - theta)) / (2.0 * lam)
    return primal, (primal - dual) / primal


def check_regularized(label, X, y, lam, beta, reported, group_size):
    """Gap at or below GAP_TOL and the reported objective equal to P(beta)."""
    if beta is None:
        raise CheckFailed(f"{label}: no coefficients returned")
    primal, gap = primal_and_gap(X, y, lam, np.asarray(beta, float), group_size)
    if not gap <= GAP_TOL:
        raise CheckFailed(f"{label}: relative duality gap {gap:.3g} > {GAP_TOL:g}")
    if not abs(primal - reported) <= OBJ_TOL * abs(primal):
        raise CheckFailed(f"{label}: reported objective {reported!r} != recomputed {primal!r}")
    return gap


def bp_optimum(X, y):
    """min ||beta||_1 s.t. X beta = y, by HiGHS on the split beta = p - q."""
    n = X.shape[1]
    res = linprog(np.ones(2 * n), A_eq=np.hstack([X, -X]), b_eq=y, bounds=(0, None), method="highs")
    if res.status != 0:
        raise CheckFailed(f"linprog did not solve the basis-pursuit problem: {res.message}")
    return float(res.fun)


def check_basis_pursuit(label, X, y, beta, optimum):
    """Feasible to BP_FEAS_TOL and l1 norm within BP_OBJ_TOL of the LP optimum."""
    if beta is None:
        raise CheckFailed(f"{label}: no coefficients returned")
    beta = np.asarray(beta, float)
    feas = float(np.linalg.norm(X @ beta - y) / np.linalg.norm(y))
    if not feas <= BP_FEAS_TOL:
        raise CheckFailed(f"{label}: ||X beta - y|| / ||y|| = {feas:.3g} > {BP_FEAS_TOL:g}")
    rel = abs(float(np.abs(beta).sum()) - optimum) / optimum
    if not rel <= BP_OBJ_TOL:
        raise CheckFailed(f"{label}: ||beta||_1 is {rel:.3g} relative from the LP optimum")


def check_phase_table(success, trials):
    """Counts lie in [0, trials]; q = 1 never falls as m grows; q = 0.8 >= q = 1.

    The designs are nested (smaller m reuses the leading rows), and a unique
    l1 minimizer stays unique when rows are added, so the q = 1 count cannot
    drop with m.  The q = 0.8 count is at least the q = 1 count at every m.
    """
    for q, counts in success.items():
        if any(not 0 <= c <= trials for c in counts):
            raise CheckFailed(f"q={q}: counts {counts} outside [0, {trials}]")
    l1 = success[1.0]
    if any(b < a for a, b in zip(l1, l1[1:])):
        raise CheckFailed(f"q=1.0 counts fall as m grows: {l1}")
    if any(a < b for a, b in zip(success[0.8], l1)):
        raise CheckFailed(f"q=0.8 counts {success[0.8]} below q=1.0 counts {l1}")


def _soft(z, tau, group_size):
    blocks = np.asarray(z, float).reshape(-1, group_size)
    nrm = np.linalg.norm(blocks, axis=1, keepdims=True)
    scale = np.maximum(1.0 - tau / np.where(nrm > 0, nrm, 1.0), 0.0)
    return (blocks * scale).ravel()


def _expect_failure(check, *args):
    try:
        check(*args)
    except CheckFailed:
        return
    raise CheckFailed(f"{check.__name__} accepted a wrong answer")


def self_test():
    """Run every checker on closed-form cases before trusting it.

    With X = I the regularized optimum is y soft-thresholded (block
    soft-thresholded for groups) by lam; with X = [I, I] at lam = 0 the
    basis-pursuit optimum is ||y||_1.
    """
    rng = np.random.default_rng(12345)
    n, lam = 12, 0.4
    X = np.eye(n)
    y = rng.standard_normal(n) * np.repeat([0.05, 3.0, 3.0, 3.0], 3)  # first block below lam
    for group_size in (1, 3):
        star = _soft(y, lam, group_size)
        if np.count_nonzero(star) in (0, n):
            raise CheckFailed("closed-form case must keep some blocks and zero others")
        value = float(_block_norms(star, group_size).sum() + (star - y) @ (star - y) / (2 * lam))
        gap = check_regularized("closed form", X, y, lam, star, value, group_size)
        if gap > 1e-12:
            raise CheckFailed(f"closed-form optimum has gap {gap:.3g}")
        off = star + 1e-3 * rng.standard_normal(n)
        _expect_failure(check_regularized, "perturbed", X, y, lam, off,
                        primal_and_gap(X, y, lam, off, group_size)[0], group_size)
        _expect_failure(check_regularized, "misreported", X, y, lam, star, value * (1 + 1e-6), group_size)

    X2 = np.hstack([np.eye(n), np.eye(n)])
    opt = bp_optimum(X2, y)
    if abs(opt - np.abs(y).sum()) > 1e-9 * np.abs(y).sum():
        raise CheckFailed(f"linprog gives {opt!r}, closed form {np.abs(y).sum()!r}")
    check_basis_pursuit("closed form", X2, y, np.concatenate([y, np.zeros(n)]), opt)
    check_basis_pursuit("closed form", X2, y, np.concatenate([y / 2, y / 2]), opt)
    _expect_failure(check_basis_pursuit, "not optimal", X2, y, np.concatenate([2 * y, -y]), opt)
    _expect_failure(check_basis_pursuit, "infeasible", X2, y, np.concatenate([y, 1e-6 * y]), opt)

    _expect_failure(check_phase_table, {0.8: [0, 1, 1], 1.0: [0, 1, 0]}, 1)
    _expect_failure(check_phase_table, {0.8: [0, 0, 1], 1.0: [0, 1, 1]}, 1)
    _expect_failure(check_phase_table, {0.8: [0, 2, 1], 1.0: [0, 1, 1]}, 1)
    check_phase_table({0.8: [0, 1, 1], 1.0: [0, 0, 1]}, 1)
