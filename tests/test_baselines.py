"""Baseline solver tests: proximal, coordinate, reweighting, alternating, splitting."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from noncvxpro import baselines, varpro
from noncvxpro.baselines import (
    StepConditionViolated,
    _AffineProjector,
    altmin_noncvx,
    chambolle_pock_bp,
    coordinate_descent_lasso,
    douglas_rachford_bp,
    fista_bb_restart,
    irls_matrix,
    irls_vector,
    ista,
    quad_var_oracle,
    quad_variational,
    split_box_lasso,
)
from noncvxpro.linalg import InconsistentSystem
from noncvxpro.problems import (
    BeckmannProblem,
    MultiTaskProblem,
    Problem,
    primal_objective,
)
from noncvxpro.regularizers import GroupL2, GroupStructure, L1, lambda_max

from _oracles import fd_grad, min_l1_flow, random_group_problem


def scalar_problem():
    return Problem(np.array([[1.0]]), np.array([2.0]), 1.0, L1())


def dense(X):
    return np.asarray(X.toarray() if hasattr(X, "toarray") else X, float)


def path_flow_problem():
    edges = [(0, 1), (1, 2), (2, 3)]
    a = np.array([0.7, 0.3, 0.0, 0.0])
    b = np.array([0.0, 0.0, 0.2, 0.8])
    return BeckmannProblem(4, edges, a, b)


# ------------------------------------------------------------------ proximal

def test_ista_single_step_soft_thresholds_gradient_point():
    # from beta = 0 with unit step: gradient point is X^T y / lam = 2,
    # and soft-thresholding by 1 leaves 1
    tr = ista(scalar_problem(), step=1.0, iters=1)
    assert_allclose(tr.beta, [1.0], atol=1e-15)
    assert tr.objectives[-1] == pytest.approx(1.5, abs=1e-12)


def test_ista_zero_step_keeps_iterates_constant():
    tr = ista(scalar_problem(), step=0.0, iters=5)
    assert_allclose(tr.beta, [0.0])
    assert all(o == tr.objectives[0] for o in tr.objectives)


def test_ista_default_step_is_monotone():
    prob = random_group_problem(np.random.default_rng(0), m_max=15, n_max=12)
    tr = ista(prob, iters=200)
    for o0, o1 in zip(tr.objectives, tr.objectives[1:]):
        assert o1 <= o0 + 1e-12 * (1.0 + abs(o0))


def test_ista_requires_positive_lam():
    prob = Problem(np.eye(2), np.zeros(2), 0.0, L1())
    with pytest.raises(ValueError):
        ista(prob)


def test_fista_reaches_scalar_optimum():
    tr = fista_bb_restart(scalar_problem(), iters=100)
    assert tr.objectives[-1] == pytest.approx(1.5, abs=1e-10)
    assert_allclose(tr.beta, [1.0], atol=1e-8)


def test_fista_zero_data_stays_at_zero():
    prob = Problem(np.eye(3), np.zeros(3), 0.5, L1())
    tr = fista_bb_restart(prob, iters=20)
    assert_allclose(tr.beta, np.zeros(3))


def test_fista_above_lambda_max_returns_zero():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((8, 5))
    y = rng.standard_normal(8)
    lam = 1.5 * lambda_max(X, y, L1())
    tr = fista_bb_restart(Problem(X, y, lam, L1()), iters=200)
    assert_allclose(tr.beta, np.zeros(5), atol=1e-12)
    assert tr.objectives[-1] == pytest.approx(0.5 * float(y @ y) / lam, rel=1e-12)


# ---------------------------------------------------------------- coordinate

def test_cd_identity_design_is_exact_in_one_sweep():
    prob = Problem(np.eye(2), np.array([3.0, -1.0]), 1.0, L1())
    tr = coordinate_descent_lasso(prob, iters=1)
    assert_allclose(tr.beta, [2.0, 0.0], atol=1e-15)


def test_cd_scalar_anchor():
    tr = coordinate_descent_lasso(scalar_problem(), iters=50, tol=1e-14)
    assert_allclose(tr.beta, [1.0], atol=1e-12)
    assert tr.objectives[-1] == pytest.approx(1.5, abs=1e-12)


def test_cd_gap_certificate_at_exit():
    prob = random_group_problem(np.random.default_rng(2), m_max=20, n_max=15)
    tr = coordinate_descent_lasso(prob, iters=5000, tol=1e-10)
    assert tr.aux["gap"] <= 1e-10 * max(1.0, abs(tr.objectives[-1]))
    assert tr.aux["gap"] >= -1e-14


def test_cd_rejects_wrong_family():
    from noncvxpro.regularizers import Lq

    prob = Problem(np.eye(2), np.ones(2), 0.5, Lq(0.8))
    with pytest.raises(ValueError):
        coordinate_descent_lasso(prob)


# --------------------------------------------------------------- reweighting

def test_irls_weight_update_matches_group_norm():
    # with a nearly unregularized identity design beta converges to y, so
    # the group weight goes to sqrt(||y||^2 + eps) = 5 for y = (3, 4)
    gs = GroupStructure([[0, 1]], 2)
    prob = Problem(np.eye(2), np.array([3.0, 4.0]), 1e-10, GroupL2(gs))
    tr = irls_vector(prob, eps=1e-12, iters=60)
    assert tr.aux["eta"][0] == pytest.approx(5.0, abs=1e-6)
    assert_allclose(tr.beta, [3.0, 4.0], atol=1e-6)


def test_irls_weight_update_at_zero_beta_is_sqrt_eps_barrier():
    prob = Problem(np.eye(2), np.zeros(2), 1.0, L1())
    tr = irls_vector(prob, eps=1.0, iters=5)
    assert_allclose(tr.aux["eta"], [1.0, 1.0])
    assert_allclose(tr.beta, np.zeros(2))


def test_irls_scalar_anchor_within_barrier_bias():
    tr = irls_vector(scalar_problem(), eps=1e-8, iters=200)
    assert tr.beta[0] == pytest.approx(1.0, abs=1e-3)
    assert tr.objectives[-1] == pytest.approx(1.5, abs=1e-3)


def test_irls_validates_inputs():
    with pytest.raises(ValueError):
        irls_vector(scalar_problem(), eps=0.0)
    prob = Problem(np.eye(2), np.zeros(2), 0.0, L1())
    with pytest.raises(ValueError):
        irls_vector(prob, eps=1e-8)


def test_irls_matrix_zero_data_keeps_floor_eigenvalue():
    rng = np.random.default_rng(4)
    Xs = [rng.standard_normal((5, 3)) for _ in range(2)]
    ys = [np.zeros(5) for _ in range(2)]
    mt = MultiTaskProblem(Xs, ys, 1.0)
    tr = irls_matrix(mt, eps=1e-6, iters=3)
    assert_allclose(tr.beta, np.zeros((3, 2)))
    assert tr.aux["z_min_eig"] == pytest.approx(1e-3, rel=1e-10)


def test_irls_matrix_single_task_matches_vector_route():
    # one task: the spectral penalty of a single column equals its l2 norm,
    # so the matrix iteration solves the same problem as the one-group
    # vector iteration (both carry an O(sqrt(eps)) barrier plus a slower
    # rate on the matrix side)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((6, 4))
    y = rng.standard_normal(6)
    mt = MultiTaskProblem([X], [y], 0.4)
    pg = Problem(X, y, 0.4, GroupL2(GroupStructure([list(range(4))], 4)))
    tm = irls_matrix(mt, eps=1e-10, iters=500)
    tv = irls_vector(pg, eps=1e-10, iters=500)
    assert tm.objectives[-1] == pytest.approx(tv.objectives[-1], abs=1e-3)


def test_irls_matrix_eigenvalue_floor_holds():
    rng = np.random.default_rng(9)
    Xs = [rng.standard_normal((6, 4)) for _ in range(3)]
    ys = [rng.standard_normal(6) for _ in range(3)]
    tr = irls_matrix(MultiTaskProblem(Xs, ys, 0.7), eps=1e-8, iters=30)
    assert tr.aux["z_min_eig"] >= 1e-4 * (1.0 - 1e-8)


# --------------------------------------------------------------- alternating

def test_altmin_scalar_anchor_finds_global_minimum():
    tr = altmin_noncvx(scalar_problem(), iters=300, v0=np.array([0.3]))
    assert_allclose(tr.beta, [1.0], atol=1e-8)
    assert tr.objectives[-1] == pytest.approx(1.5, abs=1e-10)
    assert_allclose(tr.aux["v"] * tr.aux["u"], tr.beta)


def test_altmin_zero_start_stays_at_saddle():
    tr = altmin_noncvx(scalar_problem(), iters=20, v0=np.array([0.0]))
    assert_allclose(tr.beta, [0.0])
    assert all(o == tr.objectives[0] for o in tr.objectives)


def test_altmin_joint_objective_monotone():
    prob = random_group_problem(np.random.default_rng(6), m_max=15, n_max=12)
    tr = altmin_noncvx(prob, iters=100)
    joint = tr.aux["joint"]
    for j0, j1 in zip(joint, joint[1:]):
        assert j1 <= j0 + 1e-10 * (1.0 + abs(j0))


def _v_step_through_m(prob, u):
    """The v step through the explicit m x k design M (the reference)."""
    groups = prob.groups
    M = groups.sum_groups(dense(prob.X).T[:, :, None] * u.reshape(prob.n, 1, -1)).reshape(groups.k, -1).T
    return np.linalg.solve(prob.lam * np.eye(groups.k) + M.T @ M, M.T @ prob.y.ravel())


def _altmin_instance(shape, cols):
    rng = np.random.default_rng(20 + cols)
    if shape == "tall group":  # k = 4 < m: the k side, from the Gram
        m, n, reg = 30, 12, GroupL2(GroupStructure.contiguous(12, 4))
    elif shape == "wide group":  # k = 6 < m < n: the k side, through M
        m, n, reg = 20, 60, GroupL2(GroupStructure.contiguous(60, 6))
    else:  # wide L1, k = n = 30 > m: the m side
        m, n, reg = 10, 30, L1()
    X = rng.standard_normal((m, n))
    y = rng.standard_normal(m if cols == 1 else (m, cols))
    return Problem(X, y, lambda_max(X, y, reg) / 5.0, reg), rng


@pytest.mark.parametrize("cols", [1, 2])
@pytest.mark.parametrize("shape", ["tall group", "wide group", "wide L1"])
def test_altmin_v_step_sides_match_the_explicit_design(shape, cols):
    prob, rng = _altmin_instance(shape, cols)
    v0 = rng.standard_normal(prob.groups.k)
    v0[0] = 0.0
    tr = altmin_noncvx(prob, iters=3, v0=v0)
    ref = _v_step_through_m(prob, tr.aux["u"])
    assert np.linalg.norm(tr.aux["v"] - ref) <= 1e-12 * np.linalg.norm(ref)
    # only the tall instance's n-sized dense u step forms the Gram, and only
    # then does the v step read it; a wide design never pays its n x n memory
    assert ("gram" in vars(prob)) is (shape == "tall group")


def test_altmin_past_the_dense_limit_never_forms_the_gram(monkeypatch):
    # the n-sized u step runs CG, so the k-sided v step goes through M
    monkeypatch.setattr(varpro, "DENSE_DIRECT_MAX", 0)
    monkeypatch.setattr(baselines, "DENSE_DIRECT_MAX", 0)
    prob, rng = _altmin_instance("tall group", 1)
    tr = altmin_noncvx(prob, iters=3, v0=rng.standard_normal(prob.groups.k))
    ref = _v_step_through_m(prob, tr.aux["u"])
    assert np.linalg.norm(tr.aux["v"] - ref) <= 1e-12 * np.linalg.norm(ref)
    assert "gram" not in vars(prob)


def test_altmin_joint_objective_monotone_on_wide_design():
    rng = np.random.default_rng(9)
    X, y = rng.standard_normal((20, 60)), rng.standard_normal(20)
    prob = Problem(X, y, lambda_max(X, y, L1()) / 10.0, L1())
    joint = altmin_noncvx(prob, iters=100).aux["joint"]
    assert "gram" not in vars(prob)  # both steps took the m side
    for j0, j1 in zip(joint, joint[1:]):
        assert j1 <= j0 + 1e-10 * (1.0 + abs(j0))


# ----------------------------------------------------- convex reformulation

def test_quad_variational_scalar_anchor():
    tr = quad_variational(scalar_problem())
    assert tr.aux["eta"][0] == pytest.approx(1.0, abs=1e-6)
    assert_allclose(tr.beta, [1.0], atol=1e-6)
    assert tr.objectives[-1] == pytest.approx(1.5, abs=1e-10)


def test_quad_variational_above_lambda_max_returns_zero():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((8, 5))
    y = rng.standard_normal(8)
    lam = 1.2 * lambda_max(X, y, L1())
    tr = quad_variational(Problem(X, y, lam, L1()))
    assert np.abs(tr.beta).max() <= 1e-6
    assert tr.objectives[-1] == pytest.approx(0.5 * float(y @ y) / lam, rel=1e-8)


def test_quad_variational_oracle_gradient_matches_fd():
    prob = random_group_problem(np.random.default_rng(10), m_max=12, n_max=8)
    eval_eta = quad_var_oracle(prob)
    rng = np.random.default_rng(11)
    eta = 0.5 + rng.random(prob.groups.k)
    _, grad, _ = eval_eta(eta)
    ref = fd_grad(lambda e: eval_eta(e)[0], eta)
    assert_allclose(grad, ref, rtol=1e-6, atol=1e-8)


def _tall_and_wide_group_problems():
    rng = np.random.default_rng(21)
    for m, n in ((9, 24), (24, 9)):
        X = rng.standard_normal((m, n))
        y = rng.standard_normal(m)
        for reg in (L1(), GroupL2(GroupStructure.contiguous(n, 3))):
            yield Problem(X, y, lambda_max(X, y, reg) / 4.0, reg)


def test_quad_var_oracle_matches_dual_formula():
    # reference: the m-sized dual system (lam I + X diag(etabar) X^T) alpha = y
    # written out, on wide and tall designs and with some eta_g = 0
    rng = np.random.default_rng(22)
    for prob in _tall_and_wide_group_problems():
        k = prob.groups.k
        eta = 0.1 + rng.random(k)
        eta[::2] = 0.0
        ebar = prob.groups.expand(eta)
        alpha = np.linalg.solve((prob.X * ebar) @ prob.X.T + prob.lam * np.eye(prob.m), prob.y)
        corr = prob.X.T @ alpha
        ref_val = 0.5 * eta.sum() + 0.5 * float(alpha @ prob.y)
        ref_grad = 0.5 - 0.5 * np.array([np.sum(corr[g] ** 2) for g in prob.groups.groups])
        val, grad, beta = quad_var_oracle(prob)(eta)
        assert val == pytest.approx(ref_val, rel=1e-12)
        assert_allclose(grad, ref_grad, rtol=1e-10, atol=1e-12)
        assert_allclose(beta, ebar * corr, rtol=1e-10, atol=1e-12)


def test_irls_step_matches_reweighted_normal_equations():
    # one step from weights eta0 solves (X^T X + lam diag(1/etabar)) beta = X^T y
    rng = np.random.default_rng(23)
    for prob in _tall_and_wide_group_problems():
        eta = 0.1 + rng.random(prob.groups.k)
        ebar = prob.groups.expand(eta)
        ref = np.linalg.solve(prob.X.T @ prob.X + prob.lam * np.diag(1.0 / ebar), prob.X.T @ prob.y)
        tr = irls_vector(prob, eps=1e-8, iters=1, eta0=eta)
        assert_allclose(tr.beta, ref, rtol=1e-9, atol=1e-11)


def test_quad_variational_rejects_wrong_inputs():
    from noncvxpro.regularizers import Lq

    with pytest.raises(ValueError):
        quad_var_oracle(Problem(np.eye(2), np.ones(2), 0.5, Lq(0.8)))
    with pytest.raises(ValueError):
        quad_var_oracle(Problem(np.eye(2), np.ones(2), 0.0, L1()))


# -------------------------------------------------------------- split lasso

def test_split_box_requires_l1_and_positive_lam():
    gs = GroupStructure([[0, 1]], 2)
    with pytest.raises(ValueError):
        split_box_lasso(Problem(np.eye(2), np.ones(2), 0.5, GroupL2(gs)))
    with pytest.raises(ValueError):
        split_box_lasso(Problem(np.eye(2), np.ones(2), 0.0, L1()))


def test_split_box_scalar_anchor():
    tr = split_box_lasso(scalar_problem())
    assert_allclose(tr.beta, [1.0], atol=1e-8)


# ------------------------------------------------------- agreement invariant

def test_convex_solvers_agree_with_certified_optimum():
    # one small instance, every lam > 0 route: everything lands within
    # 1e-5 of the gap-certified coordinate-descent value (the reweighting
    # route carries its eps bias, everything else is exact here)
    prob = random_group_problem(np.random.default_rng(5), m_max=14, n_max=10, reg_kind="l1")
    cd = coordinate_descent_lasso(prob, iters=3000, tol=1e-12)
    f_star = cd.objectives[-1]
    others = [
        fista_bb_restart(prob, iters=2000),
        irls_vector(prob, eps=1e-12, iters=300),
        altmin_noncvx(prob, iters=300),
        quad_variational(prob),
        split_box_lasso(prob),
        ista(prob, iters=3000),
    ]
    for tr in others:
        rel = abs(tr.objectives[-1] - f_star) / (1.0 + abs(f_star))
        assert rel <= 1e-5, f"{tr.name}: relative error {rel:.2e}"
        # trace values are true objectives, so none may undercut the optimum
        assert min(tr.objectives) >= f_star - 1e-9 * (1.0 + abs(f_star))


def test_l1_with_two_column_y_is_the_row_norm_problem():
    # L1 over a matrix beta is the singleton group family: the sum of row
    # norms, which every solver minimizes and every objective reports
    from noncvxpro.bench import run_noncvxpro

    rng = np.random.default_rng(0)
    X, Y = rng.standard_normal((30, 12)), rng.standard_normal((30, 2))
    prob = Problem(X, Y, 2.0, L1())
    cd = coordinate_descent_lasso(prob, iters=2000)
    f_star = cd.objectives[-1]
    assert cd.aux["gap"] <= cd.config["tol"] * max(1.0, abs(f_star))
    rows = Problem(X, Y, 2.0, GroupL2(GroupStructure.singletons(12)))
    r = X @ cd.beta - Y
    row_norm_value = np.linalg.norm(cd.beta, axis=1).sum() + np.sum(r * r) / 4.0
    assert primal_objective(prob, cd.beta) == primal_objective(rows, cd.beta)
    assert primal_objective(prob, cd.beta) == pytest.approx(row_norm_value, rel=1e-14)
    for tr in (run_noncvxpro(prob), ista(prob, iters=3000), fista_bb_restart(prob, iters=3000)):
        assert tr.beta.shape == (12, 2)
        assert tr.objectives[-1] == pytest.approx(f_star, rel=1e-9), tr.name


# ----------------------------------------------------------------- splitting

def test_affine_projector_symmetric_example():
    proj = _AffineProjector(np.array([[1.0, 1.0]]), np.array([1.0]))
    assert_allclose(proj(np.zeros(2)), [0.5, 0.5], atol=1e-14)


def test_affine_projector_idempotent_and_feasible():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((3, 7))
    y = rng.standard_normal(3)
    proj = _AffineProjector(X, y)
    z = rng.standard_normal(7)
    p1 = proj(z)
    assert np.linalg.norm(X @ p1 - y) <= 1e-12 * (1.0 + np.linalg.norm(y))
    assert_allclose(proj(p1), p1, atol=1e-12)


def test_affine_projector_raises_on_unreachable_y():
    # X X^T = [[2, 2], [2, 2]] is singular and y = (1, 2) is off its range:
    # no beta satisfies X beta = y, so the projector must not return one
    proj = _AffineProjector(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]]), np.array([1.0, 2.0]))
    with pytest.raises(InconsistentSystem):
        proj(np.zeros(3))


def test_affine_projector_on_path_flow_laplacian():
    # a path's incidence gives X X^T = its graph Laplacian, singular with
    # the constants as kernel; the divergence y sums to zero, so it is reachable
    p = path_flow_problem().to_problem()
    X = dense(p.X)
    assert np.linalg.matrix_rank(X @ X.T) == X.shape[0] - 1
    proj = _AffineProjector(p.X, p.y)
    z = np.random.default_rng(13).standard_normal(p.n)
    p1 = proj(z)
    assert np.linalg.norm(X @ p1 - p.y) <= 1e-12 * (1.0 + np.linalg.norm(p.y))
    assert_allclose(proj(p1), p1, atol=1e-12)


def test_dr_zero_data_stays_at_zero():
    prob = Problem(np.array([[1.0, 1.0]]), np.zeros(1), 0.0, L1())
    tr = douglas_rachford_bp(prob, iters=10)
    assert_allclose(tr.beta, np.zeros(2))
    assert all(o == 0.0 for o in tr.objectives)


def test_dr_matches_flow_enumeration_optimum():
    bp = path_flow_problem()
    p = bp.to_problem()
    opt = min_l1_flow(dense(p.X), p.y)
    tr = douglas_rachford_bp(bp, iters=500)
    assert np.linalg.norm(dense(p.X) @ tr.beta - p.y) <= 1e-10 * (1.0 + np.linalg.norm(p.y))
    assert p.reg.r_value(tr.beta) == pytest.approx(opt, abs=1e-5)


def test_dr_validates_gamma_and_lam():
    with pytest.raises(ValueError):
        douglas_rachford_bp(path_flow_problem(), gamma=2.0)
    with pytest.raises(ValueError):
        douglas_rachford_bp(scalar_problem())


def test_cp_zero_data_stays_at_zero():
    prob = Problem(np.array([[1.0, 1.0]]), np.zeros(1), 0.0, L1())
    tr = chambolle_pock_bp(prob, iters=10)
    assert_allclose(tr.beta, np.zeros(2))


def test_cp_matches_flow_enumeration_optimum():
    bp = path_flow_problem()
    p = bp.to_problem()
    opt = min_l1_flow(dense(p.X), p.y)
    tr = chambolle_pock_bp(bp, iters=2000)
    assert np.linalg.norm(dense(p.X) @ tr.beta - p.y) <= 1e-10 * (1.0 + np.linalg.norm(p.y))
    assert p.reg.r_value(tr.beta) == pytest.approx(opt, abs=1e-5)


def test_cp_rejects_oversized_steps():
    bp = path_flow_problem()
    from noncvxpro.baselines import _spectral_norm

    L2 = _spectral_norm(bp.to_problem().X) ** 2
    s = np.sqrt(1.5 / L2)
    with pytest.raises(StepConditionViolated):
        chambolle_pock_bp(bp, sigma=s, tau=s)
    with pytest.raises(ValueError):
        chambolle_pock_bp(bp, theta=0.0)


def test_dr_and_cp_agree_on_random_flow():
    rng = np.random.default_rng(13)
    edges = [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)]
    a = np.array([0.6, 0.4, 0.0, 0.0])
    b = np.array([0.0, 0.0, 0.5, 0.5])
    bp = BeckmannProblem(4, edges, a, b)
    p = bp.to_problem()
    opt = min_l1_flow(dense(p.X), p.y)
    dr = douglas_rachford_bp(bp, iters=800)
    cp = chambolle_pock_bp(bp, iters=3000)
    assert p.reg.r_value(dr.beta) == pytest.approx(opt, abs=1e-5)
    assert p.reg.r_value(cp.beta) == pytest.approx(opt, abs=1e-5)
