"""Reduced objective f: inner solves, gradients, Hessian, classification."""

import numpy as np
import pytest
import scipy.sparse
from numpy.testing import assert_allclose

from noncvxpro import varpro
from noncvxpro.lbfgs import LbfgsConfig, minimize
from noncvxpro.linalg import Side
from noncvxpro.problems import MultiTaskProblem, Problem, primal_objective, synth_lasso
from noncvxpro.regularizers import GroupL2, GroupStructure, L1, Lq, lambda_max
from noncvxpro.varpro import (
    InconsistentSystem,
    StationaryKind,
    classify_stationary,
    eval_state,
    f_and_grad,
    f_and_grad_matrix,
    hessian,
    inner_solve_dual,
    inner_solve_primal,
    recover_beta,
)
from _oracles import fd_grad, fd_jacobian, random_group_problem


def scalar_problem():
    return Problem(np.array([[1.0]]), np.array([2.0]), 1.0, L1())


# -------------------------------------------------------------- inner solves

def test_primal_solve_scalar():
    assert_allclose(inner_solve_primal(scalar_problem(), np.array([1.0])), [1.0])


def test_primal_solve_at_zero_v():
    prob, _ = synth_lasso(4, 6, 2, seed=0)
    assert_allclose(inner_solve_primal(prob, np.zeros(6)), np.zeros(6), atol=1e-14)


def test_primal_solve_residual():
    prob, _ = synth_lasso(4, 6, 2, seed=1)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(6)
    u = inner_solve_primal(prob, v)
    vbar = prob.groups.expand(v)
    A = np.diag(vbar) @ prob.X.T @ prob.X @ np.diag(vbar) + prob.lam * np.eye(6)
    rhs = vbar * (prob.X.T @ prob.y)
    assert np.linalg.norm(A @ u - rhs) <= 1e-10 * (1.0 + np.linalg.norm(rhs))


@pytest.mark.parametrize("layout", ["dense", "sparse", "two-column"])
def test_primal_solve_matches_explicit_weighted_gram(layout):
    # the cached-Gram system is diag(vbar) X^T X diag(vbar) + lam I, also at
    # v with exact zeros and entries whose products underflow
    rng = np.random.default_rng(11)
    m, n, k = 40, 12, 6
    X = rng.standard_normal((m, n))
    if layout == "sparse":
        X[rng.random((m, n)) < 0.7] = 0.0
        X = scipy.sparse.csr_matrix(X)
    y = rng.standard_normal((m, 2) if layout == "two-column" else m)
    reg = GroupL2(GroupStructure.contiguous(n, k))
    prob = Problem(X, y, lambda_max(X, y, reg) / 5.0, reg)
    v = rng.standard_normal(k)
    v[1], v[4] = 0.0, 1e-200
    Xd = X.toarray() if layout == "sparse" else X
    vbar = prob.groups.expand(v)
    A = np.diag(vbar) @ Xd.T @ Xd @ np.diag(vbar) + prob.lam * np.eye(n)
    ref = np.linalg.solve(A, (vbar if y.ndim == 1 else vbar[:, None]) * (Xd.T @ y))
    u = inner_solve_primal(prob, v)
    assert np.linalg.norm(u - ref) <= 1e-12 * np.linalg.norm(ref)
    assert prob.gram is prob.gram


def test_primal_solve_needs_positive_lambda():
    prob = Problem(np.array([[1.0, 1.0]]), np.array([1.0]), 0.0, L1())
    with pytest.raises(ValueError):
        inner_solve_primal(prob, np.ones(2))


def test_dual_solve_scalar():
    assert_allclose(inner_solve_dual(scalar_problem(), np.array([1.0])), [-1.0])


def test_dual_solve_at_zero_v():
    prob, _ = synth_lasso(5, 7, 2, seed=2)
    assert_allclose(inner_solve_dual(prob, np.zeros(7)), -prob.y / prob.lam)


def test_dual_solve_constrained_two_column():
    prob = Problem(np.array([[1.0, 1.0]]), np.array([1.0]), 0.0, L1())
    assert_allclose(inner_solve_dual(prob, np.array([1.0, 1.0])), [-0.5])


def test_dual_solve_inconsistent_at_lambda_zero():
    # lam = 0 is checked against the effective design X diag(vbar^2):
    # zeroing v cuts the reachable set down to the zero vector
    prob = Problem(np.array([[1.0, 1.0]]), np.array([1.0]), 0.0, L1())
    with pytest.raises(InconsistentSystem):
        inner_solve_dual(prob, np.zeros(2))


def test_dual_solve_cg_path_at_lambda_zero(monkeypatch):
    # the matrix-free route keeps the lam = 0 contract: a reachable y is
    # solved, an unreachable one raises rather than return a CG iterate
    monkeypatch.setattr(varpro, "DENSE_DIRECT_MAX", 0)
    prob = Problem(np.array([[1.0, 1.0]]), np.array([1.0]), 0.0, L1())
    assert_allclose(inner_solve_dual(prob, np.array([1.0, 1.0])), [-0.5], atol=1e-12)
    with pytest.raises(InconsistentSystem):
        inner_solve_dual(prob, np.zeros(2))


@pytest.mark.parametrize("m, n, lam_frac", [(8, 20, 5.0), (20, 8, 5.0), (8, 20, None)])
def test_eval_state_cg_path_matches_dense_path(monkeypatch, m, n, lam_frac):
    # with the direct-solve threshold at 0 both inner solves run CG on
    # operators; f, grad and the inner quantities must match the dense
    # Cholesky path on every route (lam_frac None is the lam = 0 problem)
    rng = np.random.default_rng(m * n)
    X = rng.standard_normal((m, n))
    y = rng.standard_normal(m)
    reg = GroupL2(GroupStructure.contiguous(n, 4))
    lam = 0.0 if lam_frac is None else lambda_max(X, y, reg) / lam_frac
    prob = Problem(X, y, lam, reg)
    v = rng.standard_normal(4)
    routes = [Side.DUAL_M] if lam == 0 else list(Side)
    for route in routes:
        dense = eval_state(prob, v, route)
        with monkeypatch.context() as mp:
            mp.setattr(varpro, "DENSE_DIRECT_MAX", 0)
            cg = eval_state(prob, v, route)
        assert cg.f == pytest.approx(dense.f, rel=1e-8)
        for name in ("grad", "u", "alpha", "xi"):
            a, b = getattr(cg, name), getattr(dense, name)
            assert np.linalg.norm(a - b) <= 1e-8 * (1.0 + np.linalg.norm(b)), (route, name)


# ------------------------------------------------------------- recover_beta

def test_recover_beta_scalar_both_routes():
    prob = scalar_problem()
    v = np.array([1.0])
    assert_allclose(recover_beta(prob, v, u=np.array([1.0])), [1.0])
    assert_allclose(recover_beta(prob, v, alpha=np.array([-1.0])), [1.0])


def test_recover_beta_zero_v():
    prob, _ = synth_lasso(4, 5, 2, seed=3)
    assert_allclose(recover_beta(prob, np.zeros(5), u=np.ones(5)), np.zeros(5))


def test_recover_beta_routes_agree():
    rng = np.random.default_rng(4)
    for seed in range(5):
        prob = random_group_problem(np.random.default_rng(seed), m_max=12, n_max=10)
        v = rng.standard_normal(prob.groups.k)
        st = eval_state(prob, v)
        b_u = recover_beta(prob, v, u=st.u)
        b_a = recover_beta(prob, v, alpha=st.alpha)
        assert np.linalg.norm(b_u - b_a) <= 1e-8 * (1.0 + np.linalg.norm(b_u))


def test_state_links_u_and_xi():
    # u = -vbar (x) xi holds at every v, not only stationary ones
    prob = random_group_problem(np.random.default_rng(11), m_max=10, n_max=9)
    v = np.random.default_rng(12).standard_normal(prob.groups.k)
    st = eval_state(prob, v)
    vbar = prob.groups.expand(v)
    assert_allclose(st.u, -vbar * st.xi, rtol=1e-8, atol=1e-10)


# ----------------------------------------------------------------- f / grad

def test_f_and_grad_scalar_anchor():
    f, g = f_and_grad(scalar_problem(), np.array([1.0]))
    assert f == pytest.approx(1.5, abs=1e-12)
    assert_allclose(g, [0.0], atol=1e-12)


def test_grad_vanishes_at_zero_v():
    prob, _ = synth_lasso(5, 6, 2, seed=5)
    _, g = f_and_grad(prob, np.zeros(6))
    assert_allclose(g, np.zeros(6), atol=1e-14)


def test_grad_matches_finite_differences():
    prob, _ = synth_lasso(5, 8, 3, seed=6)
    rng = np.random.default_rng(6)
    v = rng.standard_normal(8)
    _, g = f_and_grad(prob, v)
    ref = fd_grad(lambda w: f_and_grad(prob, w)[0], v)
    assert_allclose(g, ref, rtol=1e-6, atol=1e-8)


def test_routes_agree_on_value_and_gradient():
    for seed in range(8):
        prob = random_group_problem(np.random.default_rng(100 + seed))
        v = np.random.default_rng(seed).standard_normal(prob.groups.k)
        fd_, gd = f_and_grad(prob, v, route=Side.DUAL_M)
        fp_, gp = f_and_grad(prob, v, route=Side.PRIMAL_N)
        assert abs(fd_ - fp_) <= 1e-8 * (1.0 + abs(fd_))
        assert np.linalg.norm(gd - gp) <= 1e-8 * (1.0 + np.linalg.norm(gd))


def test_route_argument_must_be_side_value():
    prob = scalar_problem()
    with pytest.raises(ValueError):
        eval_state(prob, np.array([1.0]), route="dual")


def test_f_upper_bounds_primal_objective():
    # f(v) >= objective at the recovered beta, equality at global minima
    for seed in range(5):
        prob = random_group_problem(np.random.default_rng(200 + seed), m_max=15, n_max=12)
        v = np.random.default_rng(seed).standard_normal(prob.groups.k)
        st = eval_state(prob, v)
        obj = primal_objective(prob, recover_beta(prob, v, u=st.u))
        assert st.f >= obj - 1e-10


def test_f_equals_objective_at_minimum():
    prob = random_group_problem(np.random.default_rng(42), m_max=12, n_max=10)
    v0 = np.random.default_rng(1).standard_normal(prob.groups.k)
    res = minimize(lambda v: f_and_grad(prob, v), v0, LbfgsConfig(tol=1e-12, max_iters=600))
    st = eval_state(prob, res.x)
    obj = primal_objective(prob, recover_beta(prob, res.x, u=st.u))
    assert abs(st.f - obj) <= 1e-8 * (1.0 + abs(obj))


# -------------------------------------------------------------- matrix case

def test_matrix_case_reduces_to_scalar():
    mt = MultiTaskProblem([np.array([[1.0]])], [np.array([2.0])], lam=1.0)
    f, G, B = f_and_grad_matrix(mt, np.array([[1.0]]))
    assert f == pytest.approx(1.5, abs=1e-12)
    assert_allclose(G, [[0.0]], atol=1e-12)
    assert_allclose(B, [[1.0]], atol=1e-12)  # (1 + 1) u = 2


def test_matrix_case_zero_v():
    rng = np.random.default_rng(7)
    mt = MultiTaskProblem(
        [rng.standard_normal((5, 3)) for _ in range(2)],
        [rng.standard_normal(5) for _ in range(2)],
        lam=0.8,
    )
    f, G, B = f_and_grad_matrix(mt, np.zeros((3, 3)))
    assert_allclose(G, np.zeros((3, 3)), atol=1e-14)
    assert_allclose(B, np.zeros((3, 2)), atol=1e-14)


def test_matrix_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    n = 4
    mt = MultiTaskProblem(
        [rng.standard_normal((6, n)) for _ in range(3)],
        [rng.standard_normal(6) for _ in range(3)],
        lam=0.6,
    )
    V = rng.standard_normal((n, n))
    _, G, _ = f_and_grad_matrix(mt, V)
    ref = fd_grad(lambda w: f_and_grad_matrix(mt, w.reshape(n, n))[0], V.ravel())
    assert_allclose(G.ravel(), ref, rtol=1e-5, atol=1e-7)


# ------------------------------------------------------------------ lq case

def test_lq_at_q1_reduces_to_group_objective():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((5, 7))
    y = rng.standard_normal(5)
    v = rng.standard_normal(7)
    f1, g1 = f_and_grad(Problem(X, y, 0.4, Lq(1.0)), v, Side.DUAL_M)
    f2, g2 = f_and_grad(Problem(X, y, 0.4, L1()), v, route=Side.DUAL_M)
    assert f1 == pytest.approx(f2, rel=1e-12)
    assert_allclose(g1, g2, rtol=1e-12, atol=1e-14)


def test_lq_grad_vanishes_at_zero_v():
    rng = np.random.default_rng(10)
    prob = Problem(rng.standard_normal((4, 6)), rng.standard_normal(4), 0.5, Lq(0.8))
    _, g = f_and_grad(prob, np.zeros(6), Side.DUAL_M)
    assert_allclose(g, np.zeros(6), atol=1e-14)


def test_lq_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    prob = Problem(rng.standard_normal((4, 6)), rng.standard_normal(4), 0.7, Lq(0.8))
    v = rng.standard_normal(6) + 0.5 * np.sign(rng.standard_normal(6))
    _, g = f_and_grad(prob, v, Side.DUAL_M)
    ref = fd_grad(lambda w: f_and_grad(prob, w, Side.DUAL_M)[0], v)
    assert_allclose(g, ref, rtol=1e-5, atol=1e-7)


def test_lq_constrained_stationary_point_conditions():
    # At a stationary point of the lam = 0 objective the recovered beta is
    # feasible and the multiplier matches the subgradient-style condition.
    # Vanishing coordinates of v make the |v|^gamma term non-Lipschitz, so
    # a full-space run stalls with the off-support residue dominating the
    # gradient; identify the support and polish on those columns, where the
    # objective is smooth.
    rng = np.random.default_rng(12)
    n, m, q = 8, 6, 0.8
    X = rng.standard_normal((m, n))
    beta_true = np.zeros(n)
    beta_true[rng.choice(n, 2, replace=False)] = rng.standard_normal(2)
    y = X @ beta_true
    prob = Problem(X, y, 0.0, Lq(q))

    def oracle_for(p):
        def oracle(v):
            try:
                st = eval_state(p, v)
            except InconsistentSystem:
                return np.inf, np.zeros_like(v)
            return st.f, st.grad

        return oracle

    res = minimize(
        oracle_for(prob), rng.standard_normal(n), LbfgsConfig(tol=1e-12, max_iters=500)
    )
    supp = np.abs(res.x) > 1e-6 * np.abs(res.x).max()
    sub = Problem(X[:, supp], y, 0.0, Lq(q))
    polished = minimize(oracle_for(sub), res.x[supp], LbfgsConfig(tol=1e-14, max_iters=200))
    st = eval_state(sub, polished.x)
    beta_s = recover_beta(sub, polished.x, u=st.u)
    assert np.linalg.norm(sub.X @ beta_s - y) <= 1e-8 * (1.0 + np.linalg.norm(y))
    corr = sub.X.T @ st.alpha
    want = -q * np.sign(beta_s) * np.abs(beta_s) ** (q - 1.0)
    assert_allclose(corr, want, rtol=1e-6, atol=1e-6)


# ------------------------------------------------------------------- hessian

def test_hessian_scalar_anchor():
    blocks = hessian(scalar_problem(), np.array([1.0]))
    H = blocks.assemble()
    assert_allclose(H, [[2.0]], atol=1e-12)
    assert blocks.sigma_hat == pytest.approx(1.0)
    # the eigenvalue window from the curvature bounds: [2, 4]
    assert H[0, 0] <= 4.0 + 1e-9
    assert H[0, 0] >= 4.0 * (1.0 - 1.0 / (1.0 + blocks.sigma_hat)) - 1e-9


def test_hessian_at_zero_v_is_bare_diagonal():
    prob = random_group_problem(np.random.default_rng(13), m_max=10, n_max=9)
    blocks = hessian(prob, np.zeros(prob.groups.k))
    xi = -(prob.X.T @ prob.y) / prob.lam
    want = 1.0 - prob.groups.norms(xi) ** 2
    assert_allclose(blocks.assemble(), np.diag(want), rtol=1e-10, atol=1e-12)


def test_hessian_matches_finite_differences():
    prob = random_group_problem(np.random.default_rng(14), m_max=12, n_max=10)
    v = np.random.default_rng(14).standard_normal(prob.groups.k)
    H = hessian(prob, v).assemble()
    ref = fd_jacobian(lambda w: f_and_grad(prob, w)[1], v)
    ref = 0.5 * (ref + ref.T)
    assert np.abs(H - ref).max() <= 1e-4 * (1.0 + np.abs(ref).max())


def test_hessian_norm_and_xi_bounds():
    # spectral norm <= 1 + 3 C^2 and per-group ||xi_g|| <= C at any v
    for seed in range(5):
        prob = random_group_problem(np.random.default_rng(300 + seed), m_max=12, n_max=10)
        gs = prob.groups
        C = np.linalg.norm(prob.y) * max(
            np.linalg.norm(prob.X[:, g], 2) for g in gs.groups
        ) / prob.lam
        v = np.random.default_rng(seed).standard_normal(gs.k)
        st = eval_state(prob, v)
        assert gs.norms(st.xi).max() <= C + 1e-9
        H = hessian(prob, v).assemble()
        assert np.linalg.norm(H, 2) <= 1.0 + 3.0 * C * C + 1e-9


def test_hessian_eigenvalue_window_at_minimizers():
    for seed in range(4):
        prob = random_group_problem(np.random.default_rng(400 + seed), m_max=12, n_max=10)
        v0 = np.random.default_rng(seed).standard_normal(prob.groups.k)
        res = minimize(lambda v: f_and_grad(prob, v), v0, LbfgsConfig(tol=1e-11, max_iters=800))
        blocks = hessian(prob, res.x)
        eigs = np.linalg.eigvalsh(blocks.assemble())
        assert eigs.max() <= 4.0 + 1e-6
        off = [1.0 - float(np.sum(blocks.xi[g] ** 2))
               for i, g in enumerate(prob.groups.groups) if i not in blocks.support]
        floor = 4.0 * (1.0 - prob.lam / (prob.lam + blocks.sigma_hat))
        if off:
            floor = min(floor, min(off))
        assert eigs.min() >= floor - 1e-5


def test_hessian_requires_positive_lambda_and_group_family():
    prob = Problem(np.array([[1.0, 1.0]]), np.array([1.0]), 0.0, L1())
    with pytest.raises(ValueError):
        hessian(prob, np.ones(2))
    prob_lq = Problem(np.array([[1.0, 1.0]]), np.array([1.0]), 0.5, Lq(0.8))
    with pytest.raises(ValueError):
        hessian(prob_lq, np.ones(2))


# ----------------------------------------------------------- classification

def test_zero_v_global_min_iff_lambda_large():
    rng = np.random.default_rng(15)
    for seed in range(20):
        r = np.random.default_rng(500 + seed)
        X = r.standard_normal((6, 8))
        y = r.standard_normal(6)
        lmax = lambda_max(X, y, L1())
        above = Problem(X, y, 1.3 * lmax, L1())
        assert classify_stationary(above, np.zeros(8)) is StationaryKind.GLOBAL_MIN
        below = Problem(X, y, 0.5 * lmax, L1())
        assert classify_stationary(below, np.zeros(8)) is StationaryKind.STRICT_SADDLE
        # the strict saddle exhibits a negative curvature direction
        H = hessian(below, np.zeros(8)).assemble()
        assert np.linalg.eigvalsh(H).min() < 0


def test_zero_v_boundary_lambda_is_global_min():
    rng = np.random.default_rng(16)
    X = rng.standard_normal((5, 7))
    y = rng.standard_normal(5)
    prob = Problem(X, y, lambda_max(X, y, L1()), L1())
    assert classify_stationary(prob, np.zeros(7)) is StationaryKind.GLOBAL_MIN


def test_scalar_anchor_is_global_min():
    assert classify_stationary(scalar_problem(), np.array([1.0])) is StationaryKind.GLOBAL_MIN


def test_nonstationary_points_are_flagged():
    prob = random_group_problem(np.random.default_rng(17), m_max=10, n_max=8)
    v = np.random.default_rng(17).standard_normal(prob.groups.k) + 2.0
    assert classify_stationary(prob, v) is StationaryKind.NOT_STATIONARY
