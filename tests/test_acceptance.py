"""Release gate: one end-to-end check per advertised guarantee.

Each test prints a single ``criterion N ...: PASS/FAIL`` line with its wall
time (bypassing pytest's capture), so a full run reads as a nine-line
report.  Time budgets are asserted alongside the numerical tolerances.
"""

import contextlib
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from noncvxpro.baselines import (
    altmin_noncvx,
    chambolle_pock_bp,
    coordinate_descent_lasso,
    douglas_rachford_bp,
    fista_bb_restart,
    irls_matrix,
    quad_variational,
)
from noncvxpro.bench import _runner, lq_phase_experiment, run_noncvxpro
from noncvxpro.lbfgs import LbfgsConfig, minimize
from noncvxpro.linalg import Side
from noncvxpro.problems import (
    BeckmannProblem,
    MultiTaskProblem,
    Problem,
    primal_objective,
)
from noncvxpro.regularizers import GroupL2, GroupStructure, L1, Lq, lambda_max
from noncvxpro.varpro import (
    InconsistentSystem,
    StationaryKind,
    classify_stationary,
    eval_state,
    f_and_grad,
    f_and_grad_matrix,
    hessian,
    recover_beta,
)

from _oracles import fd_grad, fd_jacobian, min_l1_flow


@contextlib.contextmanager
def report(capsys, label, budget_s):
    """Print one PASS/FAIL line for the enclosed block, timing included."""
    t0 = time.perf_counter()
    status = "FAIL"
    try:
        yield
        elapsed = time.perf_counter() - t0
        assert elapsed < budget_s, f"took {elapsed:.1f}s, budget {budget_s:.0f}s"
        status = "PASS"
    finally:
        with capsys.disabled():
            print(f"{label}: {status} ({time.perf_counter() - t0:.1f}s)")


def group_instances(count=50, seed=101):
    """Random group-lasso instances (m, n <= 30) with a point to probe at."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        m = int(rng.integers(4, 31))
        n = int(rng.integers(2, 31))
        X = rng.standard_normal((m, n))
        s = max(1, n // 3)
        planted = np.zeros(n)
        planted[rng.choice(n, s, replace=False)] = rng.standard_normal(s)
        y = X @ planted + 0.05 * rng.standard_normal(m)
        k = int(rng.integers(1, min(5, n) + 1))
        reg = GroupL2(GroupStructure.contiguous(n, k))
        lam = lambda_max(X, y, reg) / (2.0, 10.0, 50.0)[i % 3]
        out.append((Problem(X, y, lam, reg), rng.standard_normal(k)))
    return out


def bilevel_oracle(prob):
    def fun(v):
        try:
            st = eval_state(prob, v)
        except InconsistentSystem:
            return np.inf, np.zeros_like(v)
        return st.f, st.grad

    return fun


def test_criterion_1_gradient_exactness(capsys):
    # The dual- and primal-side evaluations of the reduced objective must
    # agree to 1e-8 relative, and both must match central finite
    # differences to 1e-5, across 50 random group instances at
    # lam_max / {2, 10, 50}.
    with report(capsys, "criterion 1 (gradient exactness)", 10.0):
        for prob, v in group_instances():
            f_primal, g_primal = f_and_grad(prob, v, route=Side.PRIMAL_N)
            f_dual, g_dual = f_and_grad(prob, v, route=Side.DUAL_M)
            denom = 1.0 + np.abs(g_primal).max()
            assert abs(f_primal - f_dual) <= 1e-8 * (1.0 + abs(f_primal))
            assert np.abs(g_primal - g_dual).max() <= 1e-8 * denom
            ref = fd_grad(lambda w: f_and_grad(prob, w)[0], v)
            assert np.abs(g_primal - ref).max() <= 1e-5 * denom


def test_criterion_2_hessian_exactness_and_bounds(capsys):
    # Assembled Hessians match finite differences of the gradient to 1e-4.
    # At converged points every eigenvalue stays below 4 + 1e-6, and the
    # spectral norm never exceeds 1 + 3 C^2 with
    # C = ||y|| max_g ||X_g|| / lam, at sampled and converged points alike.
    with report(capsys, "criterion 2 (hessian exactness and curvature bounds)", 30.0):
        for prob, v in group_instances():
            H = hessian(prob, v).assemble()
            H_fd = fd_jacobian(lambda w: f_and_grad(prob, w)[1], v)
            H_fd = 0.5 * (H_fd + H_fd.T)
            assert np.abs(H - H_fd).max() <= 1e-4 * (1.0 + np.abs(H).max())
            C = (
                np.linalg.norm(prob.y)
                * max(np.linalg.norm(prob.X[:, g], 2) for g in prob.groups.groups)
                / prob.lam
            )
            bound = 1.0 + 3.0 * C * C
            assert np.linalg.norm(H, 2) <= bound
            res = minimize(bilevel_oracle(prob), v, LbfgsConfig(tol=1e-10, max_iters=500))
            H_conv = hessian(prob, res.x).assemble()
            assert np.linalg.eigvalsh(H_conv).max() <= 4.0 + 1e-6
            assert np.linalg.norm(H_conv, 2) <= bound


def test_criterion_3_solver_equivalence(capsys):
    # On 20 lasso instances at each of lam_max / {2, 10, 50}, the bilevel
    # solver, FISTA-BB, the eta-space variational solver, and alternating
    # minimization land within 1e-6 relative of the coordinate-descent
    # optimum, whose duality gap certifies it.
    with report(capsys, "criterion 3 (solver equivalence)", 60.0):
        rng = np.random.default_rng(2024)
        for i in range(20):
            m = int(rng.integers(8, 25))
            n = int(rng.integers(5, 20))
            X = rng.standard_normal((m, n))
            s = max(1, n // 3)
            planted = np.zeros(n)
            planted[rng.choice(n, s, replace=False)] = rng.standard_normal(s)
            y = X @ planted + 0.05 * rng.standard_normal(m)
            lmax = lambda_max(X, y, L1())
            for frac in (2.0, 10.0, 50.0):
                prob = Problem(X, y, lmax / frac, L1())
                cd = coordinate_descent_lasso(prob, iters=20000, tol=1e-13)
                f_star = cd.objectives[-1]
                # suboptimality of f_star is at most lam * gap
                assert prob.lam * cd.aux["gap"] <= 1e-9 * (1.0 + abs(f_star))
                runs = [
                    run_noncvxpro(prob, seed=i, iters=500),
                    fista_bb_restart(prob, iters=3000),
                    quad_variational(prob),
                    altmin_noncvx(
                        prob, iters=500, v0=np.random.default_rng(i).standard_normal(n)
                    ),
                ]
                for tr in runs:
                    rel = abs(tr.objectives[-1] - f_star) / (1.0 + abs(f_star))
                    assert rel <= 1e-6, (tr.name, i, frac, rel)


def test_criterion_4_saddle_classification(capsys):
    # v = 0 is always stationary; it is the global minimum exactly when
    # lam >= ||X^T y||_inf and a strict saddle below that threshold, where
    # the assembled Hessian must exhibit a negative eigenvalue.  The
    # lam-to-threshold ratios cycle through {1/4, 1/2, 1, 3/2}, so the
    # boundary case lam = lam_max is hit exactly on a quarter of the
    # instances.
    with report(capsys, "criterion 4 (saddle classification)", 5.0):
        rng = np.random.default_rng(505)
        for i in range(20):
            m = int(rng.integers(5, 20))
            n = int(rng.integers(3, 15))
            X = rng.standard_normal((m, n))
            y = rng.standard_normal(m)
            lmax = float(np.abs(X.T @ y).max())
            frac = (0.25, 0.5, 1.0, 1.5)[i % 4]
            prob = Problem(X, y, frac * lmax, L1())
            origin = np.zeros(n)
            _, g0 = f_and_grad(prob, origin)
            assert np.linalg.norm(g0) <= 1e-12
            kind = classify_stationary(prob, origin)
            if prob.lam >= lmax * (1.0 - 1e-12):
                assert kind is StationaryKind.GLOBAL_MIN, (i, frac)
            else:
                assert kind is StationaryKind.STRICT_SADDLE, (i, frac)
                eigs = np.linalg.eigvalsh(hessian(prob, origin).assemble())
                assert eigs.min() < -1e-6


def test_criterion_5_trace_norm_routes(capsys):
    # Multitask instances with T <= 4 tasks, n <= 6 features, and a planted
    # coefficient matrix of full rank T: the matrix-variable bilevel route
    # and matrix IRLS agree to 1e-3 in objective, and the matrix gradient
    # matches finite differences to 1e-5.
    with report(capsys, "criterion 5 (trace norm agreement)", 30.0):
        rng = np.random.default_rng(404)
        for i in range(5):
            T = int(rng.integers(2, 5))
            n = int(rng.integers(T, 7))
            m = int(rng.integers(n + 2, 12))
            B = rng.standard_normal((n, T))
            Xs = [rng.standard_normal((m, n)) for _ in range(T)]
            ys = [X @ B[:, t] + 0.05 * rng.standard_normal(m) for t, X in enumerate(Xs)]
            mt = MultiTaskProblem(Xs, ys, 0.5)
            lb = run_noncvxpro(mt, seed=i, iters=800)
            ir = irls_matrix(mt, eps=1e-8, iters=12000)
            gap = abs(lb.objectives[-1] - ir.objectives[-1])
            assert gap <= 1e-3 * (1.0 + abs(lb.objectives[-1])), (i, gap)
            V = 0.5 * rng.standard_normal((n, n))
            g = f_and_grad_matrix(mt, V)[1]
            ref = fd_grad(lambda x: f_and_grad_matrix(mt, x.reshape(n, n))[0], V.ravel())
            assert np.abs(g.ravel() - ref).max() <= 1e-5 * (1.0 + np.abs(g).max())


def test_criterion_6_constrained_flow_solvers(capsys):
    # Minimum-cost flow at lam = 0 on small graphs with balanced masses:
    # the bilevel dual route, Douglas-Rachford, and the primal-dual splitter
    # all match the enumerated LP optimum within 1e-5, and the
    # Douglas-Rachford iterate is feasible to 1e-10 after projection.
    with report(capsys, "criterion 6 (lam = 0 flow solvers)", 30.0):
        rng = np.random.default_rng(77)
        for trial in range(8):
            nodes = int(rng.integers(4, 9))
            edges = [(i, i + 1) for i in range(nodes - 1)]
            for _ in range(int(rng.integers(1, nodes))):
                i, j = sorted(rng.choice(nodes, 2, replace=False))
                if (i, j) not in edges:
                    edges.append((int(i), int(j)))
            a = rng.random(nodes)
            b = rng.random(nodes)
            bp = BeckmannProblem(nodes, edges, a / a.sum(), b / b.sum())
            p = bp.to_problem()
            X = np.asarray(p.X.toarray() if hasattr(p.X, "toarray") else p.X, float)
            opt = min_l1_flow(X, p.y)
            ncp = run_noncvxpro(p, seed=trial, iters=800)
            dr = douglas_rachford_bp(bp, iters=2000)
            cp = chambolle_pock_bp(bp, iters=4000)
            for tr in (ncp, dr, cp):
                assert abs(p.reg.r_value(tr.beta) - opt) <= 1e-5, (tr.name, trial)
            ynorm = 1.0 + np.linalg.norm(p.y)
            assert np.linalg.norm(X @ dr.beta - p.y) <= 1e-10 * ynorm
            assert np.linalg.norm(X @ ncp.beta - p.y) <= 1e-8 * ynorm
            assert np.linalg.norm(X @ cp.beta - p.y) <= 1e-8 * ynorm


def test_criterion_7_lq_stationarity_and_phase(capsys):
    # First part: at lam = 0 stationary points of the lq objective the
    # recovered beta interpolates the data to 1e-8 and the multiplier
    # satisfies X^T alpha = -q sign(beta) |beta|^(q-1) on the support to
    # 1e-6.  Vanishing coordinates of v make the |v|^gamma term
    # non-Lipschitz and stall a full-space run at float precision, so the
    # support is identified first and the smooth restriction polished.
    # Second part: over a 20-trial, 10-restart recovery sweep at n = 64,
    # k = 10, the q = 0.8 success count dominates q = 1 at every sample
    # count.
    with report(capsys, "criterion 7 (lq stationarity and phase ordering)", 300.0):
        for seed, q in ((12, 0.8), (13, 0.9), (14, 1.3), (15, 0.8), (16, 1.5), (17, 1.0)):
            rng = np.random.default_rng(seed)
            n, m = 10, 7
            X = rng.standard_normal((m, n))
            planted = np.zeros(n)
            planted[rng.choice(n, 2, replace=False)] = rng.standard_normal(2)
            y = X @ planted
            prob = Problem(X, y, 0.0, Lq(q))
            res = minimize(
                bilevel_oracle(prob), rng.standard_normal(n),
                LbfgsConfig(tol=1e-12, max_iters=600),
            )
            supp = np.abs(res.x) > 1e-6 * np.abs(res.x).max()
            sub = Problem(X[:, supp], y, 0.0, Lq(q))
            pol = minimize(
                bilevel_oracle(sub), res.x[supp], LbfgsConfig(tol=1e-14, max_iters=200)
            )
            st = eval_state(sub, pol.x)
            beta = recover_beta(sub, pol.x, u=st.u)
            assert np.linalg.norm(sub.X @ beta - y) <= 1e-8 * (1.0 + np.linalg.norm(y))
            want = -q * np.sign(beta) * np.abs(beta) ** (q - 1.0)
            assert_allclose(sub.X.T @ st.alpha, want, rtol=1e-6, atol=1e-6)

        table = lq_phase_experiment(
            64, 10, [24, 28, 32, 36, 40, 44], [0.8, 1.0], trials=20, restarts=10, seed=0
        )
        for i, m in enumerate(table.m_range):
            assert table.success[0.8][i] >= table.success[1.0][i], m


def test_criterion_8_scalar_anchor(capsys):
    # The one-dimensional instance X = [[1]], y = [2], lam = 1 is solvable
    # by hand: f(1) = 3/2 with zero gradient and curvature 2, beta = 1,
    # alpha = -1.  Both evaluation routes and every lam > 0 solver in the
    # benchmark table must reproduce it.
    with report(capsys, "criterion 8 (scalar anchor)", 1.0):
        prob = Problem(np.array([[1.0]]), np.array([2.0]), 1.0, L1())
        v = np.array([1.0])
        for route in (Side.PRIMAL_N, Side.DUAL_M):
            st = eval_state(prob, v, route=route)
            assert_allclose(st.f, 1.5, rtol=1e-12)
            assert_allclose(st.grad, [0.0], atol=1e-12)
            assert_allclose(st.alpha, [-1.0], rtol=1e-12)
            assert_allclose(recover_beta(prob, v, u=st.u), [1.0], rtol=1e-12)
        assert_allclose(hessian(prob, v).assemble(), [[2.0]], rtol=1e-12)
        assert classify_stationary(prob, v) is StationaryKind.GLOBAL_MIN
        assert primal_objective(prob, np.array([1.0])) == 1.5
        for name in (
            "noncvx-pro", "ista", "fista-bb", "cd",
            "irls", "altmin", "quad-var", "lbfgsb-split",
        ):
            tr = _runner(name)(prob, iters=500)
            assert abs(tr.objectives[-1] - 1.5) <= 1e-6, name


def test_criterion_9_variational_grid_identities(capsys):
    # Grid checks of the two quadratic-variational identities on 2-D
    # instances: the eta-minimization reproduces R(beta), and restricted to
    # the unit weight budget it reproduces the squared norm, for the l1,
    # single-group, and lq families, each within 1e-3.
    with report(capsys, "criterion 9 (variational grid identities)", 10.0):
        rng = np.random.default_rng(909)
        b = rng.standard_normal(2)

        grid = np.logspace(-4, 2, 600)
        e1, e2 = np.meshgrid(grid, grid, indexing="ij")
        vals = 0.5 * (b[0] ** 2 / e1 + b[1] ** 2 / e2) + 0.5 * (e1 + e2)
        assert vals.min() == pytest.approx(np.abs(b).sum(), rel=1e-3)
        t = np.linspace(1e-6, 1 - 1e-6, 4001)
        vals = b[0] ** 2 / t + b[1] ** 2 / (1 - t)
        assert vals.min() == pytest.approx(np.abs(b).sum() ** 2, rel=1e-3)

        group = GroupL2(GroupStructure([[0, 1]], 2))
        e = np.logspace(-4, 2, 20001)
        vals = 0.5 * (b @ b) / e + 0.5 * e
        assert vals.min() == pytest.approx(group.r_value(b), rel=1e-3)
        # a single group's weight budget pins eta at 1
        e = np.linspace(1e-6, 1.0, 20001)
        vals = (b @ b) / e
        assert vals.min() == pytest.approx(np.linalg.norm(b) ** 2, rel=1e-3)

        for q in (0.8, 1.0):
            reg = Lq(q)
            p = q / (2.0 - q)
            grid = np.logspace(-6, 2, 900)
            e1, e2 = np.meshgrid(grid, grid, indexing="ij")
            vals = 0.5 * (b[0] ** 2 / e1 + b[1] ** 2 / e2) + 0.5 * reg.c_q * (
                e1 ** p + e2 ** p
            )
            assert vals.min() == pytest.approx(reg.r_value(b), rel=1e-3)
            # unscaled weight sum on its boundary, eta = (t, 1-t)^(1/p)
            t = np.linspace(1e-9, 1 - 1e-9, 20001)
            vals = b[0] ** 2 / t ** (1.0 / p) + b[1] ** 2 / (1.0 - t) ** (1.0 / p)
            target = (np.abs(b) ** q).sum() ** (2.0 / q)
            assert vals.min() == pytest.approx(target, rel=1e-3)
