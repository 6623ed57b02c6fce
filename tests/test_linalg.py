"""Linear algebra kernels: SPD solves, norm estimation, side selection."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose, assert_array_equal

from noncvxpro.linalg import (
    DimensionMismatch,
    InconsistentSystem,
    NonFiniteEncountered,
    NotSpd,
    Side,
    cg_solve,
    cholesky_solve,
    operator_norm_estimate,
    range_solver,
    solve_spd,
    woodbury_side,
)


def test_cholesky_identity():
    assert_allclose(cholesky_solve(np.eye(3), np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])


def test_cholesky_diagonal():
    assert_allclose(cholesky_solve(np.diag([4.0, 9.0]), np.array([4.0, 9.0])), [1.0, 1.0])


def test_cholesky_residual_on_random_spd():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((8, 8))
    A = M.T @ M + np.eye(8)
    b = rng.standard_normal(8)
    x = cholesky_solve(A, b)
    assert np.linalg.norm(A @ x - b) <= 1e-8 * (1.0 + np.linalg.norm(b))


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotSpd):
        cholesky_solve(np.diag([1.0, -1.0]), np.ones(2))


def test_cholesky_rejects_asymmetric():
    with pytest.raises(NotSpd):
        cholesky_solve(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2))


def test_cholesky_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        cholesky_solve(np.eye(3), np.ones(2))
    with pytest.raises(DimensionMismatch):
        cholesky_solve(np.ones((2, 3)), np.ones(2))


def cho_reference(A, b):
    # scipy's wrappers around the LAPACK calls cholesky_solve makes: the
    # reference it must match bit for bit
    c = scipy.linalg.cho_factor(A, lower=True, check_finite=False)
    return scipy.linalg.cho_solve(c, b, check_finite=False)


def spd(rng, n):
    M = rng.standard_normal((n + 5, n))
    return M.T @ M


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("cols", [None, 2])
def test_cholesky_matches_scipy_bit_for_bit(order, cols):
    rng = np.random.default_rng(11)
    A = np.asarray(spd(rng, 24), order=order)
    b = rng.standard_normal(24 if cols is None else (24, cols))
    x = cholesky_solve(A, b)
    assert x.shape == b.shape
    assert_array_equal(x, cho_reference(A, b))


def test_cholesky_rejects_what_scipy_rejects():
    rng = np.random.default_rng(12)
    A = spd(rng, 10)
    A[7, 7] = -A[7, 7]
    with pytest.raises(scipy.linalg.LinAlgError):
        cho_reference(A, np.ones(10))
    with pytest.raises(NotSpd, match="8-th leading minor"):
        cholesky_solve(A, np.ones(10))


@pytest.mark.parametrize("where", [(2, 2), (4, 1), (1, 4)], ids=["diagonal", "lower", "upper"])
def test_non_finite_entry_raises_before_lapack_and_prints_nothing(capfd, where):
    # potrf passes a NaN pivot and never reads the upper triangle, and eigh
    # returns NaN eigenvalues without raising: both solves must refuse first
    for bad in (np.nan, np.inf):
        A = spd(np.random.default_rng(13), 6)
        A[where] = bad
        b = np.ones(6)
        with pytest.raises(NonFiniteEncountered):
            cholesky_solve(A, b)
        with pytest.raises(NonFiniteEncountered):
            solve_spd(A, b)
        with pytest.raises(NonFiniteEncountered):
            range_solver(A)
    assert capfd.readouterr() == ("", "")


def test_cholesky_empty_right_hand_side():
    assert cholesky_solve(np.eye(3), np.zeros((3, 0))).shape == (3, 0)


def test_cg_identity_in_one_iteration():
    b = np.array([3.0, -1.0, 2.0])
    rep = cg_solve(lambda w: w, b, tol=1e-12)
    assert rep.converged and rep.iterations == 1
    assert_allclose(rep.x, b)


def test_cg_two_distinct_eigenvalues_two_iterations():
    A = np.diag([1.0, 10.0])
    rep = cg_solve(lambda w: A @ w, np.array([1.0, 10.0]), tol=1e-10)
    assert rep.converged and rep.iterations <= 2
    assert_allclose(rep.x, [1.0, 1.0], atol=1e-9)


def test_cg_singular_consistent_system():
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    rep = cg_solve(lambda w: A @ w, np.array([1.0, 0.0]), tol=1e-12)
    assert_allclose(A @ rep.x, [1.0, 0.0], atol=1e-12)


def test_cg_zero_rhs():
    rep = cg_solve(lambda w: w, np.zeros(3), tol=1e-10)
    assert rep.converged and rep.iterations == 0
    assert_allclose(rep.x, np.zeros(3))


def test_cg_flags_nonconvergence():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((40, 40))
    A = M.T @ M + 1e-6 * np.eye(40)
    rep = cg_solve(lambda w: A @ w, rng.standard_normal(40), tol=1e-14, max_iter=3)
    assert not rep.converged
    assert rep.iterations == 3


def test_cg_raises_on_nonfinite_operator():
    with pytest.raises(NonFiniteEncountered):
        cg_solve(lambda w: w * np.nan, np.ones(2), tol=1e-10)


def test_cholesky_and_cg_agree_on_random_spd():
    rng = np.random.default_rng(7)
    for _ in range(10):
        d = int(rng.integers(2, 51))
        M = rng.standard_normal((d, d))
        A = M.T @ M + np.eye(d)
        b = rng.standard_normal(d)
        xd = cholesky_solve(A, b)
        xi = cg_solve(lambda w, A=A: A @ w, b, tol=1e-12).x
        assert np.linalg.norm(xd - xi) <= 1e-6 * (1.0 + np.linalg.norm(xd))


def test_solve_spd_operator_solves_singular_consistent_system():
    A = np.diag([1.0, 0.0])
    assert_allclose(solve_spd(lambda w: A @ w, np.array([2.0, 0.0])), [2.0, 0.0], atol=1e-12)


def test_solve_spd_operator_raises_on_inconsistent_system():
    # b has a component in the kernel of A: CG stalls at relative residual
    # 1/sqrt(2) and must not hand back that iterate as a solution
    A = np.diag([1.0, 0.0])
    with pytest.raises(InconsistentSystem):
        solve_spd(lambda w: A @ w, np.array([1.0, 1.0]))
    b = np.array([[1.0, 1.0], [0.0, 1.0]])  # the second column is unreachable
    with pytest.raises(InconsistentSystem):
        solve_spd(lambda w: A @ w, b)


def test_solve_spd_operator_matches_cholesky_columnwise():
    rng = np.random.default_rng(8)
    M = rng.standard_normal((12, 12))
    A = M.T @ M + np.eye(12)
    b = rng.standard_normal((12, 3))
    assert_allclose(solve_spd(lambda w: A @ w, b), cholesky_solve(A, b), rtol=1e-8, atol=1e-10)


def eigh_pseudo_solve(A, b):
    # the eigenvalue-cutoff formula the lam = 0 dual solve carried before
    # range_solver took it over, kept as the reference
    evals, V = np.linalg.eigh(A)
    cut = 1e-13 * max(evals.max(), np.finfo(float).tiny)
    inv = np.where(evals > cut, 1.0 / np.where(evals > cut, evals, 1.0), 0.0)
    coef = V.T @ b
    return V @ (inv * coef if coef.ndim == 1 else inv[:, None] * coef)


def test_range_solver_matches_eigh_reference():
    # a rank-5 PSD matrix of order 8, with one and two consistent right-hand sides
    rng = np.random.default_rng(9)
    M = rng.standard_normal((8, 5))
    A = M @ M.T
    solve = range_solver(A)
    for b in (A @ rng.standard_normal(8), A @ rng.standard_normal((8, 2))):
        x, ref = solve(b), eigh_pseudo_solve(A, b)
        assert x.shape == b.shape
        assert np.abs(x - ref).max() <= 1e-14 * (1.0 + np.abs(ref).max())
        assert np.linalg.norm(A @ x - b) <= 1e-10 * (1.0 + np.linalg.norm(b))


def test_range_solver_returns_minimum_norm_solution():
    # A = [[1, 1], [1, 1]] maps (1, 1) and (2, 0) alike to (2, 2); the
    # minimum-norm solution is the one orthogonal to the kernel (1, -1)
    A = np.ones((2, 2))
    assert_allclose(range_solver(A)(np.array([2.0, 2.0])), [1.0, 1.0], atol=1e-14)
    assert_allclose(range_solver(np.zeros((2, 2)))(np.zeros(2)), [0.0, 0.0])


def test_range_solver_raises_on_unreachable_rhs():
    solve = range_solver(np.ones((2, 2)))
    with pytest.raises(InconsistentSystem):
        solve(np.array([1.0, 2.0]))
    with pytest.raises(InconsistentSystem):
        solve(np.array([[2.0, 1.0], [2.0, 2.0]]))  # the second column is unreachable
    with pytest.raises(InconsistentSystem):
        range_solver(np.zeros((2, 2)))(np.ones(2))


def test_solve_spd_dense_singular_system():
    # Cholesky fails on diag(1, 0); the range solve takes over and checks
    A = np.diag([1.0, 0.0])
    assert_allclose(solve_spd(A, np.array([2.0, 0.0])), [2.0, 0.0], atol=1e-14)
    with pytest.raises(InconsistentSystem):
        solve_spd(A, np.array([1.0, 1.0]))


def test_opnorm_identity():
    est = operator_norm_estimate(lambda w: w, lambda w: w, 4)
    assert abs(est - 1.0) <= 1e-6


def test_opnorm_diagonal():
    X = np.diag([3.0, 1.0])
    est = operator_norm_estimate(lambda w: X @ w, lambda w: X.T @ w, 2)
    assert abs(est - 3.0) <= 0.03


def test_opnorm_matches_svd():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((6, 9))
    true = np.linalg.svd(X, compute_uv=False)[0]
    est = operator_norm_estimate(lambda w: X @ w, lambda w: X.T @ w, 9, iters=200)
    assert abs(est - true) <= 0.01 * true


def test_opnorm_unchanged_by_zero_rows():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((4, 5))
    Xz = np.vstack([X, np.zeros((3, 5))])
    e1 = operator_norm_estimate(lambda w: X @ w, lambda w: X.T @ w, 5)
    e2 = operator_norm_estimate(lambda w: Xz @ w, lambda w: Xz.T @ w, 5)
    assert_allclose(e1, e2, rtol=1e-12)


def test_opnorm_zero_operator_and_iters_floor():
    assert operator_norm_estimate(lambda w: 0.0 * w, lambda w: 0.0 * w, 3) == 0.0
    with pytest.raises(ValueError):
        operator_norm_estimate(lambda w: w, lambda w: w, 3, iters=5)


def test_opnorm_deterministic_per_seed():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((5, 7))
    a = operator_norm_estimate(lambda w: X @ w, lambda w: X.T @ w, 7, seed=11)
    b = operator_norm_estimate(lambda w: X @ w, lambda w: X.T @ w, 7, seed=11)
    assert a == b


def test_woodbury_side_cases():
    assert woodbury_side(360, 22494) is Side.DUAL_M
    assert woodbury_side(100, 10) is Side.PRIMAL_N
    assert woodbury_side(5, 5) is Side.DUAL_M


def test_woodbury_lambda_zero_forces_dual():
    assert woodbury_side(100, 10, lam=0.0) is Side.DUAL_M


def test_woodbury_rejects_nonpositive_dims():
    with pytest.raises(ValueError):
        woodbury_side(0, 3)
