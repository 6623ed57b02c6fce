"""SPD linear solvers, operator norm estimation, and system-side selection.

Every outer solver in this package reduces its inner work to symmetric
positive (semi)definite systems.  This module provides their solves
(direct Cholesky, a checked minimum-norm solve on the range of a singular
matrix, conjugate gradient), a power-iteration spectral norm estimate for
step-size conditions, and the rule that picks between the m-sized and
n-sized inner system.

The direct Cholesky solve calls LAPACK's potrf and potrs itself.  They are
the routines scipy's cho_factor and cho_solve run, with the same arguments,
so the results are the same bits without those wrappers' per-call cost,
which dominates at the few-dozen-row systems of the lam = 0 experiments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

# Systems at or below this dimension, when materialized dense, are solved
# directly (Cholesky, or range_solver if singular); anything larger by CG.
DENSE_DIRECT_MAX = 2000

# Default relative residual target for iterative solves.
CG_TOL = 1e-10

# The float64 LAPACK Cholesky factorization and solve.
_potrf, _potrs = get_lapack_funcs(("potrf", "potrs"), (np.empty(0),))


class NotSpd(ValueError):
    """Matrix is not symmetric positive definite (or not symmetric at all)."""


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class NonFiniteEncountered(FloatingPointError):
    """A NaN or Inf is in a matrix handed to a direct solve, or appeared
    during an iterative one."""


class InconsistentSystem(ValueError):
    """A singular system has no solution: b is not in the range of A.

    Raised by the range solve when ||A x - b|| > 1e-7 (1 + ||b||), and
    when CG stalls above a 1e-7 relative residual.
    """


@dataclass
class SpdSolveReport:
    """Outcome of an SPD solve.

    Attributes
    ----------
    x : ndarray
        Solution (or best iterate found if not converged).
    iterations : int
        Iterations used; 0 for a direct solve.
    relative_residual : float
        ``||A x - b|| / ||b||`` at exit (absolute residual if b = 0).
    converged : bool
        True when the residual target was met.
    """

    x: np.ndarray
    iterations: int
    relative_residual: float
    converged: bool


def cholesky_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A by Cholesky.

    Runs LAPACK potrf on the lower triangle, then potrs, as
    scipy.linalg.cho_solve(cho_factor(A, lower=True), b) does with
    check_finite=False, and returns the same bits.  Only the lower triangle
    is factorized; the symmetry check covers the rest, and the largest
    entry, which that check needs anyway, rejects a non-finite A (potrf
    passes a NaN pivot and never reads the upper triangle).

    Parameters
    ----------
    A : (n, n) ndarray
        Symmetric (within 1e-10 relative) positive definite matrix.
    b : (n,) or (n, k) ndarray
        Right-hand side(s).

    Returns
    -------
    x : ndarray
        Solution with ``||A x - b|| <= 1e-8 (1 + ||b||)``.

    Raises
    ------
    NotSpd
        If A is asymmetric beyond tolerance or a Cholesky pivot fails.
    NonFiniteEncountered
        If A holds a NaN or an Inf.
    DimensionMismatch
        If shapes are inconsistent.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got shape {A.shape}")
    if b.shape[0] != A.shape[0]:
        raise DimensionMismatch(f"A is {A.shape} but b has leading dim {b.shape[0]}")
    scale = np.abs(A).max()
    if not np.isfinite(scale):
        raise NonFiniteEncountered("matrix holds a NaN or an Inf")
    if scale > 0 and np.abs(A - A.T).max() > 1e-10 * scale:
        raise NotSpd("matrix is not symmetric within 1e-10 relative")
    c, info = _potrf(A, lower=True, clean=False)
    if info > 0:
        raise NotSpd(f"{info}-th leading minor of the array is not positive definite")
    if b.size == 0:
        return np.empty_like(b)
    x, info = _potrs(c, b, lower=True)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x


def cg_solve(
    apply_A: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    tol: float = CG_TOL,
    max_iter: int | None = None,
) -> SpdSolveReport:
    """Conjugate gradient for symmetric PSD operators.

    Starts from x = 0, so for singular but consistent systems the iterates
    stay in the range space and converge to a solution (the gradient of the
    outer objective is then well defined even though the multiplier is not
    unique).  Returns the best iterate seen if the budget runs out.

    Parameters
    ----------
    apply_A : callable
        Matrix-vector product for the SPD operator.
    b : (n,) ndarray
        Right-hand side.
    tol : float
        Relative residual target ``||A x - b|| <= tol ||b||``.
    max_iter : int, optional
        Iteration cap; defaults to ``10 n`` (at least 100).

    Raises
    ------
    NonFiniteEncountered
        If a NaN or Inf shows up in the recurrence.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if max_iter is None:
        max_iter = max(100, 10 * n)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return SpdSolveReport(np.zeros_like(b), 0, 0.0, True)

    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    best_x = x.copy()
    best_res = np.sqrt(rs)
    it = 0
    for it in range(1, max_iter + 1):
        Ap = apply_A(p)
        if not np.all(np.isfinite(Ap)):
            raise NonFiniteEncountered("operator produced non-finite values")
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            # Direction of nonpositive curvature: operator is singular along
            # p and the component of b there is exhausted; stop with best.
            break
        alpha = rs / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = float(r @ r)
        if not np.isfinite(rs_new):
            raise NonFiniteEncountered("residual became non-finite")
        res = np.sqrt(rs_new)
        if res < best_res:
            best_res = res
            best_x = x.copy()
        if res <= tol * bnorm:
            return SpdSolveReport(x, it, res / bnorm, True)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return SpdSolveReport(best_x, it, best_res / bnorm, False)


def operator_norm_estimate(
    apply_A: Callable[[np.ndarray], np.ndarray],
    apply_At: Callable[[np.ndarray], np.ndarray],
    cols: int,
    iters: int = 100,
    seed: int = 0,
) -> float:
    """Estimate the spectral norm ||X|| by power iteration on X^T X.

    Deterministic for a fixed seed.  A zero operator returns 0.

    Parameters
    ----------
    apply_A, apply_At : callable
        Products with X and X^T.
    cols : int
        Number of columns of X (length of the iterated vector).
    iters : int
        Power iterations, at least 10.
    seed : int
        Seed for the start vector.
    """
    if iters < 10:
        raise ValueError("iters must be at least 10")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(cols)
    vnorm = np.linalg.norm(v)
    if vnorm == 0.0:
        return 0.0
    v /= vnorm
    sigma = 0.0
    for _ in range(iters):
        w = apply_At(apply_A(v))
        wnorm = float(np.linalg.norm(w))
        if wnorm == 0.0:
            return 0.0
        v = w / wnorm
        sigma = wnorm
    return float(np.sqrt(sigma))


class Side(enum.Enum):
    """Which inner linear system to solve."""

    DUAL_M = "dual-m"
    PRIMAL_N = "primal-n"


def woodbury_side(m: int, n: int, lam: float | None = None) -> Side:
    """Pick the m-sized dual system or the n-sized primal system.

    The dual side wins ties.  At lam = 0 the primal system is not defined,
    so the dual side is forced regardless of shape.
    """
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    if lam is not None and lam == 0.0:
        return Side.DUAL_M
    return Side.DUAL_M if m <= n else Side.PRIMAL_N


def solve_spd(A, b: np.ndarray, tol: float = CG_TOL) -> np.ndarray:
    """Solve an SPD system, choosing the strategy by size and form.

    Dense matrices of dimension <= DENSE_DIRECT_MAX go through Cholesky,
    and through range_solver if the factorization finds a nonpositive
    pivot, as consistent semidefinite systems at lam = 0 do.  Callables and larger
    systems go through CG.  Both fallbacks raise InconsistentSystem rather
    than return an inexact answer.

    Parameters
    ----------
    A : ndarray or callable
        The SPD matrix, or its matvec.
    b : ndarray
        Right-hand side, vector or matrix.
    """
    b = np.asarray(b, dtype=float)
    if callable(A):
        return _cg_columns(A, b, tol)
    A = np.asarray(A, dtype=float)
    if A.shape[0] <= DENSE_DIRECT_MAX:
        try:
            return cholesky_solve(A, b)
        except NotSpd:
            return range_solver(A)(b)
    return _cg_columns(lambda w: A @ w, b, tol)


def range_solver(A: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Factor a dense symmetric PSD matrix once by eigh; return solve(b).

    Eigenvalues at or below 1e-13 of the largest count as zero, and
    solve(b) returns the minimum-norm solution for a vector or matrix b.
    It raises InconsistentSystem when ||A x - b|| > 1e-7 (1 + ||b||), that
    is when b is not in the range of A, and NonFiniteEncountered at once
    when A holds a NaN or an Inf, for which eigh returns NaN eigenvalues
    without raising.
    """
    A = np.asarray(A, dtype=float)
    if not np.isfinite(A).all():
        raise NonFiniteEncountered("matrix holds a NaN or an Inf")
    evals, V = np.linalg.eigh(A)
    cut = 1e-13 * max(evals.max(), np.finfo(float).tiny)
    inv = np.where(evals > cut, 1.0 / np.where(evals > cut, evals, 1.0), 0.0)

    def solve(b: np.ndarray) -> np.ndarray:
        coef = V.T @ b
        x = V @ (inv * coef if coef.ndim == 1 else inv[:, None] * coef)
        if np.linalg.norm(A @ x - b) > 1e-7 * (1.0 + np.linalg.norm(b)):
            raise InconsistentSystem("b is not in the range of A")
        return x

    return solve


def _cg_columns(apply_A, b: np.ndarray, tol: float) -> np.ndarray:
    """CG applied column-wise so matrix right-hand sides work too.

    A column that stops short of tol is accepted below 1e-7 relative
    residual; above it the system is taken to be inconsistent.
    """

    def column(rhs):
        rep = cg_solve(apply_A, rhs, tol=tol)
        if not rep.converged and rep.relative_residual > 1e-7:
            raise InconsistentSystem(
                f"CG stalled at relative residual {rep.relative_residual:.3g}"
            )
        return rep.x

    if b.ndim == 1:
        return column(b)
    return np.stack([column(b[:, j]) for j in range(b.shape[1])], axis=1)
