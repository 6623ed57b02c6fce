"""Problem construction: parsing, standardization, synthetic and graph instances.

A Problem bundles the design matrix, observations, regularization strength,
and regularizer family.  lam = 0 means the residual is constrained to zero
(basis pursuit / minimal flow); such problems are only accepted when the
observations are reachable, i.e. y lies in the range of X up to tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import scipy.sparse

from .regularizers import L1, GroupL2, Regularizer, TraceNorm


class ParseError(ValueError):
    """Malformed input text; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SelfLoop(ValueError):
    """Graph edges must join two distinct nodes."""


class InfeasibleAtLambdaZero(ValueError):
    """With lam = 0 the constraint X beta = y cannot be met."""


def _feas_tol(y: np.ndarray) -> float:
    return 1e-6 * (1.0 + float(np.linalg.norm(y)))


def _min_residual_norm(X, y: np.ndarray) -> float:
    """Norm of the least-squares residual min_b ||X b - y||."""
    if scipy.sparse.issparse(X):
        ys = y if y.ndim == 2 else y[:, None]
        total = 0.0
        for j in range(ys.shape[1]):
            r = scipy.sparse.linalg.lsqr(X, ys[:, j], atol=1e-12, btol=1e-12)[3]
            total += float(r) ** 2
        return np.sqrt(total)
    b = np.linalg.lstsq(np.asarray(X, float), y, rcond=None)[0]
    return float(np.linalg.norm(X @ b - y))


@dataclass
class Problem:
    """One regression instance min R(beta) + (1/(2 lam)) ||X beta - y||^2.

    Attributes
    ----------
    X : (m, n) ndarray or sparse matrix
    y : (m,) or (m, q) ndarray
        Multiple columns make beta (n, q) with groups of whole rows, so L1
        (GroupL2 over singletons) sums the row norms.
    lam : float
        Regularization strength, >= 0; 0 constrains X beta = y.
    reg : Regularizer
        Any family but TraceNorm, which is MultiTaskProblem's.
    """

    X: object
    y: np.ndarray
    lam: float
    reg: Regularizer

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        if not scipy.sparse.issparse(self.X):
            self.X = np.asarray(self.X, dtype=float)
        if self.X.ndim != 2:
            raise ValueError("X must be two dimensional")
        if self.y.shape[0] != self.X.shape[0]:
            raise ValueError(
                f"X has {self.X.shape[0]} rows but y has length {self.y.shape[0]}"
            )
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        # before the lam = 0 lstsq: on NaN data LAPACK prints to fd 1 or does not return
        if not np.isfinite(self.X.data if scipy.sparse.issparse(self.X) else self.X).all():
            raise ValueError("X has a non-finite entry")
        if not np.isfinite(self.y).all():
            raise ValueError("y has a non-finite entry")
        if self.lam == 0 and _min_residual_norm(self.X, self.y) > _feas_tol(self.y):
            raise InfeasibleAtLambdaZero("y is not in the range of X")

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def n(self) -> int:
        return self.X.shape[1]

    @cached_property
    def groups(self):
        """The regularizer's group structure, built on first read and kept."""
        return self.reg.groups_for(self.n)

    @cached_property
    def gram(self) -> np.ndarray:
        """Dense X^T X, formed on first read (the n-sized solves) and kept."""
        X = self.X.toarray() if scipy.sparse.issparse(self.X) else self.X
        return X.T @ X


@dataclass
class MultiTaskProblem:
    """Per-task designs X_t (m_t x n) and targets y_t sharing n features."""

    Xs: list
    ys: list
    lam: float

    def __post_init__(self):
        self.Xs = [np.asarray(X, dtype=float) for X in self.Xs]
        self.ys = [np.asarray(y, dtype=float) for y in self.ys]
        if len(self.Xs) != len(self.ys) or not self.Xs:
            raise ValueError("need matching nonempty task lists")
        n = self.Xs[0].shape[1]
        for X, y in zip(self.Xs, self.ys):
            if X.shape[1] != n:
                raise ValueError("all tasks must share the feature count")
            if X.shape[0] != y.shape[0]:
                raise ValueError("task design and target sizes differ")
        if self.lam <= 0:
            raise ValueError("multitask problems require lam > 0")

    @property
    def T(self) -> int:
        return len(self.Xs)

    @property
    def n(self) -> int:
        return self.Xs[0].shape[1]


@dataclass
class BeckmannProblem:
    """Minimal flow on a graph: min ||beta||_1 subject to div(beta) = a - b.

    The divergence matrix has one column per edge (i -> j) holding +1 at i
    and -1 at j, so flow conservation is X beta = a - b.
    """

    node_count: int
    edges: list
    a: np.ndarray
    b: np.ndarray
    X: np.ndarray = field(init=False)
    y: np.ndarray = field(init=False)

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.a.shape != (self.node_count,) or self.b.shape != (self.node_count,):
            raise ValueError("a and b must have one entry per node")
        if abs(self.a.sum() - self.b.sum()) > 1e-12:
            raise ValueError("mass must be conserved: sum(a) == sum(b)")
        self.X = graph_incidence(self.edges, self.node_count)
        self.y = self.a - self.b

    def to_problem(self, groups=None) -> Problem:
        """View as a constrained (lam = 0) sparse regression instance."""
        reg = L1() if groups is None else GroupL2(groups)
        return Problem(self.X, self.y, 0.0, reg)


def parse_libsvm(source) -> tuple:
    """Parse sparse "label idx:val ..." lines into (X, y).

    Indices are 1-based and must be strictly increasing within a line; the
    column count is the largest index seen.  Blank lines are skipped.

    Parameters
    ----------
    source : str or file-like
        The text to parse.

    Returns
    -------
    X : csr_matrix, y : ndarray

    Raises
    ------
    ParseError
        On malformed tokens or non-increasing indices, with line number.
    """
    if hasattr(source, "read"):
        source = source.read()
    labels = []
    rows, cols, vals = [], [], []
    ncols = 0
    row = 0
    for lineno, line in enumerate(source.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            labels.append(float(tokens[0]))
        except ValueError:
            raise ParseError(f"bad label {tokens[0]!r}", lineno) from None
        prev = 0
        for tok in tokens[1:]:
            parts = tok.split(":")
            if len(parts) != 2:
                raise ParseError(f"bad feature token {tok!r}", lineno)
            try:
                idx = int(parts[0])
                val = float(parts[1])
            except ValueError:
                raise ParseError(f"bad feature token {tok!r}", lineno) from None
            if idx <= prev:
                raise ParseError(f"index {idx} not increasing", lineno)
            prev = idx
            ncols = max(ncols, idx)
            rows.append(row)
            cols.append(idx - 1)
            vals.append(val)
        row += 1
    X = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(row, ncols))
    return X, np.asarray(labels, dtype=float)


def format_libsvm(X, y) -> str:
    """Serialize (X, y) back to canonical text; inverse of parse_libsvm."""
    X = scipy.sparse.csr_matrix(X)
    lines = []
    for i in range(X.shape[0]):
        start, end = X.indptr[i], X.indptr[i + 1]
        feats = " ".join(
            f"{X.indices[p] + 1}:{float(X.data[p])!r}" for p in range(start, end)
        )
        lines.append(f"{float(y[i])!r} {feats}".rstrip())
    return "\n".join(lines) + "\n"


def standardize(X, y) -> tuple:
    """Center every column of X and y, then scale both by 1/m.

    Sparse inputs are densified since centering fills them in anyway.
    """
    if scipy.sparse.issparse(X):
        X = X.toarray()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    m = X.shape[0]
    Xc = (X - X.mean(axis=0)) / m
    yc = (y - y.mean(axis=0)) / m
    return Xc, yc


def synth_lasso(
    m: int,
    n: int,
    s: int,
    seed: int = 0,
    lam: float | Callable[[np.ndarray, np.ndarray], float] | None = None,
    noise: float = 0.0,
    reg: Regularizer | None = None,
) -> tuple:
    """Gaussian design with an s-sparse Gaussian ground truth.

    y = X beta_true (+ noise * standard normal).  lam defaults to a tenth
    of lambda_max computed on the generated data, and a callable lam is
    called on (X, y) to give it; pass lam=0 for the constrained problem
    (requires noise = 0 so y stays reachable).

    Returns
    -------
    (Problem, beta_true)
    """
    if s > n:
        raise ValueError("sparsity cannot exceed the dimension")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, n))
    beta_true = np.zeros(n)
    if s > 0:
        support = rng.choice(n, size=s, replace=False)
        beta_true[support] = rng.standard_normal(s)
    y = X @ beta_true
    if noise > 0:
        y = y + noise * rng.standard_normal(m)
    reg = reg if reg is not None else L1()
    if lam is None:
        from .regularizers import lambda_max

        lam = 0.1 * lambda_max(X, y, L1()) if np.any(y) else 1.0
    elif callable(lam):
        lam = lam(X, y)
    return Problem(X, y, lam, reg), beta_true


def graph_incidence(edges: Sequence, node_count: int) -> np.ndarray:
    """Divergence matrix of a directed graph: column (i -> j) is +1 at i, -1 at j.

    Every column sums to zero.  Self loops are rejected.
    """
    X = np.zeros((node_count, len(edges)))
    for e, (i, j) in enumerate(edges):
        if i == j:
            raise SelfLoop(f"edge {e} joins node {i} to itself")
        if not (0 <= i < node_count and 0 <= j < node_count):
            raise ValueError(f"edge {e} endpoint out of range")
        X[i, e] = 1.0
        X[j, e] = -1.0
    return X


def primal_objective(prob: Problem, beta: np.ndarray) -> float:
    """R(beta) + (1/(2 lam)) ||X beta - y||^2; just R(beta) when lam = 0.

    Raises
    ------
    InfeasibleAtLambdaZero
        When lam = 0 and beta misses the constraint beyond tolerance.
    """
    beta = np.asarray(beta, dtype=float)
    r = prob.X @ beta - prob.y
    if prob.lam == 0:
        if np.linalg.norm(r) > _feas_tol(prob.y):
            raise InfeasibleAtLambdaZero(
                "beta violates X beta = y beyond the reporting tolerance"
            )
        return prob.reg.r_value(beta)
    return prob.reg.r_value(beta) + float(np.sum(r * r)) / (2.0 * prob.lam)


def multitask_objective(mt: MultiTaskProblem, B: np.ndarray) -> float:
    """Trace-norm objective ||B||_* + (1/(2 lam)) sum_t ||X_t b_t - y_t||^2."""
    B = np.asarray(B, dtype=float)
    fit = sum(
        float(np.sum((X @ B[:, t] - y) ** 2)) for t, (X, y) in enumerate(zip(mt.Xs, mt.ys))
    )
    return TraceNorm().r_value(B) + fit / (2.0 * mt.lam)
