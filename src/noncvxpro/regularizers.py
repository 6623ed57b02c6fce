"""Regularizer families and their quadratic variational ingredients.

Each family R carries the weight function h of its variational form

    R(beta) = min_{eta >= 0}  (1/2) sum_g ||beta_g||^2 / eta_g + (1/2) h(eta)

together with the outer gradient of v -> (1/2) h(v * v), the proximal
operator used by the splitting baselines, and the largest useful
regularization strength lambda_max.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np


class NegativeEta(ValueError):
    """Variational weights must be entrywise nonnegative (or PSD)."""


class LqProxUnsupported(NotImplementedError):
    """The lq proximal operator is deliberately not provided."""


class UnsupportedFamily(ValueError):
    """Operation not defined for this regularizer family."""


class GroupStructure:
    """Ordered partition of {0..n-1} into k disjoint nonempty groups.

    ``groups`` lists the index sequences in group order; a 2-D integer
    array gives equal-size groups, one per row, built without a Python
    loop.  The partition is held as a permutation ``perm`` of the
    coordinates in group order plus ``offsets``: group g is
    ``perm[offsets[g]:offsets[g + 1]]``.
    """

    def __init__(self, groups: Sequence[Sequence[int]], n: int):
        self.n = int(n)
        if isinstance(groups, np.ndarray) and groups.ndim == 2:
            sizes, self.perm = np.full(len(groups), groups.shape[1]), groups.astype(int).ravel()
        else:
            parts = [np.asarray(g, dtype=int).ravel() for g in groups]
            sizes = np.array([g.size for g in parts], dtype=int)
            self.perm = np.concatenate(parts or [np.empty(0, int)])
        self.k = sizes.size
        if np.any(sizes == 0):
            raise ValueError("groups must be nonempty")
        order = np.argsort(self.perm, kind="stable")
        if self.perm.size != self.n or not np.array_equal(self.perm[order], np.arange(self.n)):
            raise ValueError("groups must partition 0..n-1")
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        self.group_of = np.repeat(np.arange(self.k), sizes)[order]
        self._in_order = np.array_equal(self.perm, np.arange(self.n))
        self._identity = self._in_order and self.k == self.n

    @classmethod
    def singletons(cls, n: int) -> "GroupStructure":
        return cls(np.arange(n)[:, None], n)

    @classmethod
    def contiguous(cls, n: int, k: int) -> "GroupStructure":
        """Split 0..n-1 into k contiguous groups of near-equal size."""
        if not 1 <= k <= n:
            raise ValueError("need 1 <= k <= n")
        if n % k == 0:
            return cls(np.arange(n).reshape(k, n // k), n)
        bounds = np.linspace(0, n, k + 1).astype(int)
        return cls([np.arange(bounds[i], bounds[i + 1]) for i in range(k)], n)

    @cached_property
    def groups(self) -> list:
        """The partition as a list of index arrays (copies), built on first read."""
        return [self.perm[a:b].copy() for a, b in zip(self.offsets[:-1], self.offsets[1:])]

    def sum_groups(self, vals: np.ndarray) -> np.ndarray:
        """One sum per group of per-coordinate values (entries or matrix rows).

        Singleton groups in coordinate order return vals as they are."""
        vals = np.asarray(vals, dtype=float)
        if self._identity:
            return vals
        return np.add.reduceat(vals if self._in_order else vals[self.perm], self.offsets[:-1], axis=0)

    def sumsq(self, beta: np.ndarray) -> np.ndarray:
        """Per-group squared Euclidean (Frobenius for matrix rows) norms of beta."""
        sq = np.asarray(beta, dtype=float) ** 2
        return self.sum_groups(sq if sq.ndim == 1 else sq.reshape(len(sq), -1).sum(axis=1))

    def expand(self, w: np.ndarray) -> np.ndarray:
        """Spread one value per group over the coordinates it covers."""
        return np.asarray(w, dtype=float)[self.group_of]

    def norms(self, beta: np.ndarray) -> np.ndarray:
        """Per-group Euclidean (Frobenius for matrix rows) norms of beta."""
        return np.sqrt(self.sumsq(beta))


class Regularizer:
    """Base class; concrete families implement the four family methods."""

    def h_value(self, eta) -> float:
        raise NotImplementedError

    def h_outer_grad(self, v):
        """Gradient of v -> (1/2) h(v * v) at v (elementwise families) or V."""
        raise NotImplementedError

    def prox(self, beta, tau: float):
        """Proximal operator of tau * R; tau must be nonnegative."""
        raise NotImplementedError

    def r_value(self, beta) -> float:
        raise NotImplementedError

    def groups_for(self, n: int) -> GroupStructure:
        """Group view used by solvers; singleton groups unless overridden."""
        return GroupStructure.singletons(n)


def _check_tau(tau: float) -> None:
    if tau < 0:
        raise ValueError("tau must be nonnegative")


def _check_eta_vector(eta) -> np.ndarray:
    eta = np.asarray(eta, dtype=float)
    if np.any(eta < 0):
        raise NegativeEta("eta must be entrywise nonnegative")
    return eta


class L1(Regularizer):
    """R(beta) = sum_i |beta_i|; h(eta) = sum_i eta_i."""

    def h_value(self, eta) -> float:
        return float(_check_eta_vector(eta).sum())

    def h_outer_grad(self, v):
        return np.asarray(v, dtype=float)

    def prox(self, beta, tau: float):
        _check_tau(tau)
        beta = np.asarray(beta, dtype=float)
        return np.sign(beta) * np.maximum(np.abs(beta) - tau, 0.0)

    def r_value(self, beta) -> float:
        return float(np.abs(beta).sum())


class GroupL2(Regularizer):
    """R(beta) = sum_g ||beta_g||_2; h(eta) = sum_g eta_g."""

    def __init__(self, groups: GroupStructure):
        self.groups = groups

    def h_value(self, eta) -> float:
        return float(_check_eta_vector(eta).sum())

    def h_outer_grad(self, v):
        return np.asarray(v, dtype=float)

    def prox(self, beta, tau: float):
        _check_tau(tau)
        beta = np.asarray(beta, dtype=float)
        nrm = self.groups.norms(beta)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = self.groups.expand(np.where(nrm <= tau, 0.0, 1.0 - tau / nrm))
        return scale * beta if beta.ndim == 1 else scale[:, None] * beta

    def r_value(self, beta) -> float:
        return float(self.groups.norms(beta).sum())

    def groups_for(self, n: int) -> GroupStructure:
        if n != self.groups.n:
            raise ValueError(f"group structure covers {self.groups.n} coords, not {n}")
        return self.groups


class Lq(Regularizer):
    """R(beta) = sum_i |beta_i|^q for q in (2/3, 2).

    h(eta) = C_q sum_i eta_i^(q/(2-q)) with C_q = (2-q) q^(q/(2-q)), which
    makes v -> h(v * v) a power gamma = 2q/(2-q) > 1, hence differentiable.
    """

    def __init__(self, q: float):
        if not 2.0 / 3.0 < q < 2.0:
            raise ValueError("q must lie in (2/3, 2)")
        self.q = float(q)
        self.gamma = 2.0 * q / (2.0 - q)
        self.c_q = (2.0 - q) * q ** (q / (2.0 - q))

    def h_value(self, eta) -> float:
        eta = _check_eta_vector(eta)
        return float(self.c_q * np.sum(eta ** (self.q / (2.0 - self.q))))

    def h_outer_grad(self, v):
        v = np.asarray(v, dtype=float)
        return self.q ** (2.0 / (2.0 - self.q)) * np.abs(v) ** (self.gamma - 1.0) * np.sign(v)

    def prox(self, beta, tau: float):
        raise LqProxUnsupported(
            "lq shrinkage needs a nonlinear scalar solve; use the smooth "
            "bilevel route instead"
        )

    def r_value(self, beta) -> float:
        return float(np.sum(np.abs(beta) ** self.q))


class TraceNorm(Regularizer):
    """R(B) = sum of singular values; h(Z) = tr(Z) over PSD Z."""

    def h_value(self, Z) -> float:
        Z = np.asarray(Z, dtype=float)
        if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
            raise NegativeEta("matrix weight must be square PSD")
        scale = max(np.abs(Z).max(), 1.0)
        if np.abs(Z - Z.T).max() > 1e-10 * scale:
            raise NegativeEta("matrix weight must be symmetric")
        if np.linalg.eigvalsh(Z).min() < -1e-10 * scale:
            raise NegativeEta("matrix weight must be PSD")
        return float(np.trace(Z))

    def h_outer_grad(self, V):
        # gradient of V -> (1/2) tr(V^T V)
        return np.asarray(V, dtype=float)

    def prox(self, B, tau: float):
        _check_tau(tau)
        B = np.asarray(B, dtype=float)
        U, s, Vt = np.linalg.svd(B, full_matrices=False)
        return (U * np.maximum(s - tau, 0.0)) @ Vt

    def r_value(self, B) -> float:
        return float(np.linalg.svd(np.asarray(B, dtype=float), compute_uv=False).sum())


def lambda_max(X, y, reg: Regularizer) -> float:
    """Smallest lambda at which the regularized solution is exactly zero.

    L1 gives the max absolute correlation; the group family gives the max
    per-group correlation norm (Frobenius when y has multiple columns).
    """
    Xty = X.T @ y
    Xty = np.asarray(Xty, dtype=float)
    if isinstance(reg, L1):
        return float(np.abs(Xty).max())
    if isinstance(reg, GroupL2):
        return float(reg.groups.norms(Xty).max())
    raise UnsupportedFamily("lambda_max is defined for L1 and GroupL2 only")
