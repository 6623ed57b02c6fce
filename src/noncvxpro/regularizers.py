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
        w = np.asarray(w, dtype=float)
        return w if self._identity else w[self.group_of]

    def norms(self, beta: np.ndarray) -> np.ndarray:
        """Per-group Euclidean (Frobenius for matrix rows) norms; |beta| on in-order singletons."""
        beta = np.asarray(beta, dtype=float)
        if self._identity and beta.ndim == 1:
            return np.abs(beta)
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
    if (eta < 0).any():
        raise NegativeEta("eta must be entrywise nonnegative")
    return eta


def _shrink(beta, nrm, tau: float):
    """Group soft-threshold beta / nrm * (nrm - tau) where nrm > tau, else 0; nrm is
    each entry's group norm.  Singletons give sign(b) max(|b| - tau, 0) exactly
    (b / |b| is +-1) and NaN passes.  Flooring nrm at tau changes no kept group
    and zeroes the rest (|beta| <= nrm <= tau, so beta / tau stays finite)."""
    if tau == 0:
        return beta.copy()
    d = np.maximum(nrm, tau)
    return beta / d * (d - tau)


class GroupL2(Regularizer):
    """R(beta) = sum_g ||beta_g||_2 (a matrix beta groups rows); h(eta) = sum_g eta_g."""

    def __init__(self, groups: GroupStructure):
        self.groups = groups

    def h_value(self, eta) -> float:
        return float(_check_eta_vector(eta).sum())

    def h_outer_grad(self, v):
        return np.asarray(v, dtype=float)

    def prox(self, beta, tau: float):
        _check_tau(tau)
        beta = np.asarray(beta, dtype=float)
        groups = self.groups_for(len(beta))
        nrm = groups.expand(groups.norms(beta))
        return _shrink(beta, nrm if beta.ndim == 1 else nrm[:, None], tau)

    def r_value(self, beta) -> float:
        return float(self.groups_for(len(beta)).norms(beta).sum())

    def groups_for(self, n: int) -> GroupStructure:
        if n != self.groups.n:
            raise ValueError(f"group structure covers {self.groups.n} coords, not {n}")
        return self.groups


class L1(GroupL2):
    """R(beta) = sum_i |beta_i|: GroupL2 over singleton groups, so a matrix beta
    sums its row norms.  The groups are built on first use, again only for a new n."""

    def __init__(self):
        self.groups = None

    def groups_for(self, n: int) -> GroupStructure:
        if self.groups is None or self.groups.n != n:
            self.groups = GroupStructure.singletons(n)
        return self.groups

    def prox(self, beta, tau: float):
        # in L1's own body so perfbench's span tracer, which wraps only a class's
        # own prox, reports L1's prox apart from GroupL2's
        return super().prox(beta, tau)


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
        return float(self.c_q * (eta ** (self.q / (2.0 - self.q))).sum())

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

    The group family (L1 included) gives the max per-group correlation
    norm (Frobenius when y has multiple columns).
    """
    if not isinstance(reg, GroupL2):
        raise UnsupportedFamily("lambda_max is defined for the group family (L1, GroupL2) only")
    Xty = np.asarray(X.T @ y, dtype=float)
    return float(reg.groups_for(len(Xty)).norms(Xty).max())
