"""Variational forms, prox operators, and lambda_max per family."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from noncvxpro.regularizers import (
    GroupL2,
    GroupStructure,
    L1,
    Lq,
    LqProxUnsupported,
    NegativeEta,
    TraceNorm,
    UnsupportedFamily,
    lambda_max,
)
from _oracles import fd_grad


# ---------------------------------------------------------------- structure

def test_group_structure_partition_checks():
    GroupStructure([[0, 1], [2]], 3)
    with pytest.raises(ValueError):
        GroupStructure([[0, 1], [1, 2]], 3)  # overlap
    with pytest.raises(ValueError):
        GroupStructure([[0]], 2)  # does not cover
    with pytest.raises(ValueError):
        GroupStructure([[0, 1], []], 2)  # empty group


def test_group_structure_layouts():
    s = GroupStructure.singletons(4)
    assert s.k == 4 and all(len(g) == 1 for g in s.groups)
    c = GroupStructure.contiguous(6, 2)
    assert [list(g) for g in c.groups] == [[0, 1, 2], [3, 4, 5]]
    with pytest.raises(ValueError):
        GroupStructure.contiguous(3, 5)


def test_group_structure_expand_and_norms():
    gs = GroupStructure([[0, 1], [2]], 3)
    assert_allclose(gs.expand(np.array([2.0, 5.0])), [2.0, 2.0, 5.0])
    assert_allclose(gs.norms(np.array([3.0, 4.0, 2.0])), [5.0, 2.0])
    # matrix rows: per-group Frobenius norm
    B = np.array([[3.0, 0.0], [0.0, 4.0], [1.0, 0.0]])
    assert_allclose(gs.norms(B), [5.0, 1.0])


@st.composite
def partitions(draw):
    """(groups, n): random partitions, contiguous or not, plus singletons in
    order and out of order, and one group."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["random", "contiguous", "singletons", "shuffled singletons", "one"]))
    if kind == "singletons":
        return [[i] for i in range(n)], n
    if kind == "shuffled singletons":
        return [[i] for i in draw(st.permutations(range(n)))], n
    if kind == "one":
        return [list(range(n))], n
    perm = draw(st.permutations(range(n))) if kind == "random" else list(range(n))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1))) if n > 1 else set())
    return [list(perm[a:b]) for a, b in zip([0] + cuts, cuts + [n])], n


@settings(max_examples=100, deadline=None)
@given(partitions(), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_group_primitive_matches_per_group_loop(part, cols, seed):
    groups, n = part
    gs = GroupStructure(groups, n)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((n,) if cols == 0 else (n, cols))
    w = rng.standard_normal(len(groups))
    sums = np.array([vals[g].sum(axis=0) for g in groups])
    norms = np.array([np.sqrt(np.sum(vals[g] ** 2)) for g in groups])
    spread = np.empty(n)
    for gid, g in enumerate(groups):
        spread[g] = w[gid]
    assert_array_equal(gs.expand(w), spread)
    if all(len(g) == 1 for g in groups):
        assert_array_equal(gs.sum_groups(vals), sums)
        assert_array_equal(gs.norms(vals), norms)
    else:
        scale = np.array([np.abs(vals[g]).sum(axis=0) for g in groups])
        assert np.all(np.abs(gs.sum_groups(vals) - sums) <= 1e-14 * scale)
        assert_allclose(gs.norms(vals), norms, rtol=1e-14, atol=0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 50))
def test_singletons_list_every_coordinate_alone(n):
    assert [list(g) for g in GroupStructure.singletons(n).groups] == [[i] for i in range(n)]


@settings(max_examples=100, deadline=None)
@given(partitions(), st.sampled_from(["overlap", "drop", "empty", "outside"]))
def test_invalid_partitions_raise(part, fault):
    groups, n = part
    groups = [list(g) for g in groups]
    if fault == "overlap":
        groups[-1].append(groups[0][0])
    elif fault == "drop":
        groups[-1].pop()
    elif fault == "empty":
        groups.append([])
    else:
        groups[-1].append(n)
    with pytest.raises(ValueError):
        GroupStructure(groups, n)


# ------------------------------------------------------------------ h_value

def test_h_value_group_is_sum():
    gs = GroupStructure.singletons(3)
    assert GroupL2(gs).h_value(np.array([1.0, 2.0, 3.0])) == 6.0
    assert L1().h_value(np.array([1.0, 2.0, 3.0])) == 6.0


def test_h_value_lq_at_q1_reduces_to_l1():
    # C_1 = 1 and the exponent q/(2-q) = 1, so h is the plain sum
    assert Lq(1.0).h_value(np.array([1.0, 2.0, 3.0])) == pytest.approx(6.0, abs=1e-12)


def test_h_value_trace_of_diagonal():
    assert TraceNorm().h_value(np.diag([1.0, 2.0])) == 3.0


def test_h_value_rejects_negative_eta():
    with pytest.raises(NegativeEta):
        L1().h_value(np.array([1.0, -0.1]))
    with pytest.raises(NegativeEta):
        TraceNorm().h_value(np.diag([1.0, -1.0]))
    with pytest.raises(NegativeEta):
        TraceNorm().h_value(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_lq_constructor_bounds():
    with pytest.raises(ValueError):
        Lq(0.5)
    with pytest.raises(ValueError):
        Lq(2.0 / 3.0)
    with pytest.raises(ValueError):
        Lq(2.0)
    assert Lq(0.7).q == 0.7


# ------------------------------------------------------------- h_outer_grad

def test_outer_grad_group_is_identity():
    v = np.array([1.0, -2.0])
    assert_allclose(GroupL2(GroupStructure.singletons(2)).h_outer_grad(v), v)


def test_outer_grad_lq_q1_reduces_to_v():
    assert_allclose(Lq(1.0).h_outer_grad(np.array([2.0])), [2.0])


def test_outer_grad_trace_is_v():
    V = np.diag([3.0, 0.0])
    assert_allclose(TraceNorm().h_outer_grad(V), V)


@pytest.mark.parametrize("reg", [L1(), Lq(0.8), Lq(1.3), GroupL2(GroupStructure.contiguous(4, 2))])
def test_outer_grad_matches_finite_differences(reg):
    rng = np.random.default_rng(4)
    v = rng.standard_normal(4) + np.sign(rng.standard_normal(4)) * 0.5  # bounded away from 0
    ref = fd_grad(lambda w: 0.5 * reg.h_value(w * w), v)
    got = reg.h_outer_grad(v)
    assert_allclose(got, ref, rtol=1e-6, atol=1e-8)


def test_outer_grad_trace_matches_finite_differences():
    rng = np.random.default_rng(5)
    V = rng.standard_normal((3, 3))
    ref = fd_grad(lambda w: 0.5 * TraceNorm().h_value(w.reshape(3, 3).T @ w.reshape(3, 3)), V.ravel())
    assert_allclose(TraceNorm().h_outer_grad(V).ravel(), ref, rtol=1e-6, atol=1e-8)


# --------------------------------------------------------------------- prox

def test_prox_scalar_shrinkage():
    assert_allclose(L1().prox(np.array([3.0]), 1.0), [2.0])


def test_prox_group_threshold_boundary():
    gs = GroupStructure([[0, 1]], 2)
    assert_allclose(GroupL2(gs).prox(np.array([3.0, 4.0]), 5.0), [0.0, 0.0])


@settings(max_examples=100, deadline=None)
@given(partitions(), st.integers(0, 3), st.integers(0, 2**32 - 1),
       st.one_of(st.floats(0, 3), st.integers(0, 11)))
def test_group_prox_matches_per_group_loop(part, cols, seed, tau):
    # an integer tau puts the threshold at that group's exact norm
    groups, n = part
    gs = GroupStructure(groups, n)
    rng = np.random.default_rng(seed)
    beta = rng.standard_normal((n,) if cols == 0 else (n, cols))
    if isinstance(tau, int):
        tau = float(gs.norms(beta)[tau % len(groups)])
    out = GroupL2(gs).prox(beta, tau)
    assert out.shape == beta.shape
    for g, nrm in zip(groups, gs.norms(beta)):
        loop_nrm = np.sqrt(np.sum(beta[g] ** 2))
        ref = 0.0 * beta[g] if loop_nrm <= tau else (1.0 - tau / loop_nrm) * beta[g]
        assert np.all(np.abs(out[g] - ref) <= 1e-14 * loop_nrm)
        if nrm <= tau:
            assert np.all(out[g] == 0.0)


@pytest.mark.parametrize("reg, nan_head", [
    (L1(), [True, False]),
    (GroupL2(GroupStructure.contiguous(4, 2)), [True, True]),  # the whole group
])
def test_prox_propagates_nan(reg, nan_head):
    # a diverging iterate must stay visible, not be thresholded to zero
    out = reg.prox(np.array([np.nan, 1.0, 3.0, 4.0]), 1.0)
    assert_array_equal(np.isnan(out[:2]), nan_head)
    assert_array_equal(out[2:], reg.prox(np.array([0.0, 1.0, 3.0, 4.0]), 1.0)[2:])

def test_prox_trace_diagonal_svt():
    assert_allclose(TraceNorm().prox(np.diag([3.0, 1.0]), 2.0), np.diag([1.0, 0.0]), atol=1e-12)


def test_prox_lq_unsupported():
    with pytest.raises(LqProxUnsupported):
        Lq(0.8).prox(np.array([1.0]), 0.5)


def test_prox_rejects_negative_tau():
    with pytest.raises(ValueError):
        L1().prox(np.array([1.0]), -0.1)


@pytest.mark.parametrize("reg, beta", [
    (L1(), np.array([1.0, -0.05])),
    (GroupL2(GroupStructure([[0, 1]], 2)), np.array([3.0, 4.0])),
    (TraceNorm(), np.diag([3.0, 1.0])),
])
def test_prox_method_rejects_negative_tau(reg, beta):
    with pytest.raises(ValueError):
        reg.prox(beta, -0.1)


@pytest.mark.parametrize("reg", [L1(), GroupL2(GroupStructure.contiguous(6, 2))])
def test_prox_at_zero_tau_is_identity(reg):
    rng = np.random.default_rng(6)
    b = rng.standard_normal(6)
    assert_allclose(reg.prox(b, 0.0), b)


def test_prox_trace_at_zero_tau_is_identity():
    rng = np.random.default_rng(7)
    B = rng.standard_normal((3, 4))
    assert_allclose(TraceNorm().prox(B, 0.0), B, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=6, max_size=6),
    st.lists(st.floats(-10, 10), min_size=6, max_size=6),
    st.floats(0, 5),
)
def test_prox_nonexpansive(a, b, tau):
    a, b = np.array(a), np.array(b)
    for reg in (L1(), GroupL2(GroupStructure.contiguous(6, 3))):
        pa, pb = reg.prox(a, tau), reg.prox(b, tau)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


def test_prox_trace_nonexpansive():
    rng = np.random.default_rng(8)
    for _ in range(10):
        A, B = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        pa, pb = TraceNorm().prox(A, 0.7), TraceNorm().prox(B, 0.7)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(A - B) + 1e-12


# --------------------------------------------------------------- lambda_max

def test_lambda_max_l1():
    assert lambda_max(np.diag([1.0, 2.0]), np.array([1.0, 1.0]), L1()) == 2.0


def test_lambda_max_single_group():
    gs = GroupStructure([[0, 1]], 2)
    assert lambda_max(np.eye(2), np.array([3.0, 4.0]), GroupL2(gs)) == 5.0


def test_lambda_max_unsupported_families():
    X, y = np.eye(2), np.ones(2)
    with pytest.raises(UnsupportedFamily):
        lambda_max(X, y, TraceNorm())
    with pytest.raises(UnsupportedFamily):
        lambda_max(X, y, Lq(0.8))


def test_lambda_max_is_the_zero_threshold():
    # above lambda_max coordinate descent stays at zero; just below it moves
    from noncvxpro.baselines import coordinate_descent_lasso
    from noncvxpro.problems import Problem

    rng = np.random.default_rng(9)
    X = rng.standard_normal((5, 8))
    y = rng.standard_normal(5)
    lmax = lambda_max(X, y, L1())
    hi = coordinate_descent_lasso(Problem(X, y, 1.01 * lmax, L1()), iters=200)
    assert_allclose(hi.beta, np.zeros(8), atol=1e-12)
    lo = coordinate_descent_lasso(Problem(X, y, 0.99 * lmax, L1()), iters=200)
    assert np.linalg.norm(lo.beta) > 0


# ------------------------------------------------- variational identities

def test_variational_form_group_analytic_minimizer():
    # min over eta of (1/2)||b_g||^2/eta_g + (1/2) sum eta_g is sum ||b_g||,
    # attained at eta_g = ||b_g||
    rng = np.random.default_rng(10)
    gs = GroupStructure.contiguous(6, 3)
    reg = GroupL2(gs)
    b = rng.standard_normal(6)
    eta_star = gs.norms(b)
    val = 0.5 * float(np.sum(gs.norms(b) ** 2 / eta_star)) + 0.5 * reg.h_value(eta_star)
    assert_allclose(val, reg.r_value(b), rtol=1e-12)


@pytest.mark.parametrize("q", [0.8, 1.0, 1.5])
def test_variational_form_lq_by_scalar_minimization(q):
    # the per-coordinate minimum of (1/2) b^2/eta + (1/2) h(eta) is |b|^q
    reg = Lq(q)
    for b in (0.3, 1.0, 2.7):
        res = scipy.optimize.minimize_scalar(
            lambda e: 0.5 * b * b / e + 0.5 * reg.h_value(np.array([e])),
            bounds=(1e-9, 50.0),
            method="bounded",
            options={"xatol": 1e-12},
        )
        assert_allclose(res.fun, abs(b) ** q, rtol=1e-8)


def test_variational_form_l1_grid():
    rng = np.random.default_rng(11)
    b = rng.standard_normal(2)
    grid = np.logspace(-4, 2, 600)
    e1, e2 = np.meshgrid(grid, grid, indexing="ij")
    vals = 0.5 * (b[0] ** 2 / e1 + b[1] ** 2 / e2) + 0.5 * (e1 + e2)
    assert vals.min() == pytest.approx(np.abs(b).sum(), rel=1e-3)


def test_norm_squared_identity_l1_grid():
    # R(b)^2 = inf { sum b_i^2/eta_i : sum eta_i <= 1 }, boundary-parametrized
    rng = np.random.default_rng(12)
    b = rng.standard_normal(2)
    t = np.linspace(1e-6, 1 - 1e-6, 4001)
    vals = b[0] ** 2 / t + b[1] ** 2 / (1 - t)
    assert vals.min() == pytest.approx(np.abs(b).sum() ** 2, rel=1e-3)


def test_norm_squared_identity_single_group():
    # one group: h(eta) = eta <= 1, so the infimum is ||b||^2 at eta = 1
    b = np.array([1.2, -0.7])
    assert float(b @ b) / 1.0 == pytest.approx(np.linalg.norm(b) ** 2, rel=1e-12)


@pytest.mark.parametrize("q", [0.8, 1.0])
def test_norm_squared_identity_lq_grid(q):
    # with the constraint written through the unscaled weight sum
    # sum eta_i^(q/(2-q)) <= 1, the infimum of sum b_i^2/eta_i equals the
    # squared lq quasi-norm (sum |b_i|^q)^(2/q)
    rng = np.random.default_rng(13)
    b = rng.standard_normal(2)
    p = q / (2.0 - q)
    t = np.linspace(1e-9, 1 - 1e-9, 20001)
    e1 = t ** (1.0 / p)
    e2 = (1.0 - t) ** (1.0 / p)
    vals = b[0] ** 2 / e1 + b[1] ** 2 / e2
    target = (np.abs(b) ** q).sum() ** (2.0 / q)
    assert vals.min() == pytest.approx(target, rel=1e-3)
