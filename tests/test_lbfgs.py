"""Optimizer tests: step contract, convergence, stop reasons, memory semantics, box variant."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from noncvxpro.lbfgs import LbfgsConfig, minimize, minimize_box
from noncvxpro.problems import Problem
from noncvxpro.regularizers import L1
from noncvxpro.varpro import eval_state

from _oracles import dense_bfgs_direction


def rosenbrock(x):
    f = (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
    g = np.array(
        [
            -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
            200.0 * (x[1] - x[0] ** 2),
        ]
    )
    return f, g


# -------------------------------------------------------------------- config

def test_config_rejects_zero_memory():
    with pytest.raises(ValueError):
        LbfgsConfig(memory=0)


# --------------------------------------------------------------- convergence

def test_separable_quadratic_converges_in_two_iterations():
    c = np.array([3.0, -1.0, 0.5])
    res = minimize(lambda x: (0.5 * np.sum((x - c) ** 2), x - c), np.zeros(3))
    assert res.reason == "converged"
    assert res.iterations <= 2
    assert_allclose(res.x, c, atol=1e-8)


def test_rosenbrock_from_standard_start():
    res = minimize(rosenbrock, np.array([-1.2, 1.0]))
    assert res.reason == "converged"
    assert_allclose(res.x, [1.0, 1.0], atol=1e-6)


def test_memory_one_still_converges_on_rosenbrock():
    res = minimize(rosenbrock, np.array([-1.2, 1.0]), LbfgsConfig(memory=1, max_iters=2000))
    assert res.reason == "converged"
    assert_allclose(res.x, [1.0, 1.0], atol=1e-6)


def test_scalar_bilevel_objective_reaches_global_minimum():
    # single-feature problem with unit design, y = 2, lam = 1: the smooth
    # outer objective has global minima at v = +/-1 with value 1.5
    prob = Problem(np.array([[1.0]]), np.array([2.0]), 1.0, L1())

    def oracle(v):
        st = eval_state(prob, v)
        return st.f, st.grad

    res = minimize(oracle, np.array([0.3]), LbfgsConfig(tol=1e-12))
    assert res.reason == "converged"
    assert abs(res.x[0]) == pytest.approx(1.0, abs=1e-8)
    assert res.f == pytest.approx(1.5, abs=1e-10)


# ------------------------------------------------------------ step contract

def test_accepted_steps_satisfy_strong_wolfe():
    # L-BFGS-B's line search (Moré-Thuente) runs with c1 = 1e-3 and c2 = 0.9
    c1, c2 = 1e-3, 0.9
    hist = []
    minimize(
        rosenbrock,
        np.array([-1.2, 1.0]),
        callback=lambda k, x, f, g: hist.append((x.copy(), f, g.copy())) or False,
    )
    assert len(hist) > 10
    for (x0, f0, g0), (x1, f1, g1) in zip(hist, hist[1:]):
        dx = x1 - x0
        slack = 1e-12 * (1.0 + abs(f0))
        assert f1 <= f0 + c1 * float(g0 @ dx) + slack
        assert abs(float(g1 @ dx)) <= c2 * abs(float(g0 @ dx)) + slack


def test_full_memory_directions_match_dense_bfgs():
    # with memory exceeding the iteration count no pair is ever evicted, so
    # every step must be collinear with the direction a dense BFGS update
    # (same initial scaling and the same pair-acceptance rule) produces
    d = 5
    rng = np.random.default_rng(7)
    A = rng.standard_normal((8, d))

    def oracle(x):
        z = np.exp(0.3 * (A @ x))
        return float(np.sum(z) + 0.5 * x @ x), 0.3 * (A.T @ z) + x

    hist = []
    minimize(
        oracle,
        rng.standard_normal(d),
        LbfgsConfig(memory=1000, tol=1e-12, max_iters=200),
        callback=lambda k, x, f, g: hist.append((x.copy(), g.copy())) or False,
    )
    g0_norm = np.linalg.norm(hist[0][1])
    pairs = []
    compared = 0
    for (xa, ga), (xb, gb) in zip(hist, hist[1:]):
        if np.linalg.norm(ga) > 1e-6 * g0_norm:
            h = dense_bfgs_direction(pairs, ga)
            dx = xb - xa
            cos = float(dx @ h) / (np.linalg.norm(dx) * np.linalg.norm(h))
            assert cos >= 1.0 - 1e-10
            compared += 1
        s, y = xb - xa, gb - ga
        if float(s @ y) > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            pairs.append((s, y))
    assert compared >= 5


def test_trace_is_monotone_and_aligned_with_iterations():
    # the callback sees the start and then every accepted step, in order
    seen = []
    res = minimize(rosenbrock, np.array([-1.2, 1.0]), callback=lambda k, x, f, g: seen.append((k, f)))
    assert [k for k, _ in seen] == list(range(res.iterations + 1))
    values = [f for _, f in seen]
    assert all(f1 < f0 for f0, f1 in zip(values, values[1:]))
    assert values[0] == pytest.approx(rosenbrock(np.array([-1.2, 1.0]))[0])
    assert res.nfev >= res.iterations + 1


# ----------------------------------------------------------------- stopping

def test_iteration_budget_reported():
    res = minimize(rosenbrock, np.array([-1.2, 1.0]), LbfgsConfig(max_iters=3))
    assert res.reason == "max_iters"
    assert res.iterations == 3


def test_callback_stop_reports_iteration_count():
    seen = []

    def cb(k, x, f, g):
        seen.append((k, f))
        return k == 2

    res = minimize(rosenbrock, np.array([-1.2, 1.0]), callback=cb)
    assert res.reason == "callback_stop"
    assert res.iterations == 2
    assert [k for k, _ in seen] == [0, 1, 2]
    # callback sees the tracked objective value
    assert seen[0][1] == pytest.approx(rosenbrock(np.array([-1.2, 1.0]))[0])


def test_callback_may_stop_before_any_step():
    res = minimize(rosenbrock, np.array([-1.2, 1.0]), callback=lambda k, x, f, g: True)
    assert res.reason == "callback_stop"
    assert res.iterations == 0
    assert_allclose(res.x, [-1.2, 1.0])


def test_nonfinite_start_raises():
    with pytest.raises(ValueError):
        minimize(lambda x: (np.inf, np.zeros_like(x)), np.zeros(2))


def test_relative_reduction_stop_reported():
    # with tol = 0 the gradient test cannot fire; the run ends once a step
    # lowers f by at most 1e-15 max(|f|, 1), here at the minimizer
    res = minimize(rosenbrock, np.array([-1.2, 1.0]), LbfgsConfig(tol=0.0))
    assert res.reason == "converged_f"
    assert_allclose(res.x, [1.0, 1.0], atol=1e-6)


@pytest.mark.parametrize("edge", [0.5, 1.5])
@pytest.mark.parametrize("wall", [np.inf, np.nan])
def test_nonfinite_wall_is_a_failed_line_search(wall, edge):
    # the minimizer (2, -1) lies behind a wall at x[0] = edge where f is not
    # finite, met on the first trial (0.5) or after one finite step (1.5):
    # the run stops at a finite accepted point, never reports convergence,
    # and calls back once per accepted point, with no step for the wall
    c = np.array([2.0, -1.0])

    def oracle(x):
        return (wall if x[0] > edge else 0.5 * float(np.sum((x - c) ** 2))), x - c

    seen = []
    res = minimize(oracle, np.zeros(2), callback=lambda k, x, f, g: seen.append((k, x.copy())) or False)
    assert res.reason == "line_search_failed"
    assert res.x[0] <= edge
    assert res.f == oracle(res.x)[0] <= oracle(np.zeros(2))[0]
    assert [k for k, _ in seen] == list(range(res.iterations + 1))
    assert all(np.any(x1 != x0) for (_, x0), (_, x1) in zip(seen, seen[1:]))
    assert np.array_equal(seen[-1][1], res.x)


# ---------------------------------------------------------------------- box

def test_box_solution_on_active_bound():
    # unconstrained minimizer sits at -1; with x >= 0 the KKT point is the
    # origin with gradient +1 pushing into the bound
    res = minimize_box(
        lambda x: (0.5 * (x[0] + 1.0) ** 2, np.array([x[0] + 1.0])),
        np.array([2.0]),
        np.array([0.0]),
    )
    assert res.reason == "converged"
    assert abs(res.x[0]) <= 1e-10
    assert res.grad_norm == pytest.approx(1.0, abs=1e-10)


def test_box_without_finite_bounds_matches_unconstrained():
    c = np.array([2.0, 3.0])

    def oracle(x):
        return 0.5 * float(np.sum((x - c) ** 2)), x - c

    free = minimize(oracle, np.zeros(2), LbfgsConfig(tol=1e-10))
    boxed = minimize_box(oracle, np.zeros(2), np.full(2, -np.inf), LbfgsConfig(tol=1e-10))
    assert np.array_equal(free.x, boxed.x)
    assert free.iterations == boxed.iterations
    assert free.f == boxed.f


def test_box_interior_solution_unaffected():
    c = np.array([2.0, 3.0])
    res = minimize_box(
        lambda x: (0.5 * float(np.sum((x - c) ** 2)), x - c),
        np.ones(2),
        np.zeros(2),
    )
    assert res.reason == "converged"
    assert_allclose(res.x, c, atol=1e-8)


def test_box_partially_active_solution():
    c = np.array([-1.0, 2.0])
    res = minimize_box(
        lambda x: (0.5 * float(np.sum((x - c) ** 2)), x - c),
        np.ones(2),
        np.zeros(2),
    )
    assert res.reason == "converged"
    assert_allclose(res.x, [0.0, 2.0], atol=1e-8)
