"""Problem construction, parsing, generators, and objective evaluation."""

import io

import numpy as np
import pytest
import scipy.sparse
from numpy.testing import assert_allclose

from noncvxpro.problems import (
    BeckmannProblem,
    InfeasibleAtLambdaZero,
    MultiTaskProblem,
    ParseError,
    Problem,
    SelfLoop,
    format_libsvm,
    graph_incidence,
    multitask_objective,
    parse_libsvm,
    primal_objective,
    standardize,
    synth_lasso,
)
from noncvxpro.regularizers import GroupL2, GroupStructure, L1


# ------------------------------------------------------------------ parsing

def test_parse_basic_line():
    X, y = parse_libsvm("1 1:0.5 3:2.0\n")
    assert_allclose(y, [1.0])
    assert X.shape == (1, 3)
    assert_allclose(X.toarray(), [[0.5, 0.0, 2.0]])


def test_parse_label_only_line():
    X, y = parse_libsvm("-1\n")
    assert_allclose(y, [-1.0])
    assert X.shape == (1, 0)


def test_parse_label_only_among_features():
    X, y = parse_libsvm("1 2:4.0\n-1\n")
    assert X.shape == (2, 2)
    assert_allclose(X.toarray(), [[0.0, 4.0], [0.0, 0.0]])


def test_parse_bad_token_reports_line():
    with pytest.raises(ParseError) as exc:
        parse_libsvm("1 a:b\n")
    assert exc.value.line == 1


def test_parse_rejects_nonincreasing_indices():
    with pytest.raises(ParseError) as exc:
        parse_libsvm("1 1:1.0\n-1 3:1.0 2:1.0\n")
    assert exc.value.line == 2


def test_parse_skips_blank_lines_and_accepts_files():
    X, y = parse_libsvm(io.StringIO("1 1:2.0\n\n0 2:3.0\n"))
    assert X.shape == (2, 2)
    assert_allclose(y, [1.0, 0.0])


def test_parse_format_round_trip():
    rng = np.random.default_rng(0)
    dense = rng.standard_normal((4, 6))
    dense[rng.random((4, 6)) < 0.5] = 0.0
    X = scipy.sparse.csr_matrix(dense)
    y = rng.standard_normal(4)
    X2, y2 = parse_libsvm(format_libsvm(X, y))
    assert_allclose(y2, y)
    assert X2.shape[0] == 4
    got = np.zeros_like(dense)
    got[:, : X2.shape[1]] = X2.toarray()
    assert_allclose(got, dense)


# -------------------------------------------------------------- standardize

def test_standardize_hand_example():
    Xs, ys = standardize(np.array([[1.0], [3.0]]), np.array([0.0, 2.0]))
    assert_allclose(Xs, [[-0.5], [0.5]])
    assert_allclose(ys, [-0.5, 0.5])


def test_standardize_constant_column_becomes_zero():
    Xs, _ = standardize(np.array([[2.0, 1.0], [2.0, 3.0]]), np.zeros(2))
    assert_allclose(Xs[:, 0], [0.0, 0.0])


def test_standardize_centered_input_only_scales():
    X = np.array([[1.0], [-1.0]])
    y = np.array([2.0, -2.0])
    Xs, ys = standardize(X, y)
    assert_allclose(Xs, X / 2.0)
    assert_allclose(ys, y / 2.0)


# ------------------------------------------------------------- synth_lasso

def test_synth_lasso_phase_transition_shape():
    prob, beta_true = synth_lasso(140, 256, 40, seed=1)
    assert prob.X.shape == (140, 256)
    assert np.count_nonzero(beta_true) == 40
    assert_allclose(prob.y, prob.X @ beta_true)


def test_synth_lasso_zero_sparsity_gives_zero_target():
    prob, beta_true = synth_lasso(5, 8, 0, seed=2)
    assert_allclose(prob.y, np.zeros(5))
    assert_allclose(beta_true, np.zeros(8))


def test_synth_lasso_deterministic_per_seed():
    p1, b1 = synth_lasso(10, 12, 3, seed=7)
    p2, b2 = synth_lasso(10, 12, 3, seed=7)
    assert np.array_equal(p1.X, p2.X)
    assert np.array_equal(p1.y, p2.y)
    assert np.array_equal(b1, b2)
    assert p1.lam == p2.lam


# ---------------------------------------------------------------- incidence

def test_incidence_path_graph():
    X = graph_incidence([(0, 1), (1, 2)], 3)
    assert_allclose(X, [[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])


def test_incidence_single_edge():
    assert_allclose(graph_incidence([(0, 1)], 2), [[1.0], [-1.0]])


def test_incidence_columns_sum_to_zero():
    rng = np.random.default_rng(3)
    edges = [(int(i), int(j)) for i, j in rng.integers(0, 5, size=(8, 2)) if i != j]
    X = graph_incidence(edges, 5)
    assert_allclose(np.ones(5) @ X, np.zeros(len(edges)))


def test_incidence_rejects_self_loop():
    with pytest.raises(SelfLoop):
        graph_incidence([(1, 1)], 3)


def test_incidence_rejects_out_of_range():
    with pytest.raises(ValueError):
        graph_incidence([(0, 5)], 3)


# ----------------------------------------------------------------- problems

def test_problem_validates_shapes_and_lambda():
    with pytest.raises(ValueError):
        Problem(np.eye(3), np.ones(2), 1.0, L1())
    with pytest.raises(ValueError):
        Problem(np.eye(2), np.ones(2), -0.5, L1())


def test_problem_lambda_zero_needs_reachable_target():
    X = np.array([[1.0], [0.0]])
    with pytest.raises(InfeasibleAtLambdaZero):
        Problem(X, np.array([0.0, 1.0]), 0.0, L1())
    Problem(X, np.array([2.0, 0.0]), 0.0, L1())  # reachable: fine


def test_multitask_validation():
    rng = np.random.default_rng(4)
    Xs = [rng.standard_normal((4, 3)), rng.standard_normal((5, 3))]
    ys = [rng.standard_normal(4), rng.standard_normal(5)]
    mt = MultiTaskProblem(Xs, ys, lam=0.5)
    assert mt.T == 2 and mt.n == 3
    with pytest.raises(ValueError):
        MultiTaskProblem(Xs, ys, lam=0.0)
    with pytest.raises(ValueError):
        MultiTaskProblem([rng.standard_normal((4, 3)), rng.standard_normal((5, 2))], ys, lam=1.0)


def test_beckmann_conservation_check():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 0.0, 1.0])
    bp = BeckmannProblem(3, [(0, 1), (1, 2)], a, b)
    assert_allclose(bp.y, a - b)
    with pytest.raises(ValueError):
        BeckmannProblem(3, [(0, 1), (1, 2)], a, 2.0 * b)


def test_beckmann_to_problem_is_constrained():
    bp = BeckmannProblem(3, [(0, 1), (1, 2)], np.array([1.0, 0, 0]), np.array([0, 0, 1.0]))
    p = bp.to_problem()
    assert p.lam == 0.0
    assert isinstance(p.reg, L1)
    p2 = bp.to_problem(GroupStructure.contiguous(2, 1))
    assert isinstance(p2.reg, GroupL2)


# ---------------------------------------------------------------- objective

def test_objective_scalar_anchor():
    prob = Problem(np.array([[1.0]]), np.array([2.0]), 1.0, L1())
    assert primal_objective(prob, np.array([1.0])) == pytest.approx(1.5, abs=1e-15)


def test_objective_at_zero_is_fit_term():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, 4))
    y = rng.standard_normal(6)
    prob = Problem(X, y, 0.7, L1())
    assert primal_objective(prob, np.zeros(4)) == pytest.approx(float(y @ y) / 1.4)


def test_objective_lambda_zero_feasible_is_r_value():
    X = np.array([[1.0, 1.0]])
    prob = Problem(X, np.array([1.0]), 0.0, L1())
    beta = np.array([0.25, 0.75])
    assert primal_objective(prob, beta) == pytest.approx(1.0)


def test_objective_lambda_zero_infeasible_raises():
    X = np.array([[1.0, 1.0]])
    prob = Problem(X, np.array([1.0]), 0.0, L1())
    with pytest.raises(InfeasibleAtLambdaZero):
        primal_objective(prob, np.array([5.0, 5.0]))


def test_objective_convex_along_segments():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((8, 5))
    y = rng.standard_normal(8)
    prob = Problem(X, y, 0.3, GroupL2(GroupStructure.contiguous(5, 2)))
    for _ in range(20):
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        mid = primal_objective(prob, 0.5 * (a + b))
        avg = 0.5 * (primal_objective(prob, a) + primal_objective(prob, b))
        assert mid <= avg + 1e-12


def test_multitask_objective_scalar_case():
    mt = MultiTaskProblem([np.array([[1.0]])], [np.array([2.0])], lam=1.0)
    B = np.array([[1.0]])
    assert multitask_objective(mt, B) == pytest.approx(1.5)
