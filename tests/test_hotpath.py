"""Hot-path counts of one solve: one inner evaluation per oracle call (T task solves on
the trace-norm route), no group builds, and the Gram matrix formed only on the
n-sized route."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from noncvxpro import bench, varpro
from noncvxpro.bench import BenchConfig, load_problem, run_noncvxpro
from noncvxpro.regularizers import GroupStructure
from noncvxpro.varpro import eval_state, f_and_grad_matrix, recover_beta


@pytest.mark.parametrize("problem, reg, groups", [
    ("synth:m=30,n=60,s=4", "l1", 0),  # wide: the m-sized dual route
    ("synth:m=60,n=40,s=4", "group", 8),  # tall: the n-sized primal route
])
def test_solve_evaluates_once_per_oracle_call(monkeypatch, problem, reg, groups):
    prob = load_problem(BenchConfig(problem=problem, reg=reg, groups=groups, seed=3))
    assert prob.groups is prob.groups
    evals, builds = [], []
    inner_eval, inner_init = bench.eval_state, GroupStructure.__init__

    def counting_eval(*args, **kwargs):
        evals.append(1)
        return inner_eval(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        inner_init(self, *args, **kwargs)

    monkeypatch.setattr(bench, "eval_state", counting_eval)
    monkeypatch.setattr(GroupStructure, "__init__", counting_init)
    tr = run_noncvxpro(prob, seed=3)
    monkeypatch.undo()
    assert ("gram" in vars(prob)) is (prob.m > prob.n)  # the n x n Gram only on the n-sized route
    res = tr.aux["result"]
    assert res.iterations > 5
    assert len(evals) == res.nfev
    assert builds == []
    assert_array_equal(tr.beta, recover_beta(prob, res.x, u=eval_state(prob, res.x).u))


def test_state_reader_evaluates_points_other_than_the_last():
    prob = load_problem(BenchConfig(problem="synth:m=20,n=30,s=3", seed=4))
    oracle, state_at = bench._state_oracle(prob)
    rng = np.random.default_rng(4)
    v1, v2 = rng.standard_normal(prob.n), rng.standard_normal(prob.n)
    oracle(v1)
    f2, _ = oracle(v2)
    assert state_at(v2.copy()).f == f2
    assert_array_equal(state_at(v1).grad, eval_state(prob, v1).grad)


def test_trace_norm_solve_makes_one_task_solve_per_task_and_oracle_call(monkeypatch):
    mt = load_problem(BenchConfig(problem="mt:t=3,m=12,n=6", seed=1))
    solves = []
    inner = varpro.solve_spd

    def counting_solve(*args, **kwargs):
        solves.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(varpro, "solve_spd", counting_solve)
    tr = run_noncvxpro(mt, seed=1)
    monkeypatch.undo()
    res = tr.aux["result"]
    assert res.iterations > 5
    assert len(solves) == mt.T * res.nfev
    assert_array_equal(tr.beta, f_and_grad_matrix(mt, res.x.reshape(mt.n, mt.n))[2])
