"""Benchmark orchestration tests: config, problem loading, races, CSV, phase table."""

import csv

import numpy as np
import pytest
from numpy.testing import assert_allclose

from noncvxpro.bench import (
    BenchConfig,
    ConfigError,
    PhaseTable,
    ProblemLoadError,
    _runner,
    emit_csv,
    emit_phase_csv,
    load_problem,
    lq_phase_experiment,
    run_benchmark,
    run_noncvxpro,
)
from noncvxpro import baselines, linalg
from noncvxpro.baselines import chambolle_pock_bp, coordinate_descent_lasso, douglas_rachford_bp
from noncvxpro.lbfgs import LbfgsConfig
from noncvxpro.problems import MultiTaskProblem, Problem
from noncvxpro.regularizers import L1, GroupL2, Lq, lambda_max

from _oracles import affine_projection_reference, random_group_problem


def scalar_problem():
    return Problem(np.array([[1.0]]), np.array([2.0]), 1.0, L1())


# -------------------------------------------------------------------- config

def test_config_rejects_empty_solvers():
    with pytest.raises(ConfigError):
        BenchConfig(problem="synth:m=4,n=4", solvers=())


def test_config_rejects_bad_lambda():
    with pytest.raises(ConfigError):
        BenchConfig(problem="synth:m=4,n=4", lambda_frac=0.0)
    with pytest.raises(ConfigError):
        BenchConfig(problem="synth:m=4,n=4", lambda_abs=-1.0)


def test_unknown_solver_raises():
    with pytest.raises(ConfigError):
        _runner("unheard-of")
    cfg = BenchConfig(problem="synth:m=6,n=4", solvers=("unheard-of",))
    with pytest.raises(ConfigError):
        run_benchmark(cfg)


# ----------------------------------------------------------- problem loading

def test_synth_problem_has_default_lambda_fraction():
    cfg = BenchConfig(problem="synth:m=20,n=40,s=5", seed=3)
    prob = load_problem(cfg)
    assert prob.X.shape == (20, 40)
    assert prob.lam == pytest.approx(lambda_max(prob.X, prob.y, L1()) / 10.0)


def test_synth_load_builds_one_problem(monkeypatch):
    # the data checks (finiteness, and feasibility at lam = 0) run once per load
    built = []
    post_init = Problem.__post_init__

    def counting(self):
        built.append(self.lam)
        post_init(self)

    monkeypatch.setattr(Problem, "__post_init__", counting)
    for cfg in (BenchConfig(problem="synth:m=20,n=40,s=5", seed=3),
                BenchConfig(problem="synth:m=20,n=40,s=5", seed=3, lambda_abs=0.0)):
        built.clear()
        prob = load_problem(cfg)
        assert built == [prob.lam]


def test_absolute_lambda_wins_over_fraction():
    cfg = BenchConfig(problem="synth:m=10,n=8,s=2", lambda_frac=5.0, lambda_abs=0.3)
    assert load_problem(cfg).lam == 0.3


def test_graph_problem_is_constrained(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n1 2\n2 3\n")
    prob = load_problem(BenchConfig(problem=f"graph:{path}"))
    assert prob.lam == 0.0
    assert prob.X.shape == (4, 3)
    assert prob.y.sum() == pytest.approx(0.0)
    # unit supply at the default source, unit demand at the default sink
    assert prob.y[0] == 1.0 and prob.y[-1] == -1.0


def test_graph_problem_takes_the_configured_regularizer(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n1 2\n2 3\n0 2\n")
    assert isinstance(load_problem(BenchConfig(problem=f"graph:{path}", reg="lq:0.8")).reg, Lq)
    grouped = load_problem(BenchConfig(problem=f"graph:{path}", reg="group", groups=2)).reg
    assert isinstance(grouped, GroupL2) and grouped.groups.k == 2


def test_libsvm_problem_loading(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("1 1:0.5 2:1.0\n-1 1:-0.5\n2 2:2.0\n")
    prob = load_problem(BenchConfig(problem=f"libsvm:{path}", lambda_abs=0.1))
    assert prob.X.shape == (3, 2)
    assert prob.lam == 0.1
    # standardization centers the columns
    assert_allclose(np.asarray(prob.X).mean(axis=0), 0.0, atol=1e-12)


def test_multitask_problem_loading():
    mt = load_problem(BenchConfig(problem="mt:t=2,m=8,n=4", seed=1))
    assert isinstance(mt, MultiTaskProblem)
    assert mt.T == 2 and mt.n == 4
    assert mt.lam > 0


def test_missing_file_is_load_error():
    with pytest.raises(ProblemLoadError):
        load_problem(BenchConfig(problem="libsvm:/no/such/file"))
    with pytest.raises(ProblemLoadError):
        load_problem(BenchConfig(problem="synth:m=oops,n=4"))


def test_unknown_problem_kind():
    with pytest.raises(ConfigError):
        load_problem(BenchConfig(problem="carrier-pigeon:n=4"))


# ------------------------------------------------------------------- runners

def test_all_regularized_runners_reach_scalar_optimum():
    # every lam > 0 entry in the solver table lands on the known scalar
    # optimum 1.5 (the reweighting route carries only an O(eps) bias in
    # the objective, far below the tolerance)
    names = ["noncvx-pro", "ista", "fista-bb", "cd", "irls", "altmin", "quad-var", "lbfgsb-split"]
    for name in names:
        tr = _runner(name)(scalar_problem(), iters=500)
        assert tr.objectives[-1] == pytest.approx(1.5, abs=1e-6), name


def test_run_noncvxpro_agrees_with_certified_optimum():
    prob = random_group_problem(np.random.default_rng(14), m_max=15, n_max=12)
    f_cd = coordinate_descent_lasso(prob, iters=5000, tol=1e-12).objectives[-1]
    tr = run_noncvxpro(prob, seed=0, iters=500)
    assert tr.objectives[-1] == pytest.approx(f_cd, rel=1e-6, abs=1e-9)


def test_run_noncvxpro_multitask_shape_and_descent():
    rng = np.random.default_rng(15)
    Xs = [rng.standard_normal((8, 4)) for _ in range(3)]
    ys = [rng.standard_normal(8) for _ in range(3)]
    mt = MultiTaskProblem(Xs, ys, 0.5)
    tr = run_noncvxpro(mt, seed=2, iters=300)
    assert tr.beta.shape == (4, 3)
    assert tr.objectives[-1] <= tr.objectives[0]


# --------------------------------------------------------------------- races

def test_budget_zero_keeps_only_the_initial_sample():
    # every race entry, on the lam > 0, the lam = 0 and the trace-norm races
    races = [
        ("synth:m=10,n=8,s=2", None,
         ("cd", "ista", "fista-bb", "noncvx-pro", "irls", "altmin", "quad-var", "lbfgsb-split")),
        ("synth:m=6,n=12,s=2", 0.0, ("noncvx-pro", "dr", "cp")),
        ("mt:t=2,m=8,n=4", None, ("noncvx-pro", "irls-matrix")),
    ]
    for problem, lam, solvers in races:
        cfg = BenchConfig(problem=problem, lambda_abs=lam, solvers=solvers, budget_s=0.0, seed=0)
        rep = run_benchmark(cfg)
        assert not rep.failures, problem
        assert [tr.name for tr in rep.traces] == list(solvers)
        for tr in rep.traces:
            assert tr.iterations == [0], tr.name
            assert len(tr.objectives) == 1


@pytest.mark.parametrize("base", [3000, 5000])
def test_lam_zero_races_print_nothing_and_fail_nothing(capfd, base):
    # the lq-phase benchmark's race instances of seeds 3 and 5: no solver
    # fails, and no library message (such as LAPACK's on non-finite input,
    # which libc flushes at exit, after the result line) reaches fd 1 or 2
    for seed in range(base, base + 8):
        cfg = BenchConfig(problem="synth:m=60,n=200,s=8", lambda_frac=None, lambda_abs=0.0,
                          solvers=("noncvx-pro", "dr", "cp"), iters=3000, seed=seed)
        rep = run_benchmark(cfg)
        assert not rep.failures, (seed, rep.failures)
        assert [tr.name for tr in rep.traces] == ["noncvx-pro", "dr", "cp"]
        for tr in rep.traces:
            assert tr.beta is not None and np.isfinite(tr.beta).all(), (seed, tr.name)
    assert capfd.readouterr() == ("", "")


def test_report_rows_and_f_star():
    cfg = BenchConfig(problem="synth:m=12,n=10,s=3", solvers=("cd", "fista-bb"), seed=0)
    rep = run_benchmark(cfg)
    assert not rep.failures
    assert not rep.flags
    best = min(min(tr.objectives) for tr in rep.traces)
    assert rep.f_star == best
    rows = list(rep.rows())
    assert len(rows) == sum(len(tr.objectives) for tr in rep.traces)
    for _, _, _, obj, sub in rows:
        assert sub == obj - rep.f_star
        assert sub >= 0.0


def test_underbudgeted_solver_is_flagged():
    cfg = BenchConfig(problem="synth:m=12,n=10,s=3", solvers=("cd", "ista"), iters=3, seed=0)
    rep = run_benchmark(cfg)
    assert any("ista" in flag for flag in rep.flags)


def test_solver_failure_is_recorded_not_fatal():
    # the constrained-only splitting method rejects a lam > 0 problem
    cfg = BenchConfig(problem="synth:m=12,n=10,s=3", solvers=("cd", "dr"), seed=0)
    rep = run_benchmark(cfg)
    assert list(rep.failures) == ["dr"]
    assert [tr.name for tr in rep.traces] == ["cd"]


def test_race_iters_caps_box_constrained_solvers():
    # both need far more than 5 iterations here (131 and 90 samples uncapped)
    cfg = BenchConfig(problem="synth:m=60,n=120,s=6", solvers=("quad-var", "lbfgsb-split"), iters=5)
    rep = run_benchmark(cfg)
    assert [tr.name for tr in rep.traces] == ["quad-var", "lbfgsb-split"]
    for tr in rep.traces:
        assert tr.aux["result"].iterations == 5
        assert len(tr.objectives) <= 6


def test_explicit_lbfgs_config_overrides_race_iters():
    cfg = BenchConfig(problem="synth:m=60,n=120,s=6", solvers=("lbfgsb-split",), iters=5,
                      solver_configs={"lbfgsb-split": {"config": LbfgsConfig(max_iters=8)}})
    assert run_benchmark(cfg).traces[0].aux["result"].iterations == 8


def test_same_seed_reproduces_random_start_solvers():
    cfg = BenchConfig(
        problem="synth:m=10,n=8,s=2", solvers=("noncvx-pro", "altmin"), seed=7, iters=100
    )
    r1 = run_benchmark(cfg)
    r2 = run_benchmark(cfg)
    for t1, t2 in zip(r1.traces, r2.traces):
        assert t1.objectives == t2.objectives


# ----------------------------------------------------------------------- csv

def test_csv_round_trips_bit_exact(tmp_path):
    cfg = BenchConfig(problem="synth:m=10,n=8,s=2", solvers=("cd",), seed=0, iters=50)
    rep = run_benchmark(cfg)
    out = tmp_path / "race.csv"
    emit_csv(rep, str(out))
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["solver", "iteration", "time_s", "objective", "suboptimality"]
    body = rows[1:]
    expect = list(rep.rows())
    assert len(body) == len(expect)
    for got, (solver, it, t, obj, sub) in zip(body, expect):
        assert got[0] == solver
        assert int(got[1]) == it
        assert float(got[2]) == t
        assert float(got[3]) == obj
        assert float(got[4]) == sub


def test_csv_with_zero_budget_is_header_plus_one_row(tmp_path):
    cfg = BenchConfig(problem="synth:m=8,n=6,s=2", solvers=("cd",), budget_s=0.0, seed=0)
    out = tmp_path / "tiny.csv"
    emit_csv(run_benchmark(cfg), str(out))
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2


# --------------------------------------------------------------- phase table

def test_phase_square_design_always_recovers():
    # at m = n the constraint pins down beta uniquely, so every converged
    # restart recovers the planted vector
    tab = lq_phase_experiment(6, 2, [6], [1.0], trials=3, restarts=5, seed=0)
    assert tab.success == {1.0: [3]}
    assert tab.trials == 3


def test_phase_zero_sparsity_always_recovers():
    tab = lq_phase_experiment(6, 0, [4], [0.8], trials=2, restarts=3, seed=1)
    assert tab.success == {0.8: [2]}


def test_phase_rejects_oversized_support():
    with pytest.raises(ValueError):
        lq_phase_experiment(6, 4, [4, 8], [1.0])


def test_lam_zero_path_writes_nothing_to_stdout_or_stderr(capfd, monkeypatch):
    # LAPACK reports an illegal argument by printing to fd 1 from C, where a
    # benchmark's last output line must be its JSON result; the sweep's
    # Cholesky failures fall back to the range solve, and the race adds the
    # feasibility lstsq and the DR/CP projector
    fallbacks = []
    range_solver = linalg.range_solver

    def counting(A):
        fallbacks.append(A.shape)
        return range_solver(A)

    monkeypatch.setattr(linalg, "range_solver", counting)
    tab = lq_phase_experiment(32, 5, [12, 16], [0.8, 1.0], trials=2, restarts=5, seed=1, max_iters=100)
    assert fallbacks
    cfg = BenchConfig(problem="synth:m=20,n=60,s=4", lambda_abs=0.0, solvers=("noncvx-pro", "dr", "cp"),
                      iters=300, seed=2)
    rep = run_benchmark(cfg)
    assert not rep.failures and len(rep.traces) == 3
    assert all(0 <= c <= 2 for c in tab.success[0.8] + tab.success[1.0])
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("seed", range(1000, 1008))
def test_splitting_traces_match_the_per_call_range_solve(monkeypatch, seed):
    # the lq-phase race instances at its 3000 iterations: the operator
    # formed once must trace what a checked range solve per projection did
    prob = load_problem(BenchConfig(problem="synth:m=60,n=200,s=8", lambda_abs=0.0, seed=seed))
    for solver in (douglas_rachford_bp, chambolle_pock_bp):
        tr = solver(prob, iters=3000)
        with monkeypatch.context() as mp:
            mp.setattr(baselines, "_AffineProjector", affine_projection_reference)
            ref = solver(prob, iters=3000)
        assert len(tr.objectives) == len(ref.objectives) == 3001
        assert_allclose(tr.objectives, ref.objectives, rtol=1e-12, atol=0)
        feas = np.linalg.norm(prob.X @ tr.beta - prob.y) / np.linalg.norm(prob.y)
        assert feas <= 1e-12, (solver.__name__, feas)


def test_phase_csv_layout(tmp_path):
    tab = PhaseTable([4, 8], [0.8, 1.0], 5, {0.8: [1, 4], 1.0: [0, 3]})
    out = tmp_path / "phase.csv"
    emit_phase_csv(tab, str(out))
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["m", "q", "successes", "trials"]
    assert rows[1:] == [
        ["4", "0.8", "1", "5"],
        ["8", "0.8", "4", "5"],
        ["4", "1.0", "0", "5"],
        ["8", "1.0", "3", "5"],
    ]
