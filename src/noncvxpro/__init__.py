"""Smooth bilevel solvers and baselines for sparse regularized regression."""

__version__ = "0.1.0"

from .linalg import (
    Side,
    cholesky_solve,
    operator_norm_estimate,
    woodbury_side,
)
from .regularizers import (
    GroupStructure,
    L1,
    GroupL2,
    TraceNorm,
    Lq,
    lambda_max,
)
from .problems import (
    Problem,
    MultiTaskProblem,
    BeckmannProblem,
    parse_libsvm,
    standardize,
    synth_lasso,
    graph_incidence,
    primal_objective,
)
from .varpro import (
    VarProState,
    HessianBlocks,
    StationaryKind,
    inner_solve_primal,
    inner_solve_dual,
    recover_beta,
    f_and_grad,
    f_and_grad_matrix,
    hessian,
    classify_stationary,
)
from .lbfgs import LbfgsConfig, OptimResult, minimize, minimize_box
from .baselines import (
    SolverTrace,
    ista,
    fista_bb_restart,
    coordinate_descent_lasso,
    irls_vector,
    irls_matrix,
    altmin_noncvx,
    quad_variational,
    douglas_rachford_bp,
    chambolle_pock_bp,
    split_box_lasso,
)
from .bench import BenchConfig, BenchReport, run_benchmark, emit_csv, lq_phase_experiment
