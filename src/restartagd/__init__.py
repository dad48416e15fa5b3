"""Parameter-free restarted accelerated gradient descent for smooth
nonconvex minimization, with baseline solvers, built-in test problems,
sampled inequality checks, and a benchmark CLI.

The solver needs no curvature constants: it maintains working estimates of
the gradient Lipschitz constant and of the Hessian Lipschitz constant, and
restarts itself whenever an internally checkable progress condition fails.
"""

from .baselines import GdParams, LL2022Params, gd_run, ll2022_run
from .checks import (InequalityReport, WeightError, check_descent_lemma,
                     check_jensen_gradient, check_trapezoid)
from .oracle import (NonFiniteGradient, NonFiniteValue, Objective,
                     ObjectiveRaised, OracleError, OracleSession, as_point)
from .problems import (DATA_ENV_VAR, PROBLEM_NAMES, DimensionError,
                       MatrixCompletionInstance, ParseError, ProblemSpec,
                       completion_init, cosine_sum, load_movielens_100k,
                       make_problem, matrix_completion, quadratic, rosenbrock,
                       synthetic_completion_instance)
from .solver import (CERTIFY_EVERY_ITER, CERTIFY_ON_CANDIDATE, M_PRACTICAL,
                     M_THEORETICAL, ParamError, SolverParams, TerminationPolicy, run)
from .trace import (REPORT_SCHEMA, RunReport, Trace, TraceRecord,
                    read_trace_csv, report_to_dict, write_report_json,
                    write_trace_csv)

__version__ = "0.1.0"

__all__ = [
    "CERTIFY_EVERY_ITER", "CERTIFY_ON_CANDIDATE", "DATA_ENV_VAR",
    "DimensionError", "GdParams", "InequalityReport",
    "LL2022Params", "M_PRACTICAL", "M_THEORETICAL",
    "MatrixCompletionInstance", "NonFiniteGradient", "NonFiniteValue",
    "Objective", "ObjectiveRaised", "OracleError", "OracleSession", "PROBLEM_NAMES",
    "ParamError", "ParseError", "ProblemSpec", "REPORT_SCHEMA", "RunReport",
    "SolverParams", "TerminationPolicy", "Trace", "TraceRecord", "WeightError",
    "as_point", "check_descent_lemma", "check_jensen_gradient",
    "check_trapezoid", "completion_init", "cosine_sum", "gd_run",
    "ll2022_run", "load_movielens_100k", "make_problem", "matrix_completion",
    "quadratic", "read_trace_csv", "report_to_dict", "rosenbrock", "run",
    "synthetic_completion_instance", "write_report_json", "write_trace_csv",
]
