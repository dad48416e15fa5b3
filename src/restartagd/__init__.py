"""Parameter-free restarted accelerated gradient descent for smooth
nonconvex minimization, with baseline solvers, built-in test problems,
sampled inequality checks, and a benchmark CLI.

The solver needs no curvature constants: it maintains working estimates of
the gradient Lipschitz constant and of the Hessian Lipschitz constant, and
restarts itself whenever an internally checkable progress condition fails.
"""

import sys

from .baselines import GdParams, LL2022Params, gd_run, ll2022_run
from .checks import (InequalityReport, WeightError, check_descent_lemma,
                     check_jensen_gradient, check_trapezoid)
from .oracle import (NonFiniteGradient, NonFiniteValue, Objective,
                     ObjectiveRaised, OracleError, OracleSession, as_point)
from .problems import (DATA_ENV_VAR, PROBLEM_NAMES, MatrixCompletionInstance,
                       ProblemSpec, completion_init, cosine_sum, load_movielens_100k,
                       make_problem, matrix_completion, quadratic, rosenbrock,
                       synthetic_completion_instance)
from .solver import (CERTIFY_EVERY_ITER, CERTIFY_ON_CANDIDATE, M_PRACTICAL,
                     M_THEORETICAL, ParamError, SolverParams, TerminationPolicy, run)
from .trace import (REPORT_SCHEMA, RunReport, Trace, TraceRecord,
                    read_trace_csv, report_to_dict, write_report_json,
                    write_trace_csv)

__version__ = "0.1.0"

# The exports: every public name imported above; the submodules are not.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, type(sys)))
