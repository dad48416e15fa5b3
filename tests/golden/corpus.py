"""Golden trajectories: a fixed matrix of library runs, one SHA-256 per case.

Each case runs one solver configuration on one problem and hashes what the
run produced: every :class:`RunReport` field (the trace rows, the anchors and
the certified path included) or, when the run raises an
:class:`OracleError`, the error's type and message and its partial trace.
Integers hash as ``str``, floats as ``repr(float(x))``, so any drift in a
single bit of any number moves the hash.  The ``cli/`` cases run
``restartagd`` commands in a fresh temporary directory with relative output
paths and hash their exit codes and the bytes of every file they write.

``tests/test_golden.py`` recomputes every hash and compares it with
``hashes.txt``.  Floating-point results depend on the Python, NumPy and SciPy
builds, so ``hashes.txt`` records them in its header and the test fails, with
a message naming both, when the running stack differs.

Regenerate the file from the repository root with::

    PYTHONPATH=src python tests/golden/corpus.py

and name in CHANGES.md every case whose hash moved, and why.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os
import platform
import sys
import tempfile

import numpy as np
import scipy

from restartagd import (CERTIFY_EVERY_ITER, GdParams, LL2022Params, OracleError,
                        RunReport, SolverParams, TerminationPolicy, cli, gd_run,
                        ll2022_run, make_problem, run)

HASHES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "hashes.txt")

PROBLEMS = ("rosenbrock", "quadratic", "cosine_sum", "matcomp_synthetic")
# The library default and an int-valued start, which the trace's L column
# must still print as a float.
L_INITS = (1e-3, 100)
# Termination policies: the gradient-norm target, an iteration count alone,
# and a call budget with an iteration cap.  The caps keep the corpus fast.
POLICIES = {
    "eps": TerminationPolicy(eps=1e-6, max_iterations=250),
    "iters": TerminationPolicy(max_iterations=40),
    "calls": TerminationPolicy(max_oracle_calls=150, max_iterations=250),
}


# The five solver configurations.  ll2022 takes l_init as its fixed L_f with
# M_f = 1; from l_init = 1e-3 its iterates overflow and its gradient turns
# non-finite on rosenbrock, quadratic and matcomp_synthetic.
SOLVERS = {
    "practical": lambda obj, x0, l, pol: run(obj, x0, SolverParams(l_init=l, termination=pol)),
    "theoretical": lambda obj, x0, l, pol: run(obj, x0, SolverParams(
        l_init=l, m_variant="theoretical", termination=pol)),
    "everyiter": lambda obj, x0, l, pol: run(obj, x0, SolverParams(
        l_init=l, termination=dataclasses.replace(pol, certify_mode=CERTIFY_EVERY_ITER))),
    "gd": lambda obj, x0, l, pol: gd_run(obj, x0, GdParams(l_init=l, termination=pol)),
    "ll2022": lambda obj, x0, l, pol: ll2022_run(obj, x0, LL2022Params(
        l_f=l, m_f=1, termination=pol)),
}


def _poisoned(obj, channel: str, after: int, bad: float):
    """``obj`` with its ``channel`` ("value_fn" or "grad_fn") returning ``bad``
    (in every entry, for a gradient) from its ``after``-th call on."""
    fn, calls = getattr(obj, channel), [0]

    def poisoned(x):
        calls[0] += 1
        out = fn(x)
        return out if calls[0] < after else out * 0.0 + bad

    return dataclasses.replace(obj, **{channel: poisoned})


# A small grid: one l_init, one m0, a call cap, two thresholds.
GRID_CONFIG = """grid:
  problem: rosenbrock
  solvers: [proposed, gd]
  l_init: [1000]
  m0: [1]
  max_oracle_calls: 5000
  thresholds: [1.0e-2, 1.0e-4]
"""

# CLI invocations: each case is a list of argv lists run in order.
CLI_CASES = {
    "run-proposed": [["run", "--problem", "rosenbrock", "--solver", "proposed",
                      "--l-init", "100", "--out", "out"]],
    "run-gd": [["run", "--problem", "rosenbrock", "--solver", "gd",
                "--l-init", "100", "--max-oracle-calls", "20000", "--out", "out"]],
    "grid": [["grid", "--config", "grid.yaml", "--out", "out"]],
    "plot": [["run", "--problem", "cosine_sum", "--solver", "proposed",
              "--max-iterations", "60", "--eps", "0", "--out", "out"],
             ["plot", "out/trace.csv", "--out", "fig/trace.svg", "--title", "golden"]],
    # A run whose last ~290 rows sit at a bitwise fixed point, where every
    # float column of the trace repeats the row before, written and read back.
    "fixedpoint": [["run", "--problem", "cosine_sum", "--eps", "0",
                    "--max-iterations", "400", "--out", "out"],
                   ["plot", "out/trace.csv", "--out", "fig/trace.svg"]],
    # Overflows to a non-finite gradient: exit 3 with a partial trace.
    "ll2022-overflow": [["run", "--problem", "rosenbrock", "--solver", "ll2022",
                         "--l-init", "0.001", "--out", "out"]],
    # That partial trace, whose last row holds an infinite gradient norm and
    # a huge objective value, plotted together with a gd trace.
    "plot-partial": [["run", "--problem", "rosenbrock", "--solver", "ll2022",
                      "--l-init", "0.001", "--out", "ll"],
                     ["run", "--problem", "rosenbrock", "--solver", "gd", "--l-init", "100",
                      "--max-oracle-calls", "2000", "--out", "gd"],
                     ["plot", "ll/trace.csv", "gd/trace.csv", "--out", "fig/two.svg"]],
    # ll2022 records no anchors: its report.json holds an empty list.
    "ll2022-no-anchors": [["run", "--problem", "quadratic", "--solver", "ll2022",
                           "--l-init", "4", "--out", "out"]],
}


def _cli_outcome(commands) -> str:
    """Run ``cli.main`` on each argv of ``commands`` inside a fresh temporary
    directory and return the exit codes and every file written there (the
    grid config aside), as text."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("grid.yaml", "w", encoding="utf-8") as fh:
                fh.write(GRID_CONFIG)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes = [cli.main(argv) for argv in commands]
            paths = sorted(os.path.relpath(os.path.join(root, name))
                           for root, _, names in os.walk(".") for name in names)
            parts = [f"exit {codes}"]
            for path in paths:
                if path != "grid.yaml":
                    with open(path, "rb") as fh:
                        parts.append(f"{path}\n{hashlib.sha256(fh.read()).hexdigest()}")
        finally:
            os.chdir(cwd)
    return "\n".join(parts)


def cases():
    """Yield ``(case_id, thunk)``; calling the thunk runs the case and returns
    its report, the :class:`OracleError` it raised, or a CLI case's text."""
    for problem in PROBLEMS:
        spec = make_problem(problem)
        for solver, solve in SOLVERS.items():
            for l_init in L_INITS:
                for pname, pol in POLICIES.items():
                    yield (f"{problem}/{solver}/l{l_init!r}/{pname}",
                           lambda s=solve, o=spec.objective, x=spec.x_init, l=l_init, p=pol:
                           s(o, x, l, p))
    # Runs past a bitwise fixed point, where every request is a memo hit.
    spec = make_problem("cosine_sum")
    pol = TerminationPolicy(max_iterations=120)
    for solver, solve in SOLVERS.items():
        yield (f"fixed-point/{solver}",
               lambda s=solve, o=spec.objective, x=spec.x_init, p=pol: s(o, x, 1e-3, p))
    # Non-finite values and gradients injected partway through a run.
    spec = make_problem("cosine_sum", dim=4)
    pol = POLICIES["eps"]
    for solver, solve in SOLVERS.items():
        for channel, after, bad in (("value_fn", 7, float("nan")),
                                    ("grad_fn", 9, float("nan")),
                                    ("grad_fn", 12, float("inf"))):
            obj = _poisoned(spec.objective, channel, after, bad)
            yield (f"poison/{solver}/{channel}@{after}={bad!r}",
                   lambda s=solve, o=obj, x=spec.x_init, p=pol: s(o, x, 3.0, p))
    for name, commands in CLI_CASES.items():
        yield f"cli/{name}", lambda c=commands: _cli_outcome(c)


def _enc(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (str, int, np.integer)):
        return str(v)
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if dataclasses.is_dataclass(v):
        return "(" + ",".join(_enc(getattr(v, f.name)) for f in dataclasses.fields(v)) + ")"
    return "[" + ",".join(_enc(item) for item in v) + "]"


def digest(outcome) -> str:
    """SHA-256 of a run's report, of the error it raised and its partial
    trace, or of a CLI case's text."""
    if isinstance(outcome, str):
        text = outcome
    elif isinstance(outcome, RunReport):
        text = _enc(outcome)
    else:
        text = "\n".join((type(outcome).__name__, str(outcome),
                          _enc(outcome.partial_trace)))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compute() -> dict:
    out = {}
    for case_id, thunk in cases():
        try:
            outcome = thunk()
        except OracleError as exc:
            outcome = exc
        out[case_id] = digest(outcome)
    return out


def environment() -> str:
    return (f"python {platform.python_version()} numpy {np.__version__} "
            f"scipy {scipy.__version__} machine {platform.machine()}")


def load():
    """``(environment line, {case_id: hash})`` from ``hashes.txt``."""
    env, hashes = "", {}
    with open(HASHES, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# environment: "):
                env = line[len("# environment: "):].strip()
            elif line.strip() and not line.startswith("#"):
                case_id, value = line.split()
                hashes[case_id] = value
    return env, hashes


def write(hashes: dict) -> None:
    with open(HASHES, "w", encoding="utf-8") as fh:
        fh.write("# Golden trajectory hashes; see corpus.py.  Regenerate with\n"
                 "#   PYTHONPATH=src python tests/golden/corpus.py\n"
                 f"# environment: {environment()}\n")
        for case_id, value in hashes.items():
            fh.write(f"{case_id} {value}\n")


if __name__ == "__main__":
    result = compute()
    write(result)
    print(f"wrote {len(result)} cases to {HASHES}", file=sys.stderr)
