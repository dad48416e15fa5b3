"""One-line mutants of the package that the tests must kill, and their runner.

Each mutant names a file of the repository, a snippet that occurs exactly
once in it, the snippet's replacement and why the tests should notice.  For
each mutant chosen, the runner copies the repository to a temporary
directory, applies the mutant there, runs the Tier-1 tests with ``-x`` and
prints ``killed`` or ``survived`` with the seconds taken.  The runner's own
tests are left out of the copy: they check each listed snippet is in its
file, so they would fail on every mutated copy.  A test run that passes 300 s
is stopped and counts as killed: a mutant that hangs a test is one the tests
notice.  The working tree is never changed.

Run from anywhere::

    python3 tools/mutants.py                  # every mutant against Tier-1
    python3 tools/mutants.py NAME ... [--tests PATH ...]

It exits 0 when every mutant run is killed, 1 when one survives, and 2 when
a snippet is not found exactly once or pytest itself cannot run.  The whole
list takes minutes, so it is kept out of Tier-1: a change to ``src/`` runs
the mutants of the files it touches.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
# Left out of the copy: history, caches, run output and the runner's own tests.
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.egg-info", "runs",
                               ".bench_run", "test_mutants.py")


class Mutant(NamedTuple):
    name: str
    path: str      # relative to the repository root
    snippet: str   # occurs exactly once in the file
    replacement: str
    reason: str    # what the tests should notice


MUTANTS = [
    Mutant("overflow-is-non-finite", "src/restartagd/oracle.py",
           "if not math.isfinite(norm) and not np.isfinite(g).all():",
           "if not math.isfinite(norm):",
           "a finite gradient whose norm overflows is refused as non-finite"),
    Mutant("lower-bound-slack", "src/restartagd/oracle.py",
           "v < lb - 1e-9 * (1.0 + abs(lb))", "v < lb - 1e-3 * (1.0 + abs(lb))",
           "a value 1e-6 under a lower bound of 0 is accepted"),
    Mutant("first-noise-guard", "src/restartagd/solver.py",
           "if num1 > _NOISE_GUARD * noise1:", "if num1 > 0.0:",
           "update_m's trapezoid ratio takes cancellation noise for curvature"),
    Mutant("certified-path-not-strict", "src/restartagd/solver.py",
           "if m.best.norm < norms[-1]:", "if m.best.norm <= norms[-1]:",
           "the certified path gains a point where the norm did not fall"),
    Mutant("clock-strict", "src/restartagd/solver.py",
           "time.perf_counter() - t0 >= pol.max_seconds",
           "time.perf_counter() - t0 > pol.max_seconds",
           "a clock reading exactly max_seconds no longer ends the run"),
    Mutant("gd-l-floor", "src/restartagd/baselines.py",
           "self.L = max(p.beta * trial_L, p.l_init)", "self.L = p.beta * trial_L",
           "gd's L falls below l_init after accepted steps"),
    Mutant("ll2022-typeerror-is-nan", "src/restartagd/baselines.py",
           "except (ArithmeticError, ValueError):",
           "except (ArithmeticError, ValueError, TypeError):",
           "ll2022's diagnostic hides a value_fn that raises TypeError"),
    Mutant("filled-not-extended", "src/restartagd/trace.py",
           "self.filled = (first if stop == start else start, start + n)",
           "self.filled = (start, start + n)",
           "two fills back to back keep only the second one's range"),
    Mutant("stationary-never", "src/restartagd/solver.py",
           "if m.base.norm == 0.0:", "if m.base.norm < 0.0:",
           "a zero gradient at the base point no longer ends the run as Stationary"),
    Mutant("eps-strict", "src/restartagd/solver.py",
           "if pol.eps is not None and m.best.norm <= pol.eps:",
           "if pol.eps is not None and m.best.norm < pol.eps:",
           "a certified norm exactly eps no longer ends the run"),
    Mutant("call-budget-strict", "src/restartagd/solver.py",
           "session.n_oracle >= pol.max_oracle_calls", "session.n_oracle > pol.max_oracle_calls",
           "a run steps on with its call budget spent"),
    Mutant("iteration-budget-strict", "src/restartagd/solver.py",
           "len(trace) >= pol.max_iterations", "len(trace) > pol.max_iterations",
           "a run writes one row past its iteration budget"),
    Mutant("fill-with-displacement", "src/restartagd/solver.py",
           "if observer is None and trace.S_k[-1] == 0.0:", "if observer is None:",
           "a stalled run with S_k > 0 is filled past the restart stepping would make"),
    Mutant("stalled-with-ybar", "src/restartagd/solver.py",
           "s == 0.0 and ybar is None and one_point(", "s == 0.0 and one_point(",
           "a proposed row that evaluated its averaged point counts as stalled"),
    Mutant("no-ybar-at-restart", "src/restartagd/solver.py",
           'pol.certify_mode == CERTIFY_EVERY_ITER or kind != "Step"',
           "pol.certify_mode == CERTIFY_EVERY_ITER",
           "an epoch ends without evaluating its averaged point"),
    Mutant("any-row-repeats", "src/restartagd/trace.py",
           'if line.endswith(tail) and line == f"{K},{epoch},{k},{tail}":',
           "if line.endswith(tail):",
           "read_trace_csv folds a row whose K, epoch or k breaks the repeat"),
    Mutant("gd-params-unchecked", "src/restartagd/solver.py",
           "        super().__post_init__()\n", "",
           "SolverParams no longer checks l_init, alpha and beta"),
    Mutant("points-never-forgotten", "src/restartagd/problems.py",
           "    weakref.finalize(evaluate, _forget, token)\n", "",
           "a collected completion objective's cache entries stay"),
    Mutant("ticks-never-stop", "src/restartagd/svgplot.py",
           "        if t + step == t:", "        if False:",
           "plot never returns on a range about one ulp wide"),
]


def apply(mutant: Mutant, root: Path) -> None:
    """Write ``mutant`` into the copy of the repository at ``root``."""
    path = root / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.snippet) != 1:
        raise ValueError(f"{mutant.name}: snippet found {text.count(mutant.snippet)} "
                         f"times in {mutant.path}, not once")
    path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")


def run(mutant: Mutant, tests=(), timeout: float = 300.0) -> tuple:
    """``(verdict, seconds)`` of ``mutant`` against ``tests`` (paths relative
    to the repository root; all of Tier-1 when empty).  The verdict is
    ``"killed"``, ``"killed (timeout)"`` or ``"survived"``."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        apply(mutant, copy)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
            filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")])))
        start = time.perf_counter()
        # A session of its own, so that a timeout stops any worker a test started.
        proc = subprocess.Popen([sys.executable, *TIER1, *tests], cwd=copy, env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            code = proc.wait(timeout)
        except subprocess.TimeoutExpired:
            code = None
        finally:  # on a timeout, and on Ctrl-C too: leave no test run behind
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        seconds = time.perf_counter() - start
    if code is None:
        return "killed (timeout)", seconds
    if code not in (0, 1):
        raise RuntimeError(f"{mutant.name}: pytest exited {code}")
    return ("survived" if code == 0 else "killed"), seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--tests", nargs="+", default=[],
                        help="test paths to run (default: all of Tier-1)")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [by_name[name] for name in args.names] or MUTANTS
    survived = 0
    for mutant in chosen:
        try:
            verdict, seconds = run(mutant, args.tests)
        except (ValueError, RuntimeError) as exc:
            print(exc, file=sys.stderr)
            return 2
        survived += verdict == "survived"
        print(f"{mutant.name:28s} {verdict:16s} {seconds:7.1f} s  {mutant.reason}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
