"""Benchmark harness CLI: ``run`` one solve, ``grid`` a parameter sweep,
``plot`` traces to SVG, ``verify`` the smoothness inequalities by sampling.

Settings come from an optional YAML config file (sections named after the
subcommands) overridden by command-line flags; flags always win.  Exit codes:
0 success, 1 verify found a violated inequality, 2 bad configuration or an
output path that cannot be written, 3 the objective produced a non-finite
value or gradient.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import itertools
import math
import os
import sys
from typing import Any, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import baselines, checks
from . import solver as agd
from .oracle import OracleError
from .problems import PROBLEM_NAMES, ProblemSpec, make_problem
from .svgplot import write_traces_svg
from .trace import (RunReport, read_trace_csv, report_to_dict, write_report_json,
                    write_trace_csv)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_ORACLE = 3


class ConfigError(Exception):
    pass


class _Solver(NamedTuple):
    """A solver: the module and name of its entry point, looked up at call
    time, its params class and the setting each params field is read from.
    ``grid`` runs it once per m0 value when one of its fields reads ``m0``."""

    module: Any
    entry: str
    params: type
    fields: Dict[str, str]


SOLVERS = {
    "proposed": _Solver(agd, "run", agd.SolverParams, {
        "l_init": "l_init", "m0": "m0", "alpha": "alpha", "beta": "beta",
        "m_variant": "m_variant"}),
    "gd": _Solver(baselines, "gd_run", baselines.GdParams, {
        "l_init": "l_init", "alpha": "alpha", "beta": "beta"}),
    "ll2022": _Solver(baselines, "ll2022_run", baselines.LL2022Params, {
        "l_f": "l_init", "m_f": "m0", "eps": "ll_eps"}),
}


# Settings that ``run`` and every ``grid`` cell read the same way, each
# solver setting defaulting to the library's own default.
_SOLVE_DEFAULTS = {
    "problem": "rosenbrock",
    **{key: getattr(agd.SolverParams, key)
       for key in ("l_init", "m0", "alpha", "beta", "m_variant")},
    **dataclasses.asdict(agd.DEFAULT_TERMINATION),
    "ll_eps": baselines.LL2022Params.eps,
    "seed": 0,
    "dim": None,
    "lam": 1.0,
    "rank": None,
    "fraction": 0.3,
    "data_path": None,
}

RUN_DEFAULTS = {
    **_SOLVE_DEFAULTS,
    "solver": "proposed",
    "out": None,
}

GRID_DEFAULTS = {
    **_SOLVE_DEFAULTS,
    "solvers": ["proposed", "gd"],
    "l_init": [1e2, 1e3, 1e4],
    "m0": [1.0, 10.0, 100.0],
    "thresholds": [1e-2, 1e-4, 1e-6],
    "out": "runs/grid",
}

VERIFY_DEFAULTS = {
    "problems": ["quadratic", "cosine_sum", "rosenbrock"],
    "samples": 10_000,
    "seed": 0,
    "box": 10.0,
    "l_scale": 1.0,
    "m_scale": 1.0,
    "dim": None,
    "lam": 1.0,
}


def _load_config(path: Optional[str], section: str) -> dict:
    if path is None:
        return {}
    import yaml  # only a run given --config pays for loading the parser

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"could not parse {path}: {exc}")
    if doc is not None and not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    sec = {} if doc is None or doc.get(section) is None else doc[section]
    if not isinstance(sec, dict):
        raise ConfigError(f"{path}: section {section!r} must be a mapping")
    return sec


def _settings(defaults: dict, args: argparse.Namespace, section: str) -> dict:
    """``defaults`` overridden by the config file's ``section``, then by every
    command-line flag that names a setting and was given."""
    merged = dict(defaults)
    for key, val in _load_config(args.config, section).items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = val
    for key, val in vars(args).items():
        if key in defaults and val is not None:
            merged[key] = val
    return merged


def _solver(name) -> _Solver:
    if not isinstance(name, str) or name not in SOLVERS:
        raise ConfigError(f"unknown solver {name!r}")
    return SOLVERS[name]


def _make_problem(s: dict) -> ProblemSpec:
    try:
        return make_problem(
            s["problem"], seed=_whole(s, "seed"), dim=s.get("dim"), lam=float(s.get("lam", 1.0)),
            rank=s.get("rank"), fraction=float(s.get("fraction", 0.3)),
            data_path=s.get("data_path"),
        )
    except (TypeError, ValueError, OSError) as exc:
        raise ConfigError(str(exc))


def _names(value, key: str) -> list:
    """A config value naming one or several solvers or problems, as a list."""
    if isinstance(value, str):
        return [value]
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{key} must be a name or a non-empty list of names, not {value!r}")
    return value


def _whole(s: dict, key: str) -> int:
    """A whole-number setting as an int; a fractional number is a ConfigError."""
    val = s[key]
    if isinstance(val, float) and not val.is_integer():
        raise ConfigError(f"{key} must be a whole number, not {val!r}")
    return int(val)


def _out_dir(s: dict, default: str) -> str:
    """The ``out`` setting, or ``default`` when it is unset or empty."""
    out = s["out"] or default
    if not isinstance(out, str):
        raise ConfigError(f"out must be a path, not {out!r}")
    return out


def _budget(s: dict, key: str) -> Optional[int]:
    """A budget setting: a whole number, or None for no budget."""
    return None if s[key] is None else _whole(s, key)


def _solve_into(out_dir: str, spec: ProblemSpec, s: dict) -> RunReport:
    """Run the solve ``s`` describes and write its ``trace.csv`` and ``report.json``
    into ``out_dir``; an oracle failure or a ``KeyboardInterrupt`` writes the
    partial trace and re-raises."""
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, "trace.csv")
    try:
        eps = None if s["eps"] is None else float(s["eps"])
        pol = agd.TerminationPolicy(
            eps=None if eps == 0.0 else eps,  # 0 disables the gradient-norm stop
            max_oracle_calls=_budget(s, "max_oracle_calls"),
            max_iterations=_budget(s, "max_iterations"),
            max_seconds=None if s["max_seconds"] is None else float(s["max_seconds"]),
            certify_mode=s["certify_mode"],
        )
        solver = _solver(s["solver"])
        params = solver.params(termination=pol, **{
            name: s[key] if name == "m_variant" else float(s[key])
            for name, key in solver.fields.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))
    # The params doc: the params' fields, the termination's merged in.
    # ll2022's tuned eps is renamed first, since the termination has one too.
    doc = dataclasses.asdict(params)
    if isinstance(params, baselines.LL2022Params):
        doc.update(tuned_eps=doc.pop("eps"), momentum=params.momentum)
    doc.update(doc.pop("termination"), seed=_whole(s, "seed"))

    try:
        report = getattr(solver.module, solver.entry)(spec.objective, spec.x_init, params)
    except (OracleError, KeyboardInterrupt) as exc:
        write_trace_csv(trace_path, getattr(exc, "partial_trace", []))
        raise
    write_trace_csv(trace_path, report.trace)
    write_report_json(os.path.join(out_dir, "report.json"), report_to_dict(
        report, problem=spec.name, solver=s["solver"], params=doc, trace_path=trace_path))
    return report


def cmd_run(args: argparse.Namespace) -> int:
    s = _settings(RUN_DEFAULTS, args, "run")
    spec = _make_problem(s)
    out_dir = _out_dir(s, os.path.join("runs", f"{spec.name}_{s['solver']}"))
    trace_path = os.path.join(out_dir, "trace.csv")
    try:
        report = _solve_into(out_dir, spec, s)
    except OracleError as exc:
        partial = getattr(exc, "partial_trace", [])
        print(f"error: oracle failure: {exc}", file=sys.stderr)
        print(f"partial trace ({len(partial)} rows) written to {trace_path}",
              file=sys.stderr)
        return EXIT_ORACLE

    print(f"{spec.name} / {s['solver']}: reason={report.reason} "
          f"certified_grad_norm={report.certified_grad_norm:.6e} "
          f"n_oracle={report.n_oracle} epochs={report.total_epochs}")
    print(f"wrote {trace_path} and {os.path.join(out_dir, 'report.json')}")
    return EXIT_OK


# The running grid's problems in this process, by their settings: a grid's
# cells share one problem, so each process builds it (and reads its data
# file) once.  Sharing is safe: the completion objective's cache entries are
# keyed on its own token and a point's bytes, and ``drive`` copies
# ``x_init``.  The cache is one per process, so each worker process of a
# parallel grid has its own.  A repr is a key for any setting.
_grid_problems: Dict[str, ProblemSpec] = {}


def _grid_worker(payload: dict) -> dict:
    s = payload["settings"]
    key = repr([s[k] for k in ("problem", "seed", "dim", "lam", "rank", "fraction", "data_path")])
    spec = _grid_problems[key] = _grid_problems.get(key) or _make_problem(s)
    row = {
        "problem": spec.name, "solver": s["solver"],
        "l_init": repr(float(s["l_init"])),
        "m0": "" if s["m0"] is None else repr(float(s["m0"])),
        "reason": "", "certified_grad_norm": "", "n_oracle": "", "error": "",
    }
    try:
        report = _solve_into(payload["cell_dir"], spec, s)
    except OracleError as exc:
        row["error"] = str(exc)
        return row  # the summary leaves its threshold columns empty
    row["reason"] = report.reason
    row["certified_grad_norm"] = repr(float(report.certified_grad_norm))
    row["n_oracle"] = str(report.n_oracle)
    for col, thr in payload["thresholds"].items():
        hit = next((c for c, norm in zip(*report.certified) if norm <= thr), None)
        row[col] = "" if hit is None else str(hit)
    return row


def cmd_grid(args: argparse.Namespace) -> int:
    s = _settings(GRID_DEFAULTS, args, "grid")
    solvers = [(name, _solver(name)) for name in _names(s["solvers"], "solvers")]
    try:
        l_values, m_values, thresholds = ([float(v) for v in np.atleast_1d(s[key])]
                                          for key in ("l_init", "m0", "thresholds"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid setting: {exc}")
    for key, values in (("l_init", l_values), ("m0", m_values)):
        if not values:
            raise ConfigError(f"{key} must not be an empty list")
    if not all(map(math.isfinite, thresholds)):
        raise ConfigError(f"thresholds must be finite, not {thresholds!r}")
    thr_columns = {f"calls_to_{t:g}": t for t in thresholds}  # by summary column
    if len(thr_columns) < len(thresholds):  # a repeated value, or two equal in %g
        raise ConfigError(f"two of the thresholds {thresholds} share a summary column")
    out_dir = _out_dir(s, GRID_DEFAULTS["out"])

    payloads = {}  # by tag, the cell's directory name
    for solver_name, solver in solvers:
        m_axis = m_values if "m0" in solver.fields.values() else [None]
        for l_val in l_values:
            for m_val in m_axis:
                cell = dict(s, solver=solver_name, l_init=l_val, m0=m_val)
                tag = f"{solver_name}_L{l_val:g}" + ("" if m_val is None else f"_M{m_val:g}")
                if tag in payloads:  # a repeated value, or two equal in %g
                    raise ConfigError(f"two grid cells share the directory {tag!r}")
                payloads[tag] = {
                    "settings": cell,
                    "cell_dir": os.path.join(out_dir, tag),
                    "thresholds": thr_columns,
                }
    os.makedirs(out_dir, exist_ok=True)

    columns = ["problem", "solver", "l_init", "m0", "reason",
               "certified_grad_norm", "n_oracle", *thr_columns, "error"]
    summary_path = os.path.join(out_dir, "summary.csv")
    with contextlib.ExitStack() as stack:
        stack.callback(_grid_problems.clear)
        cells = map(_grid_worker, payloads.values())
        if args.parallel and args.parallel > 1:
            # Loaded only here: it pulls in ``multiprocessing``, never needed serially.
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=args.parallel)
            # Leaving drops the cells not yet started, so a Ctrl-C (or any
            # error) waits only for those running; a finished grid has none.
            stack.callback(pool.shutdown, cancel_futures=True)
            cells = pool.map(_grid_worker, payloads.values())  # in payload order
        # The first cell builds the problem before the summary is opened, so
        # a problem that cannot be built leaves no summary.
        cells = iter(cells)
        first = next(cells)
        fh = stack.enter_context(open(summary_path, "w", newline="", encoding="utf-8"))
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in itertools.chain([first], cells):  # a Ctrl-C keeps the finished rows
            writer.writerow(row)
            fh.flush()
            print(f"{row['solver']:9s} l_init={row['l_init']:>8s} m0={row['m0']:>8s} "
                  f"-> {row['error'] or row['reason']} (n_oracle={row['n_oracle']})")
    print(f"wrote {summary_path}")
    return EXIT_OK


def cmd_plot(args: argparse.Namespace) -> int:
    series = []
    for path in args.traces:
        try:
            records = read_trace_csv(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read trace {path}: {exc}")
        label = os.path.basename(os.path.dirname(path)) or os.path.basename(path)
        series.append((label, records))
    out = args.out or "trace.svg"
    os.makedirs(os.path.dirname(out) or os.curdir, exist_ok=True)
    write_traces_svg(out, series, title=args.title or "")
    print(f"wrote {out}")
    return EXIT_OK


def _box_constants(spec: ProblemSpec, b: float) -> Tuple[float, float]:
    """Curvature constants to verify against: the problem's own if declared,
    else conservative bounds over the sampling box [-b, b]^d (Rosenbrock
    only)."""
    obj = spec.objective
    if obj.known_L is not None and obj.known_M is not None:
        return obj.known_L, obj.known_M
    if spec.name == "rosenbrock":
        return 202.0 + 1200.0 * b * b + 800.0 * b, 2400.0 * b + 1200.0
    raise ConfigError(f"no curvature constants available for {spec.name!r}")


def cmd_verify(args: argparse.Namespace) -> int:
    s = _settings(VERIFY_DEFAULTS, args, "verify")
    try:
        samples = _whole(s, "samples")
        agd.check_finite("samples", samples, 1, closed=True)
        box, l_scale, m_scale = (float(s[key]) for key in ("box", "l_scale", "m_scale"))
        for key, val in (("box", box), ("l_scale", l_scale), ("m_scale", m_scale)):
            agd.check_finite(key, val, 0)
        rng = np.random.default_rng(_whole(s, "seed"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad verify setting: {exc}")

    failures = 0
    for name in _names(s["problems"], "problems"):
        spec = _make_problem(dict(s, problem=name))
        obj = spec.objective
        L, M = _box_constants(spec, box)
        L *= l_scale
        M *= m_scale

        def pair():
            return rng.uniform(-box, box, obj.dim), rng.uniform(-box, box, obj.dim)

        def jensen():
            n = int(rng.integers(2, 6))
            pts = [rng.uniform(-box, box, obj.dim) for _ in range(n)]
            w = rng.dirichlet(np.ones(n))
            return checks.check_jensen_gradient(obj, pts, w / w.sum(), M)

        suites = (("descent_lemma", lambda: checks.check_descent_lemma(obj, *pair(), L)),
                  ("trapezoid", lambda: checks.check_trapezoid(obj, *pair(), M)),
                  ("jensen_gradient", jensen))
        for check_name, sample in suites:
            worst = math.inf
            bad = None
            for _ in range(samples):
                rep = sample()
                worst = min(worst, rep.slack + rep.tol)
                if not rep.holds and bad is None:
                    bad = rep
            verdict = "PASS" if bad is None else "FAIL"
            print(f"{verdict} {check_name} on {name}: {samples} samples, "
                  f"worst margin={worst:.3e}")
            if bad is not None:
                failures += 1
                pts = ", ".join(np.array2string(np.asarray(wit), precision=6)
                                for wit in bad.witness)
                print(f"     witness: lhs={bad.lhs:.6e} rhs={bad.rhs:.6e} at {pts}")
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="restartagd",
        description="Benchmark harness for restarted accelerated gradient descent.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one solver on one problem")
    runp.add_argument("--config", help="YAML config file (section 'run')")
    runp.add_argument("--problem", choices=PROBLEM_NAMES)
    runp.add_argument("--solver", choices=tuple(SOLVERS))
    runp.add_argument("--m-variant", dest="m_variant",
                      choices=(agd.M_PRACTICAL, agd.M_THEORETICAL))
    runp.add_argument("--l-init", dest="l_init", type=float,
                      help="initial step constant (L_f for ll2022)")
    runp.add_argument("--m0", type=float,
                      help="initial curvature estimate (M_f for ll2022)")
    runp.add_argument("--alpha", type=float)
    runp.add_argument("--beta", type=float)
    runp.add_argument("--eps", type=float, help="certified gradient target; 0 disables")
    runp.add_argument("--max-oracle-calls", dest="max_oracle_calls", type=int)
    runp.add_argument("--max-iterations", dest="max_iterations", type=int)
    runp.add_argument("--max-seconds", dest="max_seconds", type=float)
    runp.add_argument("--seed", type=int)
    runp.add_argument("--out", help="output directory")
    runp.set_defaults(func=cmd_run)

    gridp = sub.add_parser("grid", help="sweep solver parameters on one problem")
    gridp.add_argument("--config", help="YAML config file (section 'grid')")
    gridp.add_argument("--out")
    gridp.add_argument("--seed", type=int)
    gridp.add_argument("--parallel", type=int, default=1,
                       help="worker processes (same results as serial)")
    gridp.set_defaults(func=cmd_grid)

    plotp = sub.add_parser("plot", help="render trace CSVs to a two-panel SVG")
    plotp.add_argument("traces", nargs="+", help="trace.csv paths")
    plotp.add_argument("--out", help="output SVG path")
    plotp.add_argument("--title")
    plotp.set_defaults(func=cmd_plot)

    verp = sub.add_parser("verify", help="sample-test the smoothness inequalities")
    verp.add_argument("--config", help="YAML config file (section 'verify')")
    verp.add_argument("--samples", type=int)
    verp.add_argument("--seed", type=int)
    verp.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:   # OSError: an output path cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
