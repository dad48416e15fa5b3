"""Benchmark harness CLI: ``run`` one solve, ``grid`` a parameter sweep,
``plot`` traces to SVG, ``verify`` the smoothness inequalities by sampling.

Settings come from an optional YAML config file (sections named after the
subcommands) overridden by command-line flags; flags always win.  Exit codes:
0 success, 1 verify found a violated inequality, 2 bad configuration,
3 the objective produced a non-finite value or gradient.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import math
import os
import sys
from typing import Any, Callable, NamedTuple, Optional, Sequence, Tuple

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


def _proposed(s: dict, pol: agd.TerminationPolicy):
    p = agd.SolverParams(l_init=float(s["l_init"]), m0=float(s["m0"]),
                         alpha=float(s["alpha"]), beta=float(s["beta"]),
                         m_variant=s["m_variant"], termination=pol)
    return agd.run, p, {"l_init": p.l_init, "m0": p.m0, "alpha": p.alpha,
                        "beta": p.beta, "m_variant": p.m_variant}


def _gd(s: dict, pol: agd.TerminationPolicy):
    p = baselines.GdParams(l_init=float(s["l_init"]), alpha=float(s["alpha"]),
                           beta=float(s["beta"]), termination=pol)
    return baselines.gd_run, p, {"l_init": p.l_init, "alpha": p.alpha, "beta": p.beta}


def _ll2022(s: dict, pol: agd.TerminationPolicy):
    p = baselines.LL2022Params(l_f=float(s["l_init"]), m_f=float(s["m0"]),
                               eps=float(s["ll_eps"]), termination=pol)
    return baselines.ll2022_run, p, {"l_f": p.l_f, "m_f": p.m_f,
                                     "tuned_eps": p.eps, "momentum": p.momentum}


class _Solver(NamedTuple):
    """``setup(settings, policy)`` returns the solve function, read from its
    module at call time, its params and the ``report.json`` params doc."""

    setup: Callable[[dict, agd.TerminationPolicy], Tuple[Callable, Any, dict]]
    sweeps_m0: bool  # whether ``grid`` runs the solver once per m0 value


SOLVERS = {
    "proposed": _Solver(_proposed, sweeps_m0=True),
    "gd": _Solver(_gd, sweeps_m0=False),
    "ll2022": _Solver(_ll2022, sweeps_m0=True),
}


# Settings that ``run`` and every ``grid`` cell read the same way.
_SOLVE_DEFAULTS = {
    "problem": "rosenbrock",
    "m_variant": "practical",
    "certify_mode": "OnCandidate",
    "alpha": 2.0,
    "beta": 0.9,
    "eps": 1e-6,
    "max_oracle_calls": 100_000,
    "max_iterations": None,
    "max_seconds": None,
    "ll_eps": 1e-16,
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
    "l_init": 1e-3,
    "m0": 1e-16,
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
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse {path}: {exc}")
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    sec = doc.get(section, {})
    if sec is None:
        sec = {}
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


def _make_problem(s: dict, problem: Optional[str] = None) -> ProblemSpec:
    name = problem or s["problem"]
    try:
        return make_problem(
            name, seed=_whole(s, "seed"), dim=s.get("dim"), lam=float(s.get("lam", 1.0)),
            rank=s.get("rank"), fraction=float(s.get("fraction", 0.3)),
            data_path=s.get("data_path"),
        )
    except (TypeError, ValueError, OSError) as exc:
        raise ConfigError(str(exc))


def _names(value, key: str) -> list:
    """A config value naming one or several solvers or problems, as a list."""
    if isinstance(value, str):
        return [value]
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a name or a list of names, not {value!r}")
    return value


def _whole(s: dict, key: str) -> int:
    """A whole-number setting as an int; a fractional number is a ConfigError."""
    val = s[key]
    if isinstance(val, float) and not val.is_integer():
        raise ConfigError(f"{key} must be a whole number, not {val!r}")
    return int(val)


def _budget(s: dict, key: str) -> Optional[int]:
    """A budget setting: a whole number, or None for no budget."""
    return None if s[key] is None else _whole(s, key)


def _termination(s: dict) -> agd.TerminationPolicy:
    try:
        eps = None if s["eps"] is None else float(s["eps"])
        return agd.TerminationPolicy(
            eps=None if eps == 0.0 else eps,  # 0 disables the gradient-norm stop
            max_oracle_calls=_budget(s, "max_oracle_calls"),
            max_iterations=_budget(s, "max_iterations"),
            max_seconds=None if s["max_seconds"] is None else float(s["max_seconds"]),
            certify_mode=s["certify_mode"],
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))


def _solve_into(out_dir: str, spec: ProblemSpec, s: dict) -> RunReport:
    """Run the solve ``s`` describes and write its ``trace.csv`` and ``report.json``
    into ``out_dir``; an oracle failure or a ``KeyboardInterrupt`` writes the
    partial trace and re-raises."""
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, "trace.csv")
    pol = _termination(s)
    setup = _solver(s["solver"]).setup
    try:
        entry, params, doc = setup(s, pol)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))
    doc.update(dataclasses.asdict(pol), seed=_whole(s, "seed"))

    try:
        report = entry(spec.objective, spec.x_init, params)
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
    out_dir = s["out"] or os.path.join("runs", f"{spec.name}_{s['solver']}")
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


def _grid_worker(payload: dict) -> dict:
    s = payload["settings"]
    spec = _make_problem(s)
    row = {
        "problem": spec.name, "solver": s["solver"],
        "l_init": repr(float(s["l_init"])),
        "m0": "" if s["m0"] is None else repr(float(s["m0"])),
        "reason": "", "certified_grad_norm": "", "n_oracle": "", "error": "",
    }
    thresholds = payload["thresholds"]
    try:
        report = _solve_into(payload["cell_dir"], spec, s)
    except OracleError as exc:
        row["error"] = str(exc)
        return row  # the summary leaves its threshold columns empty
    row["reason"] = report.reason
    row["certified_grad_norm"] = repr(float(report.certified_grad_norm))
    row["n_oracle"] = str(report.n_oracle)
    calls, norms = report.certified
    for thr in thresholds:
        hit = next((c for c, norm in zip(calls, norms) if norm <= thr), None)
        row[_thr_col(thr)] = "" if hit is None else str(hit)
    return row


def _thr_col(thr: float) -> str:
    return f"calls_to_{thr:g}"


def cmd_grid(args: argparse.Namespace) -> int:
    s = _settings(GRID_DEFAULTS, args, "grid")
    solvers = [(name, _solver(name)) for name in _names(s["solvers"], "solvers")]
    try:
        l_values = [float(v) for v in np.atleast_1d(s["l_init"])]
        m_values = [float(v) for v in np.atleast_1d(s["m0"])]
        thresholds = [float(v) for v in np.atleast_1d(s["thresholds"])]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid setting: {exc}")
    out_dir = s["out"]
    os.makedirs(out_dir, exist_ok=True)

    payloads = []
    for solver_name, solver in solvers:
        m_axis = m_values if solver.sweeps_m0 else [None]
        for l_val in l_values:
            for m_val in m_axis:
                cell = dict(s, solver=solver_name, l_init=l_val, m0=m_val)
                tag = f"{solver_name}_L{l_val:g}" + ("" if m_val is None else f"_M{m_val:g}")
                payloads.append({
                    "settings": cell,
                    "cell_dir": os.path.join(out_dir, tag),
                    "thresholds": thresholds,
                })

    columns = ["problem", "solver", "l_init", "m0", "reason",
               "certified_grad_norm", "n_oracle"]
    columns += [_thr_col(t) for t in thresholds]
    columns += ["error"]
    summary_path = os.path.join(out_dir, "summary.csv")
    rows = []
    with contextlib.ExitStack() as stack:
        cells = map(_grid_worker, payloads)
        if args.parallel and args.parallel > 1:
            # Loaded only here: it pulls in ``multiprocessing``, never needed serially.
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=args.parallel))
            cells = pool.map(_grid_worker, payloads)  # in payload order
        fh = stack.enter_context(open(summary_path, "w", newline="", encoding="utf-8"))
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in cells:  # as each cell returns: a Ctrl-C keeps the finished rows
            writer.writerow(row)
            fh.flush()
            rows.append(row)
    for row in rows:
        status = row["error"] or row["reason"]
        print(f"{row['solver']:9s} l_init={row['l_init']:>8s} m0={row['m0']:>8s} "
              f"-> {status} (n_oracle={row['n_oracle']})")
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
    out_parent = os.path.dirname(out)
    if out_parent:
        os.makedirs(out_parent, exist_ok=True)
    write_traces_svg(out, series, title=args.title or "")
    print(f"wrote {out}")
    return EXIT_OK


def _box_constants(spec: ProblemSpec, half_width: float) -> Tuple[float, float]:
    """Curvature constants to verify against: the problem's own if declared,
    else conservative bounds over the sampling box (Rosenbrock only)."""
    obj = spec.objective
    if obj.known_L is not None and obj.known_M is not None:
        return obj.known_L, obj.known_M
    if spec.name == "rosenbrock":
        b = half_width
        return 202.0 + 1200.0 * b * b + 800.0 * b, 2400.0 * b + 1200.0
    raise ConfigError(f"no curvature constants available for {spec.name!r}")


def cmd_verify(args: argparse.Namespace) -> int:
    s = _settings(VERIFY_DEFAULTS, args, "verify")
    try:
        samples = _whole(s, "samples")
        box = float(s["box"])
        l_scale = float(s["l_scale"])
        m_scale = float(s["m_scale"])
        rng = np.random.default_rng(_whole(s, "seed"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad verify setting: {exc}")
    if samples < 1:
        raise ConfigError("samples must be >= 1")
    if not (0 < box < math.inf and math.isfinite(l_scale) and math.isfinite(m_scale)):
        raise ConfigError("box must be positive and finite, l_scale and m_scale finite")
    names = _names(s["problems"], "problems")

    failures = 0
    for name in names:
        spec = _make_problem(s, problem=name)
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
                worst = min(worst, rep.slack)
                if not rep.holds and bad is None:
                    bad = rep
            verdict = "PASS" if bad is None else "FAIL"
            print(f"{verdict} {check_name} on {name}: {samples} samples, "
                  f"worst slack={worst:.3e}")
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
