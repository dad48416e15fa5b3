"""End-to-end CLI tests: run, grid, plot, verify, exit codes, config files."""

import csv
import dataclasses
import filecmp
import json
import math
import os
import signal
import warnings

import jsonschema
import numpy as np
import pytest

from restartagd import (REPORT_SCHEMA, baselines, cli, problems, read_trace_csv, solver,
                        write_trace_csv)
from restartagd.cli import main


def read_report(out_dir):
    with open(os.path.join(out_dir, "report.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# run


def test_run_writes_trace_and_report(tmp_path, capsys):
    out = str(tmp_path / "cell")
    rc = main(["run", "--problem", "rosenbrock", "--solver", "proposed",
               "--l-init", "100", "--eps", "1e-4", "--out", out])
    assert rc == 0
    doc = read_report(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["reason"] == "EpsReached"
    assert doc["certified_grad_norm"] <= 1e-4
    records = read_trace_csv(os.path.join(out, "trace.csv"))
    assert len(records) == doc["total_K"]
    shown = capsys.readouterr().out
    assert "reason=EpsReached" in shown


def test_run_default_output_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["run", "--problem", "quadratic", "--solver", "gd",
               "--l-init", "1.0", "--eps", "1e-6"])
    assert rc == 0
    assert os.path.exists(tmp_path / "runs" / "quadratic_gd" / "report.json")


def test_run_eps_zero_disables_gradient_stop(tmp_path):
    out = str(tmp_path / "cell")
    rc = main(["run", "--problem", "rosenbrock", "--solver", "proposed",
               "--l-init", "100", "--eps", "0", "--max-iterations", "5",
               "--out", out])
    assert rc == 0
    doc = read_report(out)
    assert doc["reason"] == "BudgetExhausted"
    assert doc["total_K"] == 5
    assert doc["params"]["eps"] is None


@pytest.mark.parametrize("name, fields", [
    ("proposed", {"l_init": 4.0, "m0": 1e-16, "alpha": 2.0, "beta": 0.9,
                  "m_variant": "practical"}),
    ("gd", {"l_init": 4.0, "alpha": 2.0, "beta": 0.9}),
    # ll2022's own eps is written as tuned_eps; "eps" is the termination's.
    ("ll2022", {"l_f": 4.0, "m_f": 1e-16, "tuned_eps": 1e-16,
                "momentum": baselines.LL2022Params(l_f=4.0, m_f=1e-16).momentum}),
])
def test_report_params_are_the_solver_fields_and_the_termination(tmp_path, name, fields):
    out = str(tmp_path / name)
    assert main(["run", "--problem", "quadratic", "--solver", name, "--seed", "3",
                 "--l-init", "4", "--max-iterations", "50", "--out", out]) == 0
    assert read_report(out)["params"] == {
        **fields, "eps": 1e-6, "max_oracle_calls": 100_000, "max_iterations": 50,
        "max_seconds": None, "certify_mode": "OnCandidate", "seed": 3}


def test_run_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "run:\n"
        "  problem: quadratic\n"
        "  solver: proposed\n"
        "  l_init: 5.0\n"
        "  max_iterations: 4\n"
        "  eps: 0.0\n"
    )
    out = str(tmp_path / "cell")
    rc = main(["run", "--config", str(cfg), "--l-init", "2.0", "--out", out])
    assert rc == 0
    doc = read_report(out)
    assert doc["params"]["l_init"] == 2.0          # flag wins
    assert doc["total_K"] == 4                      # config survives elsewhere


def test_run_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("run:\n  learning_rate: 0.1\n")
    rc = main(["run", "--config", str(cfg)])
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


def test_run_rejects_unknown_solver_in_config(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("run:\n  solver: adam\n")
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 2


def test_run_rejects_missing_config_file(tmp_path):
    rc = main(["run", "--config", str(tmp_path / "nope.yaml")])
    assert rc == 2


def test_run_rejects_unknown_problem_flag():
    with pytest.raises(SystemExit):
        main(["run", "--problem", "styblinski"])


def test_run_oracle_failure_keeps_partial_trace(tmp_path, capsys):
    # A fixed step constant far below Rosenbrock's curvature diverges; the
    # run must exit 3 and leave the rows it completed on disk.
    out = str(tmp_path / "cell")
    rc = main(["run", "--problem", "rosenbrock", "--solver", "ll2022",
               "--l-init", "100", "--out", out])
    assert rc == 3
    assert "oracle failure" in capsys.readouterr().err
    records = read_trace_csv(os.path.join(out, "trace.csv"))
    assert len(records) > 0
    assert not os.path.exists(os.path.join(out, "report.json"))


def test_run_of_an_objective_that_raises_exits_3_with_its_partial_trace(
        tmp_path, capsys, monkeypatch):
    spec = cli.make_problem("rosenbrock")
    calls = [0]

    def grad(x):
        calls[0] += 1
        if calls[0] == 50:
            raise RuntimeError("boom")
        return spec.objective.grad_fn(x)

    raising = dataclasses.replace(spec, objective=dataclasses.replace(spec.objective,
                                                                      grad_fn=grad))
    monkeypatch.setattr(cli, "make_problem", lambda *a, **kw: raising)
    out = str(tmp_path / "cell")
    assert main(["run", "--problem", "rosenbrock", "--out", out]) == 3
    err = capsys.readouterr().err
    assert "grad_fn raised RuntimeError: boom" in err and "Traceback" not in err
    records = read_trace_csv(os.path.join(out, "trace.csv"))
    assert 0 < len(records) < 25  # the practical variant takes 2 gradients a row
    assert f"partial trace ({len(records)} rows)" in err
    assert not os.path.exists(os.path.join(out, "report.json"))


def test_run_interrupted_from_the_objective_writes_its_partial_trace(tmp_path, monkeypatch):
    spec = cli.make_problem("rosenbrock")
    calls, after_row = [0], []  # gradient calls so far; after each clean row

    def grad(x):
        calls[0] += 1
        if interrupting and calls[0] == 50:
            raise KeyboardInterrupt
        return spec.objective.grad_fn(x)

    interrupting = False
    obj = dataclasses.replace(spec.objective, grad_fn=grad)
    clean = solver.run(obj, spec.x_init, solver.SolverParams(
        termination=solver.TerminationPolicy(max_iterations=40)),
        observer=lambda m, rec: after_row.append(calls[0]))
    calls[0], interrupting = 0, True
    monkeypatch.setattr(cli, "make_problem",
                        lambda *a, **kw: dataclasses.replace(spec, objective=obj))
    out = str(tmp_path / "cell")
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--problem", "rosenbrock", "--out", out])
    records = read_trace_csv(os.path.join(out, "trace.csv"))
    # Exactly the rows whose gradients all came before the interrupted call.
    n = sum(c < 50 for c in after_row)
    assert 0 < n < 40 and records == clean.trace[:n]
    assert not os.path.exists(os.path.join(out, "report.json"))


def test_diverging_run_emits_no_runtime_warning(tmp_path, capsys):
    # ll2022 with a step constant far below Rosenbrock's curvature overflows
    # before the gradient turns non-finite; the overflow must stay silent.
    out = str(tmp_path / "cell")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["run", "--problem", "rosenbrock", "--solver", "ll2022",
                   "--l-init", "1e-3", "--out", out])
    assert rc == 3
    assert "Warning" not in capsys.readouterr().err
    assert len(read_trace_csv(os.path.join(out, "trace.csv"))) > 0


def test_whole_float_budgets_are_accepted(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("run:\n  problem: quadratic\n  eps: 0\n  max_iterations: 3.0\n"
                   "  max_oracle_calls: 100000.0\n  seed: 3.0\n")
    out = str(tmp_path / "cell")
    assert main(["run", "--config", str(cfg), "--out", out]) == 0
    doc = read_report(out)
    assert doc["total_K"] == doc["params"]["max_iterations"] == 3
    assert doc["params"]["max_oracle_calls"] == 100000
    assert doc["params"]["seed"] == 3 and isinstance(doc["params"]["seed"], int)


def test_cli_defaults_match_library_defaults():
    # The documented defaults, as literals: the CLI reads most of them from
    # the library, so comparing with the library alone could not fail.
    documented = {
        "l_init": 1e-3, "m0": 1e-16, "alpha": 2.0, "beta": 0.9, "m_variant": "practical",
        "certify_mode": "OnCandidate", "eps": 1e-6, "max_oracle_calls": 100000,
        "max_iterations": None, "max_seconds": None, "ll_eps": 1e-16}
    d = cli.RUN_DEFAULTS
    assert {key: d[key] for key in documented} == documented
    gd = baselines.GdParams()
    for key in ("l_init", "alpha", "beta"):
        assert d[key] == getattr(gd, key), key
    assert gd.termination == solver.DEFAULT_TERMINATION


# ---------------------------------------------------------------------------
# grid


GRID_CFG = """
grid:
  problem: quadratic
  dim: 6
  solvers: [proposed, gd]
  l_init: [1.0, 4.0]
  m0: [1.0]
  thresholds: [1e-2, 1e-6]
  eps: 1e-6
  max_oracle_calls: 10000
"""


def test_grid_summary_and_cells(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(GRID_CFG)
    out = str(tmp_path / "grid")
    rc = main(["grid", "--config", str(cfg), "--out", out])
    assert rc == 0

    with open(os.path.join(out, "summary.csv"), "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    assert header == ["problem", "solver", "l_init", "m0", "reason",
                      "certified_grad_norm", "n_oracle",
                      "calls_to_0.01", "calls_to_1e-06", "error"]
    # proposed runs the m0 axis, gd collapses it: 2 + 2 cells
    assert len(lines) == 1 + 4

    for tag in ("proposed_L1_M1", "proposed_L4_M1", "gd_L1", "gd_L4"):
        assert os.path.exists(os.path.join(out, tag, "trace.csv"))
        doc = read_report(os.path.join(out, tag))
        jsonschema.validate(doc, REPORT_SCHEMA)
        # the L=1 cells land on the exact minimizer (zero gradient)
        assert doc["reason"] in ("EpsReached", "Stationary")

    rows = [line.split(",") for line in lines[1:]]
    hit_col = header.index("calls_to_1e-06")
    assert all(row[hit_col] != "" for row in rows)
    assert "wrote" in capsys.readouterr().out


def test_grid_parallel_matches_serial(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(GRID_CFG)
    serial = str(tmp_path / "serial")
    parallel = str(tmp_path / "parallel")
    assert main(["grid", "--config", str(cfg), "--out", serial]) == 0
    assert main(["grid", "--config", str(cfg), "--out", parallel,
                 "--parallel", "2"]) == 0
    assert filecmp.cmp(os.path.join(serial, "summary.csv"),
                       os.path.join(parallel, "summary.csv"), shallow=False)
    assert filecmp.cmp(os.path.join(serial, "proposed_L4_M1", "trace.csv"),
                       os.path.join(parallel, "proposed_L4_M1", "trace.csv"),
                       shallow=False)


def _summary_rows(out):
    with open(os.path.join(out, "summary.csv"), "r", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_an_interrupted_serial_grid_keeps_the_finished_cells_rows(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(GRID_CFG)
    whole = str(tmp_path / "whole")
    assert main(["grid", "--config", str(cfg), "--out", whole]) == 0
    solved, solve = [], solver.run

    def interrupt(x):
        raise KeyboardInterrupt

    def run(obj, x_init, params):  # the second cell's gradient is a Ctrl-C
        solved.append(obj)
        if len(solved) == 2:
            obj = dataclasses.replace(obj, grad_fn=interrupt)
        return solve(obj, x_init, params)

    monkeypatch.setattr(solver, "run", run)
    out = str(tmp_path / "cut")
    with pytest.raises(KeyboardInterrupt):
        main(["grid", "--config", str(cfg), "--out", out])
    assert len(solved) == 2
    with open(os.path.join(out, "summary.csv"), "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(os.path.join(whole, "summary.csv"), "r", encoding="utf-8") as fh:
        assert lines == fh.read().splitlines()[:2]


class _Forgetful(dict):
    """A problem cache that never finds anything: every cell builds its own."""

    def get(self, key, default=None):
        return default


def test_a_grid_builds_its_problem_once_per_process(tmp_path, monkeypatch):
    # 40 distinct (user, item) pairs: i mod 7 and i mod 11 fix i below 77.
    data = tmp_path / "u.data"
    data.write_text("".join(f"{1 + i % 7}\t{1 + i % 11}\t{1 + i % 5}\t0\n" for i in range(40)))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"grid:\n  problem: movielens\n  data_path: {data}\n  rank: 1\n"
                   "  max_oracle_calls: 300\n")
    loads, load = [], problems.load_movielens_100k

    def counted(path):
        loads.append(path)
        return load(path)

    monkeypatch.setattr(problems, "load_movielens_100k", counted)
    out = tmp_path / "grid"
    assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(loads) == 1 and len(_summary_rows(out)) == 12
    # The same grid with a problem built afresh per cell writes the same bytes.
    out.rename(tmp_path / "shared")
    monkeypatch.setattr(cli, "_grid_problems", _Forgetful())
    assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(loads) == 1 + 12
    files = sorted(path.relative_to(out) for path in out.rglob("*") if path.is_file())
    assert len(files) == 1 + 12 * 2
    for name in files:
        assert (out / name).read_bytes() == (tmp_path / "shared" / name).read_bytes(), name


# Eight cells of 0.2 s each: two run at a time, so an interrupt after the
# first row leaves most of them queued.  The theoretical variant never
# stalls, so no cell ends before its clock.
TIMED_GRID_CFG = """
grid:
  problem: cosine_sum
  dim: 4
  solvers: [proposed]
  m_variant: theoretical
  l_init: [1.0, 2.0]
  m0: [1.0, 2.0, 3.0, 4.0]
  eps: 0
  max_oracle_calls: null
  max_seconds: 0.2
"""


def test_an_interrupted_parallel_grid_keeps_its_row_and_cancels_queued_cells(
        tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(TIMED_GRID_CFG)
    written, writerow = [], csv.DictWriter.writerow

    def interrupt_after_first_row(self, row):  # the header, then the first cell's row
        if len(written) == 2:
            raise KeyboardInterrupt
        written.append(row)
        return writerow(self, row)

    monkeypatch.setattr(csv.DictWriter, "writerow", interrupt_after_first_row)
    out = str(tmp_path / "grid")
    with pytest.raises(KeyboardInterrupt):
        main(["grid", "--config", str(cfg), "--out", out, "--parallel", "2"])
    [row] = _summary_rows(out)
    assert (row["solver"], row["l_init"], row["m0"], row["reason"]) == (
        "proposed", "1.0", "1.0", "TimeLimit")
    reports = [name for name in os.listdir(out)
               if os.path.exists(os.path.join(out, name, "report.json"))]
    assert "proposed_L1_M1" in reports and len(reports) < 8


@pytest.mark.parametrize("section, key", [
    ("grid", "solvers"), ("grid", "l_init"), ("grid", "m0"), ("verify", "problems")])
def test_an_empty_sweep_axis_exits_2_naming_its_key(tmp_path, capsys, section, key):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"{section}:\n  {key}: []\n")
    out = str(tmp_path / "out")
    argv = [section, "--config", str(cfg)] + (["--out", out] if section == "grid" else [])
    assert main(argv) == 2
    assert f"error: {key} must" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_a_grid_without_thresholds_has_no_calls_to_columns(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("grid:\n  thresholds: []\n  solvers: gd\n  l_init: 4\n" + GRID_SMALL)
    out = str(tmp_path / "grid")
    assert main(["grid", "--config", str(cfg), "--out", out]) == 0
    with open(os.path.join(out, "summary.csv"), "r", encoding="utf-8") as fh:
        assert next(csv.reader(fh)) == ["problem", "solver", "l_init", "m0", "reason",
                                        "certified_grad_norm", "n_oracle", "error"]
    assert len(_summary_rows(out)) == 1


def test_grid_calls_to_eps_is_where_the_run_certified(tmp_path):
    # Under EveryIter only averaged points certify, so the cheaper monitor
    # norms in the trace must not count toward calls_to_{thr}.
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "grid:\n"
        "  problem: quadratic\n"
        "  solvers: [proposed]\n"
        "  certify_mode: EveryIter\n"
        "  l_init: [100]\n"
        "  m0: [1.0]\n"
        "  eps: 1e-6\n"
        "  thresholds: [1e-6]\n"
    )
    out = str(tmp_path / "grid")
    assert main(["grid", "--config", str(cfg), "--out", out]) == 0
    [row] = _summary_rows(out)
    assert row["reason"] == "EpsReached"
    assert row["calls_to_1e-06"] == row["n_oracle"]


def test_default_grid_certifies_eps_at_n_oracle(tmp_path):
    out = str(tmp_path / "grid")
    assert main(["grid", "--out", out]) == 0
    rows = _summary_rows(out)
    assert len(rows) == 12
    reached = [row for row in rows if row["reason"] == "EpsReached"]
    assert reached
    for row in reached:
        assert row["calls_to_1e-06"] == row["n_oracle"], row


def test_grid_rejects_unknown_solver(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("grid:\n  solvers: [rmsprop]\n")
    rc = main(["grid", "--config", str(cfg), "--out", str(tmp_path / "g")])
    assert rc == 2


def test_grid_ll2022_cells_sweep_m0_and_keep_divergent_partial_traces(tmp_path):
    # L_f = 100 is far below Rosenbrock's curvature, so both of its cells
    # diverge; L_f = 1e4 runs to the budget.
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "grid:\n"
        "  problem: rosenbrock\n"
        "  solvers: [ll2022]\n"
        "  l_init: [100, 1e4]\n"
        "  m0: [1.0, 10.0]\n"
        "  thresholds: [1e-2]\n"
        "  max_oracle_calls: 2000\n"
    )
    out = str(tmp_path / "grid")
    assert main(["grid", "--config", str(cfg), "--out", out]) == 0
    with open(os.path.join(out, "summary.csv"), "r", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["l_init"], r["m0"]) for r in rows] == [
        ("100.0", "1.0"), ("100.0", "10.0"), ("10000.0", "1.0"), ("10000.0", "10.0")]
    for row in rows:
        cell = os.path.join(out, f"ll2022_L{float(row['l_init']):g}_M{float(row['m0']):g}")
        records = read_trace_csv(os.path.join(cell, "trace.csv"))
        if row["l_init"] == "100.0":
            assert row["error"] == "gradient has non-finite entries"
            assert row["reason"] == row["n_oracle"] == row["calls_to_0.01"] == ""
            assert len(records) > 0
            assert not os.path.exists(os.path.join(cell, "report.json"))
        else:
            assert row["error"] == "" and row["reason"] == "BudgetExhausted"
            doc = read_report(cell)
            jsonschema.validate(doc, REPORT_SCHEMA)
            assert len(records) == doc["total_K"]


GRID_SMALL = "  problem: quadratic\n  dim: 4\n  max_oracle_calls: 500\n"


@pytest.mark.parametrize("section, line, rc", [
    ("run", "solver: [gd]", 2),
    ("grid", "solvers: [[gd]]", 2),
    ("grid", "l_init: [abc]", 2),
    ("grid", "m0: abc", 2),
    ("grid", "thresholds: [abc]", 2),
    ("grid", "thresholds: {a: 1}", 2),
    ("grid", "thresholds: 1e-3", 0),      # YAML reads 1e-3 as the string "1e-3"
    ("verify", "box: abc", 2),
    ("verify", "samples: abc", 2),
    ("verify", "l_scale: abc", 2),
    ("verify", "m_scale: [1, 2]", 2),
    ("verify", "seed: abc", 2),
    ("run", "seed: null", 2),
    ("run", "lam: null\n  problem: quadratic", 2),
    ("run", "rank: x\n  problem: matcomp_synthetic", 2),
    ("verify", "dim: abc", 2),
    ("run", "solver: gd\n  alpha: null", 2),
    ("run", "eps: [1]", 2),
    ("grid", "solvers: 5", 2),
    ("verify", "problems: 5", 2),
    ("run", "problem: quadratic\n  dim: 0", 2),
    ("run", "problem: matcomp_synthetic\n  rank: 0", 2),
    ("run", "max_iterations: 1.5", 2),
    ("run", "max_oracle_calls: 100.5", 2),
    ("run", "seed: 1.5", 2),
    ("verify", "samples: 10.7", 2),
    ("verify", "seed: 0.5", 2),
    ("run", "problem: quadratic\n  m0: .nan", 2),
    ("run", "problem: quadratic\n  l_init: .nan", 2),
    ("run", "problem: quadratic\n  eps: .nan", 2),
    ("run", "problem: quadratic\n  max_seconds: .nan", 2),
    ("run", "problem: quadratic\n  solver: gd\n  l_init: .inf", 2),
    ("run", "problem: quadratic\n  solver: ll2022\n  m0: -.inf", 2),
    ("run", "problem: quadratic\n  alpha: .inf", 2),
    ("grid", "l_init: [.nan]", 2),
    ("verify", "box: .nan", 2),
    ("verify", "box: .inf", 2),
    ("verify", "l_scale: .nan", 2),
    ("verify", "m_scale: .inf", 2),
    ("verify", "l_scale: -1", 2),
    ("verify", "m_scale: 0", 2),
    ("run", "problem: quadratic\n  lam: .nan", 2),
    ("run", "problem: quadratic\n  lam: .inf", 2),
    ("verify", "lam: .nan", 2),
    ("verify", "lam: .inf", 2),
    ("grid", "thresholds: [.nan]", 2),
    ("grid", "thresholds: [1e-2, .inf]", 2),
    ("grid", "thresholds: -.inf", 2),
    ("grid", "thresholds: [1.0e-6, 1.0000001e-6]", 2),   # equal in %g
    ("grid", "thresholds: [1.0e-2, 1.0e-3, 1.0e-2]", 2),
])
def test_bad_config_values_exit_2_and_scalar_thresholds_work(tmp_path, capsys, section, line, rc):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"{section}:\n  {line}\n" + (GRID_SMALL if section == "grid" else ""))
    out = str(tmp_path / "out")
    argv = [section, "--config", str(cfg)] + (["--out", out] if section != "verify" else [])
    assert main(argv) == rc
    if rc:
        assert "error: " in capsys.readouterr().err
    else:
        with open(os.path.join(out, "summary.csv"), "r", encoding="utf-8") as fh:
            assert "calls_to_0.001" in fh.readline().split(",")


@pytest.mark.parametrize("line, tag", [
    ("l_init: [100, 1e2]", "gd_L100"),
    ("l_init: [1.0e-7, 1.00000001e-7]", "gd_L1e-07"),  # equal in %g
    ("solvers: [gd, gd]", "gd_L1"),
])
def test_grid_cells_that_would_share_a_directory_exit_2_before_any_runs(
        tmp_path, capsys, line, tag):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("grid:\n  solvers: [gd]\n  l_init: [1]\n  " + line + "\n" + GRID_SMALL)
    out = tmp_path / "out"
    assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"share the directory {tag!r}" in capsys.readouterr().err
    assert not out.exists()


# Hostile values for every config key: each must exit with a documented code
# (never a traceback), and a non-finite value of a numeric key must exit 2.
_HOSTILE = (None, math.nan, math.inf, -math.inf, 0, -1, 0.5, "abc", [1], {"a": 1}, 10 ** 30)
_NUMERIC = {"alpha", "beta", "eps", "max_oracle_calls", "max_iterations", "max_seconds",
            "ll_eps", "seed", "dim", "lam", "rank", "fraction", "l_init", "m0",
            "thresholds", "samples", "box", "l_scale", "m_scale"}
# A cheap base per command, and the settings a key needs to be read at all.
_BASE = {
    "run": {"problem": "quadratic", "dim": 2, "max_iterations": 1, "out": "o"},
    "grid": {"problem": "quadratic", "dim": 2, "max_iterations": 1, "out": "o",
             "solvers": ["proposed"], "l_init": [1.0], "m0": [1.0], "thresholds": [0.1]},
    "verify": {"problems": ["quadratic"], "samples": 1, "dim": 2},
}
_READ_ON = {"rank": {"problem": "matcomp_synthetic"},
            "fraction": {"problem": "matcomp_synthetic"},
            ("run", "ll_eps"): {"solver": "ll2022"},
            ("grid", "ll_eps"): {"solvers": ["ll2022"]},
            "data_path": {"problem": "movielens", "rank": 1, "data_path": "u.data"}}


@pytest.mark.parametrize("command, key", [
    (command, key) for command, defaults in (("run", cli.RUN_DEFAULTS),
                                             ("grid", cli.GRID_DEFAULTS),
                                             ("verify", cli.VERIFY_DEFAULTS))
    for key in defaults])
def test_every_config_key_takes_any_value_without_a_traceback(
        tmp_path, monkeypatch, capsys, command, key):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "u.data").write_text("1\t1\t5\t0\n")
    base = dict(_BASE[command], **_READ_ON.get(key, _READ_ON.get((command, key), {})))
    config = dict(base)
    monkeypatch.setattr(cli, "_load_config", lambda path, section: config)
    assert main([command, "--config", "cfg.yaml"]) == 0  # the base itself runs
    for value in _HOSTILE:
        if key == "samples" and value == 10 ** 30:
            continue  # verify would draw all 10^30 samples it was asked for
        config = dict(base, **{key: value})
        rc = main([command, "--config", "cfg.yaml"])
        capsys.readouterr()
        assert rc in (0, 1, 2, 3), value
        if key in _NUMERIC and isinstance(value, float) and not math.isfinite(value):
            assert rc == 2, value


def test_solves_go_through_the_module_entry_points(tmp_path, monkeypatch):
    # The benchmark swaps these module attributes to capture every solve, so
    # the CLI must look them up at call time.
    seen = []
    for mod, name in ((solver, "run"), (baselines, "gd_run"), (baselines, "ll2022_run")):
        def counted(obj, x_init, params, _fn=getattr(mod, name), _name=name):
            seen.append(_name)
            return _fn(obj, x_init, params)
        monkeypatch.setattr(mod, name, counted)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(GRID_CFG.replace("[proposed, gd]", "[proposed, gd, ll2022]"))
    assert main(["grid", "--config", str(cfg), "--out", str(tmp_path / "grid")]) == 0
    assert seen == ["run"] * 2 + ["gd_run"] * 2 + ["ll2022_run"] * 2
    for name in cli.SOLVERS:
        assert main(["run", "--problem", "quadratic", "--solver", name, "--l-init", "4",
                     "--out", str(tmp_path / name)]) == 0
    assert seen[6:] == ["run", "gd_run", "ll2022_run"]

    for attr in ("make_problem", "write_trace_csv", "read_trace_csv",
                 "write_report_json", "write_traces_svg", "main"):
        assert callable(getattr(cli, attr))
    assert set(cli.SOLVERS) == set(REPORT_SCHEMA["properties"]["solver"]["enum"])


# ---------------------------------------------------------------------------
# plot


def test_plot_renders_svg(tmp_path):
    out_a = str(tmp_path / "fast")
    out_b = str(tmp_path / "slow")
    assert main(["run", "--problem", "rosenbrock", "--solver", "proposed",
                 "--l-init", "100", "--eps", "1e-4", "--out", out_a]) == 0
    assert main(["run", "--problem", "rosenbrock", "--solver", "gd",
                 "--l-init", "100", "--eps", "1e-4", "--out", out_b]) == 0
    svg = str(tmp_path / "fig" / "compare.svg")
    rc = main(["plot", os.path.join(out_a, "trace.csv"),
               os.path.join(out_b, "trace.csv"),
               "--out", svg, "--title", "comparison"])
    assert rc == 0
    text = open(svg, "r", encoding="utf-8").read()
    assert "<svg" in text
    assert "fast" in text and "slow" in text     # labels from directory names
    assert "comparison" in text


def test_plot_rejects_unreadable_trace(tmp_path):
    rc = main(["plot", str(tmp_path / "missing.csv")])
    assert rc == 2


@pytest.mark.parametrize("fields", [6, 12])
def test_plot_rejects_a_trace_row_of_the_wrong_width(tmp_path, capsys, fields):
    # A row cut short (the last line of a killed write) or one with an extra
    # field is a bad input: exit 2 naming the line, not a traceback.
    out = str(tmp_path / "run")
    assert main(["run", "--problem", "quadratic", "--max-iterations", "3",
                 "--out", out]) == 0
    path = os.path.join(out, "trace.csv")
    with open(path, "r", newline="", encoding="utf-8") as fh:
        lines = fh.readlines()
    row = lines[-1].rstrip("\r\n").split(",")
    lines[-1] = ",".join((row + ["x"])[:fields]) + ("\r\n" if fields > 11 else "")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(lines)
    capsys.readouterr()
    assert main(["plot", path, "--out", str(tmp_path / "t.svg")]) == 2
    assert f"line {len(lines)}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "t.svg")


def test_plot_rejects_a_trace_row_with_an_unknown_event(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["run", "--problem", "quadratic", "--max-iterations", "3",
                 "--out", out]) == 0
    path = os.path.join(out, "trace.csv")
    with open(path, "r", newline="", encoding="utf-8") as fh:
        lines = fh.readlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + ",St\0ep\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(lines)
    capsys.readouterr()
    assert main(["plot", path, "--out", str(tmp_path / "t.svg")]) == 2
    assert "line 3: unknown event 'St\\x00ep'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "t.svg")


# Finite values whose span, padded span or decade ticks overflow a float.
EXTREMES = {
    "f_x spans both signs' limits": ((1.5e308, -1.5e308, 0.0), (1.0, 2.0, 3.0)),
    "f_x next to the largest float": ((1.7e308, 1.7976931348623157e308), (1.0, 2.0)),
    "grad norms from subnormal to huge": ((1.0, 2.0), (5e-324, 1e300)),
}


@pytest.mark.parametrize("case", sorted(EXTREMES))
def test_plot_draws_extreme_finite_values(tmp_path, case):
    f_x, monitor = EXTREMES[case]
    path = tmp_path / "run" / "trace.csv"
    path.parent.mkdir()
    write_trace_csv(str(path), [(k + 1, 1, k + 1, 2 * k, f, g, None, 1.0, 0.0, 0.0, "Step")
                                for k, (f, g) in enumerate(zip(f_x, monitor))])
    svg = tmp_path / "t.svg"
    assert main(["plot", str(path), "--out", str(svg)]) == 0
    text = svg.read_text(encoding="utf-8")
    assert text.startswith("<svg") and text.endswith("</svg>\n")
    assert "nan" not in text and "inf" not in text     # every coordinate finite


def _one_ulp_run(entry, params):
    # From this start, f_x ends one ulp of 10 above its least value.
    x0 = np.full(10, math.pi) + 3e-8
    pol = solver.TerminationPolicy(eps=1e-14, max_iterations=50)
    return entry(problems.cosine_sum(10), x0, params(l_init=2.0, termination=pol)).trace


# Series whose values span about one ulp, so that adding a tick step leaves
# the tick where it was.
ONE_ULP = {
    "f_x spans one ulp of 10": lambda: [
        (k + 1, 1, k + 1, 2 * k, f, 1.0, None, 1.0, 0.0, 0.0, "Step")
        for k, f in enumerate((-10.0, -9.999999999999998))],
    "n_oracle spans one ulp of 2**53": lambda: [
        (k + 1, 1, k + 1, calls, 1.0, 1.0, None, 1.0, 0.0, 0.0, "Step")
        for k, calls in enumerate((2 ** 53, 2 ** 53 + 2))],
    "a proposed run's f_x": lambda: _one_ulp_run(solver.run, solver.SolverParams),
    "a gd run's f_x": lambda: _one_ulp_run(baselines.gd_run, baselines.GdParams),
}


@pytest.mark.parametrize("case", sorted(ONE_ULP))
def test_plot_ends_on_a_range_one_ulp_wide(tmp_path, case):
    path = tmp_path / "run" / "trace.csv"
    path.parent.mkdir()
    write_trace_csv(str(path), ONE_ULP[case]())
    f_x = [row.f_x for row in read_trace_csv(str(path))]
    assert max(f_x) - min(f_x) <= math.ulp(f_x[0])

    def stuck(signum, frame):
        raise TimeoutError("plot did not return within 1 s")

    # A tick loop that never ends fails the test instead of hanging it.
    previous = signal.signal(signal.SIGALRM, stuck)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        rc = main(["plot", str(path), "--out", str(tmp_path / "t.svg")])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert rc == 0 and (tmp_path / "t.svg").read_text(encoding="utf-8").endswith("</svg>\n")


def test_plot_draws_an_empty_trace(tmp_path):
    # A run that fails at its first evaluation leaves a header-only trace:
    # both panels are drawn, on their default axes, with no line in them.
    path = tmp_path / "run" / "trace.csv"
    path.parent.mkdir()
    write_trace_csv(str(path), [])
    svg = tmp_path / "t.svg"
    assert main(["plot", str(path), "--out", str(svg)]) == 0
    text = svg.read_text(encoding="utf-8")
    assert text.count('fill="none" stroke="#444" stroke-width="1"/>') == 2
    assert ">objective value</text>" in text and ">gradient norm</text>" in text
    assert "<polyline" not in text


# ---------------------------------------------------------------------------
# an output path that cannot be written


@pytest.mark.parametrize("command", ["run", "grid", "plot"])
def test_an_out_under_a_regular_file_exits_2_with_one_error_line(tmp_path, capsys, command):
    trace = tmp_path / "trace.csv"
    write_trace_csv(str(trace), [])
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = {"run": ["run", "--problem", "quadratic", "--max-iterations", "3"],
            "grid": ["grid"], "plot": ["plot", str(trace)]}[command]
    capsys.readouterr()
    assert main(argv + ["--out", str(blocker / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert blocker.read_text() == ""


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_with_true_constants(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "verify:\n"
        "  problems: [quadratic, cosine_sum]\n"
        "  dim: 3\n"
        "  samples: 300\n"
    )
    rc = main(["verify", "--config", str(cfg)])
    assert rc == 0
    shown = capsys.readouterr().out
    assert shown.count("PASS") == 6      # 3 suites x 2 problems
    assert "FAIL" not in shown


def test_verify_catches_understated_curvature(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "verify:\n"
        "  problems: [cosine_sum]\n"
        "  dim: 2\n"
        "  samples: 500\n"
        "  m_scale: 0.5\n"
    )
    rc = main(["verify", "--config", str(cfg)])
    assert rc == 1
    shown = capsys.readouterr().out
    assert "FAIL" in shown
    assert "witness" in shown


@pytest.mark.parametrize("problem, setting, rc", [
    # The known M of a quadratic is 0, so both sides of the trapezoid and
    # Jensen checks are rounding: it grows with lam and is forgiven.
    ("quadratic", "lam: 1.0e12", 0),
    ("quadratic", "lam: 1.0e30", 0),
    ("cosine_sum", "m_scale: 0.01", 1),
])
def test_verify_forgives_the_rounding_of_the_operands_only(tmp_path, capsys, problem, setting, rc):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"verify:\n  problems: [{problem}]\n  samples: 200\n  {setting}\n")
    assert main(["verify", "--config", str(cfg)]) == rc
    shown = capsys.readouterr().out
    assert ("FAIL trapezoid" in shown) == ("FAIL jensen_gradient" in shown) == (rc == 1)
    # The printed margin is slack plus tolerance: negative exactly on a FAIL.
    lines = [line for line in shown.splitlines() if "worst margin=" in line]
    assert len(lines) == 3
    for line in lines:
        margin = float(line.rsplit("worst margin=", 1)[1])
        assert (margin >= 0.0) == line.startswith("PASS"), line


def test_verify_rejects_bad_sample_count():
    assert main(["verify", "--samples", "0"]) == 2


def test_verify_bounds_rosenbrock_over_its_sampling_box(tmp_path, capsys):
    # Rosenbrock declares no curvature constants, so verify uses the
    # conservative bounds over the sampling box.
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("verify:\n  problems: [rosenbrock]\n  samples: 100\n  box: 2.0\n")
    assert main(["verify", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.count("PASS") == 3


def test_verify_without_curvature_constants_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("verify:\n  problems: [matcomp_synthetic]\n  samples: 5\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "no curvature constants" in capsys.readouterr().err


@pytest.mark.parametrize("text, error", [
    ("run: [unclosed\n", "could not parse"),
    ("", None),                                    # an empty file sets nothing
    ("- run\n- grid\n", "top level must be a mapping"),
    ("run:\n", None),                              # a null section sets nothing
    ("run: 3\n", "section 'run' must be a mapping"),
])
def test_config_file_shapes(tmp_path, capsys, text, error):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    out = str(tmp_path / "cell")
    assert main(["run", "--config", str(cfg), "--problem", "quadratic",
                 "--max-iterations", "3", "--out", out]) == (0 if error is None else 2)
    assert os.path.exists(os.path.join(out, "report.json")) == (error is None)
    err = capsys.readouterr().err
    assert err == "" if error is None else error in err


@pytest.mark.parametrize("command", ["run", "grid", "verify"])
def test_a_config_file_that_is_not_utf8_exits_2_with_one_error_line(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_bytes(f"{command}:\n  seed: ".encode() + b"\xff\xfe\n")
    argv = [command, "--config", str(cfg)] + (["--out", str(tmp_path / "out")]
                                             if command != "verify" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: could not parse {cfg}: "), err


@pytest.mark.parametrize("text, message", [
    ("1\t2\t3", "line 1: expected 4 tab-separated fields, got 3"),
    ("1\t2000\t5\t874965758", "line 1: item id 2000 outside [1, 1682]"),
], ids=["fields", "item_id"])
@pytest.mark.parametrize("command", ["run", "grid", "verify"])
def test_a_malformed_movielens_file_exits_2_naming_its_line(
        tmp_path, capsys, monkeypatch, command, text, message):
    (tmp_path / "u.data").write_text(text + "\n", encoding="utf-8")
    monkeypatch.setenv("RESTARTAGD_DATA", str(tmp_path))  # verify reads no data_path
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text({
        "run": f"run:\n  problem: movielens\n  data_path: {tmp_path / 'u.data'}\n",
        "grid": f"grid:\n  problem: movielens\n  data_path: {tmp_path / 'u.data'}\n"
                "  solvers: [gd]\n  l_init: [1.0]\n",
        "verify": "verify:\n  problems: [movielens]\n",
    }[command])
    argv = [command, "--config", str(cfg)] + (["--out", str(tmp_path / "out")]
                                             if command != "verify" else [])
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    if command == "grid":   # the problem is built before the summary is opened
        assert not (tmp_path / "out" / "summary.csv").exists()
