"""End-to-end CLI tests: run, grid, plot, verify, exit codes, config files."""

import csv
import dataclasses
import filecmp
import json
import os
import warnings

import jsonschema
import pytest

from restartagd import REPORT_SCHEMA, baselines, cli, read_trace_csv, solver
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
    # The CLI's defaults are literal; they must stay the library's defaults.
    d = cli.RUN_DEFAULTS
    params, pol = solver.SolverParams(), solver.DEFAULT_TERMINATION
    for key in ("l_init", "m0", "alpha", "beta", "m_variant"):
        assert d[key] == getattr(params, key), key
    for key in ("certify_mode", "eps", "max_oracle_calls", "max_iterations", "max_seconds"):
        assert d[key] == getattr(pol, key), key
    assert d["ll_eps"] == baselines.LL2022Params(l_f=1.0).eps
    gd = baselines.GdParams()
    for key in ("l_init", "alpha", "beta"):
        assert d[key] == getattr(gd, key), key
    assert gd.termination == pol


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
    built, make = [], cli.make_problem

    def interrupt(x):
        raise KeyboardInterrupt

    def make_problem(*args, **kwargs):  # the second cell's gradient is a Ctrl-C
        spec = make(*args, **kwargs)
        built.append(spec)
        if len(built) == 2:
            spec = dataclasses.replace(spec, objective=dataclasses.replace(
                spec.objective, grad_fn=interrupt))
        return spec

    monkeypatch.setattr(cli, "make_problem", make_problem)
    out = str(tmp_path / "cut")
    with pytest.raises(KeyboardInterrupt):
        main(["grid", "--config", str(cfg), "--out", out])
    assert len(built) == 2
    with open(os.path.join(out, "summary.csv"), "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(os.path.join(whole, "summary.csv"), "r", encoding="utf-8") as fh:
        assert lines == fh.read().splitlines()[:2]


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


def test_verify_rejects_bad_sample_count():
    assert main(["verify", "--samples", "0"]) == 2
