"""Runs at a bitwise fixed point: the ``stalled`` flag, the ``Stalled`` stop
and the rows ``drive`` appends in bulk instead of stepping.

A run with an observer takes the step loop for every row, so each case runs
once with a no-op observer and once without one, and the two reports must
agree in every field, bit for bit."""

import dataclasses
import json
import os

import jsonschema
import pytest

from restartagd import (CERTIFY_EVERY_ITER, REPORT_SCHEMA, GdParams, LL2022Params,
                        OracleError, RunReport, SolverParams, TerminationPolicy,
                        Trace, cli, ll2022_run, make_problem, run)
from restartagd.baselines import _LL2022, _Gd
from restartagd.solver import _Proposed, drive


def _outcome(spec, method, params, observer=None):
    try:
        return drive(spec.objective, spec.x_init, params, method, observer)
    except OracleError as exc:
        return exc


def _assert_same(stepped, filled, case):
    """Two outcomes of one case: equal reports (every field, the solution's
    bytes, the trace and the certified path), or the same error with equal
    partial traces."""
    assert type(stepped) is type(filled), case
    if not isinstance(stepped, RunReport):
        assert str(stepped) == str(filled), case
        assert stepped.partial_trace == filled.partial_trace, case
        return
    for f in dataclasses.fields(RunReport):
        a, b = getattr(stepped, f.name), getattr(filled, f.name)
        if f.name == "solution":
            assert a.tobytes() == b.tobytes(), case
        else:
            assert a == b, (case, f.name)


def _compare(spec, method, params, case):
    """Run the case through the step loop (with an observer) and through the
    fill (without one), compare the outcomes, check that the observed run
    made no oracle call after its first stalled row, and return that row's
    ``K`` (None if it never stalled)."""
    seen = []
    stepped = _outcome(spec, method, params,
                       lambda m, record: seen.append((record.K, m.stalled, record.n_oracle)))
    _assert_same(stepped, _outcome(spec, method, params), case)
    first = next((K for K, stalled, _ in seen if stalled), None)
    if first is not None:
        assert len({n for K, _, n in seen if K >= first}) == 1, case
    return first


FIXED_POINT_POLICY = TerminationPolicy(max_iterations=120)

# The golden corpus's ``fixed-point/*`` cases: cosine_sum from its seed-0
# start at l_init = 1e-3, 120 iterations.
FIXED_POINT_CASES = {
    "practical": (_Proposed, SolverParams(l_init=1e-3, termination=FIXED_POINT_POLICY)),
    "theoretical": (_Proposed, SolverParams(l_init=1e-3, m_variant="theoretical",
                                            termination=FIXED_POINT_POLICY)),
    "everyiter": (_Proposed, SolverParams(l_init=1e-3, termination=dataclasses.replace(
        FIXED_POINT_POLICY, certify_mode=CERTIFY_EVERY_ITER))),
    "gd": (_Gd, GdParams(l_init=1e-3, termination=FIXED_POINT_POLICY)),
    "ll2022": (_LL2022, LL2022Params(l_f=1e-3, m_f=1, termination=FIXED_POINT_POLICY)),
}


@pytest.mark.parametrize("name", sorted(FIXED_POINT_CASES))
def test_golden_fixed_point_cases_fill_as_they_step(name):
    method, params = FIXED_POINT_CASES[name]
    first = _compare(make_problem("cosine_sum"), method, params, name)
    if name == "practical":     # stalls at row 107 and fills the last 13 rows
        assert first == 107
    if name in ("theoretical", "everyiter", "gd"):    # they never stall
        assert first is None


def test_a_seeded_sweep_fills_as_it_steps():
    specs = [make_problem(name, seed=3, dim=d)
             for name in ("cosine_sum", "quadratic") for d in (2, 10)]
    specs.append(make_problem("rosenbrock"))
    stalls = {"proposed": 0, "ll2022": 0}
    for spec in specs:
        for l_init in (1e-3, 1.0, 100.0):
            for eps in (None, 1e-12):
                pol = TerminationPolicy(eps=eps, max_iterations=3000)
                for name, method, params in (
                        ("proposed", _Proposed, SolverParams(l_init=l_init, termination=pol)),
                        ("ll2022", _LL2022, LL2022Params(l_f=l_init, m_f=1, termination=pol))):
                    case = (spec.name, spec.objective.dim, l_init, eps, name)
                    if _compare(spec, method, params, case) is not None:
                        stalls[name] += 1
    # Both methods reach fixed points in the sweep, so it compares filled rows.
    assert stalls["proposed"] >= 2 and stalls["ll2022"] >= 2, stalls


def test_a_stalled_ll2022_run_steps_through_its_later_restart():
    # Stalled at row 58 with S_k > 0, so its restart test still fires, at
    # row 308 and at the same point; the rows after it, with S_k = 0, repeat.
    spec = make_problem("cosine_sum")
    params = LL2022Params(l_f=2, m_f=1e12, termination=TerminationPolicy(max_iterations=3000))
    assert _compare(spec, _LL2022, params, "m_f=1e12") == 58
    rep = drive(spec.objective, spec.x_init, params, _LL2022)
    restarts = [K for K, event in zip(rep.trace.K, rep.trace.event) if event != "Step"]
    assert restarts[-1] == 308 and restarts[-2] < 58
    assert rep.n_oracle == 58 and rep.trace.S_k[-1] == 0.0


@pytest.mark.parametrize("solve, calls, rows", [
    (lambda spec, pol: run(spec.objective, spec.x_init, SolverParams(termination=pol)),
     232, 107),
    (lambda spec, pol: ll2022_run(spec.objective, spec.x_init,
                                  LL2022Params(l_f=2, termination=pol)),
     58, 58),
])
def test_a_budget_only_run_stops_as_stalled(solve, calls, rows):
    spec = make_problem("cosine_sum")
    rep = solve(spec, TerminationPolicy(max_oracle_calls=1e6, max_seconds=1))
    assert rep.reason == "Stalled"     # not TimeLimit: it stopped before the clock
    assert (rep.n_oracle, rep.total_K, len(rep.trace)) == (calls, rows, rows)
    assert rep.trace.n_oracle[-1] == calls


@pytest.mark.parametrize("budget, rows", [(2.5, 3), (500.5, 501)])
def test_a_stalled_run_keeps_a_non_integer_budget(budget, rows):
    # The loop stops at len(trace) >= max_iterations: ceil(max_iterations) rows.
    spec = make_problem("cosine_sum")
    params = SolverParams(termination=TerminationPolicy(max_iterations=budget))
    _compare(spec, _Proposed, params, budget)
    rep = drive(spec.objective, spec.x_init, params, _Proposed)
    assert (rep.reason, len(rep.trace), rep.total_K) == ("BudgetExhausted", rows, rows)


def test_a_stalled_run_with_a_clock_fills_its_whole_budget():
    spec = make_problem("cosine_sum")
    rep = run(spec.objective, spec.x_init, SolverParams(
        termination=TerminationPolicy(max_iterations=100_000, max_seconds=60)))
    assert (rep.reason, len(rep.trace), rep.n_oracle) == ("BudgetExhausted", 100_000, 232)
    assert list(rep.trace.K[-3:]) == [99_998, 99_999, 100_000]


def test_the_observer_sees_every_row_of_a_stalled_run():
    spec = make_problem("cosine_sum")
    seen = []

    def observer(m, record):
        # A restart row's k is the ended epoch's; the method's is then 0.
        k_ok = m.k == record.k or record.event.startswith("Restart") and m.k == 0
        seen.append((record.K, k_ok, m.stalled))

    params = SolverParams(termination=TerminationPolicy(max_iterations=300))
    rep = drive(spec.objective, spec.x_init, params, _Proposed, observer)
    assert [K for K, _, _ in seen] == list(range(1, 301)) == list(rep.trace.K)
    assert all(same for _, same, _ in seen)
    assert [stalled for *_, stalled in seen].index(True) == 106


def test_the_fill_leaves_K_and_k_where_the_steps_would():
    made = []

    class Kept(_Proposed):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    spec = make_problem("cosine_sum")
    params = SolverParams(termination=TerminationPolicy(max_iterations=300))
    reports = [drive(spec.objective, spec.x_init, params, Kept, observer)
               for observer in (lambda m, record: None, None)]
    stepped, filled = made
    assert (stepped.k, stepped.epoch) == (filled.k, filled.epoch)
    assert [report.trace.K[-1] for report in reports] == [300, 300]


def test_repeat_last_counts_K_and_k_up_and_repeats_the_rest():
    rows = [(1, 1, 1, 4, -1.0, 0.5, None, 2, 1.0, 0.0, "Step"),
            (2, 1, 2, 4, -1.0, 0.25, 0.125, 2, 1.0, 0.0, "Step")]
    trace = Trace(rows)
    trace.repeat_last(0)
    assert list(map(tuple, trace)) == rows
    trace.repeat_last(3)
    assert list(map(tuple, trace)) == rows + [(K, 1, K, 4, -1.0, 0.25, 0.125, 2, 1.0, 0.0, "Step")
                            for K in (3, 4, 5)]
    assert type(trace.L[-1]) is int


def test_repeat_last_records_the_range_it_filled():
    row = (1, 1, 1, 4, -1.0, 0.5, None, 2, 1.0, 0.0, "Step")
    trace = Trace([row, row])
    assert trace.filled == (0, 0)
    trace.repeat_last(3)
    assert trace.filled == (2, 5)
    trace.repeat_last(2)    # a fill where the last one ended extends its range
    trace.repeat_last(0)
    assert trace.filled == (2, 7)
    trace.append(row)
    trace.repeat_last(4)    # one after a stepped row starts a range of its own
    assert trace.filled == (8, 12)
    trace.append(row)
    trace.repeat_last(0)
    assert trace.filled == (13, 13) and len(trace) == 13


def test_a_fill_cut_short_keeps_the_range_of_the_last_whole_one():
    trace = Trace([(1, 1, 1, 4, -1.0, 0.5, None, 2, 1.0, 0.0, "Step")])
    trace.repeat_last(3)

    class Cut(list):
        def extend(self, values):
            raise KeyboardInterrupt

    trace.columns = trace.columns[:-1] + (Cut(trace.event),)
    with pytest.raises(KeyboardInterrupt):
        trace.repeat_last(5)    # every column but ``event`` has grown
    assert trace.filled == (1, 4)


def test_a_stalled_cli_run_reports_stalled(tmp_path):
    out = str(tmp_path / "run")
    assert cli.main(["run", "--problem", "cosine_sum", "--eps", "0",
                     "--max-oracle-calls", "1000000", "--out", out]) == cli.EXIT_OK
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert (doc["reason"], doc["n_oracle"], doc["total_K"]) == ("Stalled", 232, 107)
