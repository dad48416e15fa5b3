"""Trace CSV round trips and the JSON report schema."""

import csv
import io
import json
import re

import jsonschema
import numpy as np
import pytest

from restartagd import (REPORT_SCHEMA, GdParams, LL2022Params, SolverParams,
                        TerminationPolicy, TraceRecord, gd_run, ll2022_run,
                        make_problem, read_trace_csv, report_to_dict, run,
                        write_report_json, write_trace_csv)
from restartagd.trace import EVENTS, TRACE_COLUMNS


def sample_records():
    return [
        TraceRecord(K=1, epoch=1, k=1, n_oracle=6, f_x=3.25,
                    grad_norm_monitor=1.5, grad_norm_ybar=None,
                    L=1e-3, M=1e-16, S_k=4.0, event="Step"),
        TraceRecord(K=2, epoch=1, k=2, n_oracle=10, f_x=0.125,
                    grad_norm_monitor=0.25, grad_norm_ybar=0.75,
                    L=1e-3, M=0.5, S_k=4.5, event="RestartSuccessful"),
        TraceRecord(K=3, epoch=2, k=1, n_oracle=15,
                    f_x=0.1 + 0.2,                  # not a round float
                    grad_norm_monitor=1e-300, grad_norm_ybar=5e-324,
                    L=9e-4, M=0.5, S_k=0.015625, event="Terminated"),
    ]


def test_trace_csv_round_trip_is_exact(tmp_path):
    path = str(tmp_path / "trace.csv")
    recs = sample_records()
    write_trace_csv(path, recs)
    back = read_trace_csv(path)
    assert back == recs          # dataclass equality, field for field


def test_trace_csv_preserves_missing_certificates(tmp_path):
    path = str(tmp_path / "trace.csv")
    write_trace_csv(path, sample_records())
    back = read_trace_csv(path)
    assert back[0].grad_norm_ybar is None
    assert back[1].grad_norm_ybar == 0.75


def test_trace_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bogus.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_trace_csv(str(path))


# A valid fourth row cut short, as a killed write leaves it, and the same row
# with a field too many.
BAD_ROWS = {
    "short": "4,2,1,20,0.5,0.25",
    "long": "4,2,1,20,0.5,0.25,,0.001,0.5,1.0,Step,extra\r\n",
}


@pytest.mark.parametrize("kind", sorted(BAD_ROWS))
def test_trace_row_of_the_wrong_width_names_its_line(tmp_path, kind):
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), sample_records())
    with open(path, "a", newline="", encoding="utf-8") as fh:
        fh.write(BAD_ROWS[kind])
    with pytest.raises(ValueError, match="line 5"):
        read_trace_csv(str(path))


@pytest.mark.parametrize("event", ["St\0ep", "step", "Step ", ""])
def test_trace_row_with_an_unknown_event_names_its_line(tmp_path, event):
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), sample_records())
    with open(path, "a", newline="", encoding="utf-8") as fh:
        fh.write(f"4,2,1,20,0.5,0.25,,0.001,0.5,1.0,{event}\r\n")
    with pytest.raises(ValueError, match=re.escape(f"line 5: unknown event {event!r}")):
        read_trace_csv(str(path))


def _edge_records():
    """Rows from real runs with int-valued L and M and every event name, plus
    made-up rows holding non-finite, subnormal and very large floats."""
    cos, quad = make_problem("cosine_sum", dim=3), make_problem("quadratic", dim=3)
    rosen = make_problem("rosenbrock")
    pol = TerminationPolicy(eps=1e-6, max_iterations=300)
    recs = list(run(cos.objective, cos.x_init, SolverParams(l_init=100, termination=pol)).trace)
    recs += ll2022_run(quad.objective, quad.x_init,
                       LL2022Params(l_f=100, m_f=1, termination=pol)).trace[:20]
    recs += gd_run(rosen.objective, rosen.x_init, GdParams(l_init=1e-3, termination=pol)).trace[:20]
    recs += run(rosen.objective, rosen.x_init, SolverParams(termination=pol)).trace[:20]
    odd = (float("nan"), float("inf"), -float("inf"), 5e-324, 2.2250738585072014e-309,
           -0.0, 1e16, 1.2345678901234567e17, 1.7976931348623157e308)
    for i, v in enumerate(odd):
        recs.append(TraceRecord(K=i, epoch=1, k=i, n_oracle=10 ** i, f_x=v,
                                grad_norm_monitor=abs(v), grad_norm_ybar=None if i % 2 else v,
                                L=v, M=abs(v), S_k=abs(v), event="Step"))
    return recs


def _reference_csv(records):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(TRACE_COLUMNS)
    for r in records:
        floats = (r.f_x, r.grad_norm_monitor, r.grad_norm_ybar, r.L, r.M, r.S_k)
        writer.writerow([r.K, r.epoch, r.k, r.n_oracle]
                        + ["" if v is None else repr(float(v)) for v in floats]
                        + [r.event])
    return buf.getvalue()


def test_trace_rows_match_the_csv_module_byte_for_byte(tmp_path):
    recs = _edge_records()
    # The solvers' runs above emit every name in ``trace.EVENTS`` and no other.
    assert {r.event for r in recs} == EVENTS
    assert any(type(r.L) is int for r in recs) and any(type(r.M) is int for r in recs)
    assert any(r.grad_norm_ybar is None for r in recs)
    for name in EVENTS:
        assert not set(name) & set(',"\r\n'), name
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), recs)
    assert path.read_bytes() == _reference_csv(recs).encode("utf-8")
    assert "100.0" in path.read_text().splitlines()[1].split(",")


def test_real_run_trace_round_trips(tmp_path):
    spec = make_problem("rosenbrock")
    rep = run(spec.objective, spec.x_init,
              SolverParams(termination=TerminationPolicy(eps=1e-4,
                                                         max_iterations=200)))
    path = str(tmp_path / "trace.csv")
    write_trace_csv(path, rep.trace)
    assert read_trace_csv(path) == rep.trace


def test_report_dict_validates_against_schema(tmp_path):
    spec = make_problem("rosenbrock")
    rep = run(spec.objective, spec.x_init,
              SolverParams(termination=TerminationPolicy(eps=1e-4,
                                                         max_iterations=500)))
    doc = report_to_dict(rep, problem="rosenbrock", solver="proposed",
                         params={"l_init": 1e-3}, trace_path="trace.csv",
                         wall_seconds=0.25)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["n_oracle"] == doc["n_value"] + doc["n_grad"]

    out = tmp_path / "report.json"
    write_report_json(str(out), doc)
    assert json.loads(out.read_text()) == doc


def test_schema_rejects_malformed_reports():
    spec = make_problem("rosenbrock")
    rep = run(spec.objective, spec.x_init,
              SolverParams(termination=TerminationPolicy(max_iterations=3)))
    doc = report_to_dict(rep, problem="rosenbrock", solver="proposed",
                         params={})
    bad = dict(doc, reason="GaveUp")
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, REPORT_SCHEMA)
    bad = dict(doc, solver="sgd")
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, REPORT_SCHEMA)
    bad = {k: v for k, v in doc.items() if k != "certified_grad_norm"}
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, REPORT_SCHEMA)


def test_solution_serializes_as_plain_floats():
    spec = make_problem("quadratic", dim=3)
    rep = run(spec.objective, spec.x_init,
              SolverParams(termination=TerminationPolicy(max_iterations=2)))
    doc = report_to_dict(rep, problem="quadratic", solver="proposed", params={})
    assert all(isinstance(v, float) for v in doc["solution"])
    assert np.asarray(doc["solution"]).shape == (3,)
