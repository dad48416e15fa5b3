"""Trace CSV round trips and the JSON report schema."""

import csv
import dataclasses
import gc
import io
import json
import re
import struct
import tracemalloc
from array import array

import jsonschema
import numpy as np
import pytest

from restartagd import (REPORT_SCHEMA, GdParams, LL2022Params, Objective,
                        RunReport, SolverParams, TerminationPolicy, Trace,
                        TraceRecord, gd_run, ll2022_run, make_problem,
                        read_trace_csv, report_to_dict, run,
                        write_report_json, write_trace_csv)
from restartagd.trace import EVENTS, TRACE_COLUMNS, TraceWriter


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


def test_streaming_writer_matches_the_trace_writer(tmp_path):
    recs = _edge_records()
    buf = io.StringIO(newline="")
    writer = TraceWriter(buf)
    for rec in recs:
        writer.add_rows([rec])
    writer.close()
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), recs)
    assert buf.getvalue().encode("utf-8") == path.read_bytes()


# Adjacent values a writer that reuses the previous row's text must tell
# apart (zeros of either sign, NaN after NaN, None after a value and back)
# or may share (an int and the equal float, which print alike).
NAN = float("nan")
REPEATS = {
    "f_x": [0.0, -0.0, 0.0, NAN, NAN, 1.5, 1.5, -0.0],
    "grad_norm_monitor": [-0.0, 0.0, -0.0, NAN, NAN, 2.5, 2.5, 0.0],
    "grad_norm_ybar": [None, 0.75, 0.75, 0.75, None, 0.0, -0.0, None],
    "L": [100, 100.0, 100, 100.0, NAN, NAN, 0.0, -0.0],
    "M": [0.0, -0.0, -0.0, 0.0, 0, 0.0, NAN, NAN],
    "S_k": [0.0, -0.0, 0.0, -0.0, -0.0, NAN, NAN, 3.0],
}


def _repeat_records():
    n = len(REPEATS["f_x"])
    return [TraceRecord(K=i + 1, epoch=1, k=i + 1, n_oracle=2 * i, event="Step",
                        **{name: column[i] for name, column in REPEATS.items()})
            for i in range(n)]


def test_repeated_values_are_written_as_their_own_text(tmp_path):
    recs = _repeat_records()
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), recs)
    assert path.read_bytes() == _reference_csv(recs).encode("utf-8")
    buf = io.StringIO(newline="")
    writer = TraceWriter(buf)
    for rec in recs:        # one row a call: the last row's texts carry over
        writer.add_rows([rec])
    writer.close()
    assert buf.getvalue().encode("utf-8") == path.read_bytes()


def test_repeated_texts_read_back_bit_for_bit_as_shared_floats(tmp_path):
    path = str(tmp_path / "trace.csv")
    write_trace_csv(path, _repeat_records())
    back = read_trace_csv(path)
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(back) == len(rows)
    for name in REPEATS:
        want = [None if row[name] == "" else float(row[name]) for row in rows]
        got = list(getattr(back, name))
        assert [v is None for v in got] == [v is None for v in want], name
        assert ([struct.pack("<d", v) for v in got if v is not None]
                == [struct.pack("<d", v) for v in want if v is not None]), name
    ybar = back.grad_norm_ybar
    assert ybar[1] is ybar[2] is ybar[3] and ybar[0] is ybar[4] is None
    assert back.L[0] is back.L[1] is back.L[2] and back.M[1] is back.M[2]


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


# A run past its fixed point (the long-trace benchmark's problem and start):
# after a few hundred calls every row repeats its epoch's objects.
def _long_run(iterations):
    spec = make_problem("cosine_sum", seed=0)
    return run(spec.objective, spec.x_init,
               SolverParams(termination=TerminationPolicy(max_iterations=iterations)))


def _bytes_per_row(build):
    """Python heap a trace from ``build()`` keeps, per row, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return grown / len(kept.trace if isinstance(kept, RunReport) else kept)


def test_a_trace_holds_at_most_128_bytes_a_row(tmp_path):
    # As records, a row took about 310 B in a run and 424 B read back.
    n = 20_000
    assert _bytes_per_row(lambda: _long_run(n)) <= 128
    path = str(tmp_path / "trace.csv")
    write_trace_csv(path, _long_run(n).trace)
    assert _bytes_per_row(lambda: read_trace_csv(path)) <= 128


def test_trace_behaves_as_the_list_of_its_records(tmp_path):
    recs = sample_records()
    t = Trace(recs)
    assert len(t) == 3 and list(t) == recs and t == recs and recs == t
    assert t[0] == recs[0] and t[-1] == recs[-1] and t[1:] == recs[1:]
    assert type(t[:2]) is list and t[5:] == []
    assert all(type(r) is TraceRecord for r in t)
    with pytest.raises(IndexError):
        t[3]
    assert t != recs[:2] and t != recs[::-1] and t != 3
    assert Trace(t) == t and Trace(list(t)) == recs and Trace() == []
    t.append(recs[0])
    assert len(t) == 4 and t[-1] == recs[0] and t.K.tolist() == [1, 2, 3, 1]
    path = str(tmp_path / "trace.csv")
    write_trace_csv(path, recs)
    back = read_trace_csv(path)
    assert type(back) is Trace and back == Trace(recs)
    assert [getattr(back, name) for name in TRACE_COLUMNS] == list(back.columns)


def test_a_record_iterates_as_its_row_in_column_order():
    assert tuple(f.name for f in dataclasses.fields(TraceRecord)) == TRACE_COLUMNS
    for rec in sample_records():
        assert tuple(rec) == tuple(getattr(rec, name) for name in TRACE_COLUMNS)
        assert TraceRecord(*rec) == rec


def _columns(trace):
    # Float arrays compare by their bits, so a NaN equals its own copy.
    return [c.tobytes() if isinstance(c, array) else c for c in trace.columns]


def test_a_trace_of_rows_equals_the_trace_of_the_equal_records(tmp_path):
    nan = float("nan")
    rows = [(1, 1, 1, 6, 3.25, 1.5, None, 100, 1e-16, 4.0, "Step"),
            (2, 1, 2, 10, nan, 0.25, 0.75, 100, nan, -0.0, "RestartSuccessful"),
            (3, 2, 1, 15, -0.0, nan, None, 9e-4, nan, 0.5, "Terminated")]
    recs = [TraceRecord(*row) for row in rows]
    from_rows, from_recs = Trace(rows), Trace(recs)
    # A NaN read from a float array is a new object, which no record equals.
    assert _columns(from_rows) == _columns(from_recs) and from_rows[0] == recs[0]
    assert type(from_rows.L[0]) is int and from_rows.grad_norm_ybar[0] is None
    # Appending mixes the two shapes; writing takes either.
    from_rows.append(recs[0])
    from_recs.append(rows[0])
    assert _columns(from_rows) == _columns(from_recs)
    path_rows, path_recs = tmp_path / "rows.csv", tmp_path / "recs.csv"
    write_trace_csv(str(path_rows), rows)
    write_trace_csv(str(path_recs), recs)
    assert path_rows.read_bytes() == path_recs.read_bytes()
    buf = io.StringIO(newline="")
    TraceWriter(buf).add_rows(rows)
    assert buf.getvalue().encode("utf-8") == path_rows.read_bytes()


def test_trace_columns_keep_types_shared_objects_and_float_bits(tmp_path):
    quad = make_problem("quadratic", dim=3)
    pol = TerminationPolicy(max_iterations=50)
    rep = run(quad.objective, quad.x_init, SolverParams(l_init=100, m0=1, termination=pol))
    assert type(rep.trace[0].L) is int and type(rep.trace[0].M) is int
    assert rep.trace[0].grad_norm_ybar is None
    assert all(e in EVENTS for e in rep.trace.event)
    # Read back, L and M are floats, one object for each run of equal text.
    path = str(tmp_path / "trace.csv")
    write_trace_csv(path, rep.trace)
    back = read_trace_csv(path)
    assert type(back[0].L) is float and back == rep.trace
    assert back.L[0] is back.L[1] and back.M[0] is back.M[1]
    canonical = {name: name for name in EVENTS}
    assert all(e is canonical[e] for e in back.event)

    # ll2022's diagnostic f_x is whatever value_fn returned, bits and all.
    odd_nan = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0123))[0]
    values = iter([odd_nan, -0.0] * 10)
    obj = Objective(dim=2, value_fn=lambda x: next(values), grad_fn=lambda x: x)
    rep = ll2022_run(obj, [1.0, 2.0], LL2022Params(l_f=100, m_f=1,
                                                   termination=TerminationPolicy(max_iterations=4)))
    bits = [struct.pack("<d", v) for v in rep.trace.f_x]
    assert bits == [struct.pack("<d", v) for v in (odd_nan, -0.0, odd_nan, -0.0)]
    assert [struct.pack("<d", r.f_x) for r in rep.trace] == bits
    assert type(rep.trace.L[0]) is int and rep.trace.grad_norm_ybar == [None] * 4
