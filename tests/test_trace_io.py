"""Trace CSV round trips and the JSON report schema."""

import csv
import dataclasses
import gc
import io
import json
import math
import os
import random
import re
import struct
import threading
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
from restartagd import trace as trace_module
from restartagd.trace import EVENTS, TRACE_COLUMNS, TraceWriter

from reference import PlainTraceWriter, fill_text, read_trace_per_field


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
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), recs)
    assert buf.getvalue().encode("utf-8") == path.read_bytes()


# Adjacent values a writer that reuses the previous row's text must tell
# apart (zeros of either sign, NaN after NaN, None after a value and back)
# or may share (an int and the equal float, which print alike; one object
# held for rows, then an equal one).  Ints and NumPy scalars are written as
# the float they convert to: ``np.float32(0.1)`` as 0.10000000149011612.
NAN = float("nan")
HELD = float("0.1")
REPEATS = {
    "f_x": [0.0, -0.0, 0.0, NAN, NAN, 1.5, 1.5, -0.0,
            np.float64(0.5), 3, np.float32(0.1), 3, -2],
    "grad_norm_monitor": [-0.0, 0.0, -0.0, NAN, NAN, 2.5, 2.5, 0.0,
                          4, np.float32(0.1), np.float64(2.5), 0, 7],
    "grad_norm_ybar": [None, 0.75, 0.75, 0.75, None, 0.0, -0.0, None,
                       None, 1, 1, np.float32(0.1), None],
    "L": [100, 100.0, 100, 100.0, NAN, NAN, 0.0, -0.0,
          HELD, HELD, HELD, float("0.1"), 2],
    "M": [0.0, -0.0, -0.0, 0.0, 0, 0.0, NAN, NAN,
          np.float32(0.1), 1, 1, np.float64(-0.0), 0.0],
    "S_k": [0.0, -0.0, 0.0, -0.0, -0.0, NAN, NAN, 3.0,
            np.float32(0.1), 5, 5, np.float64(0.0), -0.0],
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
                         params={"l_init": 1e-3}, trace_path="trace.csv")
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


def _column_bits(column):
    """Every field of a trace column as its type and bits, NaN payloads included."""
    return column.tobytes() if isinstance(column, array) else [
        (type(v), v if v is None or isinstance(v, str) else struct.pack("<d", v)) for v in column]


def _bits(trace):
    """Every field of ``trace`` as its type and bits, column by column."""
    return [_column_bits(c) for c in trace.columns]


def test_a_trace_of_rows_equals_the_trace_of_the_equal_records(tmp_path):
    nan = float("nan")
    rows = [(1, 1, 1, 6, 3.25, 1.5, None, 100, 1e-16, 4.0, "Step"),
            (2, 1, 2, 10, nan, 0.25, 0.75, 100, nan, -0.0, "RestartSuccessful"),
            (3, 2, 1, 15, -0.0, nan, None, 9e-4, nan, 0.5, "Terminated")]
    recs = [TraceRecord(*row) for row in rows]
    from_rows, from_recs = Trace(rows), Trace(recs)
    # A NaN read from a float array is a new object, which no record equals.
    assert _bits(from_rows) == _bits(from_recs) and from_rows[0] == recs[0]
    assert type(from_rows.L[0]) is int and from_rows.grad_norm_ybar[0] is None
    assert repr(from_rows) == repr(from_recs) == f"Trace({recs!r})"
    # Appending mixes the two shapes; writing takes either.
    from_rows.append(recs[0])
    from_recs.append(rows[0])
    assert _bits(from_rows) == _bits(from_recs)
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


# The writer, which formats a float field only when it differs from the row
# before, against one that formats every field: the same bytes for any rows,
# however they are handed over.  The lengths and chunk sizes straddle 1,024
# and its multiples, the blocks an earlier writer worked in; the tests below
# keep the names they had then ("block writer", "rowwise reference").

def _csv(writer_class, chunks):
    buf = io.StringIO(newline="")
    writer = writer_class(buf)
    for chunk in chunks:
        writer.add_rows(chunk)
    return buf.getvalue()


def _split(rows, rng):
    """``rows`` cut into chunks of random sizes, some of a single row."""
    chunks, i = [], 0
    while i < len(rows):
        size = rng.choice((1, 1, 7, 1023, 1024, 1025, 3072))
        chunks.append(rows[i:i + size])
        i += size
    return chunks


def _assert_written_alike(rows, rng):
    """Every way of handing ``rows`` to the writer gives the reference
    bytes: a Trace, tuples, records, a generator, one row a call, chunks.
    When ``rows`` is a Trace with ``filled`` rows, the writer also gets that
    Trace itself, and its fill in a Trace of its own (the filled rows and
    the row they repeat) between random chunks of the other rows."""
    trace = rows if isinstance(rows, Trace) else None
    if trace is not None:
        rows = list(zip(*trace.columns))
    want = _csv(PlainTraceWriter, [rows])
    records = [TraceRecord(*row) for row in rows]
    ways = [[Trace(rows)], [rows], [records], [iter(rows)],
            [[row] for row in rows], _split(rows, rng),
            [Trace(chunk) for chunk in _split(records, rng)]]
    if trace is not None and trace.filled[1]:
        start, stop = trace.filled
        fill = Trace(rows[start - 1:start])
        fill.repeat_last(stop - start)
        ways += [[trace], _split(rows[:start - 1], rng) + [fill] + _split(rows[stop:], rng)]
    for chunks in ways:
        assert _csv(TraceWriter, chunks) == want


def _nan(payload):
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0000 | payload))[0]


# Float values a column may hold: repeats, both zeros, NaNs of other bits,
# infinities, a subnormal, the largest float, an int and a float equal to it.
POOL = (0.0, -0.0, 1.5, 0.1 + 0.2, float("nan"), _nan(0x123), -float("nan"),
        float("inf"), -float("inf"), 5e-324, 1.7976931348623157e308, 100, 100.0, 1e-16)


def _random_rows(rng, n):
    """``n`` rows whose float columns mostly repeat the row before; the
    ybar column is missing in every row, in some rows, or in none."""
    ybar_missing = rng.choice((0.0, 0.8, 1.0))
    rows, last = [], [0.0] * 6
    for i in range(n):
        floats = [v if rng.random() < 0.7 else rng.choice(POOL) for v in last]
        if rng.random() < ybar_missing:
            floats[2] = None
        last = floats
        rows.append((i + 1, 1 + i // 50, 1 + i % 50, 3 * i, *floats,
                     rng.choice(sorted(EVENTS))))
    return rows


LENGTHS = (0, 1, 2, 1023, 1024, 1025, 2047, 2049, 3000)


@pytest.mark.parametrize("n", LENGTHS)
def test_block_writer_matches_the_rowwise_reference_on_random_rows(n):
    rng = random.Random(n)
    for _ in range(3):
        _assert_written_alike(_random_rows(rng, n), rng)


@pytest.mark.parametrize("n", (1023, 1024, 1025))
def test_block_writer_matches_the_rowwise_reference_on_the_edge_tables(n):
    rng = random.Random(n)
    for table in (_edge_records(), _repeat_records()):
        rows = [tuple(rec) for rec in table] * (n // len(table) + 1)
        _assert_written_alike(rows[:n], rng)


def test_a_missing_ybar_carries_over_a_block_boundary():
    # Runs of 1,024 rows whose ybar is missing, NaN, a number, then missing
    # again: each change of kind is written as its own text, however chunked.
    nan = float("nan")
    rows = [(i, 1, i, i, 1.0, 1.0, None, 1.0, 0.0, 0.0, "Step") for i in range(1024)]
    rows += [(i, 1, i, i, 1.0, 1.0, nan, 1.0, 0.0, 0.0, "Step") for i in range(1024)]
    rows += [(i, 1, i, i, 1.0, 1.0, v, 1.0, 0.0, 0.0, "Step") for i, v in
             enumerate([0.5] * 1024 + [None] * 1024)]
    _assert_written_alike(rows, random.Random(0))


def test_rows_added_one_call_at_a_time_across_a_block_boundary(tmp_path):
    rows = [tuple(rec) for rec in _repeat_records()] * (1024 // 8 + 2)
    buf = io.StringIO(newline="")
    writer = TraceWriter(buf)
    for row in rows:
        writer.add_rows([row])
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), rows)
    assert buf.getvalue().encode("utf-8") == path.read_bytes()
    assert path.read_bytes() == _reference_csv([TraceRecord(*r) for r in rows]).encode("utf-8")


def _grown(rows, *steps):
    """A Trace of ``rows`` grown by ``steps``: a number ``n`` appends ``n``
    rows with ``repeat_last``, a tuple appends that row."""
    trace = Trace(rows)
    for step in steps:
        if isinstance(step, int):
            trace.repeat_last(step)
        else:
            trace.append(step)
    return trace


def _stalled_run(problem, seed, dim, solver, l_init, m0):
    spec = make_problem(problem, seed=seed, dim=dim)
    pol = TerminationPolicy(max_iterations=5000)
    if solver == "ll2022":
        return ll2022_run(spec.objective, spec.x_init,
                          LL2022Params(l_f=l_init, m_f=m0, termination=pol)).trace
    return run(spec.objective, spec.x_init, SolverParams(l_init=l_init, termination=pol)).trace


ROW = (1, 1, 1, 4, -1.0, 0.5, None, 2.0, 1.0, 0.0, "Step")
OTHER = (3, 2, 1, 6, -1.5, 0.25, 0.125, 2.0, 1.0, 0.5, "RestartSuccessful")

# Traces with filled rows: runs past a bitwise fixed point, made-up fills
# with rows after them, and fills of rows a writer must not take as its
# template's text (NaN, -0.0, an int L, an event holding ``%``).  Most
# made-up fills are longer than one block of the writer.
FILLED = {
    "proposed": lambda: _long_run(5000).trace,
    "proposed-d2": lambda: _stalled_run("cosine_sum", 3, 2, "proposed", 1e-3, None),
    "ll2022-restarted": lambda: _stalled_run("cosine_sum", 0, None, "ll2022", 2.0, 1e12),
    "ll2022-d2": lambda: _stalled_run("cosine_sum", 3, 2, "ll2022", 100.0, 1.0),
    "fill-then-rows": lambda: _grown([ROW], 4097, OTHER, ROW),
    "two-fills": lambda: _grown([ROW], 10, OTHER, 4097),
    "consecutive-fills": lambda: _grown([ROW, OTHER], 3, 4096, 1),
    "repeat-0": lambda: _grown([ROW, OTHER], 0),
    "fill-row-repeat-0": lambda: _grown([ROW], 100, OTHER, 0, ROW),
    "nan": lambda: _grown([(7, 2, 3, 9, NAN, NAN, NAN, NAN, NAN, NAN, "Step")], 4097, ROW),
    "negative-zero": lambda: _grown([(7, 2, 3, 9, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, "Step")],
                                    4097, (8, 2, 4, 9, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, "Step")),
    "int-L": lambda: _grown([(7, 2, 3, 9, 1.5, 2.5, None, 100, 7, 0.0, "Step")], 4097, ROW),
    "percent-event": lambda: _grown([(7, 2, 3, 9, 1.5, 2.5, None, 1.0, 0.0, 0.0,
                                      "50%d %s %% done")], 4097, ROW),
}


@pytest.mark.parametrize("name", sorted(FILLED))
def test_filled_rows_are_written_as_the_rowwise_reference_writes_them(name):
    trace = FILLED[name]()
    if name.startswith(("proposed", "ll2022")):
        assert trace.filled[0] > 1 and trace.filled[1] == len(trace) == 5000
    _assert_written_alike(trace, random.Random(name))


class _CountingFile:
    """A file that counts and drops what is written to it."""

    def __init__(self):
        self.writes = 0

    def write(self, text):
        self.writes += 1

    def flush(self):
        pass


def test_a_stalled_trace_writes_its_filled_rows_in_blocks():
    trace = _long_run(200_000).trace
    start, stop = trace.filled
    assert stop == len(trace) == 200_000 and start < 200
    out = _CountingFile()
    TraceWriter(out).add_rows(trace)
    assert out.writes <= start + math.ceil((stop - start) / 4096) + 1


def test_rows_that_do_not_repeat_the_last_read_as_each_field_reads(tmp_path):
    tail = (50, -1.0, 0.5, None, 1.0, NAN, 0.0, "Step")
    steps = [(10, 2, 4), (11, 2, 5), (12, 2, 6),   # these repeat
             (14, 2, 7),                           # K steps by two
             (15, 2, 7),                           # k stays
             (16, 2, 9),                           # k steps by two
             (17, 3, 10),                          # the epoch changes
             (18, 3, 11),                          # this repeats
             (18, 3, 12), (19, 3, 12),             # K stays, then k
             (20, 3, 13),                          # this repeats
             (21, 3, 0), (22, 3, 1)]               # k starts over, then repeats
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), [(K, epoch, k, *tail) for K, epoch, k in steps])
    with open(path, "a", newline="", encoding="utf-8") as fh:
        # K one up, as ``int`` reads it, but not as the writer writes it.
        fh.write("+23,3,2,50,-1.0,0.5,,1.0,nan,0.0,Step\r\n")
        fh.write("024,3,3,50,-1.0,0.5,,1.0,nan,0.0,Step\r\n")
    back = read_trace_csv(str(path))
    assert _bits(back) == _bits(read_trace_per_field(str(path)))
    assert list(back.K) == [K for K, _, _ in steps] + [23, 24]
    assert back.filled == (12, 13)


def test_a_stalled_run_reads_back_filled_and_writes_back_alike(tmp_path):
    trace = _long_run(20_000).trace
    path, again = tmp_path / "trace.csv", tmp_path / "again.csv"
    write_trace_csv(str(path), trace)
    back = read_trace_csv(str(path))
    assert back == trace and _bits(back) == _bits(read_trace_per_field(str(path)))
    # The reader folds from the first row that repeats the one before, which
    # is no later than where the run began to fill.
    start, stop = back.filled
    assert 1 < start <= trace.filled[0] and stop == 20_000
    assert all(len(set(column[start - 1:])) == 1 for column in back.columns[3:])
    first = back.K[start - 1]
    assert list(back.K[start - 1:]) == list(range(first, first + stop - start + 1))
    write_trace_csv(str(again), back)
    assert again.read_bytes() == path.read_bytes()
    assert _bytes_per_row(lambda: read_trace_csv(str(path))) <= 128


# A bad row after rows the reader folds, built from the next repeat of the
# last row: ``{line}`` is that row's text without its line end.
BAD_AFTER_REPEATS = {
    "short": lambda line: line[:len(line) // 2],
    "long": lambda line: line + ",extra\r\n",
    "unknown-event": lambda line: line[:-len("Step")] + "Stepp\r\n",
    "quoted-number": lambda line: line.replace(",-1.0,", ',"-1.0",') + "\r\n",
    "quoted-comma": lambda line: line.replace(",-1.0,", ',"-1,0",') + "\r\n",
    "quoted-event": lambda line: line[:-len("Step")] + '"Step"\r\n',
}


@pytest.mark.parametrize("kind", sorted(BAD_AFTER_REPEATS))
@pytest.mark.parametrize("repeats", [0, 10])
def test_a_bad_row_after_repeated_rows_names_its_line(tmp_path, kind, repeats):
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), _grown([(1, 1, 1, 4, -1.0, 0.5, None, 2.0, 1.0, 0.0, "Step")],
                                      repeats))
    line = BAD_AFTER_REPEATS[kind](f"{repeats + 2},1,{repeats + 2},4,-1.0,0.5,,2.0,1.0,0.0,Step")
    with open(path, "a", newline="", encoding="utf-8") as fh:
        fh.write(line)
    with pytest.raises(ValueError, match=f"line {repeats + 3}:"):
        read_trace_csv(str(path))


# The reader's blocks of repeated rows.  A row that repeats the one before
# is read as a line, then a block of 64 rows, a line, 128 rows, a line, 256,
# a line, 512, then a line and 1,024 rows at a time, so fills of 1, 65, 194,
# 451, 964, 1,989 and 3,014 rows end on a block boundary and fills of 1,000
# and 3,008 rows inside a block.

def _read_alike(path, trace=None):
    """The read of ``path``, which has the types, bits and ``filled`` of the
    per-field read and, when given, equals ``trace``, ``filled`` included."""
    back, ref = read_trace_csv(str(path)), read_trace_per_field(str(path))
    assert len(back.columns) == len(ref.columns) and back.filled == ref.filled
    for mine, theirs in zip(back.columns, ref.columns):   # one at a time: less memory
        assert _column_bits(mine) == _column_bits(theirs)
    if trace is not None:
        assert back == trace and back.filled == trace.filled
    return back


@pytest.mark.parametrize("repeats", [1, 64, 65, 66, 194, 195, 451, 452, 964, 965, 1000, 961, 962,
                                     1985, 1989, 1990, 3008, 3009, 3010, 3014, 3015])
@pytest.mark.parametrize("after", [(), (OTHER, ROW)], ids=["at-the-end", "rows-after"])
def test_a_fill_read_in_blocks_reads_as_each_field_reads(tmp_path, repeats, after):
    trace = _grown([ROW], repeats, *after)
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), trace)
    _read_alike(path, trace)


def test_a_fill_of_200_000_rows_reads_as_each_field_reads(tmp_path):
    trace = _grown([ROW, OTHER], 200_000, ROW)
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), trace)
    assert _read_alike(path, trace).filled == (2, 200_002)


def test_a_fill_with_lf_line_ends_reads_in_blocks_alike(tmp_path):
    trace = _grown([ROW], 3000, OTHER, 1500)
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), trace)
    path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
    assert _read_alike(path, trace).filled == (3002, 4502)


def test_a_fill_with_cr_line_ends_reads_in_blocks_alike(tmp_path):
    # A block that stops matching is split at a lone "\r" as the file is.
    trace = _grown([ROW], 3000, OTHER, 1500, ROW)
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), trace)
    path.write_bytes(path.read_bytes().replace(b"\r\n", b"\r"))
    assert _read_alike(path, trace).filled == (3002, 4502)


@pytest.mark.parametrize("mark", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"],
                         ids=["vt", "ff", "fs", "gs", "rs", "nel", "ls"])
@pytest.mark.parametrize("repeats", [10, 500])
def test_a_row_after_a_fill_is_split_only_at_line_ends(tmp_path, mark, repeats):
    # ``str.splitlines`` would split this row in two; the file does not.
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), _grown([ROW], repeats))
    with open(path, "a", newline="", encoding="utf-8") as fh:
        fh.write(f"{repeats + 2},1,{repeats + 2},4,-1.0,0.5,,2.0,1.0,0.0,St{mark}ep\r\n")
    with pytest.raises(ValueError) as info:
        read_trace_csv(str(path))
    assert str(info.value) == f"bad trace row at line {repeats + 3}: unknown event {f'St{mark}ep'!r}"


def test_a_K_that_skips_inside_a_fill_ends_its_block(tmp_path):
    # K steps by two after row 2,000; every row but that one and the first
    # repeats the one before.
    rows = [(i + 1 + (i >= 2000), 1, i + 1, *ROW[3:]) for i in range(3000)]
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), rows)
    back = _read_alike(path)
    assert list(back.K) == [row[0] for row in rows] and back.filled == (2001, 3000)


@pytest.mark.parametrize("whole", [100, 961, 3000])
def test_a_row_cut_inside_a_fill_names_its_line(tmp_path, whole):
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), _grown([ROW], 5000))
    lines = path.read_bytes().split(b"\r\n")
    cut = lines[whole + 1]      # the row after ``whole`` rows and the header
    path.write_bytes(b"\r\n".join(lines[:whole + 1] + [cut[:len(cut) // 2]]))
    with pytest.raises(ValueError, match=f"line {whole + 2}:"):
        read_trace_csv(str(path))


def _read_through_a_pipe(tmp_path, path):
    """``read_trace_csv`` of the bytes at ``path`` fed through a named pipe."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)

    def feed():
        try:
            with open(fifo, "wb") as fh:
                fh.write(path.read_bytes())
        except BrokenPipeError:     # the reader stopped early
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return read_trace_csv(str(fifo))
    finally:
        writer.join(timeout=60)
        assert not writer.is_alive()


needs_pipes = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")


@needs_pipes
def test_a_stalled_trace_reads_alike_through_a_pipe(tmp_path):
    trace = _long_run(20_000).trace
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), trace)
    back = _read_through_a_pipe(tmp_path, path)
    plain = read_trace_csv(str(path))
    assert plain == trace and plain.filled[1] == 20_000
    assert _bits(back) == _bits(plain) and back.filled == plain.filled


def _count_fill_texts(monkeypatch):
    """The arguments of each ``_fill_text`` call from now on, as a list."""
    calls, real = [], trace_module._fill_text

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(trace_module, "_fill_text", counted)
    return calls


def _assert_read_in_blocks_of_1024(calls, filled):
    start, stop = filled
    assert len(calls) <= math.ceil((stop - start) / 1024) + 8
    assert sum(args[-1] for args in calls) >= stop - start - 1024   # the rows they cover
    assert max(args[-1] for args in calls) == 1024


def test_a_long_fill_is_read_in_blocks_of_1024_rows(tmp_path, monkeypatch):
    trace = _long_run(200_000).trace
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), trace)
    calls = _count_fill_texts(monkeypatch)
    back = read_trace_csv(str(path))
    assert back == trace and back.filled[1] == 200_000
    _assert_read_in_blocks_of_1024(calls, back.filled)


@needs_pipes
def test_a_long_fill_is_read_through_a_pipe_in_blocks_as_from_the_file(tmp_path, monkeypatch):
    # The long-trace benchmark's trace: 49,893 of its 50,000 rows are a fill.
    trace = _long_run(50_000).trace
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), trace)
    plain = read_trace_csv(str(path))
    calls = _count_fill_texts(monkeypatch)
    back = _read_through_a_pipe(tmp_path, path)
    assert back == plain == trace and back.filled == plain.filled == trace.filled
    assert _bits(back) == _bits(plain) and back.filled[1] == 50_000
    _assert_read_in_blocks_of_1024(calls, back.filled)


@needs_pipes
@pytest.mark.parametrize("whole", [100, 961, 3000])
def test_a_row_cut_inside_a_fill_names_its_line_through_a_pipe(tmp_path, whole):
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), _grown([ROW], 5000))
    lines = path.read_bytes().split(b"\r\n")
    cut = lines[whole + 1]      # the row after ``whole`` rows and the header
    path.write_bytes(b"\r\n".join(lines[:whole + 1] + [cut[:len(cut) // 2]]))
    with pytest.raises(ValueError, match=f"line {whole + 2}:") as from_file:
        read_trace_csv(str(path))
    with pytest.raises(ValueError) as from_pipe:
        _read_through_a_pipe(tmp_path, path)
    assert str(from_pipe.value) == str(from_file.value)


# ``_fill_text`` against the one-f-string-a-row form: (K, epoch, k, n).
# K and k cross 9 -> 10, 99 -> 100 and 9,999 -> 10,000 at different rows.
FILL_TEXT_CASES = {
    "K-crosses-first": (5, 1, 95, 10_000),
    "k-crosses-first": (95, 1, 5, 10_000),
    "both-at-once": (9_990, 2, 9_990, 20),
    "k-from-0": (7, 3, 0, 105),
    "epoch-int": (98, 12_345, 1, 4_096),
    "epoch-text": (98, "12345", 1, 4_096),
    "epoch-signed-text": (98, "+012", 1, 300),
    "epoch-fullwidth": (98, "\uff11\uff12", 1, 300),
    "epoch-arabic-indic": (98, "\u0661", 1, 300),
    "one-row": (1, 1, 1, 1),
    "one-row-near-1e15": (10**15 - 1, 4, 10**15 - 1, 1),
    "across-1e15": (10**15 - 3, 4, 10**15 - 700, 1_024),
    "below-zero": (-12, 1, -105, 130),
}
FILL_TAILS = {
    "crlf": "232,-10.0,3.8726732145403874e-16,,1.088391168,0.34765796067902904,0.0,Step\r\n",
    "lf": "4,-1.0,0.5,,2.0,1.0,0.0,Step\n",
    "non-ascii": "4,-\uff11.\u0665,0.5,,\u0662.0,1.0,0.0,Step\r\n",
}


@pytest.mark.parametrize("tail", sorted(FILL_TAILS))
@pytest.mark.parametrize("case", sorted(FILL_TEXT_CASES))
def test_fill_text_equals_the_one_f_string_a_row_form(case, tail):
    K, epoch, k, n = FILL_TEXT_CASES[case]
    args = (K, epoch, k, FILL_TAILS[tail], n)
    assert trace_module._fill_text(*args) == fill_text(*args)


def test_a_fill_with_non_ascii_digits_reads_as_each_field_reads(tmp_path):
    # ``int`` and ``float`` read digits such as "\uff17" and "\u0661", so a fill
    # whose epoch or float text holds them still reads back row for row.
    tails = ["4,-\uff11.\u0665,0.5,,2.0,1.0,0.0,Step\r\n", "6,0.25,\u0661e-3,0.5,2.0,1.0,0.0,Step\r\n",
             "8,\u0661\u0662.5,0.5,,2.0,\uff17.0,0.0,Step\n"]
    rows = [(K, "\uff17\u0661" if K < 400 else "\u0663", K, tail)
            for K, tail in zip(range(90, 1_390), [tails[0]] * 300 + [tails[1]] * 700 + [tails[2]] * 300)]
    path = tmp_path / "trace.csv"
    path.write_text(",".join(TRACE_COLUMNS) + "\r\n" + "".join(
        f"{K},{epoch},{k},{tail}" for K, epoch, k, tail in rows), encoding="utf-8", newline="")
    back = _read_alike(path)
    assert back.filled == (1_001, 1_300) and list(back.epoch[:2]) == [71, 71]
    assert list(back.K) == list(range(90, 1_390))


def test_repeat_last_keeps_its_spare_copy_small():
    # Grown by all 200,000 rows at once, a column would need a spare copy of
    # that size on top of itself, which shows in a run's peak RSS.
    trace = Trace([ROW])
    gc.collect()
    tracemalloc.start()
    try:
        trace.repeat_last(200_000)
        final, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace) == 200_001 and trace.K[-1] == 200_001
    assert peak - final <= 64 * 1024


def test_writing_a_trace_leaves_its_columns_free_to_grow(tmp_path):
    # An array whose buffer a NumPy view still holds cannot grow.
    trace = Trace(_random_rows(random.Random(1), 1025))
    write_trace_csv(str(tmp_path / "trace.csv"), trace)
    trace.append(trace[0])
    assert len(trace) == 1026


@pytest.mark.parametrize("n", (0, 1, 1023, 1024, 1025, 2049))
def test_report_json_matches_the_json_module_byte_for_byte(tmp_path, n):
    rng = random.Random(n)
    anchors = [rng.choice(POOL[:10]) if rng.random() < 0.1
               else rng.uniform(-1, 1) * 10.0 ** rng.randint(-300, 300) for _ in range(n)]
    doc = {"anchor_values": anchors, "problem": 'a "b"\n  "anchor_values": []',
           "params": {"anchor_values": [1.0, 2.0], "path": "x\ny"},
           "solution": [1.5, -0.0], "final_L": float("inf")}
    out = tmp_path / "report.json"
    write_report_json(str(out), doc)
    assert out.read_text(encoding="utf-8") == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_a_trace_with_nan_equals_itself_and_its_read_back(tmp_path):
    nan = float("nan")
    rows = [(1, 1, 1, 6, nan, 1.0, None, 1.0, 1.0, 0.0, "Step"),
            (2, 1, 2, 8, 0.5, nan, 0.25, 100, 1.0, 1.5, "Step"),
            (3, 2, 1, 9, -0.0, 2.0, nan, 1.0, nan, nan, "Terminated")]
    t = Trace(rows)
    assert t == t and t == Trace(rows) and Trace(rows) == t
    path = str(tmp_path / "trace.csv")
    write_trace_csv(path, t)
    back = read_trace_csv(path)
    assert back == t and t == back
    # A NaN equals only a NaN, and the columns must have the same length.
    for column in (4, 5, 6, 8, 9):
        changed = [list(row) for row in rows]
        for row in changed:
            if row[column] != row[column]:
                row[column] = 1.0
        assert changed != [list(row) for row in rows] and Trace(map(tuple, changed)) != t
    assert Trace(rows[:2]) != t and t != Trace(rows[:2])
    # ll2022's diagnostic f_x is whatever value_fn returned, NaN included.
    obj = Objective(dim=2, value_fn=lambda x: nan, grad_fn=lambda x: x)
    rep = ll2022_run(obj, [1.0, 2.0], LL2022Params(
        l_f=100, m_f=1, termination=TerminationPolicy(max_iterations=4)))
    write_trace_csv(path, rep.trace)
    assert math.isnan(rep.trace.f_x[0]) and read_trace_csv(path) == rep.trace
