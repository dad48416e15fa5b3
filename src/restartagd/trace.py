"""Run traces and reports shared by all solvers and the CLI harness.

One :class:`TraceRecord` per iteration, kept column-wise in a :class:`Trace`,
and one :class:`RunReport` per run.  The CSV layout is the record's field
order; floats are written with ``repr`` so a read-back record equals the
original field for field.
"""
from __future__ import annotations

import csv
import json
import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import IO, Iterable, List, Optional, Tuple, Union

import numpy as np

REASONS = ("EpsReached", "BudgetExhausted", "TimeLimit", "Stationary")

# The values of the trace's ``event`` column.
EVENTS = frozenset(("Step", "RestartSuccessful", "RestartUnsuccessful", "Terminated"))

TRACE_COLUMNS = (
    "K", "epoch", "k", "n_oracle", "f_x", "grad_norm_monitor",
    "grad_norm_ybar", "L", "M", "S_k", "event",
)


@dataclass
class TraceRecord:
    """Snapshot of one solver iteration.

    ``K`` counts iterations over the whole run, ``k`` within the current
    epoch, ``epoch`` is 1-based.  ``grad_norm_monitor`` is the cheapest
    gradient norm evaluated this iteration; ``grad_norm_ybar`` is the norm at
    the averaged point when it was actually evaluated, else None.  ``L`` is
    the step constant the iteration used (before any restart rescaling), ``M``
    the curvature estimate after this iteration's update, ``S_k`` the running
    sum of squared displacements within the epoch.
    """

    K: int
    epoch: int
    k: int
    n_oracle: int
    f_x: float
    grad_norm_monitor: float
    grad_norm_ybar: Optional[float]
    L: float
    M: float
    S_k: float
    event: str


# Each column's ``array`` type code, or None for a list of the objects given.
_TYPECODES = ("q", "q", "q", "q", "d", "d", None, None, None, "d", None)

# Each event name mapped to itself, so a row read back holds the one string.
_EVENT_NAMES = {name: name for name in EVENTS}


class Trace(Sequence):
    """The rows of a run, a sequence of :class:`TraceRecord` held column-wise.

    ``K``, ``epoch``, ``k`` and ``n_oracle`` are ``array("q")``; ``f_x``,
    ``grad_norm_monitor`` and ``S_k`` are ``array("d")``, which keeps each
    binary64 exactly, NaN and -0.0 bits included.  ``grad_norm_ybar``, ``L``,
    ``M`` and ``event`` are lists of the objects appended: they keep their
    types (an int ``L`` stays an int, a missing norm stays ``None``), and a
    row holding the previous row's object (an epoch's ``L``, an unchanged
    ``M``) adds only a reference.  A row takes 88 B plus the columns' growth
    slack, against about 310 B as a record.  ``columns`` holds the eleven
    columns in ``TRACE_COLUMNS`` order.

    It behaves as the list of records it replaces: ``append``, ``len``,
    iteration and indexing yield records, a slice is a list of records, and
    it equals any sequence of equal records.  ``Trace(records)`` packs any
    iterable of records.
    """

    __slots__ = TRACE_COLUMNS + ("columns",)

    def __init__(self, records: Iterable[TraceRecord] = ()):
        self.columns = tuple(array(code) if code else [] for code in _TYPECODES)
        for name, column in zip(TRACE_COLUMNS, self.columns):
            setattr(self, name, column)
        for rec in records:
            self.append(rec)

    def append(self, rec: TraceRecord) -> None:
        self.K.append(rec.K)
        self.epoch.append(rec.epoch)
        self.k.append(rec.k)
        self.n_oracle.append(rec.n_oracle)
        self.f_x.append(rec.f_x)
        self.grad_norm_monitor.append(rec.grad_norm_monitor)
        self.grad_norm_ybar.append(rec.grad_norm_ybar)
        self.L.append(rec.L)
        self.M.append(rec.M)
        self.S_k.append(rec.S_k)
        self.event.append(rec.event)

    def __len__(self) -> int:
        return len(self.K)

    def __iter__(self):
        return map(TraceRecord, *self.columns)

    def __getitem__(self, i: Union[int, slice]):
        if isinstance(i, slice):
            return list(map(TraceRecord, *(column[i] for column in self.columns)))
        return TraceRecord(*(column[i] for column in self.columns))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"Trace({list(self)!r})"


def as_trace(records: Iterable[TraceRecord]) -> Trace:
    """``records`` itself when it is a :class:`Trace`, else a Trace of them."""
    return records if isinstance(records, Trace) else Trace(records)


@dataclass
class RunReport:
    solution: np.ndarray
    certified_grad_norm: float
    total_K: int
    total_epochs: int
    n_value: int
    n_grad: int
    reason: str
    final_L: float
    final_M: float
    trace: Trace = field(default_factory=Trace)
    anchor_values: List[float] = field(default_factory=list)
    # (calls, norms): each new best certified norm and the n_oracle it took.
    certified: Tuple[array, array] = field(default_factory=lambda: (array("q"), array("d")))

    @property
    def n_oracle(self) -> int:
        return self.n_value + self.n_grad


# One trace row as ``csv.writer`` would write it: floats as ``repr`` and
# ``\r\n`` line ends.  No field ever needs quoting, since numbers never hold
# a comma, a quote or a line break and the names in ``EVENTS`` are a fixed set
# without them.
_ROW = "%d,%d,%d,%d,%r,%r,%s,%r,%r,%r,%s\r\n"


class TraceWriter:
    """Streams trace rows to a CSV file, flushing at least once per epoch so a
    crashed run still leaves complete epochs on disk."""

    def __init__(self, out: IO[str]):
        self._out = out
        csv.writer(out).writerow(TRACE_COLUMNS)
        self._out.flush()

    def add(self, rec: TraceRecord) -> None:
        self.add_rows([(rec.K, rec.epoch, rec.k, rec.n_oracle, rec.f_x, rec.grad_norm_monitor,
                        rec.grad_norm_ybar, rec.L, rec.M, rec.S_k, rec.event)])

    def add_rows(self, rows: Iterable[tuple]) -> None:
        """Write rows given as tuples of the eleven field values, in
        ``TRACE_COLUMNS`` order."""
        write, flush = self._out.write, self._out.flush
        for K, epoch, k, n_oracle, f_x, monitor, ybar, L, M, S_k, event in rows:
            write(_ROW % (K, epoch, k, n_oracle, float(f_x), float(monitor),
                          "" if ybar is None else repr(float(ybar)),
                          float(L), float(M), float(S_k), event))
            if event != "Step":
                flush()

    def close(self) -> None:
        self._out.flush()


def write_trace_csv(path: str, records: Iterable[TraceRecord]) -> None:
    """Write ``records`` (a :class:`Trace` or any iterable of records) as a
    trace CSV, row by row from the columns."""
    trace = as_trace(records)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = TraceWriter(fh)
        w.add_rows(zip(*trace.columns))
        w.close()


def read_trace_csv(path: str) -> Trace:
    """Read a trace CSV back into a :class:`Trace`, filling its columns
    directly.  A row that is not exactly ``len(TRACE_COLUMNS)`` fields wide
    (the cut last line of a killed write, say), holds a malformed number or
    an event not in ``EVENTS`` raises ``ValueError`` naming its line.  An
    ``L`` or ``M`` whose text repeats the previous row's holds the previous
    row's float, as the run's own trace does."""
    trace = Trace()
    (add_K, add_epoch, add_k, add_n_oracle, add_f_x, add_monitor, add_ybar,
     add_L, add_M, add_S_k, add_event) = (column.append for column in trace.columns)
    L_text = M_text = None
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(TRACE_COLUMNS):
            raise ValueError(f"unexpected trace header {header!r}")
        try:
            for K, epoch, k, n_oracle, f_x, monitor, ybar, L_row, M_row, S_k, event in reader:
                if L_row != L_text:
                    L, L_text = float(L_row), L_row
                if M_row != M_text:
                    M, M_text = float(M_row), M_row
                name = _EVENT_NAMES.get(event)
                if name is None:
                    raise ValueError(f"unknown event {event!r}")
                add_K(int(K))
                add_epoch(int(epoch))
                add_k(int(k))
                add_n_oracle(int(n_oracle))
                add_f_x(float(f_x))
                add_monitor(float(monitor))
                add_ybar(None if ybar == "" else float(ybar))
                add_L(L)
                add_M(M)
                add_S_k(float(S_k))
                add_event(name)
        except ValueError as exc:
            raise ValueError(f"bad trace row at line {reader.line_num}: {exc}") from None
    return trace


REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": [
        "problem", "solver", "params", "solution", "certified_grad_norm",
        "total_K", "total_epochs", "n_value", "n_grad", "n_oracle",
        "reason", "final_L", "final_M", "anchor_values",
    ],
    "properties": {
        "problem": {"type": "string"},
        "solver": {"type": "string", "enum": ["proposed", "gd", "ll2022"]},
        "params": {"type": "object"},
        "solution": {"type": "array", "items": {"type": "number"}},
        "certified_grad_norm": {"type": "number", "minimum": 0},
        "total_K": {"type": "integer", "minimum": 0},
        "total_epochs": {"type": "integer", "minimum": 1},
        "n_value": {"type": "integer", "minimum": 0},
        "n_grad": {"type": "integer", "minimum": 0},
        "n_oracle": {"type": "integer", "minimum": 0},
        "reason": {"type": "string", "enum": list(REASONS)},
        "final_L": {"type": "number", "exclusiveMinimum": 0},
        "final_M": {"type": "number", "minimum": 0},
        "anchor_values": {"type": "array", "items": {"type": "number"}},
        "trace_path": {"type": "string"},
        "wall_seconds": {"type": "number", "minimum": 0},
    },
    "additionalProperties": True,
}


def report_to_dict(report: RunReport, problem: str, solver: str, params: dict,
                   trace_path: Optional[str] = None,
                   wall_seconds: Optional[float] = None) -> dict:
    doc = {
        "problem": problem,
        "solver": solver,
        "params": params,
        "solution": [float(v) for v in report.solution],
        "certified_grad_norm": float(report.certified_grad_norm),
        "total_K": report.total_K,
        "total_epochs": report.total_epochs,
        "n_value": report.n_value,
        "n_grad": report.n_grad,
        "n_oracle": report.n_oracle,
        "reason": report.reason,
        "final_L": float(report.final_L),
        "final_M": float(report.final_M),
        "anchor_values": [float(v) for v in report.anchor_values],
    }
    if trace_path is not None:
        doc["trace_path"] = trace_path
    if wall_seconds is not None:
        doc["wall_seconds"] = float(wall_seconds)
    return doc


def write_report_json(path: str, doc: dict) -> None:
    """Write ``doc`` as indented JSON, streaming the encoder's pieces to the
    file.  Encoding the whole text first writes no faster and holds all of
    it at once: a ``gd`` report carries one anchor per accepted step, and
    the default grid then peaks about 7 MB higher."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
