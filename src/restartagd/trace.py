"""Run traces and reports shared by all solvers and the CLI harness.

One row per iteration, a tuple in ``TRACE_COLUMNS`` order (a
:class:`TraceRecord` names its fields), kept column-wise in a :class:`Trace`,
and one :class:`RunReport` per run.  The CSV layout is the column order;
floats are written with ``repr`` so a read-back row equals the original.
"""
from __future__ import annotations

import csv
import json
import math
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
    sum of squared displacements within the epoch.  It iterates as its row.
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

    def __iter__(self):
        return iter(_FIELDS(self))


_FIELDS = operator.attrgetter(*TRACE_COLUMNS)

# Each column's ``array`` type code, or None for a list of the objects given.
_TYPECODES = ("q", "q", "q", "q", "d", "d", None, None, None, "d", None)

# Each event name mapped to itself, so a row read back holds the one string.
_EVENT_NAMES = {name: name for name in EVENTS}


class Trace(Sequence):
    """The rows of a run, held column-wise, as a sequence of :class:`TraceRecord`.

    ``K``, ``epoch``, ``k`` and ``n_oracle`` are ``array("q")``; ``f_x``,
    ``grad_norm_monitor`` and ``S_k`` are ``array("d")``, which keeps each
    binary64 exactly, NaN and -0.0 bits included.  ``grad_norm_ybar``, ``L``,
    ``M`` and ``event`` are lists of the objects appended: they keep their
    types (an int ``L`` stays an int, a missing norm stays ``None``), and a
    row holding the previous row's object (an epoch's ``L``, an unchanged
    ``M``) adds only a reference.  A row takes 88 B plus the columns' growth
    slack, against about 310 B as a record.  ``columns`` holds the eleven
    columns in ``TRACE_COLUMNS`` order.

    ``append`` takes a row, a tuple or a record; ``Trace(rows)`` packs any
    iterable of them.  Read, it behaves as a list of records: iteration and
    indexing yield records, a slice is a list of records, and it equals any
    sequence of equal records.
    """

    __slots__ = TRACE_COLUMNS + ("columns", "_appends")

    def __init__(self, rows: Iterable[tuple] = ()):
        self.columns = tuple(array(code) if code else [] for code in _TYPECODES)
        for name, column in zip(TRACE_COLUMNS, self.columns):
            setattr(self, name, column)
        self._appends = tuple(column.append for column in self.columns)
        for row in rows:
            self.append(row)

    def append(self, row: tuple) -> None:
        (add_K, add_epoch, add_k, add_n_oracle, add_f_x, add_monitor, add_ybar,
         add_L, add_M, add_S_k, add_event) = self._appends
        K, epoch, k, n_oracle, f_x, monitor, ybar, L, M, S_k, event = row
        add_K(K)
        add_epoch(epoch)
        add_k(k)
        add_n_oracle(n_oracle)
        add_f_x(f_x)
        add_monitor(monitor)
        add_ybar(ybar)
        add_L(L)
        add_M(M)
        add_S_k(S_k)
        add_event(event)

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


def as_trace(rows: Iterable[tuple]) -> Trace:
    """``rows`` itself when it is a :class:`Trace`, else a Trace of them."""
    return rows if isinstance(rows, Trace) else Trace(rows)


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


# One trace row as ``csv.writer`` would write it, the six floats given as
# their ``repr`` texts, with ``\r\n`` line ends.  No field ever needs quoting,
# since numbers never hold a comma, a quote or a line break and the names in
# ``EVENTS`` are a fixed set without them.
_ROW = "%d,%d,%d,%d,%s,%s,%s,%s,%s,%s,%s\r\n"


class TraceWriter:
    """Writes trace rows to a CSV file: the header, flushed, when built, then
    the rows of each :meth:`add_rows` call; :meth:`close` flushes them.

    A float field is written as ``repr(float(v))``.  Most of them repeat the
    row before (``L`` and ``M`` hold for an epoch, ``gd``'s ``M`` and ``S_k``
    are always 0.0, and past a bitwise fixed point every float column
    repeats), so the writer keeps each float column's last value and its
    text and formats a field only when its value differs from the last one
    bit for bit: unequal, or a zero of the other sign.  NaN never equals
    itself and is always formatted again; a missing ``grad_norm_ybar``
    (``None``, written empty) equals only ``None``.  Values are compared, not
    objects, so any rows benefit, rows added one call at a time included."""

    def __init__(self, out: IO[str]):
        self._out = out
        csv.writer(out).writerow(TRACE_COLUMNS)
        self._out.flush()
        # (value, text) of the last row's f_x, grad_norm_monitor,
        # grad_norm_ybar, L, M and S_k: any value with its own text will do.
        self._last = (0.0, "0.0", 0.0, "0.0", None, "", 0.0, "0.0", 0.0, "0.0", 0.0, "0.0")

    def add_rows(self, rows: Iterable[tuple]) -> None:
        """Write rows, each the eleven field values in ``TRACE_COLUMNS``
        order (a tuple or a record)."""
        write, sign = self._out.write, math.copysign
        f0, f1, g0, g1, y0, y1, L0, L1, M0, M1, S0, S1 = self._last
        for K, epoch, k, n_oracle, f_x, monitor, ybar, L, M, S_k, event in rows:
            # ``v != last``, or both zero with different signs: format anew.
            if f_x != f0 or f_x == 0.0 and sign(1.0, f_x) != sign(1.0, f0):
                f0, f1 = f_x, repr(float(f_x))
            if monitor != g0 or monitor == 0.0 and sign(1.0, monitor) != sign(1.0, g0):
                g0, g1 = monitor, repr(float(monitor))
            if ybar != y0 or ybar == 0.0 and sign(1.0, ybar) != sign(1.0, y0):
                y0, y1 = ybar, "" if ybar is None else repr(float(ybar))
            if L != L0 or L == 0.0 and sign(1.0, L) != sign(1.0, L0):
                L0, L1 = L, repr(float(L))
            if M != M0 or M == 0.0 and sign(1.0, M) != sign(1.0, M0):
                M0, M1 = M, repr(float(M))
            if S_k != S0 or S_k == 0.0 and sign(1.0, S_k) != sign(1.0, S0):
                S0, S1 = S_k, repr(float(S_k))
            write(_ROW % (K, epoch, k, n_oracle, f1, g1, y1, L1, M1, S1, event))
        self._last = (f0, f1, g0, g1, y0, y1, L0, L1, M0, M1, S0, S1)

    def close(self) -> None:
        self._out.flush()


def write_trace_csv(path: str, rows: Iterable[tuple]) -> None:
    """Write ``rows`` (a :class:`Trace` or any iterable of rows or records)
    as a trace CSV, row by row from the columns, with one flush at the end."""
    trace = as_trace(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = TraceWriter(fh)
        w.add_rows(zip(*trace.columns))
        w.close()


def read_trace_csv(path: str) -> Trace:
    """Read a trace CSV back into a :class:`Trace`, filling its columns
    directly.  A row that is not exactly ``len(TRACE_COLUMNS)`` fields wide
    (the cut last line of a killed write, say), holds a malformed number or
    an event not in ``EVENTS`` raises ``ValueError`` naming its line.

    A float field whose text repeats the previous row's is not parsed again:
    it holds the previous row's float, as the run's own trace holds one
    object for an epoch's ``L``.  Equal text is equal bits, so this reads
    every field exactly as ``float`` would."""
    trace = Trace()
    (add_K, add_epoch, add_k, add_n_oracle, add_f_x, add_monitor, add_ybar,
     add_L, add_M, add_S_k, add_event) = trace._appends
    # The last row's text of each float field; None matches no text.
    f_text = g_text = y_text = L_text = M_text = S_text = None
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(TRACE_COLUMNS):
            raise ValueError(f"unexpected trace header {header!r}")
        try:
            for K, epoch, k, n_oracle, f_row, g_row, y_row, L_row, M_row, S_row, event in reader:
                if f_row != f_text:
                    f_x, f_text = float(f_row), f_row
                if g_row != g_text:
                    monitor, g_text = float(g_row), g_row
                if y_row != y_text:
                    ybar, y_text = None if y_row == "" else float(y_row), y_row
                if L_row != L_text:
                    L, L_text = float(L_row), L_row
                if M_row != M_text:
                    M, M_text = float(M_row), M_row
                if S_row != S_text:
                    S_k, S_text = float(S_row), S_row
                name = _EVENT_NAMES.get(event)
                if name is None:
                    raise ValueError(f"unknown event {event!r}")
                add_K(int(K))
                add_epoch(int(epoch))
                add_k(int(k))
                add_n_oracle(int(n_oracle))
                add_f_x(f_x)
                add_monitor(monitor)
                add_ybar(ybar)
                add_L(L)
                add_M(M)
                add_S_k(S_k)
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
