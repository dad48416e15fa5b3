"""Run traces and reports shared by all solvers and the CLI harness.

One :class:`TraceRecord` per iteration, one :class:`RunReport` per run.  The
CSV layout is the record's field order; floats are written with ``repr`` so a
read-back record equals the original field for field.
"""
from __future__ import annotations

import csv
import json
from array import array
from dataclasses import dataclass, field
from typing import IO, Iterable, List, Optional, Tuple

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
    trace: List[TraceRecord] = field(default_factory=list)
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
        ybar = rec.grad_norm_ybar
        self._out.write(_ROW % (
            rec.K, rec.epoch, rec.k, rec.n_oracle,
            float(rec.f_x), float(rec.grad_norm_monitor),
            "" if ybar is None else repr(float(ybar)),
            float(rec.L), float(rec.M), float(rec.S_k), rec.event,
        ))
        if rec.event != "Step":
            self._out.flush()

    def close(self) -> None:
        self._out.flush()


def write_trace_csv(path: str, records: Iterable[TraceRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = TraceWriter(fh)
        for rec in records:
            w.add(rec)
        w.close()


def _unknown_event(event: str):
    raise ValueError(f"unknown event {event!r}")


def read_trace_csv(path: str) -> List[TraceRecord]:
    """Read a trace CSV back into records.  A row that is not exactly
    ``len(TRACE_COLUMNS)`` fields wide (the cut last line of a killed write,
    say), holds a malformed number or an event not in ``EVENTS`` raises
    ``ValueError`` naming its line."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(TRACE_COLUMNS):
            raise ValueError(f"unexpected trace header {header!r}")
        try:
            return [TraceRecord(int(K), int(epoch), int(k), int(n_oracle), float(f_x),
                                float(monitor), None if ybar == "" else float(ybar),
                                float(L), float(M), float(S_k),
                                event if event in EVENTS else _unknown_event(event))
                    for K, epoch, k, n_oracle, f_x, monitor, ybar, L, M, S_k, event
                    in reader]
        except ValueError as exc:
            raise ValueError(f"bad trace row at line {reader.line_num}: {exc}") from None


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
