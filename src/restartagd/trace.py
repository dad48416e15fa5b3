"""Run traces and reports shared by all solvers and the CLI harness.

One row per iteration, a tuple in ``TRACE_COLUMNS`` order, which is
:class:`TraceRecord`'s field order, kept column-wise in a :class:`Trace`, and
one :class:`RunReport` per run, written as the document ``REPORT_SCHEMA``
describes.  The CSV layout is the column order; floats are written with
``repr`` so a read-back row equals the original.
"""
from __future__ import annotations

import io
import json
import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from itertools import islice
from typing import IO, Iterable, List, Optional, Tuple, Union

import numpy as np

REASONS = ("EpsReached", "BudgetExhausted", "TimeLimit", "Stationary", "Stalled")

# The values of the trace's ``event`` column.
EVENTS = frozenset(("Step", "RestartSuccessful", "RestartUnsuccessful", "Terminated"))


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


TRACE_COLUMNS = tuple(f.name for f in fields(TraceRecord))
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
    columns in ``TRACE_COLUMNS`` order.  ``filled`` is the range
    ``(start, stop)`` of rows the last :meth:`repeat_last` calls appended,
    ``(0, 0)`` before any.

    ``append`` takes a row, a tuple or a record; ``Trace(rows)`` packs any
    iterable of them.  Read, it behaves as a list of records: iteration and
    indexing yield records, a slice is a list of records, and it equals any
    sequence of equal records.  Two traces compare column by column, where a
    NaN equals a NaN, so a trace with a NaN equals its own read-back.
    """

    __slots__ = TRACE_COLUMNS + ("columns", "_appends", "filled")

    def __init__(self, rows: Iterable[tuple] = ()):
        self.columns = tuple(array(code) if code else [] for code in _TYPECODES)
        for name, column in zip(TRACE_COLUMNS, self.columns):
            setattr(self, name, column)
        self._appends = tuple(column.append for column in self.columns)
        self.filled = (0, 0)
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

    def repeat_last(self, n: int) -> None:
        """Append ``n`` copies of the last row, with ``K`` and ``k`` counting
        up from it, a column at a time in ``TRACE_COLUMNS`` order: ``event``,
        the last, grows last.  A column grows by whole blocks of at most
        ``_FILL_BLOCK`` rows, not an element at a time: its last element
        repeated (``column[-1:] * m``, references to the one object in a
        list), or for ``K`` and ``k`` a NumPy ``arange`` copied in as bytes.
        The blocks keep the spare copy small whatever ``n`` is.  Then
        ``filled`` becomes the range of the new rows, or is extended by it
        when the last fill ended where this one starts.  It is set only once
        every column has grown, so a fill cut short (by Ctrl-C) leaves the
        range of an earlier, complete one."""
        start = len(self)
        for i, column in enumerate(self.columns):
            for j in range(0, n, _FILL_BLOCK):
                m, last = min(_FILL_BLOCK, n - j), column[-1]
                if i in (0, 2):     # K and k
                    column.frombytes(np.arange(last + 1, last + m + 1, dtype=np.int64).tobytes())
                else:
                    column.extend(column[-1:] * m)
        first, stop = self.filled
        self.filled = (first if stop == start else start, start + n)

    def __len__(self) -> int:
        return len(self.K)

    def __iter__(self):
        return map(TraceRecord, *self.columns)

    def __getitem__(self, i: Union[int, slice]):
        if isinstance(i, slice):
            return list(map(TraceRecord, *(column[i] for column in self.columns)))
        return TraceRecord(*(column[i] for column in self.columns))

    def __eq__(self, other) -> bool:
        if isinstance(other, Trace):    # column by column, NaN equal to NaN
            return all(len(a) == len(b) and all(x == y or x != x and y != y for x, y in zip(a, b))
                       for a, b in zip(self.columns, other.columns))
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


# The header, without its line end, and one trace row as ``csv.writer`` would
# write them, with ``\r\n`` line ends.  The six float fields are given as
# floats or as texts: a float's ``%s`` is its ``repr``.  No field ever needs
# quoting, since names and numbers never hold a comma, a quote or a line
# break and the names in ``EVENTS`` are a fixed set without them.
_HEADER = ",".join(TRACE_COLUMNS)
_TAIL = "%d,%s,%s,%s,%s,%s,%s,%s\r\n"   # the fields after ``k``
_ROW = "%d,%d,%d," + _TAIL

# Filled rows written, or appended to a column, at a time.
_FILL_BLOCK = 4096

# Anchors whose text :func:`write_report_json` builds and writes at a time.
_PIECE = 128


def _fill_text(K: int, epoch, k: int, tail: str, n: int) -> str:
    """The text of ``n`` rows from ``K``, ``epoch`` and ``k`` on, ``K`` and
    ``k`` counting up, each followed by ``tail``: its text after ``k``, line
    end included.  The writer writes a fill with it and the reader checks
    one.  The rows up to where ``K``'s or ``k``'s text widens (one row at a
    time below zero) are one NumPy ``uint8`` table: the first row's UTF-8
    bytes in every row, then ``K``'s and ``k``'s digits written a column at
    a time, from the last column to the first that holds one digit in every
    row.  Columns are byte offsets, so an ``epoch`` or ``tail`` with
    non-ASCII characters (digits that ``int`` and ``float`` read, say)
    stays in place.  Each table is decoded once, from its buffer."""
    texts = []
    while n > 0:
        m = min(n, *(10 ** len(str(x)) - x if x >= 0 else 1 for x in (K, k)))
        head = f"{K},{epoch},{k}".encode()
        table = np.tile(np.frombuffer(head + f",{tail}".encode(), np.uint8), (m, 1))
        for x, col in ((K, len(str(K)) - 1), (k, len(head) - 1)):
            q = np.arange(x, x + m, dtype=np.int64)
            while q[0] != q[-1]:    # the digit in this column changes
                q, digit = np.divmod(q, 10)
                table[:, col] = digit + 48
                col -= 1
        texts.append(str(table.data, "utf-8"))
        K, k, n = K + m, k + m, n - m
    return "".join(texts)


class TraceWriter:
    """Writes trace rows to a CSV file: the header, flushed, when built, then
    the rows of each :meth:`add_rows` call, one ``write`` a row but for a
    :class:`Trace`'s ``filled`` rows.  The caller flushes or closes the file.

    A float field is written as ``repr(float(v))``, and a missing
    ``grad_norm_ybar`` (``None``) as an empty field.  ``f_x``,
    ``grad_norm_monitor`` and ``S_k`` are formatted on every row, as the
    reader parses them.  ``grad_norm_ybar``, ``L`` and ``M`` hold one object
    for a run of equal values, in a run's trace and in one read back, so
    one of them is formatted only when the row holds another object than
    the row before: the reader's rule (equal text, one object) run
    backwards.  One object has one value, so the bytes are those of
    formatting every field, as long as a value is never changed after its
    row is appended.  The last objects and their texts carry over to the
    next call, so rows added one call at a time share texts too.

    A filled row repeats the row before it but ``K`` and ``k``, which count
    up, so the filled rows are written as :func:`_fill_text` of the row
    before's text after ``k``, ``_FILL_BLOCK`` rows a ``write``: no float is
    formatted and no row is built in Python for them, as each block is a
    NumPy byte table decoded once."""

    def __init__(self, out: IO[str]):
        self._out = out
        self._out.write(_HEADER + "\r\n")
        self._out.flush()
        # The last row's object and text of grad_norm_ybar, L and M: any
        # object with its own text will do.
        self._last = (None, "", 0.0, "0.0", 0.0, "0.0")

    def add_rows(self, rows: Iterable[tuple]) -> None:
        """Write rows, each the eleven field values in ``TRACE_COLUMNS``
        order (a tuple or a record), or every row of a :class:`Trace`."""
        if isinstance(rows, Trace):
            (start, stop), columns = rows.filled, rows.columns
            if stop:   # the rows before the fill, the fill, then the rows after it
                self.add_rows(islice(zip(*columns), start))
                i = start - 1
                tail = _TAIL % (rows.n_oracle[i], rows.f_x[i], rows.grad_norm_monitor[i],
                                *self._last[1::2], rows.S_k[i], rows.event[i])
                for j in range(start, stop, _FILL_BLOCK):
                    self._out.write(_fill_text(rows.K[j], rows.epoch[i], rows.k[j], tail,
                                               min(_FILL_BLOCK, stop - j)))
                columns = [column[stop:] for column in columns]
            rows = zip(*columns)
        write = self._out.write
        y0, y1, L0, L1, M0, M1 = self._last
        for K, epoch, k, n_oracle, f_x, monitor, ybar, L, M, S_k, event in rows:
            # The previous row's object has the previous row's text.
            if ybar is not y0:
                y0, y1 = ybar, "" if ybar is None else repr(float(ybar))
            if L is not L0:
                L0, L1 = L, repr(float(L))
            if M is not M0:
                M0, M1 = M, repr(float(M))
            write(_ROW % (K, epoch, k, n_oracle, float(f_x), float(monitor), y1, L1, M1,
                          float(S_k), event))
        self._last = (y0, y1, L0, L1, M0, M1)


def write_trace_csv(path: str, rows: Iterable[tuple]) -> None:
    """Write ``rows`` (a :class:`Trace` or any iterable of rows or records)
    as a trace CSV, flushed when the file closes."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        TraceWriter(fh).add_rows(rows)


def read_trace_csv(path: str) -> Trace:
    """Read a trace CSV back into a :class:`Trace`.  Fields are split at
    commas, as the writer, which never quotes one, leaves them; CRLF and LF
    line ends both read.  A row that is not exactly ``len(TRACE_COLUMNS)``
    fields wide (the cut last line of a killed write, or a quoted field
    holding a comma), holds a malformed number (a quoted one, say) or an
    event not in ``EVENTS`` raises ``ValueError`` naming its line.

    A row whose ``epoch`` and text after ``k`` equal the previous row's, and
    whose ``K`` and ``k`` are each one higher, repeats it: such rows are
    counted and appended together by :meth:`Trace.repeat_last`, so a
    stalled run reads back with its ``filled`` range.  After each such row
    read as a line, the next block of 64 rows, growing to 1,024, is compared
    with as many characters read from the file: the block's text as the
    repeats would be written (:func:`_fill_text`).  A block that matches is
    counted whole.  The text of one that does not, its cut last line
    completed by ``readline``, is split into lines by the file's own rules
    (``io.StringIO`` with ``newline=""``) and read line by line before the
    file, with no block compared until those lines are read.  The file is
    never asked to ``tell`` or ``seek``, so a pipe reads as a file does.

    Any other row is parsed field by field and added by
    :meth:`Trace.append`.  A ``grad_norm_ybar``, ``L`` or ``M`` whose text
    repeats the previous row's is not parsed again: it holds the previous
    row's float object, as the run's own trace holds one object for an
    epoch's ``L``.  The other floats go into ``array("d")`` columns, which
    keep bits, not objects, so they are parsed on every row.  Equal text is
    equal bits, so either way every field reads exactly as ``int`` and
    ``float`` would read it."""
    trace = Trace()
    # The last row's text of grad_norm_ybar, L and M; None matches no text.
    y_text = L_text = M_text = None
    # The last row's K, k, epoch text and text after k.  A line holds a line
    # break only at its end, so none repeats the "row" before the first.
    K = k = repeats = 0
    epoch = tail = "\n"
    with open(path, "r", newline="", encoding="utf-8") as fh:
        header = fh.readline()
        if header.rstrip("\r\n") != _HEADER:
            raise ValueError(f"unexpected trace header {header!r}")
        # Where lines come from, the next one last: the file, and lines read
        # ahead of it to read again first.  ``block``: rows in the next block.
        sources, block = [fh], 64
        try:
            while sources:
                for line in sources.pop():
                    K, k = K + 1, k + 1
                    if line.endswith(tail) and line == f"{K},{epoch},{k},{tail}":
                        repeats += 1
                        if not sources:   # blocks are compared with the file only
                            text = _fill_text(K + 1, epoch, k + 1, tail, block)
                            ahead = fh.read(len(text))
                            if ahead != text:   # read its lines first, the cut last one completed
                                sources += [fh, io.StringIO(ahead + fh.readline(), newline="")]
                                break
                            K, k, repeats = K + block, k + block, repeats + block
                            block = min(2 * block, 1024)
                        continue
                    if repeats:
                        trace.repeat_last(repeats)
                        repeats, block = 0, 64
                    (K, epoch, k, n_oracle, f_x, monitor, y_row, L_row, M_row, S_k,
                     event) = line.rstrip("\r\n").split(",")
                    K, k, tail = int(K), int(k), line.split(",", 3)[3]
                    if y_row != y_text:
                        ybar, y_text = None if y_row == "" else float(y_row), y_row
                    if L_row != L_text:
                        L, L_text = float(L_row), L_row
                    if M_row != M_text:
                        M, M_text = float(M_row), M_row
                    name = _EVENT_NAMES.get(event)
                    if name is None:
                        raise ValueError(f"unknown event {event!r}")
                    trace.append((K, int(epoch), k, int(n_oracle), float(f_x), float(monitor),
                                  ybar, L, M, float(S_k), name))
        except ValueError as exc:
            # The line after the header, the rows read whole and the repeats
            # not yet appended (``event`` grows last, so it counts whole rows).
            raise ValueError(f"bad trace row at line {len(trace.event) + repeats + 2}: {exc}") from None
    if repeats:
        trace.repeat_last(repeats)
    return trace


REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
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
    },
}
REPORT_SCHEMA["required"] = [key for key in REPORT_SCHEMA["properties"] if key != "trace_path"]


def report_to_dict(report: RunReport, problem: str, solver: str, params: dict,
                   trace_path: Optional[str] = None) -> dict:
    """The ``report.json`` document: each key of ``REPORT_SCHEMA`` read from
    ``report`` as its JSON type (an ``array`` a list of floats, a ``number``
    a float), but ``problem``, ``solver``, ``params`` and ``trace_path``,
    which are given; ``trace_path`` is left out when it is None."""
    doc = {"problem": problem, "solver": solver, "params": params}
    for key, prop in REPORT_SCHEMA["properties"].items():
        if key not in doc and key != "trace_path":
            value = getattr(report, key)
            doc[key] = ([float(v) for v in value] if prop["type"] == "array"
                        else float(value) if prop["type"] == "number" else value)
    if trace_path is not None:
        doc["trace_path"] = trace_path
    return doc


def write_report_json(path: str, doc: dict) -> None:
    """Write ``doc`` as ``json.dump(doc, fh, indent=2, sort_keys=True)``
    would, with its ``anchor_values`` (a ``gd`` report carries one per
    accepted step) written in blocks of ``_PIECE``: each block is encoded by
    ``json.dumps`` (each float's ``repr``, or json's own ``NaN`` and
    ``Infinity``) and its separators respaced, where the indenting encoder
    writes one piece per number.  The rest of the document is encoded whole."""
    anchors = doc["anchor_values"]
    head, tail = json.dumps(dict(doc, anchor_values=[]), indent=2, sort_keys=True).split(
        '\n  "anchor_values": []', 1)   # no string holds a raw line break
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head + '\n  "anchor_values": [')
        for i in range(0, len(anchors), _PIECE):
            fh.write(",\n    " if i else "\n    ")
            fh.write(json.dumps(anchors[i:i + _PIECE])[1:-1].replace(", ", ",\n    "))
        fh.write(("\n  ]" if anchors else "]") + tail + "\n")
