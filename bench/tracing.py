"""Spans around the public entry points of each restartagd module.

The benchmark never edits the package: :func:`instrument` swaps each entry
point for a wrapper for the duration of a ``with`` block and puts the
original back afterwards.  A span records its name, start, end, parent span
and solve id.  Spans are kept in flat arrays while the traced pass runs and
are reduced to per-layer numbers (and written out) after it ends.

A layer's self time is the time of its spans minus the time of their child
spans.  The pass wall time leaves out the benchmark's own bookkeeping (its
``bench.summarize`` spans), and the part of it that no span covers is
reported as unclaimed time, not dropped: the layers' self times plus the
unclaimed time add up to the wall time.  :func:`span_cost` calibrates what
one span costs, so the layer shares can also be given with the tracing cost
taken out.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import os
import time
from array import array
from typing import Dict, List, Tuple

import numpy as np

from restartagd import baselines, cli, oracle, problems, solver, svgplot, trace

# Span name -> layer (module) the span's self time is charged to.
LAYER_OF = {
    "Objective.value_fn": "problems",
    "Objective.grad_fn": "problems",
    "problems.make_problem": "problems",
    "OracleSession.value": "oracle",
    "OracleSession.grad": "oracle",
    "solver.run": "solver",
    "baselines.gd_run": "baselines",
    "baselines.ll2022_run": "baselines",
    "trace.write_trace_csv": "trace",
    "trace.read_trace_csv": "trace",
    "trace.write_report_json": "trace",
    "svgplot.write_traces_svg": "svgplot",
    "cli.main": "cli",
    # The benchmark's own per-solve summary, kept out of the layers above.
    "bench.summarize": "bench",
}
LAYERS = ("problems", "oracle", "solver", "baselines", "trace", "svgplot", "cli")
SOLVE_ENTRIES = ("solver.run", "baselines.gd_run", "baselines.ll2022_run")


class Tracer:
    """Collects spans in flat typed arrays, about 28 bytes a span.

    The solve id of a span is the ordinal of the latest solver entry that
    started at or before it (0 before the first), so the trace and report
    writes that follow a solve carry that solve's id.
    """

    def __init__(self):
        self.names: List[str] = list(LAYER_OF)
        self._name_ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.solve = array("i")
        self.start = array("d")
        self.end = array("d")
        self.solve_id = 0
        self._stack = [-1]
        self.rows_written = 0
        self.trace_bytes = 0
        self.svg_bytes = 0

    def wrap(self, span_name: str, fn):
        nid = self._name_ids[span_name]
        new_solve = span_name in SOLVE_ENTRIES
        clock = time.perf_counter
        stack = self._stack
        names, parents, solves = self.name, self.parent, self.solve
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_solve:
                self.solve_id += 1
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            solves.append(self.solve_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def save(self, path: str) -> None:
        """Write every span to an ``.npz`` file: parallel arrays ``name``
        (an index into ``names``), ``start``, ``end`` (seconds), ``parent``
        (row index, -1 for none) and ``solve``."""
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent), solve=np.asarray(self.solve))

    def _reduce(self):
        """Per-span name, parent, duration, self time and child count."""
        n = len(self)
        name = np.frombuffer(self.name, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        dur = (np.frombuffer(self.end, dtype=np.float64, count=n)
               - np.frombuffer(self.start, dtype=np.float64, count=n))
        nested = parent >= 0
        self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=n)
        n_children = np.bincount(parent[nested], minlength=n)
        return name, parent, dur, self_time, n_children

    def layer_self_times(self, raw_wall_s: float, cost=(0.0, 0.0)) -> Dict[str, float]:
        """Self time per layer of the program (the benchmark's own excluded),
        plus the ``unclaimed`` time no span covers, over a pass of
        ``raw_wall_s`` seconds.

        ``cost`` is the tracing cost per span, as :func:`span_cost` gives it:
        the part inside the span's own timestamps, and the part its parent
        (or, for a root span, the unclaimed time) absorbs.  With the default
        of zero the times are as measured and add up to the traced wall time
        less the benchmark's spans; with a calibrated cost they estimate the
        untraced pass.
        """
        name, parent, dur, self_time, n_children = self._reduce()
        own, to_parent = cost
        self_time = self_time - own - to_parent * n_children
        by_name = np.bincount(name, weights=self_time, minlength=len(self.names))
        out = {layer: 0.0 for layer in LAYERS}
        for i, nm in enumerate(self.names):
            if LAYER_OF[nm] in out:
                out[LAYER_OF[nm]] += float(by_name[i])
        roots = parent < 0
        out["unclaimed"] = raw_wall_s - float(dur[roots].sum()) - to_parent * int(roots.sum())
        return out

    def layer_metrics(self, raw_wall_s: float) -> Dict[str, float]:
        """Reduce the spans to the per-layer numbers of one traced pass.

        ``raw_wall_s`` is the whole pass; the reported wall time leaves out
        the benchmark's own spans, and the unclaimed time is what no span
        covers, so the program layers' self times plus the unclaimed time
        equal the reported wall time.
        """
        name, parent, dur, self_time, n_children = self._reduce()
        ids = self._name_ids

        def select(*span_names):
            return np.isin(name, [ids[s] for s in span_names])

        def self_s(*span_names) -> float:
            return float(self_time[select(*span_names)].sum())

        value = select("Objective.value_fn")
        grad = select("Objective.grad_fn")
        requests = select("OracleSession.value", "OracleSession.grad")
        nested = parent >= 0
        parent_name = np.where(nested, name[np.maximum(parent, 0)], -1)
        uncounted = value & (parent_name == ids["baselines.ll2022_run"])
        n_grad = int(grad.sum())
        n_req = int(requests.sum())
        grad_s = float(dur[grad].sum())
        oracle_self = self_s("OracleSession.value", "OracleSession.grad")
        roots = float(dur[~nested].sum())
        return {
            "problems.value_calls": int(value.sum()),
            "problems.grad_calls": n_grad,
            "problems.value_s": float(dur[value].sum()),
            "problems.grad_s": grad_s,
            "problems.us_per_grad": 1e6 * grad_s / n_grad if n_grad else 0.0,
            "problems.build_s": self_s("problems.make_problem"),
            "oracle.requests": n_req,
            "oracle.memo_hit_ratio": (float((n_children[requests] == 0).sum()) / n_req
                                      if n_req else 0.0),
            "oracle.self_s": oracle_self,
            "oracle.us_per_request": 1e6 * oracle_self / n_req if n_req else 0.0,
            "solver.self_s": self_s("solver.run"),
            "baselines.self_s": self_s("baselines.gd_run", "baselines.ll2022_run"),
            "baselines.uncounted_value_calls": int(uncounted.sum()),
            "baselines.uncounted_value_s": float(dur[uncounted].sum()),
            "trace.rows_written": self.rows_written,
            "trace.bytes_written": self.trace_bytes,
            "trace.write_s": self_s("trace.write_trace_csv"),
            "trace.read_s": self_s("trace.read_trace_csv"),
            "trace.report_json_s": self_s("trace.write_report_json"),
            "svgplot.render_s": self_s("svgplot.write_traces_svg"),
            "svgplot.bytes": self.svg_bytes,
            "cli.self_s": self_s("cli.main"),
            "tracing.wall_s": raw_wall_s - self_s("bench.summarize"),
            "tracing.unclaimed_s": raw_wall_s - roots,
        }


def span_cost(calls: int = 20_000, repeats: int = 5) -> Tuple[float, float]:
    """Calibrated tracing cost of one span, in seconds: the part charged to
    the span's own self time and the part charged to its parent's.

    A traced loop of ``calls`` no-op leaf spans under one parent span is
    timed against the same loop untraced; the median over ``repeats`` is
    returned.  The leaf's self time beyond an untraced call is its own
    share; the rest of the extra time per call is its parent's.
    """
    def noop(x):
        return x

    clock = time.perf_counter
    own, to_parent = [], []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            noop(0)
        untraced = (clock() - t0) / calls
        probe = Tracer()
        leaf = probe.wrap("Objective.value_fn", noop)

        def loop():
            for _ in range(calls):
                leaf(0)

        probe.wrap("cli.main", loop)()
        _, _, dur, _, _ = probe._reduce()
        total = dur[0] / calls - untraced
        mine = max(float(dur[1:].mean()) - untraced, 0.0)
        own.append(mine)
        to_parent.append(total - mine)
    return float(np.median(own)), float(np.median(to_parent))


def _traced_objective(tracer: Tracer, spec: problems.ProblemSpec) -> problems.ProblemSpec:
    obj = spec.objective
    obj = dataclasses.replace(
        obj,
        value_fn=tracer.wrap("Objective.value_fn", obj.value_fn),
        grad_fn=tracer.wrap("Objective.grad_fn", obj.grad_fn),
    )
    return dataclasses.replace(spec, objective=obj)


@contextlib.contextmanager
def patched(targets):
    """Set ``(owner, attribute, value)`` triples, restoring them on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def instrument(tracer: Tracer):
    """Context manager that routes every traced entry point through ``tracer``.

    ``cli`` imports some names into its own namespace, so those are replaced
    there as well as in their home module.
    """
    make = tracer.wrap("problems.make_problem", problems.make_problem)

    @functools.wraps(problems.make_problem)
    def make_problem(*args, **kwargs):
        return _traced_objective(tracer, make(*args, **kwargs))

    write_csv = tracer.wrap("trace.write_trace_csv", trace.write_trace_csv)

    @functools.wraps(trace.write_trace_csv)
    def write_trace_csv(path, records):
        write_csv(path, records)
        tracer.rows_written += len(records)
        tracer.trace_bytes += os.path.getsize(path)

    write_json = tracer.wrap("trace.write_report_json", trace.write_report_json)

    @functools.wraps(trace.write_report_json)
    def write_report_json(path, doc):
        write_json(path, doc)
        tracer.trace_bytes += os.path.getsize(path)

    render = tracer.wrap("svgplot.write_traces_svg", svgplot.write_traces_svg)

    @functools.wraps(svgplot.write_traces_svg)
    def write_traces_svg(path, *args, **kwargs):
        render(path, *args, **kwargs)
        tracer.svg_bytes += os.path.getsize(path)

    read_csv = tracer.wrap("trace.read_trace_csv", trace.read_trace_csv)
    session = oracle.OracleSession
    return patched([
        (problems, "make_problem", make_problem),
        (cli, "make_problem", make_problem),
        (session, "value", tracer.wrap("OracleSession.value", session.value)),
        (session, "grad", tracer.wrap("OracleSession.grad", session.grad)),
        (solver, "run", tracer.wrap("solver.run", solver.run)),
        (baselines, "gd_run", tracer.wrap("baselines.gd_run", baselines.gd_run)),
        (baselines, "ll2022_run", tracer.wrap("baselines.ll2022_run", baselines.ll2022_run)),
        (trace, "write_trace_csv", write_trace_csv),
        (cli, "write_trace_csv", write_trace_csv),
        (trace, "read_trace_csv", read_csv),
        (cli, "read_trace_csv", read_csv),
        (trace, "write_report_json", write_report_json),
        (cli, "write_report_json", write_report_json),
        (svgplot, "write_traces_svg", write_traces_svg),
        (cli, "write_traces_svg", write_traces_svg),
        (cli, "main", tracer.wrap("cli.main", cli.main)),
    ])
