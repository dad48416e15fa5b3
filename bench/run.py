"""restartagd benchmark: time to a certified solution, with a traced
per-layer split.

Run from the repository root::

    python3 bench/run.py --workload rosenbrock-grid --seed 1 --seconds 32 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation beyond
a timer around each solve.  Its times are given at a reference speed of the
host: a fixed task of the benchmark's own is timed every 0.1 s during each
pass and after each set-up, and each time is divided by how much slower
than its nominal time the task ran then (see ``hostspeed.py``).  The times
as measured are printed too.  ``--trace 1`` measures the same untraced passes,
then runs one more pass with a span around every public entry point (see
``tracing.py``) and reports the per-layer metrics; the tracing overhead is
that pass's wall time minus the median untraced pass.  Every solve is
checked (see ``workloads.check_solve``); the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``, where
``failed / attempted`` is the failed-solve fraction.  Spans, per-layer self
times and a copy of the result go to ``.bench_run/<workload>/``.

The package is imported from ``src/`` next to this directory, never from an
installed copy; without it the benchmark exits with status 2.
"""
import time

_T_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, pinned before NumPy is first imported (children inherit).
BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_PIN:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Fresh-process set-up probes, half before the timed passes and half after,
# so the median samples two moments of the host's speed.
SETUP_PROBES = 12
# Reference readings each set-up process takes right after its set-up.
SETUP_READINGS = 10

END_TO_END = {
    "wall_s": "s",
    "iters_per_s": "1/s",
    "oracle_calls": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "problems.value_calls": "count",
    "problems.grad_calls": "count",
    "problems.value_s": "s",
    "problems.grad_s": "s",
    "problems.us_per_grad": "us",
    "problems.build_s": "s",
    "oracle.requests": "count",
    "oracle.memo_hit_ratio": "ratio",
    "oracle.self_s": "s",
    "oracle.us_per_request": "us",
    "solver.iterations": "count",
    "solver.self_s": "s",
    "solver.us_per_iter": "us",
    "solver.restarts_successful": "count",
    "solver.restarts_unsuccessful": "count",
    "solver.rolled_back_ratio": "ratio",
    "solver.certify_evals": "count",
    "baselines.iterations": "count",
    "baselines.self_s": "s",
    "baselines.us_per_iter": "us",
    "baselines.gd_reject_ratio": "ratio",
    "baselines.uncounted_value_calls": "count",
    "baselines.uncounted_value_s": "s",
    "trace.rows_written": "count",
    "trace.bytes_written": "B",
    "trace.write_s": "s",
    "trace.read_s": "s",
    "trace.report_json_s": "s",
    "svgplot.render_s": "s",
    "svgplot.bytes": "B",
    "cli.self_s": "s",
    "tracing.wall_s": "s",
    "tracing.untraced_wall_s": "s",
    "tracing.overhead_s": "s",
    "tracing.unclaimed_s": "s",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("rosenbrock-grid", "matcomp", "long-trace"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: import and build once, print the seconds taken")
    return p.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout; ``unknown`` when it is not a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def header(args) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": git_commit(),
        "blas_threads": {v: os.environ[v] for v in BLAS_PIN},
        "machine": platform.machine(),
    }


def setup_seconds(args, probes: int) -> list:
    """Import plus problem build, each in a fresh process, one after another.
    Each gives the seconds as measured and the reference readings the
    process took right after its set-up."""
    times = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0"],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return times


class Pass:
    """One pass: ``wall_s`` leaves out the benchmark's per-solve bookkeeping,
    ``raw_wall_s`` does not; neither includes the reference readings, which
    give the pass's ``slowdown`` (1.0 when the host's speed was not read)."""

    def __init__(self, raw_wall_s, overhead_s, records, issues, readings):
        self.raw_wall_s = raw_wall_s
        self.wall_s = raw_wall_s - overhead_s
        self.records = records
        self.issues = issues
        self.readings = readings
        self.slowdown = hostspeed.slowdown(readings) if readings else 1.0
        self.failed = 0

    @property
    def iterations(self) -> int:
        return sum(r.total_K for r in self.records if r.error is None)

    @property
    def solve_s(self) -> float:
        return sum(r.seconds for r in self.records)

    @property
    def iters_per_s(self) -> float:
        return self.iterations / self.solve_s

    @property
    def oracle_calls(self) -> int:
        return sum(r.n_oracle for r in self.records if r.error is None)


def run_pass(wl, capture, host=None) -> Pass:
    """One pass; with ``host``, the host's speed is read just before it and
    every ``host.every_s`` seconds during it."""
    capture.reset()
    sampling = contextlib.nullcontext()
    capture.clock = time.perf_counter
    if host is not None:
        host.probe()
        sampling = host.sampling()
        capture.clock = host.clock
    t0 = capture.clock()
    with sampling:
        try:
            wl.one_pass(capture)
            crash = None
        except Exception as exc:  # a failed pass is counted, the run goes on
            crash = f"pass raised {type(exc).__name__}: {exc}"
        raw_wall = capture.clock() - t0
    readings = host.drain() if host is not None else []
    records = capture.records
    if crash is not None:
        issues = [crash]
    else:
        try:
            issues = wl.pass_issues(records)
        except (OSError, ValueError, IndexError) as exc:
            issues = [f"outputs unreadable: {exc}"]
    return Pass(raw_wall, capture.overhead_s, records, issues, readings)


def check_pass(wl, p: Pass, reference) -> None:
    """Count the failed solves of ``p`` (one printed line each), then drop
    what only the checks needed so memory does not grow with the passes."""
    from workloads import check_solve
    expected = wl.expected()
    issues = list(p.issues)
    if len(p.records) != len(expected):
        issues.append(f"ran {len(p.records)} solves, expected {len(expected)}")
    p.failed = 0
    for i, exp in enumerate(expected):
        rec = p.records[i] if i < len(p.records) else None
        bad = check_solve(rec, exp) + issues
        if (reference is not None and rec is not None and i < len(reference)
                and rec.counts() != reference[i].counts()):
            bad.append("oracle counts differ from the first pass")
        if bad:
            p.failed += 1
            print(f"FAIL {exp.label}: {'; '.join(bad)}")
    for rec in p.records:
        rec.solution = rec.grad_fn = None


def measure(wl, capture, host, seconds: float, min_passes: int):
    """Closed loop: passes back to back until the next one would overrun."""
    passes = []
    t0 = time.perf_counter()
    while True:
        p = run_pass(wl, capture, host)
        check_pass(wl, p, passes[0].records if passes else None)
        passes.append(p)
        elapsed = time.perf_counter() - t0
        if len(passes) >= min_passes and elapsed + p.raw_wall_s > seconds:
            return passes


def layer_metrics(tracer, p: Pass, untraced_wall: float) -> dict:
    m = tracer.layer_metrics(p.raw_wall_s)
    ok = [r for r in p.records if r.error is None]
    prop = [r for r in ok if r.kind == "proposed"]
    base = [r for r in ok if r.kind != "proposed"]
    gd = [r for r in ok if r.kind == "gd"]
    it = sum(r.total_K for r in prop)
    bit = sum(r.total_K for r in base)
    gd_trials = sum(r.total_K for r in gd)
    m.update({
        "solver.iterations": it,
        "solver.us_per_iter": 1e6 * m["solver.self_s"] / it if it else 0.0,
        "solver.restarts_successful": sum(r.restarts_successful for r in prop),
        "solver.restarts_unsuccessful": sum(r.restarts_unsuccessful for r in prop),
        "solver.rolled_back_ratio": sum(r.rolled_back for r in prop) / it if it else 0.0,
        "solver.certify_evals": sum(r.ybar_rows for r in prop),
        "baselines.iterations": bit,
        "baselines.us_per_iter": 1e6 * m["baselines.self_s"] / bit if bit else 0.0,
        "baselines.gd_reject_ratio": (sum(r.restarts_unsuccessful for r in gd) / gd_trials
                                      if gd_trials else 0.0),
        "tracing.untraced_wall_s": untraced_wall,
        "tracing.overhead_s": m["tracing.wall_s"] - untraced_wall,
    })
    return m


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "restartagd" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    from workloads import WORKLOADS, Capture

    workdir = ROOT / ".bench_run" / args.workload
    wl = WORKLOADS[args.workload](args.seed, str(workdir))
    if args.setup_probe:
        wl.build()
        setup = time.perf_counter() - _T_START
        host = hostspeed.HostSpeed()
        host.probe(SETUP_READINGS)
        print(json.dumps({"setup_s": setup, "readings": host.drain()}))
        return 0

    hdr = header(args)
    print("header " + json.dumps(hdr, sort_keys=True), flush=True)
    workdir.mkdir(parents=True, exist_ok=True)
    host = hostspeed.HostSpeed()
    probes = SETUP_PROBES if args.trace == 0 else 0
    setup = setup_seconds(args, probes // 2)

    capture = Capture()
    with capture.active():
        wl.warmup()
        passes = measure(wl, capture, host, args.seconds, min_passes=3)
    if args.trace:
        tracer = tracing.Tracer()
        with tracing.instrument(tracer), capture.active(tracer):
            traced = run_pass(wl, capture)
        check_pass(wl, traced, passes[0].records)
    setup += setup_seconds(args, probes - len(setup))

    for rec in passes[0].records:
        print(rec.line())
    all_passes = passes + ([traced] if args.trace else [])
    attempted = len(wl.expected()) * len(all_passes)
    failed = sum(p.failed for p in all_passes)
    walls = [p.wall_s for p in passes]
    wall = statistics.median(walls)
    ref_walls = [p.wall_s / p.slowdown for p in passes]
    slows = [p.slowdown for p in passes]
    print(f"pass wall time as measured: median={wall:.6f} min={min(walls):.6f} "
          f"max={max(walls):.6f} passes={len(walls)}")
    print(f"pass wall time at reference speed: median={statistics.median(ref_walls):.6f} "
          f"min={min(ref_walls):.6f} max={max(ref_walls):.6f}; host slowdown "
          f"min={min(slows):.4f} max={max(slows):.4f}")
    print(f"fail_frac={failed / attempted:.6g} ({failed} of {attempted} solves)")

    if args.trace == 0:
        setup_raw = [probe["setup_s"] for probe in setup]
        print(f"setup time as measured: median={statistics.median(setup_raw):.6f} "
              f"min={min(setup_raw):.6f} max={max(setup_raw):.6f} probes={len(setup)}")
        values = {
            "wall_s": statistics.median(ref_walls),
            "iters_per_s": statistics.median(p.iters_per_s * p.slowdown for p in passes),
            "oracle_calls": passes[0].oracle_calls,
            "setup_s": statistics.median(probe["setup_s"] / hostspeed.slowdown(probe["readings"])
                                         for probe in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        extra = {"walls_s": walls, "slowdowns": slows, "setup_runs_s": setup,
                 "readings": [p.readings for p in passes]}
    else:
        values = layer_metrics(tracer, traced, wall)
        units = PER_LAYER
        selfs = tracer.layer_self_times(traced.raw_wall_s)
        # Shares are quoted with the calibrated tracing cost taken out, so a
        # layer entered often (the oracle) is not inflated by its wrappers.
        cost = tracing.span_cost()
        net = tracer.layer_self_times(traced.raw_wall_s, cost)
        net_wall = sum(net.values())
        shares = {k: v / net_wall for k, v in net.items()}
        print(f"span cost: {1e9 * cost[0]:.0f} ns own + {1e9 * cost[1]:.0f} ns to parent; "
              f"traced wall less tracing cost {net_wall:.4f} s, untraced {wall:.4f} s")
        print("layer shares " + " ".join(f"{k}={v:.3f}" for k, v in shares.items()))
        tracer.save(str(workdir / "spans.npz"))
        extra = {"walls_s": walls, "layer_self_s": selfs, "span_cost_s": cost,
                 "layer_net_self_s": net, "layer_share": shares, "spans": len(tracer)}

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    with open(workdir / f"result-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"header": hdr, "result": result, **extra}, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
