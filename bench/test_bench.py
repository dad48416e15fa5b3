"""Small-size self-test of the benchmark.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
Each workload is shrunk (one grid cell per solver, two matcomp instances, a
3000-iteration long trace) so the whole file takes well under a minute.
"""
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from restartagd import cli, solver  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setitem(cli.GRID_DEFAULTS, "l_init", [1e2])
    monkeypatch.setitem(cli.GRID_DEFAULTS, "m0", [1.0])
    monkeypatch.setattr(workloads.Matcomp, "INSTANCES", 2)
    monkeypatch.setattr(workloads.LongTrace, "ITERATIONS", 3000)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def _bench(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_names_the_emitted_metrics():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(small, capsys, workload, trace):
    result = _bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    for metric in result["metrics"].values():
        assert isinstance(metric["unit"], str) and metric["unit"]
        assert math.isfinite(metric["value"])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_spans_account_for_the_traced_wall(small, capsys, workload):
    metrics = _bench(capsys, workload, 1)["metrics"]
    wall = metrics["tracing.wall_s"]["value"]
    assert 0.0 <= metrics["tracing.unclaimed_s"]["value"] < 0.05 * wall


def test_span_cost_is_small_and_positive():
    own, to_parent = tracing.span_cost(calls=2000, repeats=3)
    assert 0.0 <= own < 1e-4
    assert 0.0 < own + to_parent < 1e-4


def test_host_clock_leaves_out_the_reference_readings():
    host = hostspeed.HostSpeed(every_s=0.02)
    t0, c0 = time.perf_counter(), host.clock()
    with host.sampling():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    t1, c1 = time.perf_counter(), host.clock()
    readings = host.drain()
    assert len(readings) >= 3
    assert (c1 - c0) + sum(readings) == pytest.approx(t1 - t0, abs=1e-3)


def test_corrupted_certificate_raises_fail_frac(small, capsys, monkeypatch):
    honest = solver.run

    def corrupted(obj, x_init, params):
        report = honest(obj, x_init, params)
        report.certified_grad_norm = float(np.nextafter(report.certified_grad_norm, 1.0))
        return report

    monkeypatch.setattr(solver, "run", corrupted)
    result = _bench(capsys, "matcomp", 0)
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "matcomp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
