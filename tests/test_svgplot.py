"""The SVG panels against the list-based renderer they replaced: the same
bytes on any trace, a fraction of the memory."""

import gc
import random
import tracemalloc

import pytest

from restartagd import Trace, TraceRecord
from restartagd.svgplot import _MAX_POINTS, render_traces_svg

import reference

# Lengths around the downsampling stride's steps.
LENGTHS = (0, 1, 2, _MAX_POINTS - 1, _MAX_POINTS, _MAX_POINTS + 1, 2 * _MAX_POINTS,
           2 * _MAX_POINTS + 1, 3 * _MAX_POINTS + 3)
# Values the panels drop (non-finite, and not positive on the log axis) or
# must place by sign (both zeros, negatives).
ODD = (float("nan"), float("inf"), -float("inf"), 0.0, -0.0, -1.5)


def _random_trace(rng, n):
    scale = rng.choice((1.0, 1e-12, 1e12))
    odd = rng.choice((0.0, 0.001, 0.05))
    calls, rows = 0, []
    for K in range(1, n + 1):
        calls += rng.choice((0, 1, 2, 5))
        f, g = (rng.choice(ODD) if rng.random() < odd else scale * 10 ** rng.uniform(-15, 3)
                for _ in range(2))
        if rows and rng.random() < 0.3:
            f = rows[-1][4]
        rows.append((K, 1, K, calls, f * rng.choice((1, -1)), g, None, 1.0, 0.0, 0.0, "Step"))
    return Trace(rows)


@pytest.mark.parametrize("seed", range(12))
def test_panels_match_the_list_reference_byte_for_byte(seed):
    rng = random.Random(seed)
    series = [(f"run{i}", _random_trace(rng, rng.choice(LENGTHS)))
              for i in range(rng.randint(1, 3))]
    if seed % 4 == 0:   # any iterable of records is drawn as its Trace
        series[0] = (series[0][0], [TraceRecord(*row) for row in series[0][1]])
    assert render_traces_svg(series, title="t") == reference.render_traces_svg(series, title="t")


def test_rendering_peaks_at_32_bytes_a_row():
    # The list-based panels peaked at about 82 B a row.
    n = 200_000
    trace = Trace((K, 1, K, 2 * K, 1.0 / K, 1.0 / K, None, 1.0, 0.0, 0.0, "Step")
                  for K in range(1, n + 1))
    gc.collect()
    tracemalloc.start()
    try:
        svg = render_traces_svg([("long", trace)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert svg.endswith("</svg>") and peak / n <= 32


def test_no_view_of_a_column_outlives_the_render():
    # An array whose buffer a NumPy view still holds cannot grow.
    trace = _random_trace(random.Random(0), 50)
    render_traces_svg([("a", trace)])
    trace.append(trace[0])
    assert len(trace) == 51 and trace[-1] == trace[0]
