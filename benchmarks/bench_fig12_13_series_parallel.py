"""Figs. 12 & 13: series vs parallel specifications.

The paper generates fork/loop-free specifications with series/parallel
composition ratios r ∈ {3, 1, 1/3} and |E| from 100 to 1000, draws run
pairs with prob_p = 0.95, and reports (Fig. 12) the differencing time and
(Fig. 13) the edit distance under unit cost, averaged over 200 samples.

Scaled reproduction (sizes 80-320 x REPRO_BENCH_SCALE, 3 samples).  The
preserved claims:

* Fig. 12 — series-heavy specifications are the expensive ones (the
  S-node deletion DP is the O(|E|³) part, vs linear work at P nodes);
* Fig. 13 — run pairs of series-heavy specifications are *closer* (fewer
  parallel branches means runs look alike, and long paths are cheap to
  delete under unit cost).
"""

import statistics

import pytest

from repro.core.api import diff_runs
from repro.costs.standard import UnitCost
from repro.workflow.execution import ExecutionParams
from repro.workflow.generators import random_run_pair, random_specification

from _workloads import emit, scaled, stable_seed, timed

RATIOS = [("r=3", 3.0), ("r=1", 1.0), ("r=1/3", 1.0 / 3.0)]
SIZES = [scaled(80), scaled(160), scaled(240), scaled(320)]
SAMPLES = 3
PARAMS = ExecutionParams(prob_parallel=0.95)


def sweep():
    """Per (ratio, size): mean seconds and mean distance."""
    rows = []
    for label, ratio in RATIOS:
        for size in SIZES:
            times = []
            distances = []
            for sample in range(SAMPLES):
                spec = random_specification(
                    size, ratio, seed=stable_seed(label, size, sample)
                )
                one, two = random_run_pair(
                    spec, PARAMS, seed=sample + 17
                )
                elapsed, result = timed(
                    diff_runs, one, two, cost=UnitCost()
                )
                times.append(elapsed)
                distances.append(result.distance)
            rows.append(
                (
                    label,
                    size,
                    statistics.mean(times),
                    statistics.mean(distances),
                )
            )
    return rows


def test_fig12_13_series_vs_parallel(benchmark):
    rows = sweep()

    lines = [
        "Figs. 12/13: series vs parallel (unit cost, prob_p = 0.95)",
        f"{'ratio':7s} {'|E|':>5} {'seconds':>9} {'distance':>9}",
    ]
    for label, size, seconds, distance in rows:
        lines.append(
            f"{label:7s} {size:>5} {seconds:>9.4f} {distance:>9.2f}"
        )
    emit("fig12_13", lines)

    largest = SIZES[-1]
    at_largest = {
        label: (seconds, distance)
        for label, size, seconds, distance in rows
        if size == largest
    }
    # Fig. 12 claim: the series-heavy ratio is the slowest configuration
    # (S-node deletion DP); allow 20% sampling tolerance.
    assert at_largest["r=3"][0] >= 0.8 * at_largest["r=1/3"][0], (
        "series specifications should dominate the running time "
        f"(got {at_largest})"
    )
    # Fig. 13 claim: series runs are closer than parallel runs.
    assert at_largest["r=3"][1] <= at_largest["r=1/3"][1], (
        "series specifications should have smaller edit distances "
        f"(got {at_largest})"
    )
    # Time grows with size for every ratio.
    for label, _ in RATIOS:
        series = sorted(
            (size, seconds)
            for lbl, size, seconds, _ in rows
            if lbl == label
        )
        assert series[0][1] <= series[-1][1] * 3

    # Benchmark the expensive corner: the series-heavy configuration.
    spec = random_specification(largest, 3.0, seed=1)
    one, two = random_run_pair(spec, PARAMS, seed=2)
    benchmark.pedantic(
        diff_runs,
        args=(one, two),
        kwargs={"cost": UnitCost()},
        rounds=3,
        iterations=1,
    )
