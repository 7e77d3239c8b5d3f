"""Ablation A2: the S-node deletion DP is the series-side bottleneck.

Fig. 12's explanation: reducing a subtree rooted at an S node needs the
knapsack-style convolution (O(|E|³) overall), while P/F/L nodes take the
minimum over children in linear time.  This ablation times
:class:`~repro.core.deletion.DeletionTables` on runs of pure-series vs
pure-parallel specifications of equal edge count.
"""

import statistics

import pytest

from repro.core.deletion import DeletionTables
from repro.costs.standard import UnitCost
from repro.workflow.execution import ExecutionParams, execute_workflow
from repro.workflow.generators import random_specification

from _workloads import emit, scaled, stable_seed, timed

SIZES = [scaled(100), scaled(200), scaled(400)]
SAMPLES = 3
PARAMS = ExecutionParams(prob_parallel=0.95)


def sweep():
    rows = []
    for size in SIZES:
        for label, ratio in (("series", 6.0), ("parallel", 1.0 / 6.0)):
            times = []
            for sample in range(SAMPLES):
                spec = random_specification(
                    size, ratio, seed=stable_seed(label, size, sample)
                )
                run = execute_workflow(spec, PARAMS, seed=sample)
                elapsed, _ = timed(
                    DeletionTables, run.tree, UnitCost()
                )
                times.append(elapsed)
            rows.append((label, size, statistics.mean(times)))
    return rows


def test_deletion_dp_ablation(benchmark):
    rows = sweep()
    lines = [
        "Ablation A2: subtree-deletion tables, series vs parallel runs",
        f"{'shape':9s} {'|E|':>5} {'seconds':>10}",
    ]
    for label, size, seconds in rows:
        lines.append(f"{label:9s} {size:>5} {seconds:>10.5f}")
    emit("ablation_deletion", lines)

    by_shape = {}
    for label, size, seconds in rows:
        by_shape.setdefault(label, []).append((size, seconds))
    largest = SIZES[-1]
    series_time = dict(by_shape["series"])[largest]
    parallel_time = dict(by_shape["parallel"])[largest]
    # The S-node convolution makes series runs the expensive shape.
    assert series_time >= parallel_time

    spec = random_specification(largest, 6.0, seed=3)
    run = execute_workflow(spec, PARAMS, seed=3)
    benchmark.pedantic(
        DeletionTables, args=(run.tree, UnitCost()), rounds=3, iterations=1
    )
