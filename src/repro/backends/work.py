"""The workers the backends run.

The corpus layer calls these inside the backend's workers (loading the
runs there, so a thread backend overlaps the XML-parsing share of a
cold batch) and hands every task of a batch one
:class:`~repro.core.memo.SharedTables`: each run's deletion tables are
built once per batch, and each distinct pair of subtree shapes is
priced once.  Workers return plain data (floats, operation lists),
never service handles.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.api import diff_runs, distance_only
from repro.core.edit_script import PathOperation
from repro.core.memo import SharedTables
from repro.costs.base import CostModel
from repro.workflow.run import WorkflowRun


def compute_distance(
    run_a: WorkflowRun,
    run_b: WorkflowRun,
    cost: CostModel,
    shared: SharedTables,
) -> float:
    """Worker: ``δ(run_a, run_b)`` under ``cost``, for one pair.

    The caller passes the runs in the canonical (lexicographic) DP
    direction, so a cached value stays bit-identical to a fresh
    listing-order computation regardless of backend.
    """
    return distance_only(run_a, run_b, cost=cost, shared=shared)


def compute_script(
    run_a: WorkflowRun,
    run_b: WorkflowRun,
    cost: CostModel,
    shared: SharedTables,
) -> Tuple[float, List[PathOperation]]:
    """Worker: one full diff of a directed pair, returned as
    ``(distance, operations)``."""
    result = diff_runs(
        run_a, run_b, cost=cost, with_script=True, shared=shared
    )
    return result.distance, list(result.script.operations)
