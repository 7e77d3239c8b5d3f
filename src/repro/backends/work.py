"""Work payloads and workers for the backends.

The corpus layer builds these payloads inside the backend's workers
(loading the runs there, so a thread backend overlaps the XML-parsing
share of a cold batch) and hands every task of a batch one
:class:`~repro.core.memo.SharedTables`: each run's deletion tables are
built once per batch, and each distinct pair of subtree shapes is
priced once.  Workers return plain data (floats, operation lists),
never service handles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.api import diff_runs, distance_only
from repro.core.edit_script import PathOperation
from repro.core.memo import SharedTables
from repro.costs.base import CostModel
from repro.workflow.run import WorkflowRun


@dataclass
class DistanceTask:
    """One distance-only DP: ``δ(run_a, run_b)`` under ``cost``.

    ``run_a``/``run_b`` are already in the canonical (lexicographic)
    DP direction — the corpus layer orders them before dispatch so a
    cached value stays bit-identical to a fresh listing-order
    computation regardless of backend.
    """

    run_a: WorkflowRun
    run_b: WorkflowRun
    cost: CostModel


@dataclass
class ScriptTask:
    """One full diff: the minimum-cost edit script for a directed pair."""

    run_a: WorkflowRun
    run_b: WorkflowRun
    cost: CostModel


def compute_distance(task: DistanceTask, shared: SharedTables) -> float:
    """Worker: the distance-only fast path for one pair."""
    return distance_only(
        task.run_a,
        task.run_b,
        cost=task.cost,
        shared=shared,
    )


def compute_script(
    task: ScriptTask, shared: SharedTables
) -> Tuple[float, List[PathOperation]]:
    """Worker: one full diff, returned as ``(distance, operations)``."""
    result = diff_runs(
        task.run_a,
        task.run_b,
        cost=task.cost,
        with_script=True,
        shared=shared,
    )
    return result.distance, list(result.script.operations)
