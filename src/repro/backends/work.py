"""Picklable work payloads and module-level workers for the backends.

The corpus layer resolves runs (XML parse, fingerprint memo) in the
parent process, then ships these self-contained payloads to whichever
:class:`~repro.backends.base.ExecutorBackend` is configured.  Workers
are plain module-level functions — importable by name, the requirement
process pools impose — and return plain data (floats, operation lists),
never service handles.

A payload carries the two :class:`~repro.workflow.run.WorkflowRun`
objects and the cost model; a chunked process dispatch pickles each
chunk as one unit, so the shared specification object serialises once
per chunk, not once per pair (both runs of a pair — and usually the
whole corpus — reference the same spec).

Table sharing: in-process backends receive one
:class:`~repro.core.memo.SharedTables` from the service per batch.
Process workers cannot share the parent's memo (it is not picklable and
would not help across address spaces anyway); they keep a module-level
per-worker memo instead, keyed by cost-model identity.  Because a chunk
unpickles as one unit, the runs of a chunk alias each other's trees and
specification, so the chunk's pairs share tables, shapes and cells
exactly like the in-process path; the memo holds strong references (no
id reuse while an entry lives) and dies with the worker — pools are
created fresh per dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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

    ``assume_aligned`` asserts that both runs are annotated against the
    same specification object, letting the worker skip the per-pair
    alignment check (the service loads batches through one spec).

    ``bound``/``cutoff`` ship the parent's packing lower bound (priced
    from persisted leaf profiles) and pruning threshold ``τ`` into the
    worker, so bound gating also prunes *inside* process-parallel
    batches: a worker whose ``bound`` strictly exceeds ``cutoff``
    returns ``inf`` without running the DP — the same strict
    inequality the parent-side gate uses, so the ranking the caller
    assembles is bit-identical to the ungated evaluation (a gated
    pair's true distance is ≥ bound > τ, so it can never enter the
    top-``k``, not even on a tie).  ``cutoff=None`` (the default)
    disables the gate.
    """

    run_a: WorkflowRun
    run_b: WorkflowRun
    cost: CostModel
    assume_aligned: bool = False
    bound: float = 0.0
    cutoff: Optional[float] = None


@dataclass
class ScriptTask:
    """One full diff: the minimum-cost edit script for a directed pair."""

    run_a: WorkflowRun
    run_b: WorkflowRun
    cost: CostModel


#: Per-worker table memo (process backend): cost identity → shared
#: tables.  Strong references keep ``id`` stable; cleared with the
#: worker process (pools are fresh per dispatch).
_WORKER_TABLES: Dict[int, Tuple[CostModel, SharedTables]] = {}


#: Retire a worker memo entry once it holds this many run trees — a
#: backstop for long-lived processes calling the workers directly (the
#: intended users are short-lived pool workers, bounded by one batch).
_WORKER_TABLE_LIMIT = 512


def _worker_shared(cost: CostModel) -> SharedTables:
    key = id(cost)
    entry = _WORKER_TABLES.get(key)
    if (
        entry is not None
        and entry[0] is cost
        and len(entry[1]) < _WORKER_TABLE_LIMIT
    ):
        return entry[1]
    shared = SharedTables(cost)
    _WORKER_TABLES[key] = (cost, shared)
    return shared


def compute_distance(task: DistanceTask, shared: Optional[SharedTables] = None) -> float:
    """Worker: the distance-only fast path for one pair.

    ``shared`` is supplied by in-process backends; process workers fall
    back to the module-level per-worker memo.
    """
    if task.cutoff is not None and task.bound > task.cutoff:
        # Worker-side bound gate: provably outside the caller's
        # top-k, skip the DP entirely.  ``inf`` is the sentinel the
        # service translates into a ``dp_skipped_by_bound`` credit —
        # it is never cached and never enters a returned ranking.
        return float("inf")
    if shared is None:
        shared = _worker_shared(task.cost)
    return distance_only(
        task.run_a,
        task.run_b,
        cost=task.cost,
        assume_aligned=task.assume_aligned,
        shared=shared,
    )


def compute_script(
    task: ScriptTask, shared: Optional[SharedTables] = None
) -> Tuple[float, List[PathOperation]]:
    """Worker: one full diff, returned as ``(distance, operations)``."""
    if shared is None:
        shared = _worker_shared(task.cost)
    result = diff_runs(
        task.run_a,
        task.run_b,
        cost=task.cost,
        with_script=True,
        shared=shared,
    )
    return result.distance, list(result.script.operations)
