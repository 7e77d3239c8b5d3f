"""Public differencing API: ``diff_runs`` and :class:`DiffResult`.

This is the library's main entry point, wrapping the full pipeline of the
paper: annotated trees (Algorithms 1, 2, 5) → deletion tables
(Algorithm 3) → edit-distance DP (Algorithms 4, 6) → optimal well-formed
mapping → minimum-cost edit script (Lemma 5.1).

Example
-------
>>> from repro.core.api import diff_runs
>>> from repro import UnitCost
>>> result = diff_runs(run1, run2, cost=UnitCost())   # doctest: +SKIP
>>> result.distance                                    # doctest: +SKIP
4.0

(Client code usually reaches this through :meth:`repro.Workspace.diff`,
which adds store resolution and corpus caching on top.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.edit_distance import EditDistanceComputation
from repro.core.edit_script import EditScript, generate_script
from repro.core.memo import SharedTables
from repro.core.mapping import (
    NodeCorrespondence,
    WellFormedMapping,
    extract_mapping,
    node_correspondence,
)
from repro.costs.base import CostModel
from repro.costs.standard import UnitCost
from repro.errors import ReproError
from repro.workflow.run import WorkflowRun


@dataclass
class DiffResult:
    """The outcome of differencing two runs of one specification."""

    run1: WorkflowRun
    run2: WorkflowRun
    cost_model: CostModel
    distance: float
    computation: EditDistanceComputation
    mapping: WellFormedMapping
    script: Optional[EditScript] = None

    def correspondence(self) -> NodeCorrespondence:
        """Instance-level node matches induced by the optimal mapping."""
        return node_correspondence(
            self.mapping, self.run1.graph, self.run2.graph
        )

    def compact_script(self):
        """Composite-operation digest of the script (§III-C.1 remark).

        Pairs deletions with insertions into path replacements, groups
        subgraph growth/shrink runs, and pairs loop expansion/contraction
        into iteration replacements.  Requires ``with_script=True``.
        """
        from repro.core.postprocess import detect_composites

        if self.script is None:
            raise ReproError(
                "compact_script requires diff_runs(..., with_script=True)"
            )
        return detect_composites(self.script.operations)

    def summary(self) -> str:
        """One-paragraph human-readable digest (PDiffView header)."""
        ops = self.script.operations if self.script else []
        kinds = {}
        for op in ops:
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
        breakdown = ", ".join(
            f"{count} {kind}" for kind, count in sorted(kinds.items())
        )
        return (
            f"delta({self.run1.name}, {self.run2.name}) = "
            f"{self.distance:g} under {self.cost_model.name}"
            + (f" [{breakdown}]" if breakdown else "")
        )


def _align_specs(run1: WorkflowRun, run2: WorkflowRun) -> WorkflowRun:
    """Re-annotate ``run2`` against ``run1``'s specification if needed.

    Raises :class:`ReproError` when the two runs belong to structurally
    different specifications.
    """
    if run2.spec is run1.spec:
        return run2
    if not run2.spec.graph.structurally_equal(run1.spec.graph):
        raise ReproError(
            "runs belong to different specifications: "
            f"{run1.spec.name!r} vs {run2.spec.name!r}"
        )
    return WorkflowRun(run1.spec, run2.graph, name=run2.name)


def diff_runs(
    run1: WorkflowRun,
    run2: WorkflowRun,
    cost: Optional[CostModel] = None,
    with_script: bool = True,
    record_intermediates: bool = False,
    validate_intermediates: bool = False,
    shared: Optional[SharedTables] = None,
) -> DiffResult:
    """Compute the edit distance and minimum-cost edit script (O(|E|³)).

    One DP serves the distance, the mapping and the script: child pairs
    are priced through the ``≡``-shortcut and the shape cells, and the
    traceback decides only the pairs it visits
    (:mod:`repro.core.edit_distance`).

    Parameters
    ----------
    run1, run2:
        Valid runs of the *same* specification.  If ``run2`` was validated
        against a different (but structurally identical) specification
        object, it is re-annotated against ``run1``'s.
    cost:
        The cost model ``γ`` (default: :class:`UnitCost`).
    with_script:
        Also generate the edit script (skip for distance-only sweeps —
        the benchmarks measure both configurations).
    record_intermediates / validate_intermediates:
        Keep (and structurally validate) a graph snapshot per operation.
    shared:
        Optional per-batch :class:`~repro.core.memo.SharedTables`: each
        run's deletion tables and shapes are built once across a batch
        of pairs, and each distinct pair of subtree shapes is priced
        once, for distances and scripts alike.

    Returns
    -------
    DiffResult
        With ``distance``, the optimal ``mapping``, and (optionally) the
        ``script`` whose total cost equals ``distance``.
    """
    if cost is None:
        cost = shared.cost if shared is not None else UnitCost()
    run2 = _align_specs(run1, run2)

    computation = EditDistanceComputation(
        run1.spec, run1.tree, run2.tree, cost, shared=shared
    )
    mapping = extract_mapping(computation)
    script = None
    if with_script:
        script = generate_script(
            computation,
            record_intermediates=record_intermediates,
            validate_intermediates=validate_intermediates,
        )
    return DiffResult(
        run1=run1,
        run2=run2,
        cost_model=cost,
        distance=computation.distance,
        computation=computation,
        mapping=mapping,
        script=script,
    )


def distance_only(
    run1: WorkflowRun,
    run2: WorkflowRun,
    cost: Optional[CostModel] = None,
    shared: Optional[SharedTables] = None,
) -> float:
    """Compute ``δ(run1, run2)`` without mapping or script extraction.

    The fast path for corpus-scale sweeps (distance matrices, nearest-run
    queries, cache fills): the same DP as :func:`diff_runs`, without
    the optimal-mapping backtrace and script generation.  Workers in
    :class:`repro.corpus.service.DiffService` call this per pair;
    ``shared`` reuses the batch's tables, node shapes and DP cells.
    """
    if cost is None:
        cost = shared.cost if shared is not None else UnitCost()
    run2 = _align_specs(run1, run2)
    return EditDistanceComputation(
        run1.spec, run1.tree, run2.tree, cost, shared=shared
    ).distance


def edit_distance(
    run1: WorkflowRun, run2: WorkflowRun, cost: Optional[CostModel] = None
) -> float:
    """Distance-only convenience wrapper (same value as ``diff_runs``)."""
    return distance_only(run1, run2, cost=cost)
