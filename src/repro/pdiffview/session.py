"""PDiffView sessions: the prototype's facade (Section VII).

.. deprecated:: 1.1
   :class:`repro.Workspace` supersedes this facade — one client API
   over storage, differencing, querying, interchange and viewing, on
   pluggable execution backends (``docs/MIGRATION.md`` maps every
   method).  The class remains fully functional; :class:`DiffView`
   stays the canonical interactive view type and is what
   :meth:`repro.Workspace.view` returns.

A :class:`PDiffViewSession` ties the pieces of the prototype together:

* a :class:`~repro.io.store.WorkflowStore` for persistence,
* run generation via the execution function,
* differencing with any cost model, and
* stepping through the resulting edit script with rendered panes.

Example
-------
>>> session = PDiffViewSession(tmp_path)             # doctest: +SKIP
>>> session.register_specification(protein_annotation())
>>> session.generate_run("PA", name="monday", seed=1)
>>> view = session.diff("PA", "monday", "tuesday")
>>> print(view.overview())
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.api import DiffResult, diff_runs
from repro.costs.base import CostModel
from repro.costs.standard import UnitCost
from repro.errors import ReproError
from repro.io.store import WorkflowStore
from repro.pdiffview.render import (
    render_graph,
    render_operation,
    render_script,
    render_statistics,
)
from repro.workflow.execution import ExecutionParams, execute_workflow
from repro.workflow.run import WorkflowRun
from repro.workflow.specification import WorkflowSpecification


class DiffView:
    """An interactive view over a computed diff (step through the ops)."""

    def __init__(self, diff: DiffResult):
        self.diff = diff
        self._cursor = 0

    # -- overview --------------------------------------------------------
    def overview(self, max_operations: Optional[int] = 20) -> str:
        """The script overview pane."""
        return render_script(self.diff, max_operations=max_operations)

    def compact_overview(self) -> str:
        """Composite-operation digest (path replacements, subgraph
        growth) — the "overview" mode of Section VII."""
        compact = self.diff.compact_script()
        lines = [self.diff.summary()]
        lines.extend(f"  {line}" for line in compact.summary_lines())
        return "\n".join(lines)

    def panes(self) -> str:
        """Source and target run statistics side by side (Fig. 10)."""
        left = render_statistics(
            self.diff.run1.statistics(), title=self.diff.run1.name
        )
        right = render_statistics(
            self.diff.run2.statistics(), title=self.diff.run2.name
        )
        from repro.pdiffview.render import render_side_by_side

        return render_side_by_side(left.splitlines(), right.splitlines())

    # -- stepping --------------------------------------------------------
    @property
    def position(self) -> int:
        return self._cursor

    def __len__(self) -> int:
        return len(self.diff.script) if self.diff.script else 0

    def current(self) -> Optional[str]:
        """Render the operation at the cursor (None when exhausted)."""
        script = self.diff.script
        if script is None or self._cursor >= len(script.operations):
            return None
        return render_operation(
            self._cursor + 1, script.operations[self._cursor]
        )

    def step_forward(self) -> Optional[str]:
        """Advance one operation; returns its rendering."""
        rendered = self.current()
        if rendered is not None:
            self._cursor += 1
        return rendered

    def step_back(self) -> Optional[str]:
        """Move the cursor back one operation."""
        if self._cursor == 0:
            return None
        self._cursor -= 1
        return self.current()

    def state_after_cursor(self):
        """Graph snapshot after the operation the cursor just passed."""
        script = self.diff.script
        if script is None or script.intermediate_graphs is None:
            raise ReproError(
                "snapshots require diff(..., record_intermediates=True)"
            )
        if self._cursor == 0:
            return script.initial_graph
        return script.intermediate_graphs[self._cursor - 1]


class PDiffViewSession:
    """The prototype facade: store, generate, import/export, diff, view."""

    def __init__(self, root):
        self.store = WorkflowStore(root)
        self._specs: Dict[str, WorkflowSpecification] = {}
        self._service = None
        self._query_engine = None

    @property
    def diff_service(self):
        """The corpus :class:`~repro.corpus.service.DiffService` sharing
        this session's store (created lazily; fingerprints and distances
        persist under ``<root>/index/``)."""
        if self._service is None:
            from repro.corpus.service import DiffService

            self._service = DiffService(self.store)
        return self._service

    @property
    def query_engine(self):
        """The :class:`~repro.query.engine.QueryEngine` over this
        session's corpus service (created lazily; scripts and the
        inverted index persist under ``<root>/index/query/``)."""
        if self._query_engine is None:
            from repro.query.engine import QueryEngine

            self._query_engine = QueryEngine(self.diff_service)
        return self._query_engine

    # -- specifications -------------------------------------------------
    def register_specification(self, spec: WorkflowSpecification) -> None:
        """Add a specification to the session and persist it."""
        self._specs[spec.name] = spec
        self.store.save_specification(spec)
        if self._service is not None:
            # Run fingerprints embed the spec digest; re-registering a
            # name invalidates everything minted under the old content.
            self._service.invalidate_specification(spec.name)

    def specification(self, name: str) -> WorkflowSpecification:
        if name not in self._specs:
            self._specs[name] = self.store.load_specification(name)
        return self._specs[name]

    def specifications(self) -> List[str]:
        return sorted(
            set(self._specs) | set(self.store.list_specifications())
        )

    # -- runs --------------------------------------------------------------
    def import_run(self, run: WorkflowRun) -> None:
        """Validate (implicitly, via WorkflowRun) and persist a run."""
        self.store.save_run(run)

    # -- external provenance ------------------------------------------------
    def import_prov(
        self,
        source,
        name: str = "",
        spec_name: Optional[str] = None,
    ):
        """Import a PROV-JSON/OPM document into the session's store.

        Registers the (embedded or derived) specification and persists
        the run, so the imported execution is immediately diffable and
        queryable.  Importing under a name that already denotes a
        *different* specification is refused (the store's guard) —
        runs stored under the old content would become unreadable.
        Returns the :class:`~repro.interchange.convert.ImportResult`,
        whose ``report`` details any SP-ization the document needed.
        """
        # The store's guard ensures any pre-existing spec of this name
        # has identical content (equal fingerprints), so session and
        # service memos stay valid.
        return self.store.ingest_prov(
            source, run_name=name, spec_name=spec_name
        )

    def export_prov(self, spec_name: str, run_name: str) -> str:
        """A stored run as deterministic PROV-JSON text.

        The document embeds the specification as a ``prov:Plan``
        entity, so :meth:`import_prov` (here or in another store)
        reconstructs the run exactly.
        """
        from repro.interchange.convert import export_run_json

        return export_run_json(self.run(spec_name, run_name))

    def generate_run(
        self,
        spec_name: str,
        name: str,
        params: Optional[ExecutionParams] = None,
        seed: Optional[int] = None,
    ) -> WorkflowRun:
        """Generate, persist and return a random run."""
        spec = self.specification(spec_name)
        run = execute_workflow(spec, params, seed=seed, name=name)
        self.store.save_run(run)
        return run

    def run(self, spec_name: str, run_name: str) -> WorkflowRun:
        return self.store.load_run(self.specification(spec_name), run_name)

    def runs(self, spec_name: str) -> List[str]:
        return self.store.list_runs(spec_name)

    # -- differencing -----------------------------------------------------
    def diff(
        self,
        spec_name: str,
        run1_name: str,
        run2_name: str,
        cost: Optional[CostModel] = None,
        record_intermediates: bool = True,
    ) -> DiffView:
        """Diff two stored runs and wrap the result for viewing."""
        run1 = self.run(spec_name, run1_name)
        run2 = self.run(spec_name, run2_name)
        result = diff_runs(
            run1,
            run2,
            cost=cost or UnitCost(),
            record_intermediates=record_intermediates,
        )
        return DiffView(result)

    def distance_matrix(
        self, spec_name: str, cost: Optional[CostModel] = None
    ) -> Dict[tuple, float]:
        """Pairwise edit distances between all stored runs of a spec.

        Returns ``{(run_a, run_b): distance}`` for unordered pairs — the
        "which executions cluster together" overview scientists asked for
        in the paper's conclusions.  Delegates to the corpus
        :class:`~repro.corpus.service.DiffService`, so repeated calls hit
        the fingerprint-keyed distance cache instead of recomputing the
        O(N²) matrix of O(|E|³) diffs.
        """
        return self.diff_service.distance_matrix(spec_name, cost=cost)

    def nearest_runs(
        self,
        spec_name: str,
        run_name: str,
        k: Optional[int] = None,
        cost: Optional[CostModel] = None,
    ) -> List[tuple]:
        """``run_name``'s nearest stored runs, ``[(name, distance), ...]``."""
        return self.diff_service.nearest_runs(
            spec_name, run_name, k=k, cost=cost
        )

    # -- querying ----------------------------------------------------------
    def query(
        self,
        spec_name: str,
        predicate=None,
        cost: Optional[CostModel] = None,
        runs: Optional[List[str]] = None,
    ) -> list:
        """The diffs of stored run pairs matching a ``Q`` predicate.

        Materialised for convenience (``[ScriptDoc, ...]`` in listing
        order); use :attr:`query_engine` directly for streaming
        evaluation or aggregations::

            from repro.query import Q
            docs = session.query(
                "PA", Q.op_kind("path-deletion") & Q.touches("getGOAnnot")
            )
        """
        return list(
            self.query_engine.select(
                spec_name, predicate, cost=cost, runs=runs
            )
        )

    # -- rendering ---------------------------------------------------------
    def show_specification(self, spec_name: str) -> str:
        return render_graph(self.specification(spec_name).graph)

    def show_run(self, spec_name: str, run_name: str) -> str:
        return render_graph(self.run(spec_name, run_name).graph)
