"""The unified client API: one :class:`Workspace` over every subsystem.

Historically the library grew four parallel entry points — the
functional core (``diff_runs``), the corpus service (``DiffService``),
the prototype session (``PDiffViewSession``) and the query engine
(``QueryEngine``) — each wiring its own store, cost model and caches.
A :class:`Workspace` is the single coherent surface over all of them:
constructed from a path plus a :class:`~repro.config.ReproConfig`, it
owns the :class:`~repro.io.store.WorkflowStore`, the corpus
:class:`~repro.corpus.service.DiffService` (on the configured
execution backend), the :class:`~repro.query.engine.QueryEngine`, the
interchange layer and the PDiffView rendering layer, and exposes one
documented API:

>>> from repro import ReproConfig, Workspace          # doctest: +SKIP
>>> ws = Workspace(path, ReproConfig(backend="process"))
>>> ws.register(protein_annotation())
>>> ws.generate_run("monday", seed=1)
>>> ws.generate_run("tuesday", seed=2)
>>> ws.diff("monday", "tuesday").distance
4.0
>>> ws.matrix()                       # all pairs, cached, parallel
>>> ws.query(Q.op_kind("path-deletion"))
>>> ws.view("monday", "tuesday").overview()

Every result that prices or lists edits is a typed
:class:`DiffOutcome`; streaming batch work (:meth:`Workspace.diff_many`)
yields outcomes as their backend chunks complete.  The full public
surface is pinned down by the :class:`repro.api_types.WorkspaceAPI`
protocol, which :class:`repro.client.RemoteWorkspace` also satisfies —
the same code runs against a local store or a ``repro serve`` endpoint.
The legacy entry points remain importable as deprecated shims — see
``docs/MIGRATION.md`` for the call-site mapping.
"""

from __future__ import annotations

import threading
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api_types import (
    DiffOutcome,
    MatrixResult,
    QueryFilter,
    QueryPage,
    StatsSnapshot,
    decode_cursor,
    encode_cursor,
)
from repro.cluster.shard import shard_for_pair
from repro.config import ReproConfig
from repro.core.api import diff_runs
from repro.corpus.fingerprint import cost_model_key
from repro.corpus.service import DiffService
from repro.costs.base import CostModel
from repro.errors import NotFoundError, ReproError
from repro.io.store import WorkflowStore
from repro.obs.metrics import MetricsRegistry
from repro.pdiffview.session import DiffView
from repro.query.engine import QueryEngine, ScriptDoc
from repro.query.predicates import Predicate
from repro.workflow.execution import ExecutionParams, execute_workflow
from repro.workflow.run import WorkflowRun
from repro.workflow.specification import WorkflowSpecification

__all__ = ["DiffOutcome", "RunRef", "Workspace"]

#: A run argument: the name of a stored run, or an in-memory run object.
RunRef = Union[str, WorkflowRun]


class Workspace:
    """A store-backed provenance workspace: the library's client API.

    Parameters
    ----------
    root:
        Directory of the workflow store (created on demand), or an
        existing :class:`~repro.io.store.WorkflowStore` to share.
    config:
        A :class:`~repro.config.ReproConfig`; defaults to
        ``ReproConfig()`` (unit cost, thread backend, persistent
        caches).

    Attributes
    ----------
    store / service / engine / backend:
        The owned subsystem objects, exposed for advanced use (e.g.
        streaming query evaluation via ``ws.engine.select``); everyday
        work goes through the workspace methods.
    """

    def __init__(self, root, config: Optional[ReproConfig] = None):
        self.config = config or ReproConfig()
        self.store = (
            root if isinstance(root, WorkflowStore) else WorkflowStore(root)
        )
        self.backend = self.config.make_backend()
        # One registry per workspace (not per process): parallel
        # workspaces in one test process never pollute each other's
        # counts, and a disabled registry makes every update a no-op.
        self.metrics = MetricsRegistry(enabled=self.config.metrics)
        self.service = DiffService(
            self.store,
            cache_size=self.config.cache_size,
            persistent=self.config.persistent,
            backend=self.backend,
            metrics=self.metrics,
            kernel=self.config.kernel,
        )
        self.engine = QueryEngine(self.service)
        self._specs: Dict[str, WorkflowSpecification] = {}
        # Guards the session spec memo; the heavyweight state below it
        # (service, caches, indexes) carries its own lock discipline.
        self._spec_lock = threading.RLock()
        self._stream_hub = None
        self._stream_hub_lock = threading.Lock()

    @property
    def stream_hub(self):
        """The workspace's streaming-ingestion hub (built on demand).

        One hub per workspace: the in-process :meth:`stream` transport
        and the HTTP ``/stream/*`` routes share it, so both faces see
        the same session namespace and the same ``stream_*`` counters.
        """
        with self._stream_hub_lock:
            if self._stream_hub is None:
                from repro.stream.hub import StreamHub

                self._stream_hub = StreamHub(self)
            return self._stream_hub

    # -- specification management ---------------------------------------
    def register(self, spec: WorkflowSpecification) -> None:
        """Persist a specification and adopt it for later calls.

        Re-registering an existing name invalidates every fingerprint
        minted under the old content (the corpus service's rule).
        """
        with self._spec_lock:
            self._specs[spec.name] = spec
            self.store.save_specification(spec)
            self.service.invalidate_specification(spec.name)

    def specification(self, name: str) -> WorkflowSpecification:
        """The named specification (session-memoised)."""
        with self._spec_lock:
            if name not in self._specs:
                self._specs[name] = self.service.specification(name)
            return self._specs[name]

    def specifications(self) -> List[str]:
        """Names of every specification this workspace knows."""
        return sorted(
            set(self._specs) | set(self.store.list_specifications())
        )

    def _spec_name(self, spec: Optional[str]) -> str:
        """Resolve the default specification for spec-less calls.

        A workspace holding exactly one specification lets every call
        omit ``spec=``; with zero or several, the ambiguity is refused
        with the available names spelled out.
        """
        if spec is not None:
            return spec
        names = self.specifications()
        if len(names) == 1:
            return names[0]
        if not names:
            raise ReproError(
                "workspace holds no specifications; register one first"
            )
        raise ReproError(
            "workspace holds several specifications "
            f"({', '.join(names)}); pass spec= to disambiguate"
        )

    # -- run management ---------------------------------------------------
    def add_run(
        self, run: WorkflowRun, cost: Optional[CostModel] = None
    ) -> Dict[Tuple[str, str], float]:
        """Persist ``run`` and price only its pairs against the corpus.

        Incremental: an ``N``-run corpus pays at most ``N`` new DPs.
        Returns ``{(existing_name, new_name): distance}``.
        """
        return self.service.add_run(run, cost=cost or self.config.cost)

    def import_run(self, run: WorkflowRun) -> None:
        """Persist a run without pricing it against the corpus."""
        self.store.save_run(run)

    def generate_run(
        self,
        name: str,
        spec: Optional[str] = None,
        params: Optional[ExecutionParams] = None,
        seed: Optional[int] = None,
    ) -> WorkflowRun:
        """Generate, persist and return a random run of a specification."""
        specification = self.specification(self._spec_name(spec))
        run = execute_workflow(specification, params, seed=seed, name=name)
        self.store.save_run(run)
        return run

    def run(self, name: str, spec: Optional[str] = None) -> WorkflowRun:
        """Load a stored run (through the corpus parse memo: a run is
        parsed once per workspace, however many calls touch it)."""
        return self.service.load_run(self._spec_name(spec), name)

    def runs(self, spec: Optional[str] = None) -> List[str]:
        """Names of the stored runs of a specification.

        An explicitly named but unknown specification raises
        :class:`~repro.errors.NotFoundError` (the remote workspace
        behaves identically) — an empty listing is reserved for
        specifications that exist and simply have no runs yet.
        """
        spec_name = self._spec_name(spec)
        with self._spec_lock:
            known = (
                spec_name in self._specs
                or self.store.has_specification(spec_name)
            )
        if not known:
            raise NotFoundError(
                f"no stored specification named {spec_name!r}"
            )
        return self.store.list_runs(spec_name)

    # -- differencing -----------------------------------------------------
    def _resolve_pair(
        self, a: RunRef, b: RunRef, spec: Optional[str]
    ) -> Tuple[Optional[str], RunRef, RunRef]:
        """Validate a diff argument pair; returns ``(spec_name, a, b)``.

        Name pairs resolve against the (default) specification; run
        objects are used as-is.  Mixing a name with a run object is
        refused — the name's store identity and the object's in-memory
        identity could silently disagree.
        """
        a_is_run = isinstance(a, WorkflowRun)
        b_is_run = isinstance(b, WorkflowRun)
        if a_is_run != b_is_run:
            raise ReproError(
                "diff arguments must be two run names or two "
                "WorkflowRun objects, not a mix"
            )
        if a_is_run:
            return None, a, b
        return self._spec_name(spec), a, b

    @staticmethod
    def _outcome(
        spec_name: str,
        run_a: str,
        run_b: str,
        cost: CostModel,
        distance: float,
        operations,
    ) -> DiffOutcome:
        """The one place a :class:`DiffOutcome` is assembled."""
        return DiffOutcome(
            spec_name=spec_name,
            run_a=run_a,
            run_b=run_b,
            cost_model=cost.name,
            distance=distance,
            operations=list(operations),
            cost_key=cost_model_key(cost),
        )

    def diff(
        self,
        a: RunRef,
        b: RunRef,
        spec: Optional[str] = None,
        cost: Optional[CostModel] = None,
    ) -> DiffOutcome:
        """The minimum-cost edit script from ``a`` to ``b``, priced.

        ``a``/``b`` are stored run names (answered through the corpus
        caches) or two in-memory :class:`WorkflowRun` objects (diffed
        directly, nothing persisted).
        """
        cost = cost or self.config.cost
        spec_name, a, b = self._resolve_pair(a, b, spec)
        if spec_name is None:
            result = diff_runs(a, b, cost=cost, with_script=True)
            return self._outcome(
                a.spec.name, a.name, b.name, cost,
                result.distance, result.script.operations,
            )
        record = self.service.edit_script(spec_name, a, b, cost=cost)
        return self._outcome(
            spec_name, a, b, cost, record.distance, record.operations
        )

    def diff_many(
        self,
        pairs: Iterable[Tuple[str, str]],
        spec: Optional[str] = None,
        cost: Optional[CostModel] = None,
    ) -> Iterator[DiffOutcome]:
        """Stream :class:`DiffOutcome` results for directed name pairs.

        Pairs are dispatched to the execution backend in chunks sized
        to its parallelism, and outcomes are yielded in input order as
        each chunk completes — a million-pair sweep starts producing
        results after the first chunk, not after the last.  Persistence
        settles once: chunks are computed with ``flush=False`` and the
        cache tiers flush when the sweep finishes (or the consumer
        abandons the iterator), so a long sweep never rewrites the
        growing script-cache file per chunk.
        """
        cost = cost or self.config.cost
        spec_name = self._spec_name(spec)
        # Process pools are built per dispatched batch, so chunks on a
        # pickling backend are sized much larger — amortising pool
        # startup over ~64 pairs per worker instead of paying a full
        # fork/teardown cycle every 4.
        per_job = 64 if self.backend.requires_pickling else 4
        chunk_size = max(1, per_job * self.backend.effective_jobs)
        batch: List[Tuple[str, str]] = []

        def drain(batch: List[Tuple[str, str]]):
            records = self.service.edit_scripts(
                spec_name, batch, cost, flush=False
            )
            for a, b in batch:
                record = records[(a, b)]
                yield self._outcome(
                    spec_name, a, b, cost,
                    record.distance, record.operations,
                )

        try:
            for pair in pairs:
                batch.append(tuple(pair))
                if len(batch) >= chunk_size:
                    yield from drain(batch)
                    batch = []
            if batch:
                yield from drain(batch)
        finally:
            # Runs on completion and on early abandonment alike —
            # whatever was computed is persisted exactly once.
            self.service.flush()

    def matrix(
        self,
        spec: Optional[str] = None,
        cost: Optional[CostModel] = None,
        runs: Optional[Sequence[str]] = None,
        shard: Optional[Tuple[int, int]] = None,
    ) -> MatrixResult:
        """All-pairs distances as a typed :class:`MatrixResult`.

        The result still reads as the historical
        ``{(run_a, run_b): distance}`` mapping (unordered pairs in
        listing order) while carrying the spec name, cost identity and
        run listing for transport.  Cold pairs fan out on the
        configured backend, warm pairs answer from the cache tiers.

        ``shard=(index, count)`` restricts the computation to the pairs
        a cluster worker owns (by :func:`shard_for_pair`); the returned
        matrix carries the *full* run listing but only that shard's
        distances, so the routing parent can union shard results into
        the complete, bit-identical matrix.
        """
        cost = cost or self.config.cost
        spec_name = self._spec_name(spec)
        names = list(runs) if runs is not None else self.runs(spec_name)
        if shard is not None:
            index, count = shard
            pairs = [
                (a, b)
                for i, a in enumerate(names)
                for b in names[i + 1 :]
                if shard_for_pair(a, b, count) == index
            ]
            distances = self.service.distances(
                spec_name, pairs, cost=cost
            )
        else:
            distances = self.service.distance_matrix(
                spec_name, cost=cost, runs=names
            )
        return MatrixResult(
            spec_name=spec_name,
            cost_model=cost.name,
            cost_key=cost_model_key(cost),
            runs=names,
            distances=distances,
        )

    def nearest(
        self,
        run_name: str,
        k: Optional[int] = None,
        spec: Optional[str] = None,
        cost: Optional[CostModel] = None,
    ) -> List[Tuple[str, float]]:
        """``run_name``'s neighbours by ascending distance (one-vs-many)."""
        return self.service.nearest_runs(
            self._spec_name(spec),
            run_name,
            k=k,
            cost=cost or self.config.cost,
        )

    def medoid(
        self,
        spec: Optional[str] = None,
        cost: Optional[CostModel] = None,
    ) -> Tuple[str, float]:
        """The corpus's most central run, ``(name, mean distance)``."""
        return self.service.medoid(
            self._spec_name(spec), cost=cost or self.config.cost
        )

    def outliers(
        self,
        spec: Optional[str] = None,
        cost: Optional[CostModel] = None,
        top: Optional[int] = None,
    ) -> List[Tuple[str, float]]:
        """Runs ranked by descending mean distance to the corpus."""
        return self.service.outliers(
            self._spec_name(spec), cost=cost or self.config.cost, top=top
        )

    # -- querying ----------------------------------------------------------
    def _runs_matching_metadata(
        self,
        spec_name: str,
        filter: QueryFilter,
        runs: Optional[Sequence[str]],
    ) -> Optional[Sequence[str]]:
        """Restrict a run listing by the filter's user/host clauses.

        A pair matches a ``users``/``hosts`` clause only when *both*
        runs' operational metadata does, so the restriction applies to
        the run set before pairing.  Runs without metadata (written by
        older versions) never match a non-empty clause — slicing is
        opt-in and conservative.
        """
        if not filter.users and not filter.hosts:
            return runs
        names = list(runs) if runs is not None else self.runs(spec_name)
        matched = []
        for name in names:
            meta = self.store.run_metadata(spec_name, name)
            if meta is None:
                continue
            if filter.users and meta.user not in filter.users:
                continue
            if filter.hosts and meta.host not in filter.hosts:
                continue
            matched.append(name)
        return matched

    def query(
        self,
        predicate: Optional[Union[Predicate, QueryFilter]] = None,
        spec: Optional[str] = None,
        cost: Optional[CostModel] = None,
        runs: Optional[Sequence[str]] = None,
    ) -> List[ScriptDoc]:
        """The diffs of stored run pairs matching a ``Q`` predicate.

        Materialised in listing order; accepts either a live ``Q``
        predicate or the declarative (wire-safe)
        :class:`~repro.api_types.QueryFilter`.  Use ``ws.engine.select``
        for streaming evaluation and ``ws.engine``'s aggregation methods
        (``histogram``/``churn``/``divergence``) beyond these::

            from repro import Q
            ws.query(Q.op_kind("path-deletion") & Q.touches("getGOAnnot"))
        """
        if isinstance(predicate, QueryFilter):
            runs = self._runs_matching_metadata(
                self._spec_name(spec), predicate, runs
            )
            predicate = predicate.to_predicate()
        return list(
            self.engine.select(
                self._spec_name(spec),
                predicate,
                cost=cost or self.config.cost,
                runs=runs,
            )
        )

    def query_page(
        self,
        filter: Optional[QueryFilter] = None,
        spec: Optional[str] = None,
        cost: Optional[CostModel] = None,
        cursor: Optional[str] = None,
        limit: Optional[int] = None,
        runs: Optional[Sequence[str]] = None,
        shard: Optional[Tuple[int, int]] = None,
    ) -> QueryPage:
        """One page of the diffs matching a :class:`QueryFilter`.

        The paginated face of :meth:`query` — results are enumerated in
        the corpus's deterministic listing order, so an opaque cursor
        (``page.next_cursor``) resumes exactly where the previous page
        stopped.  ``limit=None`` returns everything in one page.

        ``shard=(index, count)`` evaluates only the pairs that shard
        owns (cluster scatter); the parent re-sorts merged shard items
        into global listing order and re-applies cursor/limit, so the
        paged result is bit-identical to a single process's.
        """
        filter = filter if filter is not None else QueryFilter()
        cost = cost or self.config.cost
        spec_name = self._spec_name(spec)
        runs = self._runs_matching_metadata(spec_name, filter, runs)
        pair_filter = None
        if shard is not None:
            index, count = shard
            pair_filter = (
                lambda a, b: shard_for_pair(a, b, count) == index
            )
        docs = list(
            self.engine.select(
                spec_name,
                filter.to_predicate(),
                cost=cost,
                runs=runs,
                pair_filter=pair_filter,
            )
        )
        offset = decode_cursor(cursor)
        if limit is not None and limit < 0:
            raise ReproError(f"limit must be >= 0, got {limit}")
        end = len(docs) if limit is None else min(offset + limit, len(docs))
        items = [
            self._outcome(
                spec_name, doc.run_a, doc.run_b, cost,
                doc.distance, doc.operations,
            )
            for doc in docs[offset:end]
        ]
        return QueryPage(
            spec_name=spec_name,
            cost_model=cost.name,
            cost_key=cost_model_key(cost),
            filter=filter,
            total_matches=len(docs),
            items=items,
            cursor=cursor,
            next_cursor=(
                encode_cursor(end) if end < len(docs) else None
            ),
        )

    # -- interchange -------------------------------------------------------
    def import_prov(
        self,
        source,
        name: str = "",
        spec_name: Optional[str] = None,
        diff: bool = False,
        cost: Optional[CostModel] = None,
    ):
        """Import a PROV-JSON/OPM document into the workspace's store.

        Registers the embedded or derived specification, persists the
        run, and — with ``diff=True`` — also prices the newcomer
        against the existing corpus.  Returns the
        :class:`~repro.interchange.convert.ImportResult`, or
        ``(ImportResult, {(existing, new): distance})`` when
        ``diff=True``.

        The specification is not memoised here: it is persisted, and
        :meth:`specification` reloads it through the process-wide spec
        registry, so a flood of foreign documents (one derived
        specification each) does not accumulate in the workspace.
        """
        if diff:
            return self.service.add_prov_document(
                source,
                run_name=name,
                spec_name=spec_name,
                cost=cost or self.config.cost,
            )
        return self.store.ingest_prov(
            source, run_name=name, spec_name=spec_name
        )

    def export_prov(
        self, run_name: str, spec: Optional[str] = None
    ) -> str:
        """A stored run as deterministic PROV-JSON text (exact round trip)."""
        from repro.interchange.convert import export_run_json

        return export_run_json(self.run(run_name, spec=spec))

    # -- streaming ingestion -----------------------------------------------
    def stream(
        self,
        spec: str,
        run: str,
        session: Optional[str] = None,
        threshold: Optional[float] = None,
        mode: str = "auto",
        batch_size: int = 64,
    ):
        """Open a :class:`~repro.stream.client.StreamSession` in process.

        Events go straight into this workspace's :attr:`stream_hub`
        (through the NDJSON codec, so the in-process path exercises the
        exact wire protocol).  ``threshold`` arms the live divergence
        flag; ``run`` must not already exist in the corpus — nothing is
        persisted until the session's ``run_close``.
        """
        from repro.stream.client import StreamSession
        from repro.stream.events import decode_events

        hub = self.stream_hub
        return StreamSession(
            send=lambda data: hub.apply_batch(decode_events(data)),
            spec_name=spec,
            run_name=run,
            session_id=session,
            threshold=threshold,
            mode=mode,
            batch_size=batch_size,
        )

    def stream_live(self):
        """Live analytics of every open streaming session
        (:class:`~repro.stream.events.LiveStatus` objects)."""
        return self.stream_hub.live()

    def export_script(
        self,
        a: str,
        b: str,
        spec: Optional[str] = None,
        cost: Optional[CostModel] = None,
    ) -> dict:
        """The ``a``→``b`` edit script as a PROV-JSON document (dict)."""
        from repro.interchange.convert import export_script_document

        spec_name = self._spec_name(spec)
        outcome = self.diff(a, b, spec=spec_name, cost=cost)
        return export_script_document(
            outcome.operations,
            outcome.distance,
            a,
            b,
            spec_name=spec_name,
        )

    # -- viewing -----------------------------------------------------------
    def view(
        self,
        a: RunRef,
        b: RunRef,
        spec: Optional[str] = None,
        cost: Optional[CostModel] = None,
        record_intermediates: Optional[bool] = None,
    ) -> DiffView:
        """An interactive :class:`DiffView` over the ``a``→``b`` diff.

        The PDiffView surface: overview panes, per-operation stepping,
        and (when intermediates are recorded — the config default)
        graph snapshots after every operation.
        """
        cost = cost or self.config.cost
        record = (
            self.config.record_intermediates
            if record_intermediates is None
            else record_intermediates
        )
        spec_name, a, b = self._resolve_pair(a, b, spec)
        if spec_name is not None:
            a = self.service.load_run(spec_name, a)
            b = self.service.load_run(spec_name, b)
        return DiffView(
            diff_runs(a, b, cost=cost, record_intermediates=record)
        )

    def show_specification(self, spec: Optional[str] = None) -> str:
        """ASCII rendering of a specification's flow network."""
        from repro.pdiffview.render import render_graph

        return render_graph(
            self.specification(self._spec_name(spec)).graph
        )

    def show_run(
        self, run_name: str, spec: Optional[str] = None
    ) -> str:
        """ASCII rendering of a stored run's flow network."""
        from repro.pdiffview.render import render_graph

        return render_graph(self.run(run_name, spec=spec).graph)

    # -- introspection ------------------------------------------------------
    @property
    def stats(self) -> Dict[str, float]:
        """Cache/DP counters (plus derived ratios) of the service."""
        return self.service.stats

    def stats_snapshot(self) -> StatsSnapshot:
        """The service counters as a typed, transportable snapshot."""
        return StatsSnapshot(
            counters=dict(self.service.stats_counters),
            source="local",
            derived=dict(self.service.derived_stats),
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Workspace({str(self.store.root)!r}, "
            f"backend={self.backend.describe()})"
        )
