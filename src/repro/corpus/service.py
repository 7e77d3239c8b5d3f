"""The corpus diff service: cached, parallel, incremental differencing.

:class:`DiffService` turns the pairwise differ into a corpus-scale
engine over a :class:`~repro.io.store.WorkflowStore`:

* every stored run is fingerprinted **once** (invalidated by file
  stamp);
* every computed distance lands in a two-tier cache keyed by
  ``(fingerprint, fingerprint, cost model)`` — a warm
  :meth:`distance_matrix` call performs **zero** edit-distance DPs;
* all of that derived state persists through one SQLite database,
  ``<root>/index/derived.db`` (:mod:`repro.corpus.derived`; a private
  in-memory one for an ephemeral service), which processes sharing the
  store share;
* cold pairs run on a pluggable, in-process
  :class:`~repro.backends.base.ExecutorBackend` — serial by default,
  because the pure-Python O(|E|³) DP gains nothing from threads under
  the GIL; ``repro serve --workers N`` is the multi-core path;
* :meth:`add_run` is incremental: growing an ``N``-run corpus computes
  exactly the ``N`` new pairs, never the existing ``N x (N-1) / 2``;
* analytics (:meth:`medoid`, :meth:`outliers`, :meth:`nearest_runs`)
  answer the paper's "which executions cluster together / differ from
  the majority" queries on top of the cached matrix, each pricing what
  it still needs in one cold batch;
* a **family view** per (specification, cost model) keeps each run's
  distance sum to the rest of its family, recorded by a full-family
  matrix and extended by :meth:`add_run`'s new row, so :meth:`medoid`
  and :meth:`outliers` answer a warm family in O(N) — and a family
  without one first rebuilds it with one :meth:`distance_matrix`;
* :meth:`edit_script` extends the caching story from distances to the
  edit scripts themselves (directed, script-cache backed), feeding the
  inverted :class:`~repro.corpus.script_index.ScriptIndex` that the
  query engine (:mod:`repro.query`) prunes candidates with.

No specification is kept by name: every call resolves it through the
store, and what derives from one (fingerprints, the op ceiling ``L``,
family views, parsed runs) is keyed by the resolved object or its
digest, so a re-registration anywhere is seen at once.

Runs whose fingerprints coincide are ``≡``-equivalent, so their
distance is 0 by the identity axiom — the service short-circuits such
pairs without any DP at all (and seeds the cache under the canonical
pair key, so the zero persists like any computed value).

Two further layers keep corpus-scale distance work off the DP:

* **packing lower bounds** (:mod:`repro.core.bounds`) priced from
  persisted leaf profiles (:meth:`lower_bounds`) let the query engine
  skip scripts that provably exceed a predicate's cost ceiling;
  ``dp_skipped_by_bound`` counts the DPs they avoided (exposed via
  :attr:`stats_counters` and ``/metrics``);
* one :class:`~repro.core.memo.SharedTables` per cold batch builds each
  run's deletion tables once instead of once per pair, and prices each
  distinct pair of subtree shapes once — bit-identical to the plain
  per-pair evaluation.  That sharing is why the analytics price what
  they need in one batch rather than row by row.

Concurrency is **read-mostly with single-flight coalescing** (the HTTP
service layer runs one thread per request):

* warm reads never touch the service lock — the caches carry their own
  fine-grained locks, so readers never block on a writer's DP batch;
* every cold computation — distances and edit scripts alike — takes
  one path, :meth:`DiffService._cold_batch`, coalesced through a keyed
  :class:`~repro.corpus.singleflight.SingleFlight` table: concurrent
  callers needing the same content-addressed pair elect one *leader*
  whose single DP feeds every *follower* — a thundering herd on one
  cold ``GET /diff/{a}/{b}`` costs exactly one computation per
  process (a served cluster coalesces in each worker, so at most one
  per worker);
* the re-entrant service lock survives only as a **narrow** critical
  section around metadata (fingerprint backfills, family views) and
  result publishing (cache puts, counters) — it is never
  held across a backend dispatch or a flight wait, so neither a slow
  cold batch nor the matrix batch that rebuilds a family view can
  stall warm traffic.

Deadlock discipline, kept in that one routine: a thread computes every
flight it leads in one backend batch (publishing all results, or
landing every led flight with the batch's error) *before* waiting on
any flight it follows, and flights are never awaited while the service
lock is held.  ``abort_inflight`` lets a draining server fail pending
flights deterministically (followers surface a 503) instead of
hanging past the drain deadline.
"""

from __future__ import annotations

import bisect
import contextvars
import dataclasses
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api_types import derive_stats
from repro.backends.base import ExecutorBackend, make_backend
from repro.backends.work import compute_distance, compute_script
from repro.core.bounds import (
    distance_lower_bound,
    is_sound_for,
    spec_max_op_leaves,
)
from repro.core.memo import SharedTables
from repro.corpus.analytics import check_count, medoid, outliers
from repro.corpus.cache import DistanceCache
from repro.corpus.derived import DB_FILE, DerivedDB
from repro.corpus.fingerprint import cost_model_key, pair_key, script_key
from repro.corpus.index import FingerprintIndex
from repro.corpus.script_cache import (
    ScriptCache,
    ScriptRecord,
    decode_script,
    encode_script,
)
from repro.corpus.script_index import ScriptIndex
from repro.corpus.singleflight import SingleFlight
from repro.costs.base import CostModel
from repro.costs.standard import UnitCost
from repro.errors import NotFoundError
from repro.io.store import WorkflowStore
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.runmeta import capture_run_metadata
from repro.workflow.run import WorkflowRun
from repro.workflow.specification import WorkflowSpecification

#: Batch-size histogram buckets: powers of two up to a full matrix
#: sweep of a mid-sized corpus.
#: The specification a request resolved once (:meth:`DiffService.resolved`).
_RESOLVED: contextvars.ContextVar[Optional[WorkflowSpecification]] = (
    contextvars.ContextVar("repro_resolved_spec", default=None)
)

_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
                  512.0, 1024.0)

logger = get_logger("corpus.service")


@dataclasses.dataclass(frozen=True)
class _FamilyView:
    """What one family shares, for one cacheable cost model.

    An immutable snapshot: the listing it covers, each run's
    fingerprint, and each run's distance sum to the rest of the
    family.  Only a full-family :meth:`DiffService.distance_matrix`
    records one (the analytics call that matrix when the view is
    missing), and :meth:`DiffService.add_run` extends it by the new
    run's row.  A sum is accumulated in whatever order the view was
    built and extended in, so it can differ from the analytics'
    listing-order sum by float rounding — which is why answers
    re-price every candidate near the cut (:func:`_view_margin`).
    """

    names: Tuple[str, ...]
    fingerprints: Dict[str, str]
    sums: Dict[str, float]

    def extended(
        self, name: str, fingerprint: str, row: Dict[str, float]
    ) -> "_FamilyView":
        """The view after adding run ``name`` with ``row`` (its
        distance to every run of :attr:`names`)."""
        names = list(self.names)
        bisect.insort(names, name)
        fingerprints = dict(self.fingerprints)
        fingerprints[name] = fingerprint
        sums = {
            other: total + row[other] for other, total in self.sums.items()
        }
        sums[name] = sum(row[other] for other in self.names)
        return _FamilyView(tuple(names), fingerprints, sums)


def _row_sums(
    names: Sequence[str], distances: Dict[Tuple[str, str], float]
) -> Dict[str, float]:
    """Each run's distance sum over a complete pair mapping."""
    sums = dict.fromkeys(names, 0.0)
    for (a, b), value in distances.items():
        sums[a] += value
        sums[b] += value
    return sums


def _view_margin(sums: Dict[str, float]) -> float:
    """How far apart two view sums must be to order their exact means.

    Two orders of summing the same ``N`` non-negative floats differ by
    at most about ``N * 2**-53`` of the total.  The margin is 32 times
    that bound on the largest sum, so two sums further apart than it
    have listing-order means strictly ordered the same way, even after
    the division by ``N - 1``.
    """
    return 32 * len(sums) * 2.0 ** -53 * max(sums.values())


class DiffService:
    """Facade for corpus-scale differencing over one workflow store.

    Parameters
    ----------
    store:
        A :class:`WorkflowStore` or a path to create one at.  A
        :class:`~repro.workspace.Workspace` passes its own store so the
        service and the workspace share files.
    cache_size:
        Bound of the in-memory distance-cache tier.
    persistent:
        When ``False``, derived state lives in a private in-memory
        database instead of ``<root>/index/derived.db`` — an
        ephemeral service that never writes under ``index/``.
    backend:
        Where cold batches execute: a name from
        :data:`repro.backends.base.BACKEND_NAMES` or an
        :class:`~repro.backends.base.ExecutorBackend` instance, which
        carries its own width (a name gets the machine's).
        Defaults to the serial backend: the DP is pure Python, so
        threads only contend for the GIL, and serial batches share
        one :class:`~repro.core.memo.SharedTables` without contention.
    """

    def __init__(
        self,
        store,
        cache_size: int = 4096,
        persistent: bool = True,
        backend=None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.store = (
            store if isinstance(store, WorkflowStore) else WorkflowStore(store)
        )
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry()
        )
        self.backend: ExecutorBackend = make_backend(backend or "serial")
        self.db = DerivedDB(
            self.store.root / "index" / DB_FILE if persistent else None
        )
        self.index = FingerprintIndex(self.store, self.db)
        self.cache = DistanceCache(
            self.db,
            maxsize=cache_size,
            metrics=self.metrics,
            name="distance",
        )
        self.script_cache = ScriptCache(
            self.db,
            maxsize=cache_size,
            metrics=self.metrics,
            name="script",
        )
        self.script_index = ScriptIndex(self.db, metrics=self.metrics)
        self.computed_pairs = 0
        self.computed_scripts = 0
        # Script DPs the query engine's cost gate decided by the
        # packing lower bound alone (:meth:`note_bound_skips`).
        self.dp_skipped_by_bound = 0
        #: Family views per (spec name, cost key); replaced whole under
        #: the monitor, read with a bare dict get.
        self._views: Dict[Tuple[str, str], _FamilyView] = {}
        # The narrow service lock (see the module docstring): guards
        # metadata (fingerprint backfills, family views) and result
        # publishing (counters, cache puts) — never held across a
        # backend dispatch or a single-flight wait.  Re-entrant,
        # because brief sections nest (edit paths touch cached_script
        # while publishing).
        self._lock = threading.RLock()
        # Single-flight table: coalesces concurrent identical cold
        # computations onto one leader DP (keys are content-derived:
        # ("distance"|"script", content key)).
        self._flights = SingleFlight()
        #: Requests served from another caller's in-flight computation.
        self.coalesced_requests = 0
        # Contention accounting: plain floats guarded by the monitor
        # itself (updated only after a successful acquire), mirrored
        # into the registry for /metrics.
        self.lock_acquisitions = 0
        self.lock_wait_seconds = 0.0
        # Collected at scrape time from the plain attributes above —
        # the monitor pays two clock reads and two adds per
        # acquisition, never a metric-table update.
        self.metrics.counter(
            "lock_wait_seconds_total",
            "Seconds callers spent waiting on the service monitor.",
        ).set_function(lambda: self.lock_wait_seconds)
        self.metrics.counter(
            "lock_acquisitions_total",
            "Acquisitions of the service monitor.",
        ).set_function(lambda: self.lock_acquisitions)
        self._dp_metric = self.metrics.counter(
            "dp_invocations_total",
            "Edit-distance DP kernel invocations by kind.",
        )
        self.metrics.counter(
            "dp_skipped_by_bound_total",
            "DP invocations avoided by the packing lower bound.",
        ).set_function(lambda: self.dp_skipped_by_bound)
        self.metrics.counter(
            "singleflight_coalesced_total",
            "Requests served from another caller's in-flight DP.",
        ).set_function(lambda: self.coalesced_requests)
        self._batch_metric = self.metrics.histogram(
            "dp_batch_size",
            "Cold DP tasks dispatched per backend batch.",
            buckets=_BATCH_BUCKETS,
        )
        self._backend_tasks_metric = self.metrics.counter(
            "backend_tasks_total",
            "Tasks handed to the execution backend.",
        )
        self._backend_busy_metric = self.metrics.counter(
            "backend_busy_seconds_total",
            "Wall-clock seconds spent inside backend batch dispatch.",
        )

    @contextmanager
    def _monitor(self):
        """Acquire the monitor, accounting for time spent waiting.

        Re-entrant acquisitions (the batch methods nest) are counted
        but wait ~0s — only genuine cross-thread contention accrues
        meaningful wait time, which is exactly what the
        ``lock_wait_seconds_total`` metric is for.
        """
        started = time.perf_counter()
        self._lock.acquire()
        waited = time.perf_counter() - started
        # We hold the monitor here, so the plain += updates are safe.
        self.lock_acquisitions += 1
        self.lock_wait_seconds += waited
        try:
            yield
        finally:
            self._lock.release()

    def abort_inflight(self, error: BaseException) -> int:
        """Fail every pending coalesced computation with ``error``.

        The graceful-drain hook: a stopping server calls this after
        its drain deadline so single-flight followers blocked on a
        leader that will never publish raise immediately (the HTTP
        layer maps :class:`~repro.errors.ServiceUnavailableError` to a
        deterministic 503) instead of hanging.  Returns the number of
        flights aborted.
        """
        return self._flights.abort(error)

    # -- resolution -----------------------------------------------------
    def specification(self, spec_name: str) -> WorkflowSpecification:
        """The stored specification (one ``stat`` while unchanged)."""
        spec = _RESOLVED.get()
        if spec is not None and spec.name == spec_name:
            return spec
        return self.store.load_specification(spec_name)

    @contextmanager
    def resolved(self, spec: WorkflowSpecification):
        """Answer ``spec``'s name with ``spec`` inside the block."""
        token = _RESOLVED.set(spec)
        try:
            yield
        finally:
            _RESOLVED.reset(token)

    def runs(self, spec_name: str) -> List[str]:
        return self.store.list_runs(spec_name)

    def load_run(self, spec_name: str, run_name: str) -> WorkflowRun:
        """A stored run, served through the parsed-run memo.

        The public face of the per-run parse cache the batch paths
        use — interactive callers (the workspace's ``run``/``view``)
        go through here so a corpus whose matrix is warm never
        re-parses a run's XML to view it.
        """
        return self.index.load_run(self.specification(spec_name), run_name)

    def _resolve(
        self, spec_name: str, run_names: Sequence[str]
    ) -> Tuple[WorkflowSpecification, Dict[str, str]]:
        """Fingerprint every named run (index hits skip XML parsing)."""
        spec = self.specification(spec_name)
        fingerprints = {
            name: self.index.fingerprint(spec, name) for name in run_names
        }
        return spec, fingerprints

    def fingerprints(
        self, spec_name: str, runs: Optional[Sequence[str]] = None
    ) -> Dict[str, str]:
        """``{run name: content fingerprint}`` for the named runs.

        The public face of the fingerprint index — the query engine maps
        name pairs onto content-addressed cache/index keys through this.
        ``runs=None`` covers every stored run of the specification.
        """
        with self._monitor():
            names = (
                list(runs) if runs is not None else self.runs(spec_name)
            )
            _, fingerprints = self._resolve(spec_name, names)
            self.index.flush()
            return fingerprints

    def label_counts(
        self, spec_name: str, runs: Sequence[str]
    ) -> Dict[str, Dict[str, int]]:
        """``{run name: {module label: node count}}`` for the named runs.

        Served from the fingerprint index (one ``stat`` per warm run,
        no XML parse): the streaming hub's online bounds start here.
        """
        spec = self.specification(spec_name)
        counts = {name: self.index.label_counts(spec, name) for name in runs}
        self.index.flush()  # backfills of older entries
        return counts

    # -- lower bounds -----------------------------------------------------
    def _packing_bounds(
        self,
        spec: WorkflowSpecification,
        pairs: Sequence[Tuple[str, str]],
        cost: CostModel,
    ) -> Dict[Tuple[str, str], float]:
        """Packing lower bounds per pair (empty when ``cost`` is outside
        the power family — every bound would be the vacuous 0.0)."""
        if not is_sound_for(cost):
            return {}
        ceiling = spec_max_op_leaves(spec)
        profiles = {}
        for pair in pairs:
            for name in pair:
                if name not in profiles:
                    profiles[name] = self.index.profile(spec, name)
        return {
            (a, b): distance_lower_bound(
                profiles[a], profiles[b], ceiling, cost
            )
            for a, b in pairs
        }

    def lower_bounds(
        self,
        spec_name: str,
        pairs: Sequence[Tuple[str, str]],
        cost: Optional[CostModel] = None,
    ) -> Dict[Tuple[str, str], float]:
        """Cheap, never-overestimating lower bounds on ``δ`` per pair.

        No DP runs: bounds come from persisted leaf profiles and the
        specification's op-length ceiling (:mod:`repro.core.bounds`).
        Pairs the module cannot reason about get the vacuous ``0.0``.
        The query engine gates script computation on these against
        predicate cost ceilings.
        """
        cost = cost or UnitCost()
        pair_list = [(a, b) for a, b in pairs]
        with self._monitor():
            spec = self.specification(spec_name)
            packing = self._packing_bounds(spec, pair_list, cost)
            self.index.flush()  # profile backfills
        return {pair: packing.get(pair, 0.0) for pair in pair_list}

    def note_bound_skips(self, count: int) -> None:
        """Credit ``count`` DPs avoided via :meth:`lower_bounds`.

        The query engine gates cold script computation on packing
        bounds and reports the scripts it skipped here, so the
        ``dp_skipped_by_bound`` counter is the one ledger of
        bound-avoided DPs.
        """
        if count > 0:
            with self._monitor():
                self.dp_skipped_by_bound += count

    # -- batch computation ----------------------------------------------
    def _cold_batch(
        self,
        kind: str,
        cost: CostModel,
        groups: Dict[object, List[Tuple[str, str]]],
        peek: Callable[[object], object],
        work: Callable[[Tuple[str, str], SharedTables], object],
        publish: Callable[[object, Tuple[str, str], object], None],
    ) -> Dict[object, object]:
        """Price cold groups once each, coalesced; one value per group.

        The one cold path of the service: distances and edit scripts
        both reach the DP here.  ``groups`` maps a key to the name
        pairs its one value answers — a content key under a cacheable
        ``cost``, else a batch-local key that gets no flight (there is
        nothing stable for concurrent callers to rendezvous on).  Each
        content-keyed group leads its ``(kind, key)`` flight or follows
        another caller's.  A led group is re-checked with ``peek``, as
        a prior leader may have published since the caller's miss
        (memory only and non-counting: that lookup already counted and
        read the table); the rest run as one backend batch over one
        :class:`~repro.core.memo.SharedTables`, ``work`` pricing each
        group's first pair.  ``publish`` stores each value
        under the monitor, then the led flights land — with the error,
        if the batch or a publish raised, or their followers would
        hang.  Only then does the caller wait on the flights it
        follows: it never waits while leading an unlanded flight, which
        keeps cross-caller waits deadlock-free.
        """
        coalesce = cost_model_key(cost) is not None
        values: Dict[object, object] = {}
        led: List[Tuple[object, object]] = []
        followed: List[Tuple[object, object]] = []
        batch: List[Tuple[object, Tuple[str, str]]] = []
        for key, group in groups.items():
            if not coalesce:
                batch.append((key, group[0]))
                continue
            leader, flight = self._flights.begin((kind, key))
            if not leader:
                followed.append((key, flight))
                continue
            value = peek(key)
            if value is not None:
                self._flights.finish(flight, value=value)
                values[key] = value
                continue
            led.append((key, flight))
            batch.append((key, group[0]))

        if batch:
            backend_name = type(self.backend).__name__
            try:
                self._batch_metric.observe(len(batch))
                self._backend_tasks_metric.inc(
                    len(batch), backend=backend_name
                )
                dispatch_started = time.perf_counter()
                # Runs load inside the workers, so threads overlap
                # parsing; each run's deletion tables are built once per
                # batch, and each distinct pair of subtree shapes is
                # priced once.
                shared = SharedTables(cost)
                outcomes = self.backend.map(
                    lambda item: work(item[1], shared), batch
                )
                self._backend_busy_metric.inc(
                    time.perf_counter() - dispatch_started,
                    backend=backend_name,
                )
                self._dp_metric.inc(len(batch), kind=kind)
                with self._monitor():
                    for (key, pair), value in zip(batch, outcomes):
                        publish(key, pair, value)
                        values[key] = value
            except BaseException as exc:
                for _, flight in led:
                    self._flights.finish(flight, error=exc)
                raise
            for key, flight in led:
                self._flights.finish(flight, value=values[key])
            logger.debug(
                "computed %d cold %s DPs", len(batch), kind,
                extra={"batch_size": len(batch), "backend": backend_name},
            )

        if followed:
            with self._monitor():
                self.coalesced_requests += len(followed)
            for key, flight in followed:
                values[key] = flight.result()
        return values

    def _compute_pairs(
        self,
        spec: WorkflowSpecification,
        pairs: Sequence[Tuple[str, str]],
        fingerprints: Dict[str, str],
        cost: CostModel,
    ) -> Dict[Tuple[str, str], float]:
        """Cache-aware distances for name pairs; cold pairs fan out.

        Equal-fingerprint pairs short-circuit to 0; cacheable pairs are
        deduplicated by content key so two name pairs backed by the same
        graphs cost one DP; the remaining groups go through
        :meth:`_cold_batch`, coalesced with concurrent callers.
        """
        cost_key = cost_model_key(cost)
        results: Dict[Tuple[str, str], float] = {}
        pending: Dict[str, List[Tuple[str, str]]] = {}
        dirty = False
        for a, b in pairs:
            if a == b:
                results[(a, b)] = 0.0
                continue
            if fingerprints[a] == fingerprints[b]:
                # ≡-equivalent runs: 0 by the identity axiom, no DP.
                # Seed the canonical pair key too — historically this
                # short-circuit bypassed the cache entirely, so the
                # zero never persisted, the lookup never counted, and
                # a later direct key probe (warm analytics, another
                # process) missed and re-derived it.
                if cost_key is not None:
                    key = pair_key(
                        fingerprints[a], fingerprints[b], cost_key
                    )
                    if self.cache.get(key) is None:
                        self.cache.put(key, 0.0)
                        dirty = True
                results[(a, b)] = 0.0
                continue
            if cost_key is None:
                # Uncacheable cost model: no cache traffic — but the
                # DP is symmetric-deterministic, so dedupe by the
                # *unordered* name pair within the batch (keying the
                # raw (a, b) ordering used to cost (a, b) and (b, a)
                # two DPs for one value).
                group = "\x00".join(sorted((a, b)))
                pending.setdefault(group, []).append((a, b))
                continue
            key = pair_key(fingerprints[a], fingerprints[b], cost_key)
            cached = self.cache.get(key)
            if cached is not None:
                results[(a, b)] = cached
            else:
                pending.setdefault(key, []).append((a, b))

        def work(pair, shared) -> float:
            a, b = pair
            # Canonical DP direction: δ is symmetric mathematically
            # but the DP's float accumulation is not — δ(a, b) and
            # δ(b, a) can differ in the last ULP.  The cache key is
            # undirected, so always compute lexicographically
            # (= listing order, the direction every fresh
            # ``distance_matrix`` comparison uses); otherwise a
            # value cached by ``add_run``'s (existing, new) order
            # mismatches a later warm read bit-for-bit.
            # (Name order, *not* fingerprint order, on purpose:
            # fingerprint order would disagree with listing order
            # for roughly half of all ordinary pairs and reintroduce
            # the mismatch.  The residual corner — two name pairs of
            # ≡-duplicate runs sharing one content key with opposite
            # name orders — is inherent to content-keyed dedup: even
            # a fixed direction cannot make the DPs of two distinct
            # equivalent trees bit-identical.)
            if b < a:
                a, b = b, a
            return compute_distance(
                self.index.load_run(spec, a), self.index.load_run(spec, b),
                cost, shared,
            )

        def publish(key, pair, value) -> None:
            nonlocal dirty
            dirty = True
            self.computed_pairs += 1
            if cost_key is not None:
                self.cache.put(key, value)

        values = self._cold_batch(
            "distance", cost, pending, self.cache.peek, work, publish
        )
        for key, value in values.items():
            for name_pair in pending[key]:
                results[name_pair] = value
        if dirty:
            self.flush()
        else:
            # Even an all-warm query may have refreshed fingerprints.
            self.index.flush()
        # In the callers' pair order, however the pairs split between
        # warm and cold: a matrix lists the same way in every process.
        return {pair: results[pair] for pair in pairs}

    def flush(self) -> None:
        """Commit every dirty derived tier now.

        Query methods flush themselves; callers that batch with
        ``edit_scripts(..., flush=False)`` call this once at the end.
        """
        with self._monitor():
            self.cache.flush()
            self.script_cache.flush()
            self.script_index.flush()
            self.index.flush()

    # -- queries ---------------------------------------------------------
    def distance(
        self,
        spec_name: str,
        run_a: str,
        run_b: str,
        cost: Optional[CostModel] = None,
    ) -> float:
        """Cached ``δ(run_a, run_b)`` between two stored runs."""
        cost = cost or UnitCost()
        spec, fingerprints = self._resolve(spec_name, [run_a, run_b])
        return self._compute_pairs(
            spec, [(run_a, run_b)], fingerprints, cost
        )[(run_a, run_b)]

    def distances(
        self,
        spec_name: str,
        pairs: Sequence[Tuple[str, str]],
        cost: Optional[CostModel] = None,
    ) -> Dict[Tuple[str, str], float]:
        """Cached distances for an explicit list of name pairs.

        The batch analogue of :meth:`distance` — the query engine's
        group-vs-group divergence uses it to price only the within- and
        cross-group pairs it needs, never the full matrix.
        """
        cost = cost or UnitCost()
        pair_list = [(a, b) for a, b in pairs]
        names = sorted({name for pair in pair_list for name in pair})
        spec, fingerprints = self._resolve(spec_name, names)
        return self._compute_pairs(spec, pair_list, fingerprints, cost)

    def distance_matrix(
        self,
        spec_name: str,
        cost: Optional[CostModel] = None,
        runs: Optional[Sequence[str]] = None,
    ) -> Dict[Tuple[str, str], float]:
        """All-pairs distances, ``{(run_a, run_b): distance}``.

        Keys are unordered pairs in listing order, matching a nested
        :func:`~repro.core.api.diff_runs` loop exactly.  ``runs``
        restricts the corpus to a subset of stored run names.
        """
        cost = cost or UnitCost()
        names = list(runs) if runs is not None else self.runs(spec_name)
        spec, fingerprints = self._resolve(spec_name, names)
        pairs = [
            (a, b)
            for i, a in enumerate(names)
            for b in names[i + 1 :]
        ]
        matrix = self._compute_pairs(spec, pairs, fingerprints, cost)
        cost_key = cost_model_key(cost)
        if cost_key is not None and (
            runs is None or names == self.runs(spec_name)
        ):
            view = _FamilyView(
                tuple(names), dict(fingerprints), _row_sums(names, matrix)
            )
            with self._monitor():
                self._views[(spec_name, cost_key)] = view
        return matrix

    def nearest_runs(
        self,
        spec_name: str,
        run_name: str,
        k: Optional[int] = None,
        cost: Optional[CostModel] = None,
    ) -> List[Tuple[str, float]]:
        """One-vs-many: ``run_name``'s neighbours by ascending distance.

        Computes (or recalls) only the ``N - 1`` distances involving
        ``run_name`` — never the full matrix — with every unknown one
        priced in one cold batch.  Ties break by name; ``k`` keeps the
        head of the ranking (``k=0`` none, pricing nothing; a negative
        ``k`` is an error).
        """
        check_count("k", k)
        cost = cost or UnitCost()
        names = self.runs(spec_name)
        if run_name not in names:
            raise NotFoundError(
                f"no stored run {run_name!r} for specification "
                f"{spec_name!r}"
            )
        if k == 0:
            return []
        others = [other for other in names if other != run_name]
        spec, fingerprints = self._resolve(spec_name, names)
        distances = self._compute_pairs(
            spec, [(run_name, other) for other in others], fingerprints,
            cost,
        )
        ranked = sorted(
            ((other, distances[(run_name, other)]) for other in others),
            key=lambda item: (item[1], item[0]),
        )
        return ranked[:k] if k is not None else ranked

    # -- edit scripts -----------------------------------------------------
    def cached_script(self, key: str) -> Optional[ScriptRecord]:
        """The decoded script cached under a directed key, or ``None``.

        Re-reading a script also backfills the inverted index (the
        scripts table can hold rows this process has not indexed, e.g.
        another process's) — any path that touches a script keeps the
        index complete.
        """
        with self._monitor():
            raw = self.script_cache.get(key)
            if raw is None:
                return None
            record = decode_script(raw)
            if record is None:
                return None
            if not self.script_index.has(key):
                self.script_index.add(key, raw)
            return record

    def edit_script(
        self,
        spec_name: str,
        run_a: str,
        run_b: str,
        cost: Optional[CostModel] = None,
    ) -> ScriptRecord:
        """The cached minimum-cost edit script from ``run_a`` to ``run_b``.

        On a miss this pays one full :func:`repro.core.api.diff_runs`
        (DP + mapping backtrace + script generation), then persists the
        serialised script in the script cache, feeds the inverted index,
        and — since a script's total cost *is* the distance — seeds the
        distance cache for free.  Scripts are directed: ``(a, b)`` and
        ``(b, a)`` are distinct cache entries.
        """
        return self.edit_scripts(spec_name, [(run_a, run_b)], cost)[
            (run_a, run_b)
        ]

    def edit_scripts(
        self,
        spec_name: str,
        pairs: Sequence[Tuple[str, str]],
        cost: Optional[CostModel] = None,
        flush: bool = True,
    ) -> Dict[Tuple[str, str], ScriptRecord]:
        """Cached edit scripts for a batch of directed name pairs.

        The batch analogue of :meth:`edit_script` — one flush (one
        durable commit per tier) for the whole batch instead of one per
        computed script.
        Callers that chunk one logical sweep into many batches (the
        workspace's streaming ``diff_many``) pass ``flush=False`` per
        chunk and call :meth:`flush` once at the end, for the same
        reason.
        Content-duplicate pairs cost one diff (cold work is deduped by
        directed content key before dispatch), and the cold diffs of a
        batch go through :meth:`_cold_batch` like the distance sweeps:
        one backend batch sharing one
        :class:`~repro.core.memo.SharedTables`, coalesced on the
        directed content key, so concurrent identical ``GET /diff``
        requests share one diff.  Every pair gets its own deep copy of
        the operations (script records are mutable).
        """
        cost = cost or UnitCost()
        pair_list = [(a, b) for a, b in pairs]
        names = sorted({name for pair in pair_list for name in pair})
        spec, fingerprints = self._resolve(spec_name, names)
        cost_key = cost_model_key(cost)
        results: Dict[Tuple[str, str], ScriptRecord] = {}
        # Cold work, deduped: one entry per distinct directed content
        # key (or per directed name pair under uncacheable costs — the
        # DP is deterministic, so duplicates would only repeat it).
        cold: Dict[object, List[Tuple[str, str]]] = {}
        for run_a, run_b in pair_list:
            if cost_key is None:
                cold.setdefault((run_a, run_b), []).append((run_a, run_b))
                continue
            key = script_key(
                fingerprints[run_a], fingerprints[run_b], cost_key
            )
            record = self.cached_script(key)
            if record is not None:
                results[(run_a, run_b)] = record
            else:
                cold.setdefault(key, []).append((run_a, run_b))

        def peek(key):
            raw = self.script_cache.peek(key)
            record = decode_script(raw) if raw is not None else None
            if record is None:
                return None
            return record.distance, record.operations

        def work(pair, shared):
            run_a, run_b = pair
            return compute_script(
                self.index.load_run(spec, run_a),
                self.index.load_run(spec, run_b),
                cost, shared,
            )

        def publish(key, pair, outcome) -> None:
            self.computed_scripts += 1
            if cost_key is None:
                return
            distance, operations = outcome
            raw = encode_script(distance, operations)
            self.script_cache.put(key, raw)
            self.script_index.add(key, raw)
            run_a, run_b = pair
            if run_a <= run_b:
                # Seed the (undirected) distance cache only from the
                # canonical direction — the same one ``_compute_pairs``
                # uses — so every cached distance is bit-identical to a
                # fresh listing-order computation.
                self.cache.put(
                    pair_key(
                        fingerprints[run_a], fingerprints[run_b], cost_key
                    ),
                    distance,
                )

        outcomes = self._cold_batch(
            "script", cost, cold, peek, work, publish
        )
        for key, (distance, operations) in outcomes.items():
            for name_pair in cold[key]:
                # Every pair gets its own operation objects
                # (PathOperation is a mutable dataclass): deduped and
                # coalesced pairs must not alias any mutable result
                # state, matching the independent per-pair decodes of
                # the cache-hit path.
                results[name_pair] = ScriptRecord(
                    distance=distance,
                    operations=[
                        dataclasses.replace(op) for op in operations
                    ],
                )
        if flush:
            self.flush()
        return results

    # -- incremental updates ----------------------------------------------
    def add_run(
        self,
        run: WorkflowRun,
        cost: Optional[CostModel] = None,
        meta=None,
    ) -> Dict[Tuple[str, str], float]:
        """Persist ``run`` and compute only its distances to the corpus.

        On an ``N``-run corpus this performs at most ``N`` new DPs (the
        pairs pairing the new run with each existing one); the existing
        ``N x (N-1) / 2`` matrix is untouched.  Returns the new pairs as
        ``{(existing_name, new_name): distance}``.

        ``meta`` is the run's operational account
        (:class:`~repro.obs.runmeta.RunMetadata`); omitted, the current
        context is captured at save time.
        """
        cost = cost or UnitCost()
        cost_key = cost_model_key(cost)
        # Setup (conflict check, spec adoption, save, fingerprinting)
        # under the narrow lock; the distance batch itself runs
        # unlocked so concurrent readers — and other ingests' DPs —
        # proceed while this run's pairs compute.
        with self._monitor():
            spec, run, fingerprints, pairs = self._adopt_run(run, meta)
            # The family view grows by this run's row only if it
            # covered the family just before the add; an overwrite or
            # another writer's run in between drops it instead.
            existing = [name for name, _ in pairs]
            view = self._view(
                spec.name, cost_key, existing,
                {name: fingerprints[name] for name in existing},
            )
            for key in [key for key in self._views if key[0] == spec.name]:
                del self._views[key]
            if view is not None:
                self._views[(spec.name, cost_key)] = view
        results = self._compute_pairs(spec, pairs, fingerprints, cost)
        if view is not None:
            row = {name: results[(name, run.name)] for name in existing}
            with self._monitor():
                if self._views.get((spec.name, cost_key)) is view:
                    self._views[(spec.name, cost_key)] = view.extended(
                        run.name, fingerprints[run.name], row
                    )
        self.flush()
        return results

    def _adopt_run(self, run: WorkflowRun, meta=None):
        """Persist ``run`` and return its spec, fingerprints, and the
        new (existing, new) pairs; caller holds the service lock."""
        # The store's guard refuses another spec of this name, saves a
        # missing one, and returns the stored object; a run of an equal
        # spec in another object is re-annotated against it, so every
        # memoised run shares the object batches share subtrees by.
        spec = self.store.adopt_specification(run.spec)
        if spec is not run.spec:
            run = WorkflowRun(spec, run.graph, name=run.name)
        existing = [
            name for name in self.runs(spec.name) if name != run.name
        ]
        self.store.save_run(run, meta=meta)
        self.index.record(run)
        fingerprints = {run.name: self.index.fingerprint(spec, run.name)}
        for name in existing:
            fingerprints[name] = self.index.fingerprint(spec, name)
        pairs = [(name, run.name) for name in existing]
        return spec, run, fingerprints, pairs

    def add_prov_document(
        self,
        source,
        run_name: str = "",
        spec_name: Optional[str] = None,
        cost: Optional[CostModel] = None,
    ):
        """Import a PROV-JSON/OPM document and fold it into the corpus.

        The interchange layer turns the document into a validated run
        (exactly, via an embedded plan, or through SP-ization — see
        :func:`repro.interchange.convert.import_document`);
        :meth:`add_run` then persists it and computes only the new
        distance pairs, so imported runs flow straight into the
        fingerprint index, distance cache, and script index like
        native ones.  Returns ``(import_result, new_pair_distances)``.
        """
        from repro.interchange.convert import import_document
        from repro.obs.runmeta import _utc_now

        started = _utc_now()
        result = import_document(
            source, run_name=run_name, spec_name=spec_name
        )
        distances = self.add_run(
            result.run,
            cost=cost,
            meta=capture_run_metadata(
                origin="prov-import", started=started
            ),
        )
        return result, distances

    # -- family views --------------------------------------------------------
    def _view(
        self,
        spec_name: str,
        cost_key: Optional[str],
        names: Sequence[str],
        fingerprints: Dict[str, str],
    ) -> Optional[_FamilyView]:
        """The family view, if it covers exactly this listing and these
        fingerprints (the caller's fresh listing and index stats)."""
        if cost_key is None:
            return None
        view = self._views.get((spec_name, cost_key))
        if (
            view is None
            or view.names != tuple(names)
            or view.fingerprints != fingerprints
        ):
            return None
        return view

    def _family_view(
        self, spec_name: str, cost: CostModel, names: List[str]
    ) -> Tuple[
        Optional[_FamilyView], Optional[Dict[Tuple[str, str], float]]
    ]:
        """``(view, matrix)``: the valid view of listing ``names``, and
        the listing's full matrix whenever this call priced one.

        A missing view is rebuilt by one :meth:`distance_matrix`, which
        prices every unknown pair of the family in one cold batch and
        records the view.  No view can hold for a family of fewer than
        three runs, under an uncacheable cost model, or when the
        listing changed during the batch; the view is then ``None`` and
        the matrix is there for :mod:`repro.corpus.analytics` to fold.
        """
        cost_key = cost_model_key(cost)
        if len(names) < 3 or cost_key is None:
            return None, self.distance_matrix(
                spec_name, cost=cost, runs=names
            )
        _, fingerprints = self._resolve(spec_name, names)
        view = self._view(spec_name, cost_key, names, fingerprints)
        if view is not None:
            return view, None
        matrix = self.distance_matrix(spec_name, cost=cost, runs=names)
        return self._view(spec_name, cost_key, names, fingerprints), matrix

    def _exact_means(
        self,
        spec_name: str,
        view: _FamilyView,
        candidates: Sequence[str],
        cost: CostModel,
    ) -> Dict[str, float]:
        """Each candidate's mean distance, summed in listing order — the
        arithmetic of :func:`repro.corpus.analytics.mean_distances`.

        One row per fingerprint: ≡-duplicates share every distance but
        the zeros between them, and adding ``0.0`` leaves a float sum
        unchanged, so their listing-order means are bit-identical.
        """
        spec = self.specification(spec_name)
        means: Dict[str, float] = {}
        by_fingerprint: Dict[str, float] = {}
        for name in candidates:
            fingerprint = view.fingerprints[name]
            if fingerprint not in by_fingerprint:
                others = [o for o in view.names if o != name]
                row = self._compute_pairs(
                    spec, [(name, o) for o in others], view.fingerprints,
                    cost,
                )
                by_fingerprint[fingerprint] = sum(
                    row[(name, o)] for o in others
                ) / len(others)
            means[name] = by_fingerprint[fingerprint]
        return means

    # -- analytics ---------------------------------------------------------
    def medoid(
        self, spec_name: str, cost: Optional[CostModel] = None
    ) -> Tuple[str, float]:
        """The corpus's most central run, ``(name, mean distance)``.

        The family view answers in O(N): its sums pick the runs within
        float-rounding distance of the smallest, and only those are
        re-priced exactly, so the winner (its exact mean and the
        lexicographic tie break included) is bit-identical to the
        full-matrix evaluation.  A family without a valid view first
        rebuilds it in one matrix batch (:meth:`_family_view`).
        """
        cost = cost or UnitCost()
        # One listing snapshot for both matrix and analytics, so a run
        # saved concurrently can't appear in one but not the other.
        names = self.runs(spec_name)
        view, matrix = self._family_view(spec_name, cost, names)
        if view is None:
            return medoid(matrix, names=names)
        cut = min(view.sums.values()) + _view_margin(view.sums)
        means = self._exact_means(
            spec_name, view, [n for n in names if view.sums[n] <= cut],
            cost,
        )
        name = min(means, key=lambda n: (means[n], n))
        return name, means[name]

    def outliers(
        self,
        spec_name: str,
        cost: Optional[CostModel] = None,
        top: Optional[int] = None,
    ) -> List[Tuple[str, float]]:
        """Runs ranked by descending mean distance to the corpus.

        With ``0 < top < N`` the family view answers, as for
        :meth:`medoid`: only the runs whose sums reach within
        float-rounding distance of the ``top``-th largest are re-priced
        exactly, so the returned head is bit-identical to the full
        evaluation, ties included.  Without ``top``, or with one
        covering the family, every mean is needed and the full matrix
        is folded.  ``top=0`` returns ``[]`` pricing nothing; a negative
        ``top`` is an error.
        """
        check_count("top", top)
        if top == 0:
            return []
        cost = cost or UnitCost()
        names = self.runs(spec_name)
        if top is None or not 0 < top < len(names):
            matrix = self.distance_matrix(
                spec_name, cost=cost, runs=names
            )
            return outliers(matrix, names=names, top=top)
        view, matrix = self._family_view(spec_name, cost, names)
        if view is None:
            return outliers(matrix, names=names, top=top)
        cut = sorted(view.sums.values(), reverse=True)[top - 1]
        cut -= _view_margin(view.sums)
        means = self._exact_means(
            spec_name, view, [n for n in names if view.sums[n] >= cut],
            cost,
        )
        ranked = sorted(
            means.items(), key=lambda item: (-item[1], item[0])
        )
        return ranked[:top]

    # -- introspection ------------------------------------------------------
    @property
    def stats_counters(self) -> Dict[str, int]:
        """The integral counters alone (the ``StatsSnapshot`` payload).

        Distance-cache counters keep their historical flat names
        (``memory_hits``, ``disk_hits``, ...); the edit-script cache's
        counters ride alongside under a ``script_`` prefix, and
        ``indexed_scripts`` reports the inverted index's document count.
        """
        merged = self.cache.stats.as_dict()
        for name, value in self.script_cache.stats.as_dict().items():
            merged[f"script_{name}"] = value
        merged["computed_pairs"] = self.computed_pairs
        merged["computed_scripts"] = self.computed_scripts
        merged["indexed_scripts"] = len(self.script_index)
        merged["lock_acquisitions"] = self.lock_acquisitions
        merged["dp_skipped_by_bound"] = self.dp_skipped_by_bound
        merged["coalesced_requests"] = self.coalesced_requests
        return merged

    @property
    def derived_stats(self) -> Dict[str, float]:
        """Float-valued derived statistics: hit ratios and contention
        (:func:`~repro.api_types.derive_stats` over the counters)."""
        return derive_stats(self.stats_counters, self.lock_wait_seconds)

    @property
    def stats(self) -> Dict[str, float]:
        """Counters plus derived statistics, one flat mapping.

        The integral counters (see :attr:`stats_counters`) come first;
        the derived ratios/totals (:attr:`derived_stats`) ride
        alongside as floats.
        """
        merged: Dict[str, float] = dict(self.stats_counters)
        merged.update(derive_stats(merged, self.lock_wait_seconds))
        return merged
