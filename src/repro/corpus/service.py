"""The corpus diff service: cached, parallel, incremental differencing.

:class:`DiffService` turns the pairwise differ into a corpus-scale
engine over a :class:`~repro.io.store.WorkflowStore`:

* every stored run is fingerprinted **once** (persisted in
  ``<root>/index/fingerprints.json``, invalidated by file stamp);
* every computed distance lands in a two-tier cache keyed by
  ``(fingerprint, fingerprint, cost model)`` — a warm
  :meth:`distance_matrix` call performs **zero** edit-distance DPs;
* cold pairs fan out over a pluggable
  :class:`~repro.backends.base.ExecutorBackend` — the thread backend
  (default) overlaps the I/O share of a batch under the GIL, while the
  process backend pickles ``(run, run, cost)`` payloads to worker
  processes so the pure-Python O(|E|³) DP itself scales with cores;
* :meth:`add_run` is incremental: growing an ``N``-run corpus computes
  exactly the ``N`` new pairs, never the existing ``N x (N-1) / 2``;
* analytics (:meth:`medoid`, :meth:`outliers`, :meth:`nearest_runs`)
  answer the paper's "which executions cluster together / differ from
  the majority" queries on top of the cached matrix;
* :meth:`edit_script` extends the caching story from distances to the
  edit scripts themselves (directed, script-cache backed), feeding the
  inverted :class:`~repro.corpus.script_index.ScriptIndex` that the
  query engine (:mod:`repro.query`) prunes candidates with.

Runs whose fingerprints coincide are ``≡``-equivalent, so their
distance is 0 by the identity axiom — the service short-circuits such
pairs without any DP at all (and seeds the cache under the canonical
pair key, so the zero persists like any computed value).

Three further layers keep corpus-scale distance work off the DP:

* **packing lower bounds** (:mod:`repro.core.bounds`) priced from
  persisted leaf profiles let :meth:`nearest_runs` / :meth:`medoid` /
  :meth:`lower_bounds` discard candidates that provably cannot matter;
* **triangle-inequality bounds** over already-cached distances tighten
  those floors (and give :meth:`outliers` its ceilings) before any DP;
* one :class:`~repro.core.memo.SharedTables` per cold batch builds each
  run's deletion tables once instead of once per pair, and the
  ``kernel`` knob swaps the convolution inner loop for the vectorised
  numpy sweep — every layer bit-identical to the plain per-pair
  pure-Python evaluation.

``dp_skipped_by_bound`` / ``dp_pruned_by_triangle`` count the DPs these
layers avoided (exposed via :attr:`stats_counters` and ``/metrics``).

Concurrency is **read-mostly with single-flight coalescing** (the HTTP
service layer runs one thread per request):

* warm reads never touch the service lock — the caches carry their own
  fine-grained locks, and non-counting probes resolve through a
  lock-free copy-on-write :class:`~repro.cluster.results_log.ResultsLog`
  snapshot, so readers never block on a writer's DP batch;
* cold work is coalesced through a keyed
  :class:`~repro.cluster.singleflight.SingleFlight` table: concurrent
  callers needing the same content-addressed pair elect one *leader*
  whose single DP feeds every *follower* — a thundering herd on one
  cold ``GET /diff/{a}/{b}`` costs exactly one computation;
* the re-entrant service lock survives only as a **narrow** critical
  section around metadata (spec memo, fingerprint backfills) and
  result publishing (cache puts, counters) — it is never held across a
  backend dispatch or a flight wait, so a slow cold batch cannot stall
  warm traffic.

Deadlock discipline: a thread computes every flight it leads in one
backend batch (publishing all results) *before* waiting on any flight
it follows, and flights are never awaited while the service lock is
held.  ``abort_inflight`` lets a draining server fail pending flights
deterministically (followers surface a 503) instead of hanging past
the drain deadline.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backends.base import (
    ExecutorBackend,
    ThreadBackend,
    make_backend,
)
from repro.backends.work import (
    DistanceTask,
    ScriptTask,
    compute_distance,
    compute_script,
)
from repro.cluster.results_log import ResultsLog
from repro.cluster.singleflight import SingleFlight
from repro.core.bounds import (
    distance_lower_bound,
    is_sound_for,
    spec_max_op_leaves,
    triangle_lower_bound,
    triangle_upper_bound,
)
from repro.core.kernel import resolve_kernel
from repro.core.memo import SharedTables
from repro.corpus.analytics import medoid, outliers
from repro.corpus.cache import DistanceCache
from repro.corpus.fingerprint import cost_model_key, pair_key, script_key
from repro.corpus.index import FingerprintIndex
from repro.corpus.script_cache import (
    QUERY_NAMESPACE,
    SCRIPTS_CACHE_NAME,
    ScriptCache,
    ScriptRecord,
    decode_script,
    encode_script,
)
from repro.corpus.script_index import ScriptIndex
from repro.costs.base import CostModel
from repro.costs.standard import UnitCost
from repro.errors import NotFoundError
from repro.io.store import WorkflowStore
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.runmeta import capture_run_metadata
from repro.workflow.run import WorkflowRun
from repro.workflow.specification import WorkflowSpecification

DISTANCES_INDEX_FILE = "distances.json"

#: How many pivot runs a triangle-bound probe may consult per pair.
#: Probes are dict lookups against already-known distances — cheap, but
#: a query over N candidates must stay O(N · pivots), not O(N²).
_TRIANGLE_PIVOT_CAP = 8

_INF = float("inf")

#: Batch-size histogram buckets: powers of two up to a full matrix
#: sweep of a mid-sized corpus.
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
                  512.0, 1024.0)

logger = get_logger("corpus.service")


class DiffService:
    """Facade for corpus-scale differencing over one workflow store.

    Parameters
    ----------
    store:
        A :class:`WorkflowStore` or a path to create one at.  Sessions
        pass their existing store so service and session share files.
    max_workers:
        Parallelism for batch queries when ``backend`` is given by name
        (or defaulted).  ``None`` lets the backend pick for the
        machine; ``1`` forces serial execution (benchmarks compare the
        two).  Ignored when ``backend`` is an already-constructed
        instance, which carries its own width.
    cache_size:
        Bound of the in-memory distance-cache tier.
    persistent:
        When ``False``, neither distances nor fingerprints are written
        to disk — an ephemeral, memory-only service.
    backend:
        Where cold batches execute: a name from
        :data:`repro.backends.base.BACKEND_NAMES` or an
        :class:`~repro.backends.base.ExecutorBackend` instance.
        Defaults to the thread backend (the historical behaviour);
        ``"process"`` runs the DP itself on every core.
    kernel:
        Convolution kernel for the DP's deletion tables — a name from
        :data:`repro.core.kernel.KERNEL_NAMES`.  The default ``"auto"``
        uses numpy when importable and the bit-identical pure-Python
        loops otherwise.
    """

    def __init__(
        self,
        store,
        max_workers: Optional[int] = None,
        cache_size: int = 4096,
        persistent: bool = True,
        backend=None,
        metrics: Optional[MetricsRegistry] = None,
        kernel: Optional[str] = "auto",
    ):
        self.store = (
            store if isinstance(store, WorkflowStore) else WorkflowStore(store)
        )
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry()
        )
        self.max_workers = max_workers
        if backend is None:
            self.backend: ExecutorBackend = ThreadBackend(max_workers)
        elif isinstance(backend, ExecutorBackend):
            # An instance carries its own width; max_workers is the
            # by-name convenience knob and is documented as ignored.
            self.backend = backend
        else:
            self.backend = make_backend(backend, max_workers)
        self.kernel = resolve_kernel(kernel)
        self.persistent = persistent
        self.index = FingerprintIndex(self.store)
        cache_path = (
            self.store.index_dir / DISTANCES_INDEX_FILE
            if persistent
            else None
        )
        self.cache = DistanceCache(
            path=cache_path,
            maxsize=cache_size,
            metrics=self.metrics,
            name="distance",
        )
        script_path = (
            self.store.index_path(
                SCRIPTS_CACHE_NAME, namespace=QUERY_NAMESPACE
            )
            if persistent
            else None
        )
        self.script_cache = ScriptCache(
            path=script_path,
            maxsize=cache_size,
            metrics=self.metrics,
            name="script",
        )
        self.script_index = ScriptIndex(
            self.store, persistent=persistent, metrics=self.metrics
        )
        self.computed_pairs = 0
        self.computed_scripts = 0
        # DPs the fast path avoided: decided by the packing lower
        # bound alone, or needing a triangle-inequality bound on top.
        self.dp_skipped_by_bound = 0
        self.dp_pruned_by_triangle = 0
        self._specs: Dict[str, WorkflowSpecification] = {}
        #: Memoised ``L`` (max elementary-op leaf count) per spec name.
        self._max_op_leaves: Dict[str, int] = {}
        # The narrow service lock (see the module docstring): guards
        # metadata (spec memo, fingerprint backfills) and result
        # publishing (counters, cache puts) — never held across a
        # backend dispatch or a single-flight wait.  Re-entrant,
        # because brief sections nest (edit paths touch cached_script
        # while publishing).
        self._lock = threading.RLock()
        # Single-flight table: coalesces concurrent identical cold
        # computations onto one leader DP (keys are content-derived:
        # ("distance"|"script", content key)).
        self._flights = SingleFlight()
        # Copy-on-write results log: every published distance lands
        # here too, so non-counting probes (bound pivots, leader
        # double-checks) read lock-free.
        self._results_log = ResultsLog()
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
            "dp_pruned_by_triangle_total",
            "DP invocations avoided by triangle-inequality bounds.",
        ).set_function(lambda: self.dp_pruned_by_triangle)
        self.metrics.counter(
            "singleflight_coalesced_total",
            "Requests served from another caller's in-flight DP.",
        ).set_function(lambda: self.coalesced_requests)
        self.metrics.counter(
            "results_log_entries_total",
            "Distances published to the copy-on-write results log.",
        ).set_function(self._results_log.entries)
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

    def inflight_computations(self) -> int:
        """Currently pending coalesced computations (drain logging)."""
        return self._flights.in_flight()

    # -- resolution -----------------------------------------------------
    def specification(self, spec_name: str) -> WorkflowSpecification:
        with self._monitor():
            if spec_name not in self._specs:
                self._specs[spec_name] = self.store.load_specification(
                    spec_name
                )
            return self._specs[spec_name]

    def invalidate_specification(self, spec_name: str) -> None:
        """Forget everything memoised for a specification.

        Must be called after re-registering a specification under an
        existing name (``PDiffViewSession.register_specification`` does
        this automatically): run fingerprints embed the spec digest, so
        all of them — and the runs parsed against the old object — are
        stale.  Cached *distances* need no invalidation; they are keyed
        by content, and the new fingerprints simply miss.
        """
        with self._monitor():
            self._specs.pop(spec_name, None)
            self.index.forget_spec(spec_name)

    def runs(self, spec_name: str) -> List[str]:
        return self.store.list_runs(spec_name)

    def load_run(self, spec_name: str, run_name: str) -> WorkflowRun:
        """A stored run, served through the parsed-run memo.

        The public face of the per-run parse cache the batch paths
        use — interactive callers (the workspace's ``run``/``view``)
        go through here so a corpus whose matrix is warm never
        re-parses a run's XML to view it.
        """
        return self._load_run(self.specification(spec_name), run_name)

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
            if self.persistent:
                self.index.flush()
            return fingerprints

    def _load_run(
        self, spec: WorkflowSpecification, name: str
    ) -> WorkflowRun:
        """Load a run through the index memo (parse each XML once).

        The memo is checked and published under the GIL's atomic dict
        ops via peek/remember, with parsing kept outside any lock — a
        rare race parses the same XML twice; first writer wins.
        """
        run = self.index.peek_run(spec.name, name)
        if run is None:
            run = self.index.remember(
                self.store.load_run(spec, name), as_name=name
            )
        return run

    # -- lower bounds -----------------------------------------------------
    def _spec_op_ceiling(self, spec: WorkflowSpecification) -> int:
        """Memoised ``L``: the longest elementary path an edit op moves."""
        value = self._max_op_leaves.get(spec.name)
        if value is None:
            value = spec_max_op_leaves(spec)
            self._max_op_leaves[spec.name] = value
        return value

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
        ceiling = self._spec_op_ceiling(spec)
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
            if self.persistent:
                self.index.flush()  # profile backfills
        return {pair: packing.get(pair, 0.0) for pair in pair_list}

    def note_bound_skips(self, count: int) -> None:
        """Credit ``count`` DPs avoided via :meth:`lower_bounds`.

        The query engine gates cold script computation on packing
        bounds; those skips happen outside this service's own pruned
        paths, so the engine reports them here to keep the
        ``dp_skipped_by_bound`` counter the single ledger of
        bound-avoided DPs.
        """
        if count > 0:
            with self._monitor():
                self.dp_skipped_by_bound += count

    def _peek_exact(
        self,
        fingerprints: Dict[str, str],
        cost_key: Optional[str],
        a: str,
        b: str,
    ) -> Optional[float]:
        """An already-known exact distance, or ``None`` — non-counting.

        Bound probes ask this dozens of times per queried pair; they
        must not skew the hit/miss ratios operators alert on (the
        pairs a query actually returns still go through the counting
        cache path).
        """
        if a == b or fingerprints[a] == fingerprints[b]:
            return 0.0
        if cost_key is None:
            return None
        key = pair_key(fingerprints[a], fingerprints[b], cost_key)
        # Results-log snapshot first: a lock-free dict read, so bound
        # probes resolve without touching any cache lock a concurrent
        # writer might hold mid-batch.
        value = self._results_log.get(key)
        if value is None:
            value = self.cache.peek(key)
        return value if isinstance(value, float) else None

    @staticmethod
    def _known_adjacency(
        known: Dict[Tuple[str, str], float]
    ) -> Dict[str, Dict[str, float]]:
        """``{run: {neighbour: exact distance}}`` over known pairs."""
        adjacency: Dict[str, Dict[str, float]] = {}
        for (a, b), value in known.items():
            adjacency.setdefault(a, {})[b] = value
            adjacency.setdefault(b, {})[a] = value
        return adjacency

    @staticmethod
    def _triangle_floor(
        adjacency: Dict[str, Dict[str, float]], a: str, c: str
    ) -> float:
        """Best triangle *lower* bound on ``δ(a, c)`` via known pivots."""
        near_a = adjacency.get(a)
        near_c = adjacency.get(c)
        if not near_a or not near_c:
            return 0.0
        if len(near_c) < len(near_a):
            near_a, near_c = near_c, near_a
        best = 0.0
        probes = 0
        for pivot, first in near_a.items():
            second = near_c.get(pivot)
            if second is None:
                continue
            candidate = triangle_lower_bound(first, second)
            if candidate > best:
                best = candidate
            probes += 1
            if probes >= _TRIANGLE_PIVOT_CAP:
                break
        return best

    @staticmethod
    def _triangle_ceiling(
        adjacency: Dict[str, Dict[str, float]], a: str, c: str
    ) -> float:
        """Best triangle *upper* bound on ``δ(a, c)`` via known pivots.

        ``inf`` when no pivot knows both legs — an unbounded pair can
        never be pruned away by an upper-bound argument.
        """
        near_a = adjacency.get(a)
        near_c = adjacency.get(c)
        if not near_a or not near_c:
            return _INF
        if len(near_c) < len(near_a):
            near_a, near_c = near_c, near_a
        best = _INF
        probes = 0
        for pivot, first in near_a.items():
            second = near_c.get(pivot)
            if second is None:
                continue
            candidate = triangle_upper_bound(first, second)
            if candidate < best:
                best = candidate
            probes += 1
            if probes >= _TRIANGLE_PIVOT_CAP:
                break
        return best

    # -- batch computation ----------------------------------------------
    def _compute_pairs(
        self,
        spec: WorkflowSpecification,
        pairs: Sequence[Tuple[str, str]],
        fingerprints: Dict[str, str],
        cost: CostModel,
        bounds: Optional[Dict[Tuple[str, str], float]] = None,
        cutoff: Optional[float] = None,
    ) -> Dict[Tuple[str, str], float]:
        """Cache-aware distances for name pairs; cold pairs fan out.

        Equal-fingerprint pairs short-circuit to 0; cacheable pairs are
        deduplicated by content key so two name pairs backed by the same
        graphs cost one DP; the remaining work runs on the configured
        :class:`~repro.backends.base.ExecutorBackend`.  In-process
        backends load runs *inside* the workers (threads overlap the
        XML-parsing share of a cold batch under the GIL); the process
        backend gets pre-resolved, picklable
        :class:`~repro.backends.work.DistanceTask` payloads, so its
        workers receive ready trees and never touch the store.

        Cold groups are coalesced through the single-flight table:
        concurrent callers needing the same content key elect one
        leader, whose batch computes the value once for everyone.  A
        caller leads *all* its cold keys in one dispatch, publishes
        them, and only then waits on keys other callers lead — the
        ordering that makes cross-caller waits deadlock-free.

        ``bounds``/``cutoff`` (from :meth:`nearest_runs`'s pruning
        pass) ship per-pair packing bounds and the threshold ``τ``
        into the workers; a worker whose bound strictly exceeds ``τ``
        skips its DP and returns ``inf``, which is credited to
        ``dp_skipped_by_bound``, never cached, and never coalesced
        (cutoff batches bypass the flight table — a gated ``inf`` is
        an answer to *this* query's ``τ``, not to the pair).
        """
        cost_key = cost_model_key(cost)
        use_flights = cost_key is not None and cutoff is None
        results: Dict[Tuple[str, str], float] = {}
        pending: Dict[str, List[Tuple[str, str]]] = {}
        seeded = False
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
                        self._results_log.append(key, 0.0)
                        seeded = True
                results[(a, b)] = 0.0
                continue
            if cost_key is None:
                # Uncacheable cost model: no cache traffic — but the
                # DP is symmetric-deterministic, so dedupe by the
                # *unordered* name pair within the batch (keying the
                # raw (a, b) ordering used to cost (a, b) and (b, a)
                # two DPs for one value).  No single-flight either:
                # without a stable content key there is nothing for
                # concurrent callers to rendezvous on.
                group = "\x00".join(sorted((a, b)))
                pending.setdefault(group, []).append((a, b))
                continue
            key = pair_key(fingerprints[a], fingerprints[b], cost_key)
            cached = self.cache.get(key)
            if cached is not None:
                results[(a, b)] = cached
            else:
                pending.setdefault(key, []).append((a, b))

        # Split the cold groups into flights we lead (ours to compute)
        # and flights another caller is already computing.
        led: List[Tuple[str, object]] = []
        followed: List[Tuple[str, object]] = []
        compute_groups: List[Tuple[str, List[Tuple[str, str]]]] = []
        for key, group in pending.items():
            if not use_flights:
                compute_groups.append((key, group))
                continue
            leader, flight = self._flights.begin(("distance", key))
            if not leader:
                followed.append((key, flight))
                continue
            # Double-check the results log: a prior leader may have
            # published between our counting cache miss and begin().
            # (Non-counting on purpose — the classification above is
            # the one accounted lookup per pair.)
            value = self._results_log.get(key)
            if value is not None:
                self._flights.finish(flight, value=value)
                for name_pair in group:
                    results[name_pair] = value
                continue
            led.append((key, flight))
            compute_groups.append((key, group))

        if compute_groups:
            directed = []
            for key, group in compute_groups:
                a, b = group[0]
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
                directed.append((a, b))

            def task(pair) -> DistanceTask:
                a, b = pair
                run_a = self._load_run(spec, a)
                run_b = self._load_run(spec, b)
                bound = 0.0
                if bounds is not None:
                    bound = bounds.get((a, b), bounds.get((b, a), 0.0))
                return DistanceTask(
                    run_a=run_a,
                    run_b=run_b,
                    cost=cost,
                    kernel=self.kernel,
                    # Alignment hoisted out of the per-pair worker
                    # (S3): both runs of a batch load through one spec
                    # object, which the identity check certifies — a
                    # run annotated elsewhere falls back to the old
                    # per-pair alignment.
                    assume_aligned=run_a.spec is run_b.spec,
                    bound=bound,
                    cutoff=cutoff,
                )

            backend_name = type(self.backend).__name__
            try:
                self._batch_metric.observe(len(directed))
                self._backend_tasks_metric.inc(
                    len(directed), backend=backend_name
                )
                dispatch_started = time.perf_counter()
                if self.backend.requires_pickling:
                    # Resolve every run here: workers get ready trees
                    # (and per-worker table memos — a chunk unpickles
                    # as one unit, so its pairs alias and share
                    # tables).
                    distances = self.backend.map(
                        compute_distance,
                        [task(pair) for pair in directed],
                    )
                else:
                    # Resolve inside the workers: threads overlap
                    # parsing.  One SharedTables for the whole batch —
                    # each run's deletion tables are built once, not
                    # once per pair.
                    shared = SharedTables(cost, kernel=self.kernel)
                    distances = self.backend.map(
                        lambda pair: compute_distance(task(pair), shared),
                        directed,
                    )
                self._backend_busy_metric.inc(
                    time.perf_counter() - dispatch_started,
                    backend=backend_name,
                )
            except BaseException as exc:
                # A leader that cannot publish must land its flights
                # with the failure, or followers hang forever.
                for _, flight in led:
                    self._flights.finish(flight, error=exc)
                raise

            # Publish: counters and cache puts under the narrow lock,
            # one results-log swap for the whole batch.
            flight_values: Dict[str, float] = {}
            published: List[Tuple[str, float]] = []
            performed = 0
            with self._monitor():
                for (key, group), value in zip(compute_groups, distances):
                    if cutoff is not None and value == _INF:
                        # The worker's bound gate skipped this DP.
                        self.dp_skipped_by_bound += 1
                        for name_pair in group:
                            results[name_pair] = _INF
                        continue
                    performed += 1
                    self.computed_pairs += 1
                    if cost_key is not None:
                        self.cache.put(key, value)
                        published.append((key, value))
                        flight_values[key] = value
                    for name_pair in group:
                        results[name_pair] = value
                self._dp_metric.inc(performed, kind="distance")
            if published:
                self._results_log.extend(published)
            for key, flight in led:
                self._flights.finish(flight, value=flight_values[key])
            logger.debug(
                "computed %d cold distance pairs", performed,
                extra={"batch_size": len(directed),
                       "backend": backend_name},
            )
            self._flush()
        elif seeded:
            # No cold DPs, but ≡ short-circuits seeded cache entries.
            self._flush()
        elif self.persistent:
            # Even an all-warm query may have refreshed fingerprints.
            self.index.flush()

        if followed:
            # Only after our own flights landed: wait on the leaders
            # of everyone else's (the deadlock-free ordering).
            with self._monitor():
                self.coalesced_requests += len(followed)
            for key, flight in followed:
                value = flight.result()
                for name_pair in pending[key]:
                    results[name_pair] = value
        return results

    def _flush(self) -> None:
        with self._monitor():
            if self.persistent:
                self.cache.flush()
                self.script_cache.flush()
                self.script_index.flush()
                self.index.flush()

    def flush(self) -> None:
        """Persist every dirty cache tier now (no-op when ephemeral).

        Query methods flush themselves; this exists for callers that
        batch with ``edit_scripts(..., flush=False)`` and settle once
        at the end.
        """
        self._flush()

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

        Keys are unordered pairs in listing order, matching the seed
        :meth:`PDiffViewSession.distance_matrix` exactly.  ``runs``
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
        return self._compute_pairs(spec, pairs, fingerprints, cost)

    def nearest_runs(
        self,
        spec_name: str,
        run_name: str,
        k: Optional[int] = None,
        cost: Optional[CostModel] = None,
    ) -> List[Tuple[str, float]]:
        """One-vs-many: ``run_name``'s neighbours by ascending distance.

        Computes (or recalls) only the ``N - 1`` distances involving
        ``run_name`` — never the full matrix — and, when ``k`` asks for
        a strict subset of the corpus, prunes candidates that provably
        cannot enter the top ``k``: a candidate whose lower bound
        (packing bound from leaf profiles, tightened by the triangle
        inequality over already-known distances) strictly exceeds the
        current ``k``-th best distance is skipped without a DP.  The
        returned ranking is bit-identical to the unpruned computation:
        skipped candidates sort strictly after position ``k``, and
        surviving candidates' distances come from the very same
        cache-or-DP path.
        """
        cost = cost or UnitCost()
        names = self.runs(spec_name)
        if run_name not in names:
            raise NotFoundError(
                f"no stored run {run_name!r} for specification "
                f"{spec_name!r}"
            )
        others = [other for other in names if other != run_name]
        pairs = [(run_name, other) for other in others]
        spec, fingerprints = self._resolve(spec_name, names)
        survivors, bounds, cutoff = pairs, None, None
        if k is not None and 0 < k < len(others):
            with self._monitor():
                survivors, bounds, cutoff = self._prune_nearest(
                    spec, fingerprints, run_name, pairs, k, cost,
                    # Process workers apply the packing gate themselves
                    # (the bound travels with the task); in-process
                    # backends keep the cheaper parent-side drop.
                    ship=self.backend.requires_pickling,
                )
        distances = self._compute_pairs(
            spec, survivors, fingerprints, cost,
            bounds=bounds, cutoff=cutoff,
        )
        ranked = sorted(
            ((other, distances[(run_name, other)]) for _, other in survivors),
            key=lambda item: (item[1], item[0]),
        )
        return ranked[:k] if k is not None else ranked

    def _prune_nearest(
        self,
        spec: WorkflowSpecification,
        fingerprints: Dict[str, str],
        run_name: str,
        pairs: List[Tuple[str, str]],
        k: int,
        cost: CostModel,
        ship: bool = False,
    ) -> Tuple[
        List[Tuple[str, str]],
        Optional[Dict[Tuple[str, str], float]],
        Optional[float],
    ]:
        """``(survivors, bounds, cutoff)`` for a top-``k`` query
        (caller holds the service lock).

        Non-counting probes split the pairs into already-known and
        unknown; with at least ``k`` known distances the ``k``-th best
        becomes the pruning threshold ``τ``, and every unknown pair
        whose lower bound *strictly* exceeds ``τ`` cannot enter the
        ranking (its true distance is ≥ the bound > τ ≥ the final
        ``k``-th distance — not even on a tie).  The survivors keep
        the original listing order, and the known pairs re-enter
        through the ordinary counting cache path, so hit statistics
        match the unpruned query's.

        With ``ship=False`` packing-doomed pairs are dropped here and
        credited to ``dp_skipped_by_bound`` immediately; with
        ``ship=True`` (process backends) they *stay* in the batch and
        the returned ``(bounds, τ)`` travel with the tasks so each
        worker applies the same strict gate in its own address space —
        the skip is credited when the worker's ``inf`` comes back.
        Triangle pruning always happens parent-side: it needs the
        adjacency of every known distance, which workers don't have.
        """
        cost_key = cost_model_key(cost)
        known: Dict[Tuple[str, str], float] = {}
        unknown: List[Tuple[str, str]] = []
        for pair in pairs:
            exact = self._peek_exact(
                fingerprints, cost_key, pair[0], pair[1]
            )
            if exact is None:
                unknown.append(pair)
            else:
                known[pair] = exact
        if len(known) < k or not unknown:
            return pairs, None, None
        tau = sorted(known.values())[k - 1]
        packing = self._packing_bounds(spec, unknown, cost)
        shipping = ship and bool(packing)
        adjacency: Optional[Dict[str, Dict[str, float]]] = None
        dropped = set()
        for pair in unknown:
            bound = packing.get(pair, 0.0)
            if bound > tau:
                if shipping:
                    continue  # the worker-side gate skips its DP
                self.dp_skipped_by_bound += 1
                dropped.add(pair)
                continue
            if adjacency is None:
                # Pivot adjacency over *everything* already known —
                # cheap cache peeks, built once per query on demand.
                adjacency = self._known_pair_graph(
                    fingerprints, cost_key, list(fingerprints)
                )
            floor = self._triangle_floor(adjacency, pair[0], pair[1])
            if floor > tau:
                self.dp_pruned_by_triangle += 1
                dropped.add(pair)
        if dropped:
            pairs = [pair for pair in pairs if pair not in dropped]
        if shipping:
            return pairs, packing, tau
        return pairs, None, None

    def _known_pair_graph(
        self,
        fingerprints: Dict[str, str],
        cost_key: Optional[str],
        names: Sequence[str],
    ) -> Dict[str, Dict[str, float]]:
        """Adjacency of every already-known exact distance among
        ``names`` (non-counting peeks only; no DP, no stat traffic)."""
        known: Dict[Tuple[str, str], float] = {}
        ordered = list(names)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                exact = self._peek_exact(fingerprints, cost_key, a, b)
                if exact is not None:
                    known[(a, b)] = exact
        return self._known_adjacency(known)

    # -- edit scripts -----------------------------------------------------
    def cached_script(self, key: str) -> Optional[ScriptRecord]:
        """The decoded script cached under a directed key, or ``None``.

        Re-reading a script also backfills the inverted index (a cache
        file can outlive a deleted index file) — any path that touches a
        script keeps the index complete.
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

        The batch analogue of :meth:`edit_script` — one flush for the
        whole batch instead of one per computed script, which is what
        keeps corpus ingest linear in the number of pairs (a per-script
        flush would rewrite the growing cache file quadratically).
        Callers that chunk one logical sweep into many batches (the
        workspace's streaming ``diff_many``) pass ``flush=False`` per
        chunk and call :meth:`flush` once at the end, for the same
        reason.
        Content-duplicate pairs cost one diff (cold work is deduped by
        directed content key before dispatch), and the cold diffs of a
        batch fan out as :class:`~repro.backends.work.ScriptTask`
        payloads on the configured backend — batch script generation
        parallelises exactly like the distance sweeps.  Cold groups
        coalesce through the single-flight table keyed on the directed
        content key, so concurrent identical ``GET /diff`` requests
        share one diff: the leader computes and publishes; followers
        receive the same operations (as their own deep copies — script
        records are mutable).
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
        # ``keys`` records the cache key of each cold group's
        # representative pair for the post-dispatch put/seed step.
        keys: Dict[Tuple[str, str], Optional[str]] = {}
        cold: Dict[object, List[Tuple[str, str]]] = {}
        for run_a, run_b in pair_list:
            key = None
            if cost_key is not None:
                key = script_key(
                    fingerprints[run_a], fingerprints[run_b], cost_key
                )
                record = self.cached_script(key)
                if record is not None:
                    results[(run_a, run_b)] = record
                    continue
            keys[(run_a, run_b)] = key
            cold.setdefault(
                key if key is not None else (run_a, run_b), []
            ).append((run_a, run_b))

        # Lead-or-follow each cold group (content-keyed groups only —
        # uncacheable costs have no rendezvous key, see above).
        led: List[Tuple[object, object]] = []
        followed: List[Tuple[object, object]] = []
        ordered: List[Tuple[object, List[Tuple[str, str]]]] = []
        for key, group in cold.items():
            if cost_key is None:
                ordered.append((key, group))
                continue
            leader, flight = self._flights.begin(("script", key))
            if not leader:
                followed.append((key, flight))
                continue
            # Double-check without counting: another leader may have
            # landed between our cached_script miss and begin().
            raw = self.script_cache.peek(key)
            record = decode_script(raw) if raw is not None else None
            if record is not None:
                self._flights.finish(
                    flight,
                    value=(record.distance, record.operations),
                )
                for name_pair in group:
                    results[name_pair] = ScriptRecord(
                        distance=record.distance,
                        operations=[
                            dataclasses.replace(op)
                            for op in record.operations
                        ],
                    )
                continue
            led.append((key, flight))
            ordered.append((key, group))

        if ordered:
            def task(group) -> ScriptTask:
                return ScriptTask(
                    run_a=self._load_run(spec, group[0][0]),
                    run_b=self._load_run(spec, group[0][1]),
                    cost=cost,
                    kernel=self.kernel,
                )

            backend_name = type(self.backend).__name__
            try:
                self._batch_metric.observe(len(ordered))
                self._backend_tasks_metric.inc(
                    len(ordered), backend=backend_name
                )
                dispatch_started = time.perf_counter()
                if self.backend.requires_pickling:
                    outcomes = self.backend.map(
                        compute_script,
                        [task(group) for _, group in ordered],
                    )
                else:
                    shared = SharedTables(cost, kernel=self.kernel)
                    outcomes = self.backend.map(
                        lambda item: compute_script(task(item[1]), shared),
                        ordered,
                    )
                self._backend_busy_metric.inc(
                    time.perf_counter() - dispatch_started,
                    backend=backend_name,
                )
            except BaseException as exc:
                for _, flight in led:
                    self._flights.finish(flight, error=exc)
                raise
            self._dp_metric.inc(len(ordered), kind="script")
            logger.debug(
                "computed %d cold edit scripts", len(ordered),
                extra={"batch_size": len(ordered),
                       "backend": backend_name},
            )
            flight_values: Dict[object, Tuple[float, list]] = {}
            published: List[Tuple[str, float]] = []
            with self._monitor():
                for (group_key, group), (distance, operations) in zip(
                    ordered, outcomes
                ):
                    self.computed_scripts += 1
                    record = ScriptRecord(
                        distance=distance, operations=list(operations)
                    )
                    for run_a, run_b in group:
                        # Every pair gets its own record with its own
                        # operation objects (PathOperation is a mutable
                        # dataclass): deduped pairs must not alias any
                        # mutable result state, matching the independent
                        # per-pair decodes of the cache-hit path.
                        results[(run_a, run_b)] = ScriptRecord(
                            distance=record.distance,
                            operations=[
                                dataclasses.replace(op)
                                for op in record.operations
                            ],
                        )
                    run_a, run_b = group[0]
                    key = keys[(run_a, run_b)]
                    if key is not None:
                        raw = encode_script(
                            record.distance, record.operations
                        )
                        self.script_cache.put(key, raw)
                        self.script_index.add(key, raw)
                        flight_values[key] = (
                            record.distance, record.operations
                        )
                        if run_a <= run_b:
                            # Seed the (undirected) distance cache only
                            # from the canonical direction — the same one
                            # ``_compute_pairs`` uses — so every cached
                            # distance is bit-identical to a fresh
                            # listing-order computation.
                            dist_key = pair_key(
                                fingerprints[run_a],
                                fingerprints[run_b],
                                cost_key,
                            )
                            self.cache.put(dist_key, record.distance)
                            published.append(
                                (dist_key, record.distance)
                            )
            if published:
                self._results_log.extend(published)
            for key, flight in led:
                self._flights.finish(flight, value=flight_values[key])

        if followed:
            # Our own flights are landed; now collect everyone else's.
            with self._monitor():
                self.coalesced_requests += len(followed)
            for key, flight in followed:
                distance, operations = flight.result()
                for run_a, run_b in cold[key]:
                    results[(run_a, run_b)] = ScriptRecord(
                        distance=distance,
                        operations=[
                            dataclasses.replace(op)
                            for op in operations
                        ],
                    )
        if flush:
            self._flush()
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
        # Setup (conflict check, spec adoption, save, fingerprinting)
        # under the narrow lock; the distance batch itself runs
        # unlocked so concurrent readers — and other ingests' DPs —
        # proceed while this run's pairs compute.
        with self._monitor():
            spec, run, fingerprints, pairs = self._adopt_run(run, meta)
        results = self._compute_pairs(spec, pairs, fingerprints, cost)
        self._flush()
        return results

    def _adopt_run(self, run: WorkflowRun, meta=None):
        """Persist ``run`` and return its spec, fingerprints, and the
        new (existing, new) pairs; caller holds the service lock."""
        spec = run.spec
        # Same name, different content would mix runs of two
        # specifications in one directory and mint fingerprints under
        # the wrong spec digest: the store's guard refuses it, and
        # persists a never-stored spec so other processes can read the
        # corpus.
        self.store.adopt_specification(spec)
        # Adopt the first spec object seen, so later loads agree with it.
        adopted = self._specs.setdefault(spec.name, spec)
        if adopted is not spec:
            # Same content, different object (the guard passed):
            # re-annotate against the adopted spec so every memoised run
            # of a corpus shares one spec object — the invariant that
            # lets batch workers skip per-pair alignment and share
            # subtree identities.
            spec = adopted
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

    # -- analytics ---------------------------------------------------------
    def medoid(
        self, spec_name: str, cost: Optional[CostModel] = None
    ) -> Tuple[str, float]:
        """The corpus's most central run, ``(name, mean distance)``.

        When the cost model supports lower bounds, candidates whose
        bounded mean distance strictly exceeds the best exact mean seen
        so far are skipped without computing their row of the matrix —
        the winner (including its exact mean and the lexicographic tie
        break) is bit-identical to the full-matrix evaluation, because
        a skipped candidate's true mean strictly exceeds the returned
        one.
        """
        cost = cost or UnitCost()
        # One listing snapshot for both matrix and analytics, so a run
        # saved concurrently can't appear in one but not the other.
        names = self.runs(spec_name)
        if len(names) < 3 or not is_sound_for(cost):
            matrix = self.distance_matrix(
                spec_name, cost=cost, runs=names
            )
            return medoid(matrix, names=names)
        spec, fingerprints = self._resolve(spec_name, names)
        cost_key = cost_model_key(cost)
        with self._monitor():
            adjacency = self._known_pair_graph(
                fingerprints, cost_key, names
            )
            unknown = [
                (a, b)
                for i, a in enumerate(names)
                for b in names[i + 1:]
                if b not in adjacency.get(a, {})
            ]
            packing = self._packing_bounds(spec, unknown, cost)

        def pair_floor(a: str, b: str) -> Tuple[float, bool]:
            """(lower bound, needed triangle?) for one pair."""
            exact = adjacency.get(a, {}).get(b)
            if exact is not None:
                return exact, False
            key = (a, b) if (a, b) in packing else (b, a)
            bound = packing.get(key, 0.0)
            floor = self._triangle_floor(adjacency, a, b)
            return max(bound, floor), floor > bound

        # Mean bounds in mean_distances' exact arithmetic (same
        # summation order, same division) — float addition is
        # monotone, so a sum of per-pair lower bounds stays a
        # lower bound of the identically-ordered sum of distances.
        floors: Dict[str, float] = {}
        used_triangle: Dict[str, bool] = {}
        for name in names:
            others = [o for o in names if o != name]
            parts = [pair_floor(name, o) for o in others]
            floors[name] = sum(p[0] for p in parts) / len(others)
            used_triangle[name] = any(p[1] for p in parts)

        best: Optional[Tuple[float, str]] = None
        skipped: Dict[str, bool] = {}
        for name in sorted(names, key=lambda n: (floors[n], n)):
            if best is not None and floors[name] > best[0]:
                skipped[name] = used_triangle[name]
                continue
            others = [o for o in names if o != name]
            row = self._compute_pairs(
                spec,
                [(name, o) for o in others],
                fingerprints,
                cost,
            )
            mean = sum(row[(name, o)] for o in others) / len(others)
            if best is None or (mean, name) < best:
                best = (mean, name)
        with self._monitor():
            self._count_avoided_pairs(unknown, skipped)
        assert best is not None  # names is non-empty here
        return best[1], best[0]

    def _count_avoided_pairs(
        self,
        unknown: Sequence[Tuple[str, str]],
        skipped: Dict[str, bool],
    ) -> None:
        """Attribute never-computed pairs to the skip counters.

        A pair is avoided when *both* endpoints' candidate evaluations
        were skipped; it lands on the triangle counter when either
        skip needed a triangle bound, on the packing counter otherwise.
        """
        for a, b in unknown:
            if a in skipped and b in skipped:
                if skipped[a] or skipped[b]:
                    self.dp_pruned_by_triangle += 1
                else:
                    self.dp_skipped_by_bound += 1

    def outliers(
        self,
        spec_name: str,
        cost: Optional[CostModel] = None,
        top: Optional[int] = None,
    ) -> List[Tuple[str, float]]:
        """Runs ranked by descending mean distance to the corpus.

        With ``top`` given, candidates whose triangle *upper* bound on
        the mean falls strictly below the ``top``-th best exact mean
        are skipped without computing their matrix row; the returned
        head of the ranking is bit-identical to the full evaluation
        (a skipped candidate's true mean is strictly below every
        returned one, so it cannot enter the head, not even on a tie).
        Upper bounds need no cost-model support — the triangle
        inequality holds for any edit-script cost — but they do need
        known distances to pivot through, so a cold corpus computes
        the full matrix exactly as before.
        """
        cost = cost or UnitCost()
        names = self.runs(spec_name)
        if top is None or top <= 0 or top >= len(names) or len(names) < 3:
            matrix = self.distance_matrix(
                spec_name, cost=cost, runs=names
            )
            return outliers(matrix, names=names, top=top)
        spec, fingerprints = self._resolve(spec_name, names)
        cost_key = cost_model_key(cost)
        with self._monitor():
            adjacency = self._known_pair_graph(
                fingerprints, cost_key, names
            )
        unknown = [
            (a, b)
            for i, a in enumerate(names)
            for b in names[i + 1:]
            if b not in adjacency.get(a, {})
        ]

        def pair_ceiling(a: str, b: str) -> float:
            exact = adjacency.get(a, {}).get(b)
            if exact is not None:
                return exact
            return self._triangle_ceiling(adjacency, a, b)

        ceilings: Dict[str, float] = {}
        for name in names:
            others = [o for o in names if o != name]
            ceilings[name] = sum(
                pair_ceiling(name, o) for o in others
            ) / len(others)

        means: Dict[str, float] = {}
        skipped: Dict[str, bool] = {}
        # Largest ceiling first: once the top-th exact mean
        # exceeds a ceiling, every later candidate's does too.
        for name in sorted(
            names, key=lambda n: (-ceilings[n], n)
        ):
            if len(means) >= top:
                tau = sorted(means.values(), reverse=True)[top - 1]
                if ceilings[name] < tau:
                    skipped[name] = True
                    continue
            others = [o for o in names if o != name]
            row = self._compute_pairs(
                spec,
                [(name, o) for o in others],
                fingerprints,
                cost,
            )
            means[name] = sum(
                row[(name, o)] for o in others
            ) / len(others)
        with self._monitor():
            self._count_avoided_pairs(unknown, skipped)
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
        merged["dp_pruned_by_triangle"] = self.dp_pruned_by_triangle
        merged["coalesced_requests"] = self.coalesced_requests
        return merged

    @property
    def derived_stats(self) -> Dict[str, float]:
        """Float-valued derived statistics: hit ratios and contention.

        Every ratio guards its denominator — a freshly constructed
        service (zero lookups) reports ``0.0``, never a division error.
        """

        def ratio(hits: int, lookups: int) -> float:
            return hits / lookups if lookups else 0.0

        distance = self.cache.stats
        script = self.script_cache.stats
        return {
            "memory_hit_ratio": ratio(
                distance.memory_hits, distance.lookups
            ),
            "disk_hit_ratio": ratio(
                distance.disk_hits, distance.lookups
            ),
            "script_hit_ratio": ratio(script.hits, script.lookups),
            "lock_wait_seconds": self.lock_wait_seconds,
        }

    @property
    def stats(self) -> Dict[str, float]:
        """Counters plus derived statistics, one flat mapping.

        The integral counters (see :attr:`stats_counters`) come first;
        the derived ratios/totals (:attr:`derived_stats`) ride
        alongside as floats.
        """
        merged: Dict[str, float] = dict(self.stats_counters)
        merged.update(self.derived_stats)
        return merged
