"""The sharded multi-process cluster front: ``repro serve --workers N``.

A :class:`ClusterServer` is a routing parent over ``N`` pre-forked
worker processes (see :mod:`repro.cluster.worker`), each an ordinary
single-process diff server owning a deterministic shard of the pair
space.  The parent binds the public socket and speaks the *same wire
surface* as a single :class:`~repro.service.server.DiffServer` — every
endpoint, envelope, header and byte — so clients (and the conformance
suite) cannot tell the difference.

Routing, by endpoint:

* ``GET /diff/{a}/{b}`` → the worker owning
  :func:`~repro.cluster.shard.shard_for_pair` ``(a, b)``, behind a
  parent-side single-flight table: concurrent identical diff requests
  collapse into one upstream call (and the worker's own single-flight
  collapses whatever still races through, so K cold identical requests
  cost exactly one DP cluster-wide).
* ``GET/PUT /runs/{name}`` and ``POST /prov/import?name=`` → the worker
  owning :func:`~repro.cluster.shard.shard_for_name`.
* ``PUT /specs/{name}`` → broadcast to every worker (each memoises
  specifications and fingerprints in memory over the shared store).
* ``POST /matrix`` / ``POST /query`` → scatter-gather: every worker
  receives the request plus a ``shard: {index, count}`` body parameter
  and evaluates only its own pairs; the parent merges the shard results
  back into exact single-process listing order (and re-applies the
  query cursor/limit), so the merged response is bit-identical.
* ``GET /stats`` → scatter; integral counters sum, derived ratios are
  recomputed from the summed counters, and parent-level ``cluster_*``
  counters ride along (``source`` becomes ``"cluster"``).
* ``GET /metrics`` → scatter (JSON snapshots); every sample gains a
  ``worker="i"`` label and the parent renders the merged registry as
  Prometheus text or JSON.
* ``GET /healthz`` → worker 0's payload plus a ``cluster`` block with
  per-worker liveness, ports and restart counts.
* Everything else (spec/run listings, summaries, streams, 404s) →
  worker 0, verbatim.

A request that hits a crashed worker waits for the supervisor's
restart and retries once; if the shard stays down the client receives
a structured 503 (``ServiceUnavailableError``) — never a hung socket.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlencode

from repro.api_types import ErrorEnvelope, WIRE_VERSION, encode_cursor
from repro.cluster.shard import shard_for_name, shard_for_pair
from repro.cluster.singleflight import SingleFlight
from repro.cluster.supervisor import WorkerSupervisor
from repro.config import ReproConfig
from repro.errors import ReproError, ServiceUnavailableError
from repro.obs.logging import (
    configure_logging,
    current_request_id,
    get_logger,
    new_request_id,
)
from repro.obs.metrics import _format_value, _label_key, _render_labels
from repro.service.app import (
    JSON_TYPE,
    PROMETHEUS_TYPE,
    REQUEST_ID_HEADER,
    HttpRequest,
    HttpResponse,
    _package_version,
    wants_json_metrics,
)

__all__ = ["ClusterServer", "serve_cluster"]

logger = get_logger("cluster.server")

#: Seconds the parent waits on one worker round trip.  Generous: a
#: cold all-pairs matrix on a large corpus is one upstream request.
PROXY_TIMEOUT = 600.0

#: Seconds to wait for a crashed worker's restart before giving up.
RESTART_WAIT = 15.0

#: Response headers the parent relays from a worker verbatim.
_RELAY_HEADERS = ("ETag", "Cache-Control", REQUEST_ID_HEADER)

#: Request headers never forwarded upstream (hop-by-hop / transport).
_HOP_HEADERS = frozenset(
    {"host", "connection", "content-length", "keep-alive"}
)


def _error_response(envelope: ErrorEnvelope) -> HttpResponse:
    return HttpResponse.json(envelope.to_dict(), status=envelope.status)


class _ClusterApp:
    """The parent's request handler: routes, scatters, merges.

    Duck-types the :class:`~repro.service.app.WorkspaceApp` surface the
    stdlib transport (``_make_handler``) drives — ``begin_request`` /
    ``end_request`` / ``in_flight`` / ``handle`` / ``reject`` — so the
    cluster parent reuses the exact request-framing, body-limit and
    access-log behaviour of the single-process server.
    """

    def __init__(self, server: "ClusterServer"):
        self.server = server
        self.requests = 0
        self.errors = 0
        self.not_modified = 0
        self.coalesced = 0
        self.proxied = 0
        self._in_flight = 0
        self._counter_lock = threading.Lock()
        self._flights = SingleFlight()

    # -- transport surface ----------------------------------------------
    def begin_request(self) -> None:
        with self._counter_lock:
            self._in_flight += 1

    def end_request(self) -> None:
        with self._counter_lock:
            self._in_flight -= 1

    def in_flight(self) -> int:
        with self._counter_lock:
            return self._in_flight

    def handle(self, request: HttpRequest) -> HttpResponse:
        request_id = (
            request.header(REQUEST_ID_HEADER).strip() or new_request_id()
        )
        with self._counter_lock:
            self.requests += 1
        try:
            response = self._route(request)
        except ReproError as exc:
            with self._counter_lock:
                self.errors += 1
            response = _error_response(
                ErrorEnvelope.from_exception(exc, request_id=request_id)
            )
        except Exception as exc:  # pragma: no cover - defensive
            with self._counter_lock:
                self.errors += 1
            response = _error_response(
                ErrorEnvelope.from_exception(exc, request_id=request_id)
            )
        if response.status == 304:
            with self._counter_lock:
                self.not_modified += 1
        response.headers.setdefault(REQUEST_ID_HEADER, request_id)
        return response

    def reject(
        self, exc: ReproError, method: str, path: str
    ) -> HttpResponse:
        """Transport-level refusal (oversized body, bad framing)."""
        request_id = new_request_id()
        with self._counter_lock:
            self.requests += 1
            self.errors += 1
        response = _error_response(
            ErrorEnvelope.from_exception(exc, request_id=request_id)
        )
        response.headers.setdefault(REQUEST_ID_HEADER, request_id)
        return response

    def abort_inflight(self, error: BaseException) -> int:
        """Fail every coalesced waiter (graceful drain)."""
        return self._flights.abort(error)

    # -- routing ---------------------------------------------------------
    def _route(self, request: HttpRequest) -> HttpResponse:
        parts = request.segments
        method = request.method.upper()
        count = self.server.count
        if parts == ["healthz"] and method == "GET":
            return self._healthz(request)
        if parts == ["stats"] and method == "GET":
            return self._stats(request)
        if parts == ["metrics"] and method == "GET":
            return self._metrics(request)
        if len(parts) == 3 and parts[0] == "diff" and method == "GET":
            return self._diff(request, parts[1], parts[2])
        if len(parts) == 2 and parts[0] == "specs" and method == "PUT":
            return self._broadcast(request)
        if len(parts) == 2 and parts[0] == "runs":
            return self._forward(
                shard_for_name(parts[1], count), request
            )
        if parts == ["prov", "import"] and method == "POST":
            name = request.query.get("name", "")
            worker = shard_for_name(name, count) if name else 0
            return self._forward(worker, request)
        if parts == ["matrix"] and method == "POST":
            return self._matrix(request)
        if parts == ["query"] and method == "POST":
            return self._query(request)
        # Everything else — spec/run listings, summaries, streaming,
        # unknown routes — is answered by worker 0 verbatim, envelope
        # and all.  (Streaming ingestion is deliberately unsharded:
        # session sequencing state lives in one hub.)
        return self._forward(0, request)

    # -- proxy plumbing ---------------------------------------------------
    def _forward(
        self,
        worker: int,
        request: HttpRequest,
        body: Optional[bytes] = None,
        retry: bool = True,
    ) -> HttpResponse:
        """One upstream round trip to ``worker``; retries one restart.

        A connection-level failure (worker crashed mid-request or the
        socket refused) waits for the supervisor to swap in a fresh
        incarnation, then retries *once*.  HTTP-level errors are not
        failures here — the worker's envelope is relayed verbatim.
        """
        with self._counter_lock:
            self.proxied += 1
        try:
            return self._roundtrip(worker, request, body)
        except (urllib.error.URLError, ConnectionError, OSError):
            if not retry:
                raise ServiceUnavailableError(
                    f"cluster worker {worker} is unavailable"
                ) from None
        self.server.wait_for_worker(worker)
        try:
            return self._roundtrip(worker, request, body)
        except (urllib.error.URLError, ConnectionError, OSError):
            raise ServiceUnavailableError(
                f"cluster worker {worker} is unavailable"
            ) from None

    def _roundtrip(
        self,
        worker: int,
        request: HttpRequest,
        body: Optional[bytes],
    ) -> HttpResponse:
        port = self.server.supervisor.port_of(worker)
        url = f"http://{self.server.worker_host}:{port}{request.path}"
        if request.query:
            url += "?" + urlencode(request.query)
        headers = {
            name: value
            for name, value in request.headers.items()
            if name not in _HOP_HEADERS
        }
        payload = body if body is not None else (request.body or None)
        upstream = urllib.request.Request(
            url,
            data=payload,
            method=request.method.upper(),
            headers=headers,
        )
        try:
            with urllib.request.urlopen(
                upstream, timeout=PROXY_TIMEOUT
            ) as response:
                return self._relay(
                    response.status,
                    dict(response.headers),
                    response.read(),
                )
        except urllib.error.HTTPError as exc:
            # Structured worker errors (404/409/413/...) and 304s are
            # answers, not transport failures: relay them untouched.
            return self._relay(exc.code, dict(exc.headers), exc.read())

    @staticmethod
    def _relay(
        status: int, headers: Dict[str, str], body: bytes
    ) -> HttpResponse:
        lowered = {
            name.lower(): value for name, value in headers.items()
        }
        relayed = {
            name: lowered[name.lower()]
            for name in _RELAY_HEADERS
            if name.lower() in lowered
        }
        return HttpResponse(
            status=status,
            body=body,
            content_type=lowered.get("content-type", JSON_TYPE),
            headers=relayed,
        )

    def _scatter(
        self,
        request: HttpRequest,
        bodies: Optional[List[Optional[bytes]]] = None,
    ) -> List[HttpResponse]:
        """The same request to every worker, concurrently."""
        count = self.server.count
        bodies = bodies if bodies is not None else [None] * count
        if count == 1:
            return [self._forward(0, request, body=bodies[0])]
        with ThreadPoolExecutor(max_workers=count) as pool:
            futures = [
                pool.submit(self._forward, i, request, bodies[i])
                for i in range(count)
            ]
            return [future.result() for future in futures]

    @staticmethod
    def _first_failure(
        responses: List[HttpResponse],
    ) -> Optional[HttpResponse]:
        for response in responses:
            if response.status != 200:
                return response
        return None

    # -- coalesced diff reads ---------------------------------------------
    def _diff(
        self, request: HttpRequest, run_a: str, run_b: str
    ) -> HttpResponse:
        worker = shard_for_pair(run_a, run_b, self.server.count)
        # Identical concurrent requests share one upstream round trip.
        # The key is everything that can change the response: path,
        # query (spec/cost), revalidation state, and the caller's
        # correlation ID (a coalesced response echoes its leader's).
        key = (
            request.path,
            tuple(sorted(request.query.items())),
            request.header("if-none-match"),
            request.header(REQUEST_ID_HEADER),
        )
        leader, flight = self._flights.begin(key)
        if not leader:
            with self._counter_lock:
                self.coalesced += 1
            shared = flight.result()
            # Followers get a copy: handle() mutates response headers.
            return HttpResponse(
                status=shared.status,
                body=shared.body,
                content_type=shared.content_type,
                headers=dict(shared.headers),
            )
        try:
            response = self._forward(worker, request)
        except BaseException as exc:
            self._flights.finish(flight, error=exc)
            raise
        self._flights.finish(flight, value=response)
        return response

    # -- broadcast writes --------------------------------------------------
    def _broadcast(self, request: HttpRequest) -> HttpResponse:
        """``PUT /specs/{name}``: every worker registers the spec."""
        responses = self._scatter(request)
        failure = self._first_failure(responses)
        return failure if failure is not None else responses[0]

    # -- scatter-gather: matrix -------------------------------------------
    def _matrix(self, request: HttpRequest) -> HttpResponse:
        body = request.json_body()
        if not isinstance(body, dict):
            raise ReproError("matrix request body must be an object")
        if "shard" in body:
            # A caller doing its own sharding talks to one worker.
            return self._forward(0, request)
        count = self.server.count
        bodies = [
            json.dumps(
                {**body, "shard": {"index": i, "count": count}}
            ).encode("utf8")
            for i in range(count)
        ]
        responses = self._scatter(request, bodies)
        failure = self._first_failure(responses)
        if failure is not None:
            return failure
        payloads = [r.json_payload() for r in responses]
        position = {
            name: i for i, name in enumerate(payloads[0]["runs"])
        }
        triples = [
            triple
            for payload in payloads
            for triple in payload["distances"]
        ]
        triples.sort(
            key=lambda t: (position[t[0]], position[t[1]])
        )
        merged = dict(payloads[0])
        merged["distances"] = triples
        return HttpResponse.json(merged)

    # -- scatter-gather: query --------------------------------------------
    def _query(self, request: HttpRequest) -> HttpResponse:
        body = request.json_body()
        if not isinstance(body, dict):
            raise ReproError("query request body must be an object")
        if "shard" in body:
            return self._forward(0, request)
        limit = body.get("limit")
        if limit is not None:
            if isinstance(limit, bool) or not isinstance(limit, int):
                raise ReproError(
                    f"query 'limit' must be an integer, got {limit!r}"
                )
            if limit < 0:
                raise ReproError(f"limit must be >= 0, got {limit}")
        cursor = body.get("cursor")
        if cursor is not None and not isinstance(cursor, str):
            raise ReproError(
                f"query 'cursor' must be a string, got {cursor!r}"
            )
        offset = _decode_cursor(cursor)
        count = self.server.count
        # Workers evaluate their whole shard (no cursor, no limit);
        # pagination is re-applied on the merged, re-ordered stream.
        worker_body = {
            key: value
            for key, value in body.items()
            if key not in ("limit", "cursor")
        }
        bodies = [
            json.dumps(
                {**worker_body, "shard": {"index": i, "count": count}}
            ).encode("utf8")
            for i in range(count)
        ]
        responses = self._scatter(request, bodies)
        failure = self._first_failure(responses)
        if failure is not None:
            return failure
        payloads = [r.json_payload() for r in responses]
        position = self._pair_positions(body, payloads[0]["spec"])
        items = [
            item
            for payload in payloads
            for item in payload["items"]
        ]
        items.sort(
            key=lambda item: (
                position[item["run_a"]], position[item["run_b"]]
            )
        )
        total = sum(payload["total_matches"] for payload in payloads)
        end = len(items) if limit is None else min(
            offset + limit, len(items)
        )
        merged = dict(payloads[0])
        merged["total_matches"] = total
        merged["items"] = items[offset:end]
        merged["cursor"] = cursor
        merged["next_cursor"] = (
            encode_cursor(end) if end < total else None
        )
        return HttpResponse.json(merged)

    def _pair_positions(
        self, body: dict, spec_name: str
    ) -> Dict[str, int]:
        """Run-name → listing position, for re-ordering merged items.

        Pair enumeration order over any run subset is the
        lexicographic order of (first, second) listing positions;
        restricting to a subsequence preserves those comparisons, so
        positions in the *full* listing sort a merged shard stream
        into exact single-process order.  An explicit ``runs`` body
        parameter defines its own order and is used verbatim.
        """
        explicit = body.get("runs")
        if isinstance(explicit, list):
            return {str(name): i for i, name in enumerate(explicit)}
        listing = self._forward(
            0,
            HttpRequest(
                method="GET", path="/runs",
                query={"spec": spec_name},
            ),
        )
        if listing.status != 200:
            raise ReproError(
                "cluster could not list runs to merge query results"
            )
        names = listing.json_payload()["runs"]
        return {name: i for i, name in enumerate(names)}

    # -- aggregated health -------------------------------------------------
    def _healthz(self, request: HttpRequest) -> HttpResponse:
        supervisor = self.server.supervisor
        statuses = supervisor.statuses()
        alive = sum(1 for status in statuses if status["alive"])
        try:
            base = self._forward(0, request, retry=False)
            payload = (
                base.json_payload() if base.status == 200 else {}
            )
        except (ReproError, ValueError):
            payload = {}
        payload.setdefault("version", _package_version())
        payload.setdefault("wire_version", WIRE_VERSION)
        payload.setdefault("specifications", 0)
        payload["status"] = (
            "ok" if alive == self.server.count else "degraded"
        )
        payload["cluster"] = {
            "workers": self.server.count,
            "alive": alive,
            "restarts": supervisor.total_restarts(),
            "members": statuses,
        }
        return HttpResponse.json(
            payload,
            status=200 if alive else 503,
        )

    # -- aggregated stats --------------------------------------------------
    def _stats(self, request: HttpRequest) -> HttpResponse:
        responses = self._scatter(request)
        failure = self._first_failure(responses)
        if failure is not None:
            return failure
        payloads = [r.json_payload() for r in responses]
        counters: Dict[str, int] = {}
        for payload in payloads:
            for name, value in payload["counters"].items():
                counters[name] = counters.get(name, 0) + int(value)
        with self._counter_lock:
            counters["cluster_requests"] = self.requests
            counters["cluster_coalesced"] = self.coalesced
            counters["cluster_proxied"] = self.proxied
            counters["cluster_in_flight"] = self._in_flight
        counters["cluster_workers"] = self.server.count
        counters["cluster_worker_restarts"] = (
            self.server.supervisor.total_restarts()
        )
        merged = dict(payloads[0])
        merged["source"] = "cluster"
        merged["counters"] = counters
        merged["derived"] = self._derive(counters, payloads)
        return HttpResponse.json(merged)

    @staticmethod
    def _derive(
        counters: Dict[str, int], payloads: List[dict]
    ) -> Dict[str, float]:
        """Cluster-wide derived stats, from the *summed* counters.

        Ratios recompute from summed numerators and denominators (a
        mean of per-worker ratios would weight idle workers equally
        with busy ones); ``lock_wait_seconds`` is additive and sums.
        """

        def ratio(hits: int, lookups: int) -> float:
            return hits / lookups if lookups else 0.0

        lookups = (
            counters.get("memory_hits", 0)
            + counters.get("disk_hits", 0)
            + counters.get("misses", 0)
        )
        script_hits = (
            counters.get("script_memory_hits", 0)
            + counters.get("script_disk_hits", 0)
        )
        script_lookups = script_hits + counters.get("script_misses", 0)
        return {
            "memory_hit_ratio": ratio(
                counters.get("memory_hits", 0), lookups
            ),
            "disk_hit_ratio": ratio(
                counters.get("disk_hits", 0), lookups
            ),
            "script_hit_ratio": ratio(script_hits, script_lookups),
            "lock_wait_seconds": sum(
                float(p.get("derived", {}).get("lock_wait_seconds", 0.0))
                for p in payloads
            ),
        }

    # -- aggregated metrics ------------------------------------------------
    def _metrics(self, request: HttpRequest) -> HttpResponse:
        wants_json = wants_json_metrics(request)
        scatter_request = HttpRequest(
            method="GET",
            path="/metrics",
            query={"format": "json"},
            headers=dict(request.headers),
        )
        responses = self._scatter(scatter_request)
        failure = self._first_failure(responses)
        if failure is not None:
            return failure
        merged: Dict[str, dict] = {}
        for index, response in enumerate(responses):
            snapshot = response.json_payload()["metrics"]
            for name, info in snapshot.items():
                entry = merged.setdefault(
                    name,
                    {
                        "type": info["type"],
                        "help": info["help"],
                        "samples": [],
                    },
                )
                for sample in info["samples"]:
                    labelled = dict(sample)
                    labelled["labels"] = {
                        **sample.get("labels", {}),
                        "worker": str(index),
                    }
                    entry["samples"].append(labelled)
        self._parent_metrics(merged)
        if wants_json:
            return HttpResponse.json(
                {"v": WIRE_VERSION, "metrics": merged}
            )
        return HttpResponse.text(
            _render_merged(merged), PROMETHEUS_TYPE
        )

    def _parent_metrics(self, merged: Dict[str, dict]) -> None:
        """The parent's own families, alongside the worker scrape."""
        with self._counter_lock:
            own = [
                ("cluster_workers", "gauge",
                 "Worker processes in the serving cluster.",
                 float(self.server.count)),
                ("cluster_worker_restarts_total", "counter",
                 "Worker processes restarted after a crash.",
                 float(self.server.supervisor.total_restarts())),
                ("cluster_proxied_requests_total", "counter",
                 "Requests the routing parent forwarded upstream.",
                 float(self.proxied)),
                ("cluster_coalesced_requests_total", "counter",
                 "Diff requests answered from a coalesced in-flight "
                 "round trip.",
                 float(self.coalesced)),
            ]
        for name, kind, help_text, value in own:
            merged[name] = {
                "type": kind,
                "help": help_text,
                "samples": [{"labels": {}, "value": value}],
            }


def _decode_cursor(cursor: Optional[str]) -> int:
    from repro.api_types import decode_cursor

    return decode_cursor(cursor)


def _render_merged(merged: Dict[str, dict]) -> str:
    """Prometheus text exposition 0.0.4 for a merged JSON snapshot.

    Mirrors :meth:`repro.obs.metrics.MetricsRegistry.render_prometheus`
    sample-for-sample, with the injected ``worker`` labels in place.
    """
    lines: List[str] = []
    for name in sorted(merged):
        entry = merged[name]
        lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {entry['type']}")
        for sample in entry["samples"]:
            key = _label_key(sample.get("labels", {}))
            if entry["type"] == "histogram":
                for bound, cumulative in sample["buckets"].items():
                    lines.append(
                        f"{name}_bucket"
                        f"{_render_labels(key, [('le', bound)])}"
                        f" {cumulative}"
                    )
                lines.append(
                    f"{name}_sum{_render_labels(key)} "
                    f"{_format_value(sample['sum'])}"
                )
                lines.append(
                    f"{name}_count{_render_labels(key)} "
                    f"{sample['count']}"
                )
            else:
                lines.append(
                    f"{name}{_render_labels(key)} "
                    f"{_format_value(sample['value'])}"
                )
    return "\n".join(lines) + "\n"


class ClusterServer:
    """``N`` sharded worker processes behind one routing socket.

    Drives exactly like :class:`~repro.service.server.DiffServer` —
    ``serve_forever()`` for the CLI, ``with ClusterServer(...) as s:``
    for tests — and speaks the same wire surface on :attr:`url`.
    """

    def __init__(
        self,
        root,
        config: Optional[ReproConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: Optional[int] = None,
    ):
        from http.server import ThreadingHTTPServer

        from repro.service.server import _make_handler

        self.config = config or ReproConfig()
        count = workers if workers is not None else self.config.workers
        if count < 1:
            raise ReproError(
                f"a cluster needs at least 1 worker, got {count}"
            )
        if not isinstance(self.config.backend, str):
            raise ReproError(
                "cluster serving requires the backend by name "
                "(a live ExecutorBackend instance cannot cross the "
                "worker process boundary)"
            )
        self.count = count
        self.worker_host = host if host != "0.0.0.0" else "127.0.0.1"
        configure_logging(
            level=self.config.log_level,
            format=self.config.log_format,
        )
        self.supervisor = WorkerSupervisor(
            root, self.config, count, host=self.worker_host
        )
        self.app = _ClusterApp(self)
        self.httpd = ThreadingHTTPServer(
            (host, port),
            _make_handler(self.app, self.config.max_body_bytes),
        )
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        self._stop_lock = threading.Lock()
        self._stopped = False
        self._workers_started = False

    # -- address -----------------------------------------------------------
    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- worker coordination ----------------------------------------------
    def _ensure_workers(self) -> None:
        if not self._workers_started:
            self.supervisor.start()
            self._workers_started = True

    def wait_for_worker(self, index: int) -> None:
        """Block (bounded) until shard ``index``'s worker looks alive."""
        deadline = time.monotonic() + RESTART_WAIT
        while time.monotonic() < deadline:
            statuses = self.supervisor.statuses()
            if any(
                s["index"] == index and s["alive"] for s in statuses
            ):
                return
            time.sleep(0.1)

    # -- lifecycle ---------------------------------------------------------
    def serve_forever(self) -> None:
        """Spawn workers and serve on the calling thread (blocking)."""
        self._ensure_workers()
        logger.info(
            "cluster serving %s with %d workers",
            self.url, self.count,
            extra={
                "host": self.host,
                "port": self.port,
                "workers": self.count,
            },
        )
        self.httpd.serve_forever()

    def start(self) -> "ClusterServer":
        """Spawn workers and serve on a background thread."""
        self._ensure_workers()
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.httpd.serve_forever,
                name=f"repro-cluster-server:{self.port}",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self, drain_timeout: float = 10.0) -> None:
        """Drain the parent, abort coalesced waiters, stop workers."""
        with self._stop_lock:
            if self._stopped:
                return
            self._stopped = True
        self.httpd.shutdown()
        deadline = time.monotonic() + max(0.0, drain_timeout)
        while (
            self.app.in_flight() > 0 and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        aborted = self.app.abort_inflight(
            ServiceUnavailableError(
                "cluster is shutting down; retry against a healthy "
                "instance"
            )
        )
        if aborted:
            logger.warning(
                "drain: aborted %d coalesced flight(s) with 503",
                aborted,
                extra={"aborted_flights": aborted},
            )
        self.supervisor.stop(drain_timeout=drain_timeout)
        logger.info(
            "cluster stopped",
            extra={
                "requests": self.app.requests,
                "errors": self.app.errors,
                "proxied": self.app.proxied,
                "coalesced": self.app.coalesced,
            },
        )
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "ClusterServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_cluster(
    root,
    config: Optional[ReproConfig] = None,
    host: str = "127.0.0.1",
    port: int = 8321,
    workers: Optional[int] = None,
) -> None:
    """Blocking convenience, the ``repro serve --workers N`` body."""
    ClusterServer(
        root, config, host=host, port=port, workers=workers
    ).serve_forever()
