"""The sharded multi-process cluster front: ``repro serve --workers N``.

A :class:`ClusterServer` is a routing parent over ``N`` pre-forked
worker processes (see :mod:`repro.cluster.worker`), each an ordinary
single-process diff server over the shared store.  The parent binds the
public socket and speaks the *same wire surface* as a single
:class:`~repro.service.server.DiffServer` — every endpoint, envelope,
header and byte — so clients (and the conformance suite) cannot tell
the difference.

Every request has one owner, except the two cluster-wide reads that
must visit each worker:

* ``GET /diff/{a}/{b}`` → the worker owning
  :func:`~repro.cluster.shard.shard_for_pair` ``(a, b)``.  Every
  request for one run pair reaches one worker, whose service coalesces
  identical cold computations, so K concurrent identical cold requests
  cost exactly one DP cluster-wide; the parent forwards each of them.
* ``GET/PUT /runs/{name}`` and ``POST /prov/import?name=`` → the worker
  owning :func:`~repro.cluster.shard.shard_for_name`.
* ``GET /stats`` → every worker; integral counters sum, derived ratios
  are recomputed from the summed counters, and parent-level
  ``cluster_*`` counters ride along (``source`` becomes ``"cluster"``).
* ``GET /metrics`` → every worker (JSON snapshots); every sample gains
  a ``worker="i"`` label, the parent's own registry joins the merge,
  and the merged snapshot renders as Prometheus text or JSON.
* ``GET /healthz`` → worker 0's payload plus a ``cluster`` block with
  per-worker liveness, ports and restart counts.
* Everything else (``POST /matrix``, ``POST /query``,
  ``PUT /specs/{name}``, spec/run listings, summaries, streams, 404s)
  → worker 0, verbatim.  A family's matrix or query page is one job:
  one serial batch shares DP cells that a split across workers would
  lose.  A registration needs telling no other worker: every worker
  resolves a specification from its stored file, and sees the new
  content at its next request.

The parent reaches each worker through one pool of persistent HTTP/1.1
connections (:class:`~repro.transport.ConnectionPool`), replaced when
the worker is.  A request that hits a crashed worker waits for the
supervisor's restart and retries once; if the shard stays down the
client receives a structured 503 (``ServiceUnavailableError``) — never
a hung socket.

Everything but routing and the ``/stats``/``/metrics`` merge is the
single process's own code: its request frame, HTTP host, exposition
renderer and stats derivation.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlencode

from repro.api_types import WIRE_VERSION, derive_stats
from repro.cluster.shard import shard_for_name, shard_for_pair
from repro.cluster.supervisor import WorkerHandle, WorkerSupervisor
from repro.config import ReproConfig
from repro.errors import ReproError, ServiceUnavailableError
from repro.obs.metrics import MetricsRegistry, render_exposition
from repro.service.app import (
    JSON_TYPE,
    PROMETHEUS_TYPE,
    REQUEST_ID_HEADER,
    HttpRequest,
    HttpResponse,
    RequestFrame,
    _package_version,
    wants_json_metrics,
)
from repro.service.server import HttpHost
from repro.transport import (
    IDEMPOTENT_METHODS,
    TRANSPORT_ERRORS,
    ConnectionPool,
)

__all__ = ["ClusterServer"]

#: Seconds the parent waits on one worker round trip.  Generous: a
#: cold all-pairs matrix on a large corpus is one upstream request.
PROXY_TIMEOUT = 600.0

#: Seconds to wait for a crashed worker's restart before giving up.
RESTART_WAIT = 15.0

#: Response headers the parent relays from a worker verbatim.
_RELAY_HEADERS = ("ETag", "Cache-Control", REQUEST_ID_HEADER)

#: Request headers never forwarded upstream: hop-by-hop (RFC 9110
#: section 7.6.1) or framing.  The parent has decoded the body, and
#: its pool sends it with its own ``Content-Length``.
_HOP_HEADERS = frozenset(
    {
        "host", "connection", "content-length", "keep-alive",
        "transfer-encoding", "te", "trailer", "upgrade",
        "proxy-connection",
    }
)


def _upstream_headers(headers: Dict[str, str]) -> Dict[str, str]:
    """A request's end-to-end headers (``headers`` keys lower-cased):
    every hop-by-hop header goes, and so does each one its
    ``Connection`` header names."""
    named = {
        token.strip() for token in headers.get("connection", "").split(",")
    }
    return {
        name: value
        for name, value in headers.items()
        if name not in _HOP_HEADERS and name not in named
    }


class _ClusterApp(RequestFrame):
    """The parent's request handler: routes and merges scrapes.

    Runs in the single process's :class:`~repro.service.app.RequestFrame`
    over the parent's own registry, with metric prefix ``cluster``.
    """

    def __init__(self, server: "ClusterServer"):
        self.metrics = MetricsRegistry(enabled=server.config.metrics)
        super().__init__(self.metrics, "cluster")
        self.server = server
        self.proxied = 0
        # One pool of persistent connections per worker incarnation:
        # shard index -> (incarnation, pool).
        self._pools: Dict[int, Tuple[WorkerHandle, ConnectionPool]] = {}
        self._pools_lock = threading.Lock()
        self.metrics.gauge(
            "cluster_workers", "Worker processes in the serving cluster."
        ).set_function(lambda: server.count)
        self.metrics.counter(
            "cluster_worker_restarts_total",
            "Worker processes restarted after a crash.",
        ).set_function(server.supervisor.total_restarts)
        self.metrics.counter(
            "cluster_proxied_requests_total",
            "Requests the routing parent forwarded upstream.",
        ).set_function(lambda: self.proxied)

    def handle(self, request: HttpRequest) -> HttpResponse:
        """Route one request through the frame."""
        return self._framed(request)

    def close_pools(self) -> None:
        """Close every upstream connection (the parent has drained)."""
        with self._pools_lock:
            pools, self._pools = self._pools, {}
        for _, pool in pools.values():
            pool.close()

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
            return self._forward(
                shard_for_pair(parts[1], parts[2], count), request
            )
        if len(parts) == 2 and parts[0] == "runs":
            return self._forward(
                shard_for_name(parts[1], count), request
            )
        if parts == ["prov", "import"] and method == "POST":
            name = request.query.get("name", "")
            worker = shard_for_name(name, count) if name else 0
            return self._forward(worker, request)
        # Everything else — matrices, queries, spec registrations and
        # listings, run listings, summaries, streaming, unknown routes
        # — is answered by worker 0 verbatim, envelope and all.  A
        # family's matrix or query page is one job, and one serial
        # batch shares DP cells that a split would lose; stream
        # sessions keep their sequencing state in one hub.
        return self._forward(0, request)

    # -- proxy plumbing ---------------------------------------------------
    def _forward(
        self, worker: int, request: HttpRequest, retry: bool = True
    ) -> HttpResponse:
        """One upstream round trip to ``worker``; retries one restart.

        A connection-level failure (worker crashed mid-request or the
        socket refused) waits for the supervisor to swap in a fresh
        incarnation, then retries *once*.  HTTP-level errors are not
        failures here — the worker's envelope is relayed verbatim.
        """
        with self._counter_lock:
            self.proxied += 1
        for attempt in range(2 if retry else 1):
            if attempt:
                self.server.wait_for_worker(worker)
            try:
                return self._roundtrip(worker, request)
            except TRANSPORT_ERRORS:
                pass
        raise ServiceUnavailableError(
            f"cluster worker {worker} is unavailable"
        )

    def _pool(self, worker: int) -> ConnectionPool:
        """The pool of ``worker``'s current incarnation.

        A restarted worker gets a new pool; the old one is closed, so
        no request rides a connection to a process that is gone.
        """
        incarnation = self.server.supervisor.incarnation(worker)
        with self._pools_lock:
            current = self._pools.get(worker)
            if current is not None and current[0] is incarnation:
                return current[1]
            pool = ConnectionPool(
                self.server.worker_host, incarnation.port, PROXY_TIMEOUT
            )
            self._pools[worker] = (incarnation, pool)
        if current is not None:
            current[1].close()
        return pool

    def _roundtrip(
        self, worker: int, request: HttpRequest
    ) -> HttpResponse:
        target = request.path
        if request.query:
            target += "?" + urlencode(request.query)
        method = request.method.upper()
        # Structured worker errors (404/409/413/...) and 304s are
        # answers, not transport failures: relay them untouched.
        return self._relay(
            *self._pool(worker).request(
                method,
                target,
                request.body or None,
                _upstream_headers(request.headers),
                resend=method in IDEMPOTENT_METHODS,
            )
        )

    @staticmethod
    def _relay(status: int, headers, body: bytes) -> HttpResponse:
        """A worker's answer (``headers``: its case-insensitive header
        message) as the parent's response."""
        return HttpResponse(
            status=status,
            body=body,
            content_type=headers.get("Content-Type", JSON_TYPE),
            headers={
                name: headers[name]
                for name in _RELAY_HEADERS
                if name in headers
            },
        )

    def _gather(
        self, request: HttpRequest
    ) -> Tuple[Optional[HttpResponse], List[dict]]:
        """Send ``request`` to every worker, one after another, and
        decode each JSON payload (``/stats`` and ``/metrics`` only).

        Returns ``(failure, payloads)``: the first non-200 worker
        response (relayed verbatim) and no payloads, or ``None`` and
        one payload per worker, in shard order.
        """
        responses = [
            self._forward(i, request) for i in range(self.server.count)
        ]
        for response in responses:
            if response.status != 200:
                return response, []
        return None, [response.json_payload() for response in responses]

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
        failure, payloads = self._gather(request)
        if failure is not None:
            return failure
        counters: Dict[str, int] = {}
        for payload in payloads:
            for name, value in payload["counters"].items():
                counters[name] = counters.get(name, 0) + int(value)
        counters.update(self.frame_counters())
        counters["cluster_proxied"] = self.proxied
        counters["cluster_workers"] = self.server.count
        counters["cluster_worker_restarts"] = (
            self.server.supervisor.total_restarts()
        )
        # Lock waits are additive: the cluster's is the workers' sum.
        lock_wait = sum(
            float(p.get("derived", {}).get("lock_wait_seconds", 0.0))
            for p in payloads
        )
        return HttpResponse.json(
            {
                **payloads[0],
                "source": "cluster",
                "counters": counters,
                "derived": derive_stats(counters, lock_wait),
            }
        )

    # -- aggregated metrics ------------------------------------------------
    def _metrics(self, request: HttpRequest) -> HttpResponse:
        wants_json = wants_json_metrics(request)
        failure, payloads = self._gather(
            HttpRequest(
                method="GET",
                path="/metrics",
                query={"format": "json"},
                headers=dict(request.headers),
            )
        )
        if failure is not None:
            return failure
        merged: Dict[str, dict] = {}
        for index, payload in enumerate(payloads):
            for name, family in payload["metrics"].items():
                merged.setdefault(
                    name,
                    {"type": family["type"], "help": family["help"],
                     "samples": []},
                )["samples"].extend(
                    {**sample,
                     "labels": {**sample["labels"], "worker": str(index)}}
                    for sample in family["samples"]
                )
        merged.update(self.metrics.snapshot())
        if wants_json:
            return HttpResponse.json(
                {"v": WIRE_VERSION, "metrics": merged}
            )
        return HttpResponse.text(
            render_exposition(merged), PROMETHEUS_TYPE
        )


class ClusterServer(HttpHost):
    """``N`` sharded worker processes behind one routing socket.

    The :class:`~repro.service.server.HttpHost` lifecycle of a
    :class:`~repro.service.server.DiffServer`, and its wire surface on
    :attr:`url`; the workers start before the first accept and stop
    once the parent has drained.
    """

    def __init__(
        self,
        root,
        config: Optional[ReproConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: Optional[int] = None,
    ):
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
        self.supervisor = WorkerSupervisor(
            root, self.config, count, host=self.worker_host
        )
        super().__init__(_ClusterApp(self), self.config, host, port)

    def _before_serving(self) -> None:
        self.supervisor.start()

    def _after_drain(self, drain_timeout: float) -> None:
        self.app.close_pools()
        self.supervisor.stop(drain_timeout=drain_timeout)

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
