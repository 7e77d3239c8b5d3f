"""The diff service's request router: resource routes over a workspace.

Framework-free by design: an :class:`HttpRequest` goes in, an
:class:`HttpResponse` comes out, and the stdlib server in
:mod:`repro.service.server` (or any test) drives the app without a
socket.  Routes mirror the :class:`~repro.api_types.WorkspaceAPI`
surface:

========  ==========================  =====================================
method    path                        meaning
========  ==========================  =====================================
GET       ``/healthz``                liveness + version
GET       ``/stats``                  service counters (StatsSnapshot)
GET       ``/specs``                  list specification names
GET       ``/specs/{name}``           spec summary (XML via ``Accept``)
PUT       ``/specs/{name}``           register a specification (XML body)
GET       ``/runs?spec=``             list run names of a specification
GET       ``/runs/{name}?spec=``      run summary (PROV-JSON via ``Accept``)
PUT       ``/runs/{name}?spec=``      import a run (PROV-JSON body)
GET       ``/diff/{a}/{b}?spec&cost`` priced diff (DiffOutcome, ETag'd)
POST      ``/matrix``                 all-pairs distances (MatrixResult)
POST      ``/query``                  paged query (QueryFilter → QueryPage)
POST      ``/prov/import``            ingest a PROV document (ImportSummary)
POST      ``/stream/events``          streaming ingestion batch (StreamAck)
GET       ``/stream/live``            open streaming sessions (LiveStatus)
========  ==========================  =====================================

Path segments are percent-decoded, so names containing ``/`` and other
reserved characters round-trip.  Content negotiation: ``GET /runs/{n}``
returns PROV-JSON when the ``Accept`` header asks for
``application/prov+json``, ``GET /specs/{n}`` returns the catalog XML
for ``application/xml``.

Diff reads are **ETag-revalidated against the corpus fingerprint
index**: the tag digests ``(fingerprint_a, fingerprint_b, cost key)``,
so a client's ``If-None-Match`` costs the server two index ``stat``
calls — no XML parse, no DP, no directory listing — and a ``304 Not
Modified`` round trip when the runs are unchanged.  Misses are answered
from the persistent script cache through the ordinary service path, so
repeated diff requests never recompute.

JSON bodies are compact with sorted keys (:meth:`HttpResponse.json`),
and the transport sends each response in one socket write.

Every failure leaves as a structured
:class:`~repro.api_types.ErrorEnvelope` (404 unknown run/spec, 409
conflicting specification, 400 malformed input, 500 with a generic
message — never a traceback).
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional
from urllib.parse import unquote

from repro import __version__
from repro.api_types import (
    ErrorEnvelope,
    ImportSummary,
    QueryFilter,
    WIRE_VERSION,
    decode_cursor,
)
from repro.corpus.fingerprint import cost_model_key, script_key
from repro.costs.standard import cost_from_spec
from repro.errors import NotFoundError, ReproError
from repro.io.xml_io import specification_from_xml, specification_to_xml
from repro.obs.logging import (
    bound_request_id,
    current_request_id,
    get_logger,
    new_request_id,
)
from repro.obs.metrics import MetricsRegistry
from repro.workspace import Workspace

#: Content types the service speaks.
JSON_TYPE = "application/json"
PROV_JSON_TYPE = "application/prov+json"
XML_TYPE = "application/xml"

#: Content type of the Prometheus text exposition face of ``/metrics``.
PROMETHEUS_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Content type of NDJSON event batches on ``POST /stream/events``.
NDJSON_TYPE = "application/x-ndjson"

#: Correlation header: honoured inbound, always present outbound.
REQUEST_ID_HEADER = "X-Request-Id"

logger = get_logger("service.app")


@dataclass
class HttpRequest:
    """One parsed HTTP request, transport-independent."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)  #: lower-cased keys
    body: bytes = b""

    def header(self, name: str, default: str = "") -> str:
        """A header value by case-insensitive name."""
        return self.headers.get(name.lower(), default)

    @property
    def segments(self) -> List[str]:
        """Percent-decoded, non-empty path segments."""
        return [
            unquote(part)
            for part in self.path.split("/")
            if part != ""
        ]

    def json_body(self) -> Any:
        """The request body parsed as JSON (``{}`` when empty).

        Raises :class:`ReproError` (→ 400) on malformed JSON.
        """
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ReproError(
                f"request body is not valid JSON: {exc}"
            ) from None


@dataclass
class HttpResponse:
    """One response: status, body, and headers to put on the wire."""

    status: int = 200
    body: bytes = b""
    content_type: str = JSON_TYPE
    headers: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(
        cls,
        payload: Any,
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> "HttpResponse":
        """A JSON response: compact, sorted keys, one trailing newline.

        Deterministic, so equal payloads are equal bytes (a cluster
        worker merges through here too, keeping its bodies identical to
        a single process's).  Compact on purpose: any ``indent`` routes
        ``json.dumps`` through CPython's pure-Python encoder, while
        compact separators keep the C encoder — a six-item query page
        encodes 4x faster, in about half the bytes.  Read a body with
        ``python -m json.tool`` when you want it indented.
        """
        return cls(
            status=status,
            body=(
                json.dumps(payload, sort_keys=True, separators=(",", ":"))
                + "\n"
            ).encode("utf8"),
            content_type=JSON_TYPE,
            headers=dict(headers or {}),
        )

    @classmethod
    def text(
        cls,
        text: str,
        content_type: str,
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> "HttpResponse":
        """A response carrying pre-serialised text of a given type."""
        return cls(
            status=status,
            body=text.encode("utf8"),
            content_type=content_type,
            headers=dict(headers or {}),
        )

    def json_payload(self) -> Any:
        """Decode the body as JSON (test convenience)."""
        return json.loads(self.body.decode("utf8"))


def _run_list(value, what: str) -> Optional[List[str]]:
    """Validate an optional ``runs`` body member: a list of names."""
    if value is None:
        return None
    if not isinstance(value, list) or not all(
        isinstance(name, str) for name in value
    ):
        raise ReproError(
            f"{what} 'runs' must be a list of run names"
        )
    return value


def wants_json_metrics(request: HttpRequest) -> bool:
    """Whether a ``/metrics`` request asks for the JSON rendering.

    ``?format=json`` (or, without ``format``, ``Accept:
    application/json``) selects JSON; ``prometheus`` and ``text`` select
    the text exposition.  Any other format raises :class:`ReproError`
    (a 400) — the one check a single process and a cluster worker
    share, so both answer a bad format byte-identically.
    """
    format_param = request.query.get("format", "").strip().lower()
    if format_param not in ("", "json", "prometheus", "text"):
        raise ReproError(
            f"unknown metrics format {format_param!r} "
            "(expected 'prometheus' or 'json')"
        )
    return format_param == "json" or (
        not format_param and JSON_TYPE in request.header("accept")
    )


def page_offset(body: dict) -> int:
    """Check a ``POST /query`` body's page parameters; the offset.

    ``limit`` must be a non-negative integer (not a bool) and
    ``cursor`` a string that decodes.  The app calls this before
    anything else reads the body, so a body with several faults
    reports this one first.
    """
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
    return decode_cursor(cursor)


def _error_response(envelope: ErrorEnvelope) -> HttpResponse:
    """The wire form of a structured error."""
    return HttpResponse.json(envelope.to_dict(), status=envelope.status)


def _status_error(message: str, status: int) -> HttpResponse:
    """A routing-level error (unknown route, wrong method, ...)."""
    return _error_response(
        ErrorEnvelope(
            type=(
                "NotFoundError" if status == 404 else "ReproError"
            ),
            message=message,
            status=status,
            request_id=current_request_id(),
        )
    )


class RequestFrame:
    """The request frame both HTTP apps run every request through.

    Per request it honours an inbound ``X-Request-Id`` (or mints one)
    and binds it, so the response, every log record and every error
    envelope carry it; counts requests, error envelopes, 304 answers
    and in-flight requests (``/stats``); turns a :class:`ReproError` —
    or any other exception, as a generic 500 — into an
    :class:`~repro.api_types.ErrorEnvelope`; and records the five
    request metric families.  :meth:`reject` does the same for a
    request the transport refused to read.

    Metric families and ``/stats`` keys are ``server_*``.  A subclass
    supplies ``_route`` (and ``abort_inflight`` if it coalesces
    computations), and defines ``handle`` in its own class body
    (``return self._framed(request)``), so tracers that wrap one
    class's ``handle`` never count a request twice.
    """

    def __init__(self, metrics: MetricsRegistry):
        #: Guarded by ``_counter_lock`` — the threading server drives
        #: one thread per request, and ``+= 1`` alone is not atomic.
        self.requests = 0
        self.not_modified = 0
        self.errors = 0
        self._in_flight = 0
        self._counter_lock = threading.Lock()
        self._requests_metric = metrics.counter(
            "server_requests_total",
            "HTTP requests handled, by route, method and status.",
        )
        self._latency_metric = metrics.histogram(
            "server_request_seconds",
            "HTTP request handling latency in seconds, by route.",
        )
        self._errors_metric = metrics.counter(
            "server_errors_total",
            "Requests that left as error envelopes, by error type.",
        )
        self._not_modified_metric = metrics.counter(
            "server_not_modified_total",
            "Diff reads answered by ETag revalidation (304).",
        )
        metrics.gauge(
            "server_in_flight",
            "Requests currently being handled.",
        ).set_function(self.in_flight)

    # -- in-flight accounting -------------------------------------------
    def begin_request(self) -> None:
        """Mark one request in flight (the transport calls this)."""
        with self._counter_lock:
            self._in_flight += 1

    def end_request(self) -> None:
        """The paired decrement — called after the response is written."""
        with self._counter_lock:
            self._in_flight -= 1

    def in_flight(self) -> int:
        """Requests currently between begin/end (drain watches this)."""
        with self._counter_lock:
            return self._in_flight

    def frame_counters(self) -> Dict[str, int]:
        """The frame's counters under their ``/stats`` names."""
        with self._counter_lock:
            return {
                "server_requests": self.requests,
                "server_not_modified": self.not_modified,
                "server_errors": self.errors,
                "server_in_flight": self._in_flight,
            }

    # -- the frame ------------------------------------------------------
    def _framed(self, request: HttpRequest) -> HttpResponse:
        """Route one request inside the frame (see the class doc)."""
        request_id = (
            request.header(REQUEST_ID_HEADER).strip() or new_request_id()
        )
        with bound_request_id(request_id):
            with self._counter_lock:
                self.requests += 1
            started = time.perf_counter()
            try:
                response = self._route(request)
            except ReproError as exc:
                response = self._error(exc, request_id)
            except Exception as exc:  # noqa: BLE001 - the request boundary
                # The 500 envelope names only the exception type, never
                # its message or traceback; the log keeps the traceback.
                logger.exception("unhandled error answering %s", request.path)
                response = self._error(exc, request_id)
            if response.status == 304:
                with self._counter_lock:
                    self.not_modified += 1
                self._not_modified_metric.inc()
            route = self._route_name(request)
            self._latency_metric.observe(
                time.perf_counter() - started, route=route
            )
            self._requests_metric.inc(
                route=route,
                method=request.method.upper(),
                status=str(response.status),
            )
        response.headers.setdefault(REQUEST_ID_HEADER, request_id)
        return response

    def _error(self, exc: BaseException, request_id: str) -> HttpResponse:
        """Count one failure and build its envelope response."""
        with self._counter_lock:
            self.errors += 1
        envelope = ErrorEnvelope.from_exception(exc, request_id=request_id)
        self._errors_metric.inc(type=envelope.type)
        return _error_response(envelope)

    def reject(
        self, exc: ReproError, method: str, path: str
    ) -> HttpResponse:
        """An error envelope for a request the transport refused.

        The HTTP server calls this *instead of* ``handle`` when it
        cannot responsibly produce an :class:`HttpRequest` at all — an
        oversized body it refuses to read (413), or chunked framing it
        cannot decode (400).  Counters, metrics and the correlation
        header behave exactly as for routed errors.
        """
        request_id = new_request_id()
        with self._counter_lock:
            self.requests += 1
        response = self._error(exc, request_id)
        self._requests_metric.inc(
            route=self._route_name(HttpRequest(method=method, path=path)),
            method=method.upper(),
            status=str(response.status),
        )
        response.headers.setdefault(REQUEST_ID_HEADER, request_id)
        return response

    @staticmethod
    def _route_name(request: HttpRequest) -> str:
        """The request's route *template* (bounds label cardinality).

        Metrics label by route shape (``/diff/{a}/{b}``), never by the
        raw path — otherwise every distinct run name would mint a new
        sample series.
        """
        parts = request.segments
        if len(parts) == 1 and parts[0] in (
            "healthz", "stats", "metrics", "specs", "runs",
            "matrix", "query",
        ):
            return f"/{parts[0]}"
        if len(parts) == 2 and parts[0] == "specs":
            return "/specs/{name}"
        if len(parts) == 2 and parts[0] == "runs":
            return "/runs/{name}"
        if len(parts) == 3 and parts[0] == "diff":
            return "/diff/{a}/{b}"
        if parts == ["prov", "import"]:
            return "/prov/import"
        if parts == ["stream", "events"]:
            return "/stream/events"
        if parts == ["stream", "live"]:
            return "/stream/live"
        return "<unmatched>"


class WorkspaceApp(RequestFrame):
    """Routes HTTP requests onto one :class:`Workspace`.

    The workspace's own concurrency discipline (the corpus service
    monitor plus per-cache locks) makes the app safe to drive from the
    threading server's one-thread-per-request model without further
    coordination; the frame keeps only trivial counters.
    """

    def __init__(self, workspace: Workspace):
        super().__init__(workspace.metrics)
        self.workspace = workspace
        # Touch the streaming hub so its ``stream_*`` metric families
        # exist (at zero) from the first scrape, not from the first
        # streamed event.
        workspace.stream_hub

    def handle(self, request: HttpRequest) -> HttpResponse:
        """Dispatch one request through the frame.

        Every failure becomes an envelope, and the response echoes the
        request's correlation ID.
        """
        return self._framed(request)

    def abort_inflight(self, error: BaseException) -> int:
        """Fail every coalesced computation's waiters (graceful drain)."""
        return self.workspace.service.abort_inflight(error)

    def _route(self, request: HttpRequest) -> HttpResponse:
        """Match ``(method, segments)`` to a resource handler."""
        parts = request.segments
        method = request.method.upper()
        if parts == ["healthz"] and method == "GET":
            return self._healthz()
        if parts == ["stats"] and method == "GET":
            return self._stats()
        if parts == ["metrics"] and method == "GET":
            return self._metrics(request)
        if parts == ["specs"] and method == "GET":
            return self._specs_list()
        if len(parts) == 2 and parts[0] == "specs":
            if method == "GET":
                return self._spec_get(request, parts[1])
            if method == "PUT":
                return self._spec_put(request, parts[1])
            return _status_error(
                f"method {method} not allowed on /specs/{{name}}", 405
            )
        if parts == ["runs"] and method == "GET":
            return self._runs_list(request)
        if len(parts) == 2 and parts[0] == "runs":
            if method == "GET":
                return self._run_get(request, parts[1])
            if method == "PUT":
                return self._run_put(request, parts[1])
            return _status_error(
                f"method {method} not allowed on /runs/{{name}}", 405
            )
        if len(parts) == 3 and parts[0] == "diff" and method == "GET":
            return self._diff(request, parts[1], parts[2])
        if parts == ["matrix"] and method == "POST":
            return self._matrix(request)
        if parts == ["query"] and method == "POST":
            return self._query(request)
        if parts == ["prov", "import"] and method == "POST":
            return self._prov_import(request)
        if parts == ["stream", "events"] and method == "POST":
            return self._stream_events(request)
        if parts == ["stream", "live"] and method == "GET":
            return self._stream_live()
        return _status_error(
            f"no route for {method} {request.path}", 404
        )

    # -- parameter plumbing ---------------------------------------------
    def _check_spec(self, spec: Optional[str]) -> Optional[str]:
        """Verify an (optional) spec name exists; passes ``None`` through.

        One ``stat`` of the specification's file, not a listing.
        """
        if spec is not None:
            spec = str(spec)
            if not self.workspace.store.has_specification(spec):
                raise NotFoundError(
                    f"no stored specification named {spec!r}"
                )
        return spec

    def _spec_param(self, request: HttpRequest) -> Optional[str]:
        """The ``spec=`` parameter, verified to exist when given."""
        return self._check_spec(request.query.get("spec"))

    def _cost_param(self, source: Optional[str]):
        """A cost spec string resolved to a model (``None`` → default)."""
        if source is None:
            return self.workspace.config.cost
        return cost_from_spec(source)

    # -- health and stats -----------------------------------------------
    def _healthz(self) -> HttpResponse:
        return HttpResponse.json(
            {
                "status": "ok",
                "version": __version__,
                "wire_version": WIRE_VERSION,
                "specifications": len(self.workspace.specifications()),
            }
        )

    def _stats(self) -> HttpResponse:
        return HttpResponse.json(self.stats_payload(self.frame_counters()))

    def stats_payload(self, frame_counters: Dict[str, int]) -> dict:
        """The ``/stats`` payload, with a frame's request counters."""
        snapshot = self.workspace.stats_snapshot()
        snapshot.source = "server"
        snapshot.counters.update(frame_counters)
        # The streaming hub's counters ride along (``stream_*``), from
        # the same numbers the ``stream_*`` metric families export —
        # ``/stats`` and ``/metrics`` always agree.
        snapshot.counters.update(
            self.workspace.stream_hub.summary().as_counters()
        )
        return snapshot.to_dict()

    def _metrics(self, request: HttpRequest) -> HttpResponse:
        """The registry's scrape face: Prometheus text, or JSON.

        ``?format=json`` (or ``Accept: application/json``) selects the
        JSON rendering; everything else gets text exposition 0.0.4.
        """
        registry = self.workspace.metrics
        if wants_json_metrics(request):
            return HttpResponse.json(
                {"v": WIRE_VERSION, "metrics": registry.snapshot()}
            )
        return HttpResponse.text(
            registry.render_prometheus(), PROMETHEUS_TYPE
        )

    # -- specifications -------------------------------------------------
    def _specs_list(self) -> HttpResponse:
        return HttpResponse.json(
            {"specs": self.workspace.specifications()}
        )

    def _spec_get(
        self, request: HttpRequest, name: str
    ) -> HttpResponse:
        spec = self.workspace.specification(name)
        if XML_TYPE in request.header("accept"):
            return HttpResponse.text(
                specification_to_xml(spec), XML_TYPE
            )
        return HttpResponse.json(
            {
                "spec": spec.name,
                "nodes": spec.graph.num_nodes,
                "edges": spec.graph.num_edges,
                "runs": len(self.workspace.runs(spec=spec.name)),
            }
        )

    def _spec_put(
        self, request: HttpRequest, name: str
    ) -> HttpResponse:
        try:
            text = request.body.decode("utf8")
        except UnicodeDecodeError:
            raise ReproError(
                "specification body must be UTF-8 XML"
            ) from None
        spec = specification_from_xml(text)
        if spec.name != name:
            from repro.errors import ConflictError

            raise ConflictError(
                f"URL names specification {name!r} but the document "
                f"declares {spec.name!r}"
            )
        self.workspace.register(spec)
        return HttpResponse.json(
            {"spec": spec.name, "registered": True}
        )

    # -- runs -------------------------------------------------------------
    def _runs_list(self, request: HttpRequest) -> HttpResponse:
        spec = self._spec_param(request)
        resolved = self.workspace._spec_name(spec)
        return HttpResponse.json(
            {
                "spec": resolved,
                "runs": self.workspace.runs(spec=resolved),
            }
        )

    def _run_get(
        self, request: HttpRequest, name: str
    ) -> HttpResponse:
        spec = self._spec_param(request)
        if PROV_JSON_TYPE in request.header("accept"):
            return HttpResponse.text(
                self.workspace.export_prov(name, spec=spec),
                PROV_JSON_TYPE,
            )
        run = self.workspace.run(name, spec=spec)
        fingerprint = self.workspace.service.fingerprints(
            run.spec.name, [name]
        )[name]
        return HttpResponse.json(
            {
                "spec": run.spec.name,
                "run": name,
                "nodes": run.num_nodes,
                "edges": run.num_edges,
                "fingerprint": fingerprint,
            }
        )

    def _run_put(
        self, request: HttpRequest, name: str
    ) -> HttpResponse:
        content_type = request.header("content-type", JSON_TYPE)
        if (
            PROV_JSON_TYPE not in content_type
            and JSON_TYPE not in content_type
        ):
            raise ReproError(
                f"unsupported run content type {content_type!r} "
                f"(send {PROV_JSON_TYPE})"
            )
        try:
            text = request.body.decode("utf8")
        except UnicodeDecodeError:
            raise ReproError(
                "run body must be UTF-8 PROV-JSON"
            ) from None
        result = self.workspace.import_prov(text, name=name)
        return HttpResponse.json(
            {
                "spec": result.spec.name,
                "run": result.run.name,
                "origin": result.origin,
            },
            status=201,
        )

    # -- differencing -----------------------------------------------------
    def _diff(
        self, request: HttpRequest, run_a: str, run_b: str
    ) -> HttpResponse:
        service = self.workspace.service
        spec = request.query.get("spec")
        # The request's one specification resolution (404 if unknown).
        resolved = None if spec is None else service.specification(spec)
        cost = self._cost_param(request.query.get("cost"))
        if resolved is None:
            resolved = service.specification(self.workspace._spec_name(None))
        spec_name = resolved.name
        headers: Dict[str, str] = {}
        cost_key = cost_model_key(cost)
        with service.resolved(resolved):
            if cost_key is not None:
                # Revalidation is two index stats: unchanged run files
                # answer from the fingerprint index without XML parsing.
                fingerprints = service.fingerprints(spec_name, [run_a, run_b])
                tag = script_key(
                    fingerprints[run_a], fingerprints[run_b], cost_key
                )
                etag = '"' + hashlib.sha256(
                    tag.encode("utf8")
                ).hexdigest()[:32] + '"'
                headers["ETag"] = etag
                headers["Cache-Control"] = "no-cache"
                if request.header("if-none-match") == etag:
                    return HttpResponse(
                        status=304, body=b"", headers=headers
                    )
            outcome = self.workspace.diff(
                run_a, run_b, spec=spec_name, cost=cost
            )
        return HttpResponse.json(outcome.to_dict(), headers=headers)

    def _matrix(self, request: HttpRequest) -> HttpResponse:
        body = request.json_body()
        if not isinstance(body, dict):
            raise ReproError("matrix request body must be an object")
        spec = self._check_spec(body.get("spec"))
        cost = self._cost_param(body.get("cost"))
        runs = _run_list(body.get("runs"), "matrix")
        result = self.workspace.matrix(spec=spec, cost=cost, runs=runs)
        return HttpResponse.json(result.to_dict())

    # -- querying ---------------------------------------------------------
    def _query(self, request: HttpRequest) -> HttpResponse:
        body = request.json_body()
        if not isinstance(body, dict):
            raise ReproError("query request body must be an object")
        page_offset(body)
        spec = self._check_spec(body.get("spec"))
        cost = self._cost_param(body.get("cost"))
        page = self.workspace.query_page(
            filter=QueryFilter.from_dict(body.get("filter")),
            spec=spec,
            cost=cost,
            cursor=body.get("cursor"),
            limit=body.get("limit"),
            runs=_run_list(body.get("runs"), "query"),
        )
        return HttpResponse.json(page.to_dict())

    # -- interchange -------------------------------------------------------
    def _prov_import(self, request: HttpRequest) -> HttpResponse:
        try:
            text = request.body.decode("utf8")
        except UnicodeDecodeError:
            raise ReproError(
                "PROV document must be UTF-8 JSON"
            ) from None
        if not text.strip():
            raise ReproError("PROV import requires a document body")
        name = request.query.get("name", "")
        spec_name = request.query.get("spec_name")
        diff = request.query.get("diff", "1") not in ("0", "false")
        cost = self._cost_param(request.query.get("cost"))
        if diff:
            result, distances = self.workspace.import_prov(
                text,
                name=name,
                spec_name=spec_name,
                diff=True,
                cost=cost,
            )
        else:
            result = self.workspace.import_prov(
                text, name=name, spec_name=spec_name
            )
            distances = {}
        report = result.report
        summary = ImportSummary(
            spec_name=result.spec.name,
            run_name=result.run.name,
            origin=result.origin,
            nodes=result.run.num_nodes,
            edges=result.run.num_edges,
            report=report.to_dict(),
            report_lines=list(report.summary_lines()),
            new_pairs=dict(distances),
        )
        return HttpResponse.json(summary.to_dict(), status=201)

    # -- streaming ingestion ----------------------------------------------
    def _stream_events(self, request: HttpRequest) -> HttpResponse:
        """One NDJSON event batch in, one :class:`StreamAck` out.

        A malformed frame, a sequencing violation, or a failed close
        leaves as the ordinary structured error envelope; the applied
        prefix stays acknowledged and the client resumes by replaying
        ``run_open`` plus its unacknowledged suffix.
        """
        from repro.stream.events import decode_events

        events = decode_events(request.body)
        ack = self.workspace.stream_hub.apply_batch(events)
        return HttpResponse.json(ack.to_dict())

    def _stream_live(self) -> HttpResponse:
        """Live analytics of every open streaming session."""
        sessions = self.workspace.stream_hub.live()
        return HttpResponse.json(
            {
                "v": WIRE_VERSION,
                "sessions": [status.to_dict() for status in sessions],
            }
        )
