"""The remote workspace: the :class:`WorkspaceAPI` spoken over HTTP.

:class:`RemoteWorkspace` is a drop-in stand-in for
:class:`repro.workspace.Workspace` against a running ``repro serve``
endpoint — it implements the same
:class:`~repro.api_types.WorkspaceAPI` protocol, so the CLI, the
examples, and any client code run unchanged whether the differencing
happens in-process or on a server::

    from repro import RemoteWorkspace
    ws = RemoteWorkspace("http://diff.lab.internal:8321")
    ws.diff("monday", "tuesday").distance
    ws.matrix()
    ws.query_page(QueryFilter(kinds=("path-deletion",)))

Built on the standard library's :mod:`http.client`: each client keeps
one pool of persistent HTTP/1.1 connections to its server
(:class:`repro.transport.ConnectionPool`), so a request pays neither a
TCP handshake nor a new server thread.  Three behaviours worth knowing:

* **Errors round-trip.**  The server's structured
  :class:`~repro.api_types.ErrorEnvelope` failures are re-raised as the
  matching :class:`~repro.errors.ReproError` subclass
  (:class:`~repro.errors.NotFoundError` for 404s,
  :class:`~repro.errors.ConflictError` for 409s, ...), so error
  handling code is implementation-agnostic.
* **Diff reads revalidate.**  The client remembers the ``ETag`` of
  every diff it fetched and sends ``If-None-Match``; a ``304`` reuses
  the cached outcome without re-downloading (or recomputing) anything.
* **Run objects travel as PROV-JSON.**  ``import_run``/``run`` use the
  interchange layer's exact round trip (embedded plan), so a run
  pushed through the wire fingerprints identically to one saved
  locally — which is what makes local and remote diffs bit-identical.

Cost models are sent as their wire spec (``unit``, ``length``,
``power:E``); weighted/callable models are refused client-side rather
than silently re-priced by the server.
"""

from __future__ import annotations

import json
import threading
import time
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)
from urllib.parse import quote, urlencode, urlsplit

from repro.api_types import (
    DiffOutcome,
    ErrorEnvelope,
    MatrixResult,
    QueryFilter,
    QueryPage,
    StatsSnapshot,
    default_spec_name,
)
from repro.core.api import diff_runs
from repro.corpus.analytics import check_count, k_nearest
from repro.corpus.cache import LRUCache
from repro.corpus.analytics import medoid as _medoid
from repro.corpus.analytics import outliers as _outliers
from repro.corpus.fingerprint import cost_model_key
from repro.costs.base import CostModel
from repro.costs.standard import cost_to_spec
from repro.errors import NotFoundError, ReproError, TransportError
from repro.io.registry import SPEC_REGISTRY
from repro.io.xml_io import specification_to_xml
from repro.obs.logging import current_request_id, new_request_id
from repro.transport import (
    IDEMPOTENT_METHODS,
    TRANSPORT_ERRORS,
    ConnectionPool,
)
from repro.workflow.execution import ExecutionParams, execute_workflow
from repro.workflow.run import WorkflowRun
from repro.workflow.specification import WorkflowSpecification

#: Content types (mirrors :mod:`repro.service.app`).
JSON_TYPE = "application/json"
PROV_JSON_TYPE = "application/prov+json"
XML_TYPE = "application/xml"

#: Backoff schedule between idempotent retries, in seconds.
_RETRY_DELAYS = (0.1, 0.3)


def _quote(name: str) -> str:
    """Percent-encode a path segment (names may contain anything)."""
    return quote(name, safe="")


class RemoteWorkspace:
    """A provenance workspace served by a remote ``repro serve``.

    Parameters
    ----------
    url:
        Service base URL, e.g. ``http://127.0.0.1:8321``.
    cost:
        Default cost model for calls that accept one; ``None`` defers
        to the *server's* configured default.  Must be wire-spec
        serialisable (``unit``/``length``/``power:E``).
    timeout:
        Per-request socket timeout in seconds.
    etag_cache_size:
        Bound of the client-side revalidation memo (each entry holds
        one diff's full payload; LRU-evicted beyond the bound).
    """

    def __init__(
        self,
        url: str,
        cost: Optional[CostModel] = None,
        timeout: float = 60.0,
        etag_cache_size: int = 1024,
    ):
        self.base_url = url.rstrip("/")
        self.timeout = timeout
        try:
            parts = urlsplit(self.base_url)
            port = parts.port  # a malformed port raises here
        except ValueError:
            parts = None
        if (
            parts is None
            or parts.scheme not in ("http", "https")
            or not parts.hostname
        ):
            raise ReproError(
                f"diff server URL {url!r} is not an http(s)://host URL"
            )
        self._base_path = parts.path
        # One pool per client: its threads share persistent connections.
        self._pool = ConnectionPool(
            parts.hostname, port, timeout, tls=parts.scheme == "https"
        )
        self.default_cost = cost
        if cost is not None:
            cost_to_spec(cost)  # fail fast on unserialisable models
        # ETag revalidation memo: url -> (etag, cached outcome
        # payload).  LRU-bounded — a long-lived client sweeping a
        # growing corpus must not retain every payload forever.
        self._etags = LRUCache(etag_cache_size)
        self._lock = threading.RLock()

    # -- transport ------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        query: Optional[Dict[str, str]] = None,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ):
        """One HTTP round trip; server errors re-raise as ReproErrors.

        Returns ``(status, headers, body_bytes)``.
        """
        target = self._base_path + path
        if query:
            target += "?" + urlencode(query)
        all_headers = dict(headers or {})
        # Correlation: reuse an already-bound ID (e.g. when a server
        # proxies through a RemoteWorkspace) or mint one per request,
        # so client and server logs join on the same token.
        all_headers.setdefault(
            "X-Request-Id", current_request_id() or new_request_id()
        )
        # Idempotent requests retry transient connection failures — a
        # worker that dies resets its connections, and a restarting
        # server refuses them for a beat; two short backoffs ride it out
        # without masking a genuinely down server for long.  The pool
        # resends them at once when a reused connection turns out dead.
        # POSTs (imports, stream batches) are never resent: the first
        # attempt may have been applied.
        idempotent = method in IDEMPOTENT_METHODS
        retries = _RETRY_DELAYS if idempotent else ()
        last_reason: object = None
        for attempt in range(len(retries) + 1):
            if attempt:
                time.sleep(retries[attempt - 1])
            try:
                status, response_headers, raw = self._pool.request(
                    method, target, body, all_headers, resend=idempotent
                )
            except TRANSPORT_ERRORS as exc:
                last_reason = exc
                continue
            if 200 <= status < 300:
                return status, dict(response_headers), raw
            if status == 304:
                # Not an error: the revalidation answer.
                return 304, dict(response_headers), b""
            try:
                envelope = ErrorEnvelope.from_payload(
                    json.loads(raw.decode("utf8"))
                )
            except (UnicodeDecodeError, ValueError):
                envelope = None
            if envelope is not None:
                raise envelope.to_exception()
            raise ReproError(
                f"server returned HTTP {status} for {method} {path}"
            )
        raise TransportError(
            f"cannot reach diff server at {self.base_url}: "
            f"{last_reason}"
        ) from None

    def _json(
        self,
        method: str,
        path: str,
        query: Optional[Dict[str, str]] = None,
        payload=None,
        headers: Optional[Dict[str, str]] = None,
    ):
        """A JSON round trip: optional JSON body in, JSON body out."""
        body = None
        all_headers = dict(headers or {})
        if payload is not None:
            body = json.dumps(payload).encode("utf8")
            all_headers.setdefault("Content-Type", JSON_TYPE)
        status, _, raw = self._request(
            method, path, query=query, body=body, headers=all_headers
        )
        if not raw:
            return status, None
        try:
            return status, json.loads(raw.decode("utf8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ReproError(
                f"malformed JSON from server for {method} {path}: {exc}"
            ) from None

    def _cost_query(
        self, cost: Optional[CostModel]
    ) -> Optional[str]:
        """The wire spec of ``cost`` (or the client default), if any."""
        cost = cost if cost is not None else self.default_cost
        return None if cost is None else cost_to_spec(cost)

    # -- health and stats -----------------------------------------------
    def healthz(self) -> dict:
        """The server's liveness payload (status, version, spec count)."""
        _, payload = self._json("GET", "/healthz")
        return payload

    @property
    def stats(self) -> Dict[str, int]:
        """Service counters of the remote corpus (one ``GET /stats``)."""
        return self.stats_snapshot().counters

    def stats_snapshot(self) -> StatsSnapshot:
        """The remote counters as a typed :class:`StatsSnapshot`."""
        _, payload = self._json("GET", "/stats")
        snapshot = StatsSnapshot.from_dict(payload)
        snapshot.source = self.base_url
        return snapshot

    # -- specification management ---------------------------------------
    def specifications(self) -> List[str]:
        """Names of every specification the server knows."""
        _, payload = self._json("GET", "/specs")
        return list(payload["specs"])

    def specification(self, name: str) -> WorkflowSpecification:
        """The named specification as the server stores it now
        (fetched as XML, parsed once per content by the
        :data:`~repro.io.registry.SPEC_REGISTRY`)."""
        _, _, raw = self._request(
            "GET",
            f"/specs/{_quote(name)}",
            headers={"Accept": XML_TYPE},
        )
        return SPEC_REGISTRY.specification(raw.decode("utf8"))

    def register(self, spec: WorkflowSpecification) -> None:
        """Upload a specification (``PUT /specs/{name}`` as XML)."""
        self._request(
            "PUT",
            f"/specs/{_quote(spec.name)}",
            body=specification_to_xml(spec).encode("utf8"),
            headers={"Content-Type": XML_TYPE},
        )

    # -- run management ---------------------------------------------------
    def runs(self, spec: Optional[str] = None) -> List[str]:
        """Names of the stored runs of a specification."""
        query = {} if spec is None else {"spec": spec}
        _, payload = self._json("GET", "/runs", query=query)
        return list(payload["runs"])

    def run(
        self, name: str, spec: Optional[str] = None
    ) -> WorkflowRun:
        """A stored run, downloaded as PROV-JSON and reconstructed.

        The interchange layer's embedded plan makes the reconstruction
        exact, so the returned object fingerprints identically to the
        server's copy.
        """
        from repro.interchange.convert import import_document

        query = {} if spec is None else {"spec": spec}
        _, _, raw = self._request(
            "GET",
            f"/runs/{_quote(name)}",
            query=query,
            headers={"Accept": PROV_JSON_TYPE},
        )
        return import_document(
            raw.decode("utf8"), run_name=name
        ).run

    def import_run(self, run: WorkflowRun) -> None:
        """Upload a run (``PUT /runs/{name}`` as PROV-JSON)."""
        from repro.interchange.convert import export_run_json

        self._request(
            "PUT",
            f"/runs/{_quote(run.name)}",
            body=export_run_json(run).encode("utf8"),
            headers={"Content-Type": PROV_JSON_TYPE},
        )

    def generate_run(
        self,
        name: str,
        spec: Optional[str] = None,
        params: Optional[ExecutionParams] = None,
        seed: Optional[int] = None,
    ) -> WorkflowRun:
        """Generate a run client-side and upload it.

        The stored specification is fetched, the run is produced by
        the same deterministic
        :func:`~repro.workflow.execution.execute_workflow` a local
        workspace uses, and the result is pushed with
        :meth:`import_run` — same seed, same run, wherever generated.
        """
        spec_name = default_spec_name(spec, self.specifications)
        run = execute_workflow(
            self.specification(spec_name), params, seed=seed, name=name
        )
        self.import_run(run)
        return run

    # -- differencing -----------------------------------------------------
    def diff(
        self,
        a,
        b,
        spec: Optional[str] = None,
        cost: Optional[CostModel] = None,
    ) -> DiffOutcome:
        """The priced ``a``→``b`` edit script (``GET /diff/{a}/{b}``).

        Two in-memory :class:`WorkflowRun` objects are diffed locally
        (nothing uploaded), exactly as the local workspace does; name
        pairs go to the server, with ETag revalidation reusing the
        previously fetched outcome when nothing changed.
        """
        if isinstance(a, WorkflowRun) or isinstance(b, WorkflowRun):
            if not (
                isinstance(a, WorkflowRun)
                and isinstance(b, WorkflowRun)
            ):
                raise ReproError(
                    "diff arguments must be two run names or two "
                    "WorkflowRun objects, not a mix"
                )
            used = cost if cost is not None else self.default_cost
            if used is None:
                from repro.costs.standard import UnitCost

                used = UnitCost()
            result = diff_runs(a, b, cost=used, with_script=True)
            return DiffOutcome(
                spec_name=a.spec.name,
                run_a=a.name,
                run_b=b.name,
                cost_model=used.name,
                distance=result.distance,
                operations=list(result.script.operations),
                cost_key=cost_model_key(used),
            )
        query: Dict[str, str] = {}
        if spec is not None:
            query["spec"] = spec
        cost_spec = self._cost_query(cost)
        if cost_spec is not None:
            query["cost"] = cost_spec
        path = f"/diff/{_quote(a)}/{_quote(b)}"
        cache_key = path + "?" + urlencode(query)
        with self._lock:
            cached = self._etags.get(cache_key)
        headers = (
            {"If-None-Match": cached[0]} if cached is not None else {}
        )
        status, response_headers, raw = self._request(
            "GET", path, query=query, headers=headers
        )
        if status == 304 and cached is not None:
            return DiffOutcome.from_dict(cached[1])
        payload = json.loads(raw.decode("utf8"))
        etag = response_headers.get("ETag")
        if etag:
            with self._lock:
                self._etags.put(cache_key, (etag, payload))
        return DiffOutcome.from_dict(payload)

    def diff_many(
        self,
        pairs: Iterable[Tuple[str, str]],
        spec: Optional[str] = None,
        cost: Optional[CostModel] = None,
    ) -> Iterator[DiffOutcome]:
        """Stream outcomes for directed name pairs (one request each).

        The server's persistent script cache makes repeats cheap; the
        client-side ETag memo makes them free of payload transfer.
        """
        for a, b in pairs:
            yield self.diff(a, b, spec=spec, cost=cost)

    def matrix(
        self,
        spec: Optional[str] = None,
        cost: Optional[CostModel] = None,
        runs: Optional[Sequence[str]] = None,
    ) -> MatrixResult:
        """All-pairs distances (``POST /matrix``) as a
        :class:`MatrixResult`."""
        payload: Dict[str, object] = {}
        if spec is not None:
            payload["spec"] = spec
        cost_spec = self._cost_query(cost)
        if cost_spec is not None:
            payload["cost"] = cost_spec
        if runs is not None:
            payload["runs"] = list(runs)
        _, body = self._json("POST", "/matrix", payload=payload)
        return MatrixResult.from_dict(body)

    # -- analytics (derived from one matrix fetch) -----------------------
    def nearest(
        self,
        run_name: str,
        k: Optional[int] = None,
        spec: Optional[str] = None,
        cost: Optional[CostModel] = None,
    ) -> List[Tuple[str, float]]:
        """``run_name``'s neighbours by ascending distance.

        Derived client-side from one :meth:`matrix` call through the
        same :mod:`repro.corpus.analytics` fold the server would use —
        identical numbers, one round trip.
        """
        check_count("k", k)
        if k == 0:  # nothing to price: check the run, fetch no matrix
            spec_name = default_spec_name(spec, self.specifications)
            names = self.runs(spec=spec_name)
        else:
            result = self.matrix(spec=spec, cost=cost)
            spec_name, names = result.spec_name, result.runs
        if run_name not in names:
            raise NotFoundError(
                f"no stored run {run_name!r} for specification "
                f"{spec_name!r}"
            )
        if k == 0:
            return []
        return k_nearest(result.distances, run_name, k=k, names=names)

    def medoid(
        self,
        spec: Optional[str] = None,
        cost: Optional[CostModel] = None,
    ) -> Tuple[str, float]:
        """The corpus's most central run, ``(name, mean distance)``."""
        result = self.matrix(spec=spec, cost=cost)
        return _medoid(result.distances, names=result.runs)

    def outliers(
        self,
        spec: Optional[str] = None,
        cost: Optional[CostModel] = None,
        top: Optional[int] = None,
    ) -> List[Tuple[str, float]]:
        """Runs ranked by descending mean distance to the corpus."""
        check_count("top", top)
        if top == 0:  # nothing to price: resolve the spec, fetch no matrix
            default_spec_name(spec, self.specifications)
            return []
        result = self.matrix(spec=spec, cost=cost)
        return _outliers(result.distances, names=result.runs, top=top)

    # -- querying ----------------------------------------------------------
    def query_page(
        self,
        filter: Optional[QueryFilter] = None,
        spec: Optional[str] = None,
        cost: Optional[CostModel] = None,
        cursor: Optional[str] = None,
        limit: Optional[int] = None,
        runs: Optional[Sequence[str]] = None,
    ) -> QueryPage:
        """One page of matching diffs (``POST /query``)."""
        filter = filter if filter is not None else QueryFilter()
        payload: Dict[str, object] = {"filter": filter.to_dict()}
        if spec is not None:
            payload["spec"] = spec
        cost_spec = self._cost_query(cost)
        if cost_spec is not None:
            payload["cost"] = cost_spec
        if cursor is not None:
            payload["cursor"] = cursor
        if limit is not None:
            payload["limit"] = limit
        if runs is not None:
            payload["runs"] = list(runs)
        _, body = self._json("POST", "/query", payload=payload)
        return QueryPage.from_dict(body)

    def query(
        self,
        filter: Optional[QueryFilter] = None,
        spec: Optional[str] = None,
        cost: Optional[CostModel] = None,
        runs: Optional[Sequence[str]] = None,
        page_size: int = 200,
    ) -> List[DiffOutcome]:
        """Every matching diff, paged transparently.

        Accepts only the declarative :class:`QueryFilter` (live ``Q``
        predicates are arbitrary Python and do not travel); the
        returned :class:`DiffOutcome` items are duck-compatible with
        the local engine's docs for the aggregation helpers
        (``op_kind_histogram``, ``module_churn``).
        """
        if filter is not None and not isinstance(filter, QueryFilter):
            raise ReproError(
                "remote queries take a QueryFilter (a live Q predicate "
                "is arbitrary Python and cannot travel over the wire)"
            )
        items: List[DiffOutcome] = []
        cursor: Optional[str] = None
        while True:
            page = self.query_page(
                filter=filter,
                spec=spec,
                cost=cost,
                cursor=cursor,
                limit=page_size,
                runs=runs,
            )
            items.extend(page.items)
            if page.next_cursor is None:
                return items
            cursor = page.next_cursor

    # -- interchange -------------------------------------------------------
    def export_prov(
        self, run_name: str, spec: Optional[str] = None
    ) -> str:
        """A stored run as deterministic PROV-JSON text."""
        query = {} if spec is None else {"spec": spec}
        _, _, raw = self._request(
            "GET",
            f"/runs/{_quote(run_name)}",
            query=query,
            headers={"Accept": PROV_JSON_TYPE},
        )
        return raw.decode("utf8")

    def import_prov(
        self,
        source,
        name: str = "",
        spec_name: Optional[str] = None,
        diff: bool = False,
        cost: Optional[CostModel] = None,
    ):
        """Ingest a PROV-JSON/OPM document (``POST /prov/import``).

        ``source`` is a dict, JSON text, or a path to a document file.
        Returns an :class:`~repro.api_types.ImportSummary` (names,
        sizes, normalisation report); with ``diff=True`` the summary's
        ``new_pairs`` carries the newcomer's corpus distances — the
        remote counterpart of the local two-tuple return.
        """
        from repro.api_types import ImportSummary

        text = self._document_text(source)
        query: Dict[str, str] = {"diff": "1" if diff else "0"}
        if name:
            query["name"] = name
        if spec_name is not None:
            query["spec_name"] = spec_name
        cost_spec = self._cost_query(cost)
        if cost_spec is not None:
            query["cost"] = cost_spec
        status, _, raw = self._request(
            "POST",
            "/prov/import",
            query=query,
            body=text.encode("utf8"),
            headers={"Content-Type": PROV_JSON_TYPE},
        )
        return ImportSummary.from_dict(
            json.loads(raw.decode("utf8"))
        )

    # -- streaming ingestion ----------------------------------------------
    def stream(
        self,
        spec: str,
        run: str,
        session: Optional[str] = None,
        threshold: Optional[float] = None,
        mode: str = "auto",
        batch_size: int = 64,
        max_retries: int = 3,
    ):
        """Open a :class:`~repro.stream.client.StreamSession` over HTTP.

        Event batches go out as NDJSON on ``POST /stream/events``; the
        session retries transport failures and resumes from the last
        acknowledged sequence number (replayed frames are acknowledged
        idempotently server-side), so a flaky network costs retries,
        never duplicate ingestion.
        """
        from repro.stream.client import StreamSession
        from repro.stream.events import StreamAck

        def send(data: bytes) -> StreamAck:
            _, _, raw = self._request(
                "POST",
                "/stream/events",
                body=data,
                headers={"Content-Type": "application/x-ndjson"},
            )
            return StreamAck.from_dict(
                json.loads(raw.decode("utf8"))
            )

        return StreamSession(
            send=send,
            spec_name=spec,
            run_name=run,
            session_id=session,
            threshold=threshold,
            mode=mode,
            batch_size=batch_size,
            max_retries=max_retries,
        )

    def stream_live(self):
        """Live analytics of the server's open streaming sessions
        (``GET /stream/live``)."""
        from repro.stream.events import LiveStatus

        _, payload = self._json("GET", "/stream/live")
        return [
            LiveStatus.from_dict(entry)
            for entry in payload.get("sessions", [])
        ]

    @staticmethod
    def _document_text(source) -> str:
        """Normalise an import source (dict / text / path) to JSON text."""
        if isinstance(source, dict):
            return json.dumps(source)
        text = str(source)
        stripped = text.lstrip()
        if stripped.startswith("{"):
            return text
        # Anything that does not look like JSON is treated as a path —
        # the same heuristic the interchange importer applies locally.
        from pathlib import Path

        path = Path(text)
        if not path.exists():
            raise ReproError(
                f"PROV document {text!r} does not exist"
            )
        return path.read_text(encoding="utf8")

    def close(self) -> None:
        """Close the client's pooled connections.

        Later calls still work, each on a connection of its own.
        """
        self._pool.close()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"RemoteWorkspace({self.base_url!r})"
