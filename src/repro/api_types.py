"""The workspace wire API: protocol, typed results, error envelopes.

This module pins down the *public surface* of a workspace as an explicit
:class:`WorkspaceAPI` :class:`~typing.Protocol`, and gives every request
and response that crosses it a typed, versioned, JSON-round-trippable
dataclass:

* :class:`DiffOutcome` — one priced diff (``to_dict``/``from_dict``);
* :class:`MatrixResult` — an all-pairs distance matrix that still quacks
  like the historical ``{(a, b): distance}`` mapping;
* :class:`QueryFilter` — the declarative, wire-safe subset of the ``Q``
  predicate algebra (kinds, touched labels, cost and op-count ranges);
* :class:`QueryPage` — one page of query results with an opaque cursor;
* :class:`StatsSnapshot` — the cache/DP counters of a workspace;
* :class:`ImportSummary` — the outcome of a remote PROV import;
* :class:`ErrorEnvelope` — the structured error payload the HTTP
  service returns and the remote client raises from.

Two implementations satisfy the protocol: the in-process
:class:`repro.workspace.Workspace` and the HTTP
:class:`repro.client.RemoteWorkspace` — the protocol-conformance test
suite is parametrized over both, so local and remote behaviour cannot
drift.  Every payload carries a schema version (:data:`WIRE_VERSION`);
``from_dict`` rejects unknown versions with a
:class:`~repro.errors.ReproError` so stale clients fail loudly rather
than misparse.
"""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.core.edit_script import PathOperation
from repro.errors import ReproError

#: Schema version shared by every wire payload in this module.  Bump on
#: any incompatible field change; ``from_dict`` rejects other versions.
WIRE_VERSION = 1

#: :class:`StatsSnapshot` carries its own version: v2 added the
#: ``derived`` block (hit ratios, contention totals).  ``from_dict``
#: accepts both versions — a v1 payload is simply a snapshot with no
#: derived values — so new clients read old servers and vice versa.
STATS_WIRE_VERSION = 2
_STATS_COMPATIBLE_VERSIONS = (1, STATS_WIRE_VERSION)


def _require_version(payload: Any, what: str) -> dict:
    """Validate the common envelope of a wire payload."""
    if not isinstance(payload, dict):
        raise ReproError(f"{what} payload must be a JSON object")
    if payload.get("v") != WIRE_VERSION:
        raise ReproError(
            f"unsupported {what} schema version {payload.get('v')!r} "
            f"(this client speaks v{WIRE_VERSION})"
        )
    return payload


# -- pagination cursors -------------------------------------------------
def encode_cursor(offset: int) -> str:
    """Opaque pagination cursor for a result offset.

    The encoding (URL-safe base64 over a tiny versioned JSON object) is
    an implementation detail — clients must treat cursors as opaque
    tokens, passing back exactly what a :class:`QueryPage` handed out.
    """
    raw = json.dumps({"v": WIRE_VERSION, "o": int(offset)})
    return base64.urlsafe_b64encode(raw.encode("ascii")).decode("ascii")


def decode_cursor(cursor: Optional[str]) -> int:
    """The result offset a cursor denotes (``None``/empty → 0).

    Raises :class:`ReproError` on garbage — a malformed cursor is a
    client bug, not a reason to silently restart from the first page.
    """
    if not cursor:
        return 0
    try:
        raw = json.loads(
            base64.urlsafe_b64decode(cursor.encode("ascii"))
        )
        if not isinstance(raw, dict) or raw.get("v") != WIRE_VERSION:
            raise ValueError("cursor version mismatch")
        offset = int(raw["o"])
    except (
        ValueError,
        KeyError,
        TypeError,
        AttributeError,
        binascii.Error,
    ) as exc:
        raise ReproError(f"invalid pagination cursor: {exc}") from None
    if offset < 0:
        raise ReproError("invalid pagination cursor: negative offset")
    return offset


def default_spec_name(
    spec: Optional[str], names: Callable[[], List[str]]
) -> str:
    """The specification a call means: ``spec``, else the only one of
    ``names()``.  With zero or several, the local and the remote
    workspace alike refuse, spelling out the names."""
    if spec is not None:
        return spec
    listed = names()
    if len(listed) == 1:
        return listed[0]
    if not listed:
        raise ReproError(
            "workspace holds no specifications; register one first"
        )
    raise ReproError(
        "workspace holds several specifications "
        f"({', '.join(listed)}); pass spec= to disambiguate"
    )


def _operations_to_payload(operations: Sequence[PathOperation]) -> list:
    return [op.to_dict() for op in operations]


def _operations_from_payload(payload: Any) -> List[PathOperation]:
    if not isinstance(payload, list):
        raise ReproError("operations payload must be a list")
    return [PathOperation.from_dict(op) for op in payload]


# -- diff outcomes ------------------------------------------------------
@dataclass
class DiffOutcome:
    """One priced diff: a directed run pair and its minimum-cost script.

    The workspace's uniform result type — :meth:`WorkspaceAPI.diff`
    returns one, ``diff_many`` streams them, :class:`QueryPage` pages
    them.  ``operations`` is the full elementary edit script from
    ``run_a`` to ``run_b``; its summed cost equals ``distance`` by
    construction.  ``cost_key`` is the cost model's stable cache-key
    identity (``None`` for uncacheable models), so an outcome remains
    attributable to the exact pricing after transport.
    """

    spec_name: str
    run_a: str
    run_b: str
    cost_model: str  #: display name of the cost model used
    distance: float
    operations: List[PathOperation]
    cost_key: Optional[str] = None  #: cache-key identity of the model

    @property
    def pair(self) -> Tuple[str, str]:
        """The directed ``(run_a, run_b)`` name pair."""
        return (self.run_a, self.run_b)

    @property
    def op_count(self) -> int:
        """Number of elementary operations in the script."""
        return len(self.operations)

    def to_dict(self) -> dict:
        """JSON-safe representation (the wire and ``--json`` payload)."""
        return {
            "v": WIRE_VERSION,
            "spec": self.spec_name,
            "run_a": self.run_a,
            "run_b": self.run_b,
            "cost_model": self.cost_model,
            "cost_key": self.cost_key,
            "distance": self.distance,
            "operations": _operations_to_payload(self.operations),
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "DiffOutcome":
        """Rebuild an outcome from :meth:`to_dict` output (exact inverse).

        Raises :class:`ReproError` on malformed payloads or unknown
        schema versions.
        """
        payload = _require_version(payload, "DiffOutcome")
        try:
            return cls(
                spec_name=str(payload["spec"]),
                run_a=str(payload["run_a"]),
                run_b=str(payload["run_b"]),
                cost_model=str(payload["cost_model"]),
                distance=float(payload["distance"]),
                operations=_operations_from_payload(
                    payload["operations"]
                ),
                cost_key=(
                    None
                    if payload.get("cost_key") is None
                    else str(payload["cost_key"])
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(
                f"malformed DiffOutcome payload: {exc}"
            ) from None

    def __str__(self) -> str:
        return (
            f"delta({self.run_a}, {self.run_b}) = {self.distance:g} "
            f"under {self.cost_model} ({self.op_count} ops)"
        )


# -- distance matrices --------------------------------------------------
@dataclass(eq=False)
class MatrixResult(Mapping):
    """An all-pairs distance matrix as a typed, transportable result.

    Behaves as a read-only :class:`~typing.Mapping` over the historical
    ``{(run_a, run_b): distance}`` shape (unordered pairs in listing
    order), so every pre-existing consumer of
    ``Workspace.matrix()`` — iteration, ``.items()``, ``.get()``,
    equality against a plain dict — keeps working, while the wire gains
    the spec name, cost identity, and run listing alongside the values.
    """

    spec_name: str
    cost_model: str
    cost_key: Optional[str]
    runs: List[str]
    distances: Dict[Tuple[str, str], float]

    # -- Mapping face ---------------------------------------------------
    def __getitem__(self, pair: Tuple[str, str]) -> float:
        return self.distances[pair]

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self.distances)

    def __len__(self) -> int:
        return len(self.distances)

    def __eq__(self, other: object) -> bool:
        """Field equality against another result; value equality
        against any plain mapping (the legacy dict shape)."""
        if isinstance(other, MatrixResult):
            return (
                self.spec_name == other.spec_name
                and self.cost_model == other.cost_model
                and self.cost_key == other.cost_key
                and self.runs == other.runs
                and self.distances == other.distances
            )
        if isinstance(other, Mapping):
            return self.distances == dict(other)
        return NotImplemented

    __hash__ = None  # mutable mapping-like: unhashable, like dict

    def to_dict(self) -> dict:
        """JSON-safe representation; pairs become ``[a, b, distance]``
        triples (names may contain any character, so no string joins)."""
        return {
            "v": WIRE_VERSION,
            "spec": self.spec_name,
            "cost_model": self.cost_model,
            "cost_key": self.cost_key,
            "runs": list(self.runs),
            "distances": [
                [a, b, value]
                for (a, b), value in self.distances.items()
            ],
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "MatrixResult":
        """Rebuild a matrix from :meth:`to_dict` output (exact inverse)."""
        payload = _require_version(payload, "MatrixResult")
        try:
            distances = {
                (str(a), str(b)): float(value)
                for a, b, value in payload["distances"]
            }
            return cls(
                spec_name=str(payload["spec"]),
                cost_model=str(payload["cost_model"]),
                cost_key=(
                    None
                    if payload.get("cost_key") is None
                    else str(payload["cost_key"])
                ),
                runs=[str(name) for name in payload["runs"]],
                distances=distances,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(
                f"malformed MatrixResult payload: {exc}"
            ) from None


# -- query filters and pages --------------------------------------------
@dataclass(frozen=True)
class QueryFilter:
    """The declarative, wire-safe query filter (AND of its clauses).

    Mirrors exactly the predicate surface the CLI exposes: operation
    kinds (OR-ed), touched labels (OR-ed), and cost / op-count ranges,
    all AND-ed together.  An empty filter matches every diff.  Live
    :class:`~repro.query.predicates.Predicate` objects are strictly
    more expressive but are arbitrary Python — only this declarative
    subset travels over HTTP.
    """

    kinds: Tuple[str, ...] = ()
    touches: Tuple[str, ...] = ()
    min_cost: Optional[float] = None
    max_cost: Optional[float] = None
    min_ops: Optional[int] = None
    max_ops: Optional[int] = None
    #: Operational-metadata clauses (OR-ed within, AND-ed with the
    #: rest): restrict the corpus to run pairs whose *both* runs were
    #: ingested by one of these users / on one of these hosts (see
    #: :mod:`repro.obs.runmeta`).  Runs without metadata never match a
    #: non-empty clause.
    users: Tuple[str, ...] = ()
    hosts: Tuple[str, ...] = ()

    def is_empty(self) -> bool:
        """True when no clause is set (the match-everything filter)."""
        return not (
            self.kinds
            or self.touches
            or self.min_cost is not None
            or self.max_cost is not None
            or self.min_ops is not None
            or self.max_ops is not None
            or self.users
            or self.hosts
        )

    def to_predicate(self):
        """The equivalent ``Q`` predicate, or ``None`` when empty."""
        from repro.query.predicates import Predicate, Q

        parts: List[Predicate] = []
        if self.kinds:
            parts.append(Q.op_kind(*self.kinds))
        if self.touches:
            parts.append(Q.touches(*self.touches))
        if self.min_cost is not None or self.max_cost is not None:
            parts.append(Q.cost(min=self.min_cost, max=self.max_cost))
        if self.min_ops is not None or self.max_ops is not None:
            parts.append(
                Q.op_count(min=self.min_ops, max=self.max_ops)
            )
        if not parts:
            return None
        predicate = parts[0]
        for part in parts[1:]:
            predicate = predicate & part
        return predicate

    def describe(self) -> str:
        """Human-readable form, matching the predicate's own wording."""
        predicate = self.to_predicate()
        parts = [] if predicate is None else [predicate.describe()]
        if self.users:
            parts.append("user in {" + ", ".join(self.users) + "}")
        if self.hosts:
            parts.append("host in {" + ", ".join(self.hosts) + "}")
        return " and ".join(parts) if parts else "*"

    def to_dict(self) -> dict:
        """JSON-safe representation (the ``filter`` member of a query)."""
        return {
            "v": WIRE_VERSION,
            "kinds": list(self.kinds),
            "touches": list(self.touches),
            "min_cost": self.min_cost,
            "max_cost": self.max_cost,
            "min_ops": self.min_ops,
            "max_ops": self.max_ops,
            "users": list(self.users),
            "hosts": list(self.hosts),
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "QueryFilter":
        """Rebuild a filter from :meth:`to_dict` output (``None`` and
        ``{}`` are accepted as the empty filter)."""
        if payload is None or payload == {}:
            return cls()
        payload = _require_version(payload, "QueryFilter")
        try:
            return cls(
                kinds=tuple(
                    str(kind) for kind in payload.get("kinds", ())
                ),
                touches=tuple(
                    str(label) for label in payload.get("touches", ())
                ),
                min_cost=_opt_number(payload.get("min_cost"), float),
                max_cost=_opt_number(payload.get("max_cost"), float),
                min_ops=_opt_number(payload.get("min_ops"), int),
                max_ops=_opt_number(payload.get("max_ops"), int),
                users=tuple(
                    str(user) for user in payload.get("users", ())
                ),
                hosts=tuple(
                    str(host) for host in payload.get("hosts", ())
                ),
            )
        except (TypeError, ValueError) as exc:
            raise ReproError(
                f"malformed QueryFilter payload: {exc}"
            ) from None


def _opt_number(value, convert):
    """``convert(value)`` with ``None`` passed through."""
    return None if value is None else convert(value)


@dataclass
class QueryPage:
    """One page of query results, with an opaque continuation cursor.

    ``items`` are full :class:`DiffOutcome` objects (script included) in
    the corpus's deterministic listing order; ``total_matches`` counts
    the whole result set, however many pages it spans.  ``next_cursor``
    is ``None`` on the final page, else the token to pass back to fetch
    the next one.
    """

    spec_name: str
    cost_model: str
    cost_key: Optional[str]
    filter: QueryFilter
    total_matches: int
    items: List[DiffOutcome]
    cursor: Optional[str] = None  #: the cursor this page answered
    next_cursor: Optional[str] = None

    def to_dict(self) -> dict:
        """JSON-safe representation of the page."""
        return {
            "v": WIRE_VERSION,
            "spec": self.spec_name,
            "cost_model": self.cost_model,
            "cost_key": self.cost_key,
            "filter": self.filter.to_dict(),
            "total_matches": self.total_matches,
            "items": [item.to_dict() for item in self.items],
            "cursor": self.cursor,
            "next_cursor": self.next_cursor,
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "QueryPage":
        """Rebuild a page from :meth:`to_dict` output (exact inverse)."""
        payload = _require_version(payload, "QueryPage")
        try:
            return cls(
                spec_name=str(payload["spec"]),
                cost_model=str(payload["cost_model"]),
                cost_key=(
                    None
                    if payload.get("cost_key") is None
                    else str(payload["cost_key"])
                ),
                filter=QueryFilter.from_dict(payload.get("filter")),
                total_matches=int(payload["total_matches"]),
                items=[
                    DiffOutcome.from_dict(item)
                    for item in payload["items"]
                ],
                cursor=payload.get("cursor"),
                next_cursor=payload.get("next_cursor"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(
                f"malformed QueryPage payload: {exc}"
            ) from None


# -- stats ---------------------------------------------------------------
def derive_stats(
    counters: Mapping[str, int], lock_wait_seconds: float
) -> Dict[str, float]:
    """The ``derived`` block of a :class:`StatsSnapshot`.

    Each hit ratio is hits over lookups (``0.0`` with no lookups); a
    cluster's ``/stats`` passes its workers' *summed* counters, so a
    busy worker weighs more than an idle one.
    """

    def ratio(hits: int, lookups: int) -> float:
        return hits / lookups if lookups else 0.0

    memory_hits = counters.get("memory_hits", 0)
    disk_hits = counters.get("disk_hits", 0)
    lookups = memory_hits + disk_hits + counters.get("misses", 0)
    script_hits = counters.get("script_memory_hits", 0) + counters.get(
        "script_disk_hits", 0
    )
    return {
        "memory_hit_ratio": ratio(memory_hits, lookups),
        "disk_hit_ratio": ratio(disk_hits, lookups),
        "script_hit_ratio": ratio(
            script_hits, script_hits + counters.get("script_misses", 0)
        ),
        "lock_wait_seconds": lock_wait_seconds,
    }


@dataclass
class StatsSnapshot:
    """A point-in-time snapshot of a workspace's service counters.

    ``counters`` carries the corpus service's integral cache/DP
    statistics (``memory_hits``, ``disk_hits``, ``computed_pairs``,
    ``script_*``, ...); ``derived`` (schema v2) carries the float-valued
    derived quantities — per-tier hit ratios (``memory_hit_ratio``,
    ``disk_hit_ratio``, ``script_hit_ratio``) and contention totals
    (``lock_wait_seconds``); ``source`` records where the snapshot was
    taken (``"local"`` or the remote base URL) so aggregated dashboards
    can attribute it.

    Versioning: snapshots serialise as :data:`STATS_WIRE_VERSION` (2);
    :meth:`from_dict` also accepts v1 payloads (pre-observability
    servers), which simply carry no ``derived`` block.
    """

    counters: Dict[str, int]
    source: str = "local"
    derived: Dict[str, float] = field(default_factory=dict)

    def __getitem__(self, name: str) -> float:
        if name in self.counters:
            return self.counters[name]
        return self.derived[name]

    def get(self, name: str, default: float = 0) -> float:
        """A counter's (or derived value's) value, like ``dict.get``."""
        if name in self.counters:
            return self.counters[name]
        return self.derived.get(name, default)

    def to_dict(self) -> dict:
        """JSON-safe representation of the snapshot."""
        return {
            "v": STATS_WIRE_VERSION,
            "source": self.source,
            "counters": dict(self.counters),
            "derived": dict(self.derived),
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "StatsSnapshot":
        """Rebuild a snapshot from :meth:`to_dict` output.

        Accepts every version in the snapshot's compatibility window
        (currently v1 and v2) — v1 payloads decode with an empty
        ``derived`` block.
        """
        if not isinstance(payload, dict):
            raise ReproError("StatsSnapshot payload must be a JSON object")
        if payload.get("v") not in _STATS_COMPATIBLE_VERSIONS:
            raise ReproError(
                f"unsupported StatsSnapshot schema version "
                f"{payload.get('v')!r} (this client speaks "
                f"v{STATS_WIRE_VERSION} and reads v1)"
            )
        counters = payload.get("counters")
        if not isinstance(counters, dict):
            raise ReproError("malformed StatsSnapshot payload")
        derived = payload.get("derived", {})
        if not isinstance(derived, dict):
            raise ReproError("malformed StatsSnapshot payload")
        return cls(
            counters={str(k): int(v) for k, v in counters.items()},
            source=str(payload.get("source", "local")),
            derived={str(k): float(v) for k, v in derived.items()},
        )


# -- PROV import summaries ----------------------------------------------
@dataclass
class ImportSummary:
    """The transportable outcome of a PROV-JSON/OPM import.

    The local :meth:`Workspace.import_prov` returns live objects (the
    reconstructed run and specification); over the wire the server
    reports this summary instead: names, sizes, the normalisation
    report (as its stable dict form plus display lines), and — when the
    import also priced the newcomer — the new corpus distance pairs.
    """

    spec_name: str
    run_name: str
    origin: str
    nodes: int
    edges: int
    report: Dict[str, Any] = field(default_factory=dict)
    report_lines: List[str] = field(default_factory=list)
    new_pairs: Dict[Tuple[str, str], float] = field(
        default_factory=dict
    )

    def to_dict(self) -> dict:
        """JSON-safe representation; pairs become ``[a, b, d]`` triples."""
        return {
            "v": WIRE_VERSION,
            "spec": self.spec_name,
            "run": self.run_name,
            "origin": self.origin,
            "nodes": self.nodes,
            "edges": self.edges,
            "report": dict(self.report),
            "report_lines": list(self.report_lines),
            "new_pairs": [
                [a, b, value]
                for (a, b), value in self.new_pairs.items()
            ],
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "ImportSummary":
        """Rebuild a summary from :meth:`to_dict` output."""
        payload = _require_version(payload, "ImportSummary")
        try:
            return cls(
                spec_name=str(payload["spec"]),
                run_name=str(payload["run"]),
                origin=str(payload["origin"]),
                nodes=int(payload["nodes"]),
                edges=int(payload["edges"]),
                report=dict(payload.get("report", {})),
                report_lines=[
                    str(line)
                    for line in payload.get("report_lines", [])
                ],
                new_pairs={
                    (str(a), str(b)): float(value)
                    for a, b, value in payload.get("new_pairs", [])
                },
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(
                f"malformed ImportSummary payload: {exc}"
            ) from None


# -- streaming-ingestion summaries --------------------------------------
@dataclass
class StreamSummary:
    """Aggregate counters of a workspace's streaming-ingestion hub.

    The ``/stats`` face of :class:`repro.stream.hub.StreamHub` — the
    same numbers the ``stream_*`` metric families expose on
    ``/metrics``, so the two surfaces stay in agreement.  All counters
    are lifetime totals except ``open_sessions`` (a point-in-time
    gauge).
    """

    open_sessions: int = 0
    sessions_opened: int = 0
    events_ingested: int = 0
    runs_closed: int = 0
    resumed: int = 0
    duplicates: int = 0
    rejected_frames: int = 0
    flagged: int = 0

    def to_dict(self) -> dict:
        """JSON-safe representation of the summary."""
        return {
            "v": WIRE_VERSION,
            "open_sessions": self.open_sessions,
            "sessions_opened": self.sessions_opened,
            "events_ingested": self.events_ingested,
            "runs_closed": self.runs_closed,
            "resumed": self.resumed,
            "duplicates": self.duplicates,
            "rejected_frames": self.rejected_frames,
            "flagged": self.flagged,
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "StreamSummary":
        """Rebuild a summary from :meth:`to_dict` output."""
        payload = _require_version(payload, "StreamSummary")
        try:
            return cls(
                open_sessions=int(payload.get("open_sessions", 0)),
                sessions_opened=int(payload.get("sessions_opened", 0)),
                events_ingested=int(payload.get("events_ingested", 0)),
                runs_closed=int(payload.get("runs_closed", 0)),
                resumed=int(payload.get("resumed", 0)),
                duplicates=int(payload.get("duplicates", 0)),
                rejected_frames=int(payload.get("rejected_frames", 0)),
                flagged=int(payload.get("flagged", 0)),
            )
        except (TypeError, ValueError) as exc:
            raise ReproError(
                f"malformed StreamSummary payload: {exc}"
            ) from None

    def as_counters(self, prefix: str = "stream_") -> Dict[str, int]:
        """The summary as flat ``/stats`` counters (``stream_*``)."""
        return {
            prefix + key: value
            for key, value in self.to_dict().items()
            if key != "v"
        }


# -- error envelopes ----------------------------------------------------
#: HTTP status for each error type; anything else derived from
#: :class:`ReproError` is a 400 (client error), everything else a 500.
STATUS_BY_ERROR_TYPE = {
    "NotFoundError": 404,
    "ConflictError": 409,
    "PayloadTooLargeError": 413,
    "ServiceUnavailableError": 503,
}

#: Envelope type used for non-:class:`ReproError` server failures; the
#: client maps it back to a bare :class:`ReproError` (never leaking a
#: server traceback into the caller).
INTERNAL_ERROR_TYPE = "InternalServerError"


@dataclass
class ErrorEnvelope:
    """The structured error payload of the HTTP diff service.

    The server serialises every failure into one of these (no
    tracebacks on the wire); the remote client rebuilds the matching
    :class:`ReproError` subclass from it, so error handling code works
    identically against a local or remote workspace.
    """

    type: str
    message: str
    status: int
    request_id: Optional[str] = None

    @classmethod
    def from_exception(
        cls,
        exc: BaseException,
        request_id: Optional[str] = None,
    ) -> "ErrorEnvelope":
        """Classify an exception into an envelope (and its status)."""
        if isinstance(exc, ReproError):
            name = type(exc).__name__
            status = 400
            for klass in type(exc).__mro__:
                if klass.__name__ in STATUS_BY_ERROR_TYPE:
                    status = STATUS_BY_ERROR_TYPE[klass.__name__]
                    break
            return cls(
                type=name,
                message=str(exc),
                status=status,
                request_id=request_id,
            )
        return cls(
            type=INTERNAL_ERROR_TYPE,
            message=f"internal server error: {type(exc).__name__}",
            status=500,
            request_id=request_id,
        )

    def to_exception(self) -> ReproError:
        """The :class:`ReproError` (subclass) this envelope denotes.

        The server's correlation ID (when the envelope carries one) is
        attached to the raised error as a ``request_id`` attribute so
        callers can quote it when filing reports against server logs.
        """
        import repro.errors as _errors

        klass = getattr(_errors, self.type, None)
        if not (
            isinstance(klass, type) and issubclass(klass, ReproError)
        ):
            klass = ReproError
        error = klass(self.message)
        error.request_id = self.request_id
        return error

    def to_dict(self) -> dict:
        """The wire shape: ``{"error": {type, message, status[, request_id]}}``."""
        error: Dict[str, Any] = {
            "type": self.type,
            "message": self.message,
            "status": self.status,
        }
        if self.request_id is not None:
            error["request_id"] = self.request_id
        return {"error": error}

    @classmethod
    def from_payload(cls, payload: Any) -> Optional["ErrorEnvelope"]:
        """Parse a response body into an envelope, or ``None`` when the
        body is not an error envelope (e.g. a proxy's HTML error page)."""
        if not isinstance(payload, dict):
            return None
        error = payload.get("error")
        if not isinstance(error, dict):
            return None
        try:
            request_id = error.get("request_id")
            return cls(
                type=str(error["type"]),
                message=str(error["message"]),
                status=int(error["status"]),
                request_id=(
                    None if request_id is None else str(request_id)
                ),
            )
        except (KeyError, TypeError, ValueError):
            return None


# -- the protocol -------------------------------------------------------
@runtime_checkable
class WorkspaceAPI(Protocol):
    """The public surface a provenance workspace exposes.

    Structural (``typing.Protocol``): any object with these methods is
    a workspace, wherever the work happens.  The two shipped
    implementations are :class:`repro.workspace.Workspace` (in-process,
    store-backed) and :class:`repro.client.RemoteWorkspace` (the same
    surface spoken over HTTP to a ``repro serve`` process) — client
    code, the CLI, and the examples run unchanged against either.

    Methods that accept ``spec=None`` resolve the workspace's default
    specification (unambiguous only when exactly one is registered);
    ``cost=None`` uses the workspace's configured default model.
    """

    def specifications(self) -> List[str]:
        """Names of every specification this workspace knows."""
        ...

    def specification(self, name: str):
        """The named :class:`WorkflowSpecification`."""
        ...

    def register(self, spec) -> None:
        """Persist a specification and adopt it for later calls."""
        ...

    def runs(self, spec: Optional[str] = None) -> List[str]:
        """Names of the stored runs of a specification."""
        ...

    def run(self, name: str, spec: Optional[str] = None):
        """A stored run as a :class:`WorkflowRun` object."""
        ...

    def import_run(self, run) -> None:
        """Persist a run without pricing it against the corpus."""
        ...

    def generate_run(
        self,
        name: str,
        spec: Optional[str] = None,
        params=None,
        seed: Optional[int] = None,
    ):
        """Generate, persist and return a random run of a specification."""
        ...

    def diff(
        self, a, b, spec: Optional[str] = None, cost=None
    ) -> DiffOutcome:
        """The minimum-cost edit script from ``a`` to ``b``, priced."""
        ...

    def matrix(
        self,
        spec: Optional[str] = None,
        cost=None,
        runs: Optional[Sequence[str]] = None,
    ) -> MatrixResult:
        """All-pairs distances over the (restricted) corpus."""
        ...

    def nearest(
        self,
        run_name: str,
        k: Optional[int] = None,
        spec: Optional[str] = None,
        cost=None,
    ) -> List[Tuple[str, float]]:
        """``run_name``'s neighbours by ascending distance."""
        ...

    def medoid(
        self, spec: Optional[str] = None, cost=None
    ) -> Tuple[str, float]:
        """The corpus's most central run, ``(name, mean distance)``."""
        ...

    def outliers(
        self,
        spec: Optional[str] = None,
        cost=None,
        top: Optional[int] = None,
    ) -> List[Tuple[str, float]]:
        """Runs ranked by descending mean distance to the corpus."""
        ...

    def query_page(
        self,
        filter: Optional[QueryFilter] = None,
        spec: Optional[str] = None,
        cost=None,
        cursor: Optional[str] = None,
        limit: Optional[int] = None,
        runs: Optional[Sequence[str]] = None,
    ) -> QueryPage:
        """One page of the diffs matching a :class:`QueryFilter`."""
        ...

    def export_prov(
        self, run_name: str, spec: Optional[str] = None
    ) -> str:
        """A stored run as deterministic PROV-JSON text."""
        ...

    def stats_snapshot(self) -> StatsSnapshot:
        """The service counters as a typed :class:`StatsSnapshot`."""
        ...

    def stream(
        self,
        spec: str,
        run: str,
        session: Optional[str] = None,
        threshold: Optional[float] = None,
    ):
        """An open :class:`repro.stream.client.StreamSession` for one
        run, ingested live event by event."""
        ...

    def stream_live(self) -> List[Any]:
        """Live analytics snapshots of every open streaming session
        (:class:`repro.stream.events.LiveStatus` items)."""
        ...
