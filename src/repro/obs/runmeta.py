"""Operational run metadata: who ingested what, where, when.

CWLProv keeps an operational account alongside every workflow result —
the account's creating user, host, start/end timestamps and tool
version.  :class:`RunMetadata` is this library's equivalent for stored
runs: captured automatically whenever a run is persisted (native saves,
``POST /prov/import`` ingests and stream closes alike), written inside
the run's own document as its ``<meta>`` element by
:meth:`repro.io.store.WorkflowStore.save_run`, and surfaced through
:class:`repro.api_types.QueryFilter`'s ``users``/``hosts`` clauses so a
corpus can be sliced per-user or per-host — the future shard key.
Stores written before 9.0 keep it in a ``<run>.meta.json`` sidecar,
which :meth:`~repro.io.store.WorkflowStore.run_metadata` still reads.

Metadata is *operational*, not semantic: it never participates in
fingerprints, distances, or interchange round trips, and a run without
it (or with a malformed one) is simply a run with no metadata — every
reader treats it as optional.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Optional

from repro import __version__

__all__ = ["META_VERSION", "RunMetadata", "capture_run_metadata"]

#: Payload schema version (independent of the HTTP wire version).
META_VERSION = 1


def _utc_now() -> str:
    """The current instant as an ISO-8601 UTC timestamp."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _current_user() -> str:
    try:
        import getpass

        return getpass.getuser()
    except Exception:  # noqa: BLE001 - no login database, no $USER, ...
        return "unknown"


def _current_host() -> str:
    try:
        import socket

        return socket.gethostname()
    except Exception:  # noqa: BLE001 - defensive: metadata best-effort
        return "unknown"


@dataclass(frozen=True)
class RunMetadata:
    """The operational account of one persisted run."""

    user: str
    host: str
    started: str  #: ISO-8601 UTC instant the ingest began
    ended: str  #: ISO-8601 UTC instant the ingest finished
    tool_version: str
    origin: str = "native"  #: ``native`` or the import origin
    request_id: Optional[str] = None  #: HTTP correlation ID, if any
    session: Optional[str] = None  #: the stream session that closed it

    def to_dict(self) -> dict:
        """JSON-safe payload (the run document's ``<meta>`` text)."""
        payload = {
            "v": META_VERSION,
            "user": self.user,
            "host": self.host,
            "started": self.started,
            "ended": self.ended,
            "tool_version": self.tool_version,
            "origin": self.origin,
        }
        if self.request_id is not None:
            payload["request_id"] = self.request_id
        if self.session is not None:
            payload["session"] = self.session
        return payload

    @classmethod
    def from_dict(cls, payload: Any) -> Optional["RunMetadata"]:
        """Rebuild from a payload; ``None`` on any malformation
        (metadata is best-effort — a corrupt payload is no metadata)."""
        if not isinstance(payload, dict):
            return None
        if payload.get("v") != META_VERSION:
            return None
        try:
            request_id = payload.get("request_id")
            session = payload.get("session")
            return cls(
                user=str(payload["user"]),
                host=str(payload["host"]),
                started=str(payload["started"]),
                ended=str(payload["ended"]),
                tool_version=str(payload["tool_version"]),
                origin=str(payload.get("origin", "native")),
                request_id=(
                    None if request_id is None else str(request_id)
                ),
                session=None if session is None else str(session),
            )
        except (KeyError, TypeError, ValueError):
            return None


def capture_run_metadata(
    origin: str = "native",
    started: Optional[str] = None,
    ended: Optional[str] = None,
    session: Optional[str] = None,
) -> RunMetadata:
    """Capture the current operational context as :class:`RunMetadata`.

    ``started``/``ended`` default to now (callers that bracket a longer
    ingest pass their own instants); the request ID is picked up from
    the logging context automatically when the capture happens inside
    an HTTP request.
    """
    from repro.obs.logging import current_request_id

    now = _utc_now()
    return RunMetadata(
        user=_current_user(),
        host=_current_host(),
        started=started if started is not None else now,
        ended=ended if ended is not None else now,
        tool_version=__version__,
        origin=origin,
        request_id=current_request_id(),
        session=session,
    )
