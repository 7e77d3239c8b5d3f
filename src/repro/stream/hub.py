"""The server side of streaming ingestion: sessions, sequencing, analytics.

A :class:`StreamHub` owns every open streaming session of one
workspace.  It enforces the event protocol (contiguous sequence
numbers, idempotent replay, resume-by-``run_open``), feeds each
session's :class:`~repro.stream.incremental.IncrementalNormalizer`,
maintains **online analytics** for the open run against the frozen
corpus, and — on ``run_close`` — folds the finished run into the
corpus through the existing incremental
:meth:`~repro.corpus.service.DiffService.add_run`.

**Nothing is persisted before close.**  An open (or abandoned, or
errored) session lives entirely in hub memory; queries, listings and
diffs never see a half-ingested run.  A failed close (validation or
conflict) does not advance the sequence number, so the client can
repair and retry the same ``run_close``.

Two session modes, chosen at ``run_open``:

* ``validated`` — the named specification is registered: the streamed
  node/edge graph is validated as a :class:`WorkflowRun` of it at
  close (the monitor-a-running-campaign scenario, where forks and
  loops repeat module labels);
* ``derive`` — a foreign stream: the incremental normaliser's derived
  specification is used, exactly as a whole-document import would.

``mode="auto"`` (the default) picks ``validated`` when the
specification is registered.  Foreign streams aimed at a corpus whose
specification was itself *derived* by an earlier import should pass
``mode="derive"`` explicitly.

Analytics are **label-surplus lower bounds** (see
:class:`~repro.stream.events.LiveStatus`) kept per corpus run, exact
after every event at O(corpus) per label-count change it makes — no DP
runs while a session is open.  The flag is checked after every event,
so a run whose nearest-run bound crosses the session threshold is
**provably diverging no matter how it completes** (under the length
cost model), and is flagged before its ``run_close``.  Only the ack's
``LiveStatus`` needs a snapshot (a full SP-ization) of the partial
run: one per batch, as of its last event, none when it ends in
``run_close``.

Every mutation updates the hub's counters and the ``stream_*`` metric
families in the same locked region, so ``GET /stats`` (via
:meth:`summary`) and ``GET /metrics`` always agree.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.api_types import ImportSummary, StreamSummary
from repro.errors import (
    ConflictError,
    NotFoundError,
    ReproError,
    StreamProtocolError,
)
from repro.graphs.flow_network import FlowNetwork
from repro.obs.runmeta import capture_run_metadata
from repro.stream.events import (
    ActivityEvent,
    EdgeEvent,
    LiveStatus,
    RunClose,
    RunOpen,
    StreamAck,
    StreamEvent,
)
from repro.stream.incremental import IncrementalNormalizer, LabelChange
from repro.workflow.run import WorkflowRun

#: Closed sessions retained for idempotent replay of their final ack.
MAX_CLOSED_RETAINED = 64

MODE_AUTO = "auto"
MODE_VALIDATED = "validated"
MODE_DERIVE = "derive"


class _Session:
    """One open streaming session (all state in hub memory)."""

    def __init__(
        self,
        open_event: RunOpen,
        mode: str,
        corpus_counters: Dict[str, Dict[str, int]],
        medoid_run: Optional[str],
    ):
        self.open_payload = open_event.to_dict()
        self.session_id = open_event.session
        self.spec_name = open_event.spec_name
        self.run_name = open_event.run_name
        self.threshold = open_event.threshold
        self.mode = mode
        self.last_seq = 1
        self.normalizer = IncrementalNormalizer(
            name=open_event.spec_name, run_name=open_event.run_name
        )
        #: Frozen corpus view: per-run label multisets at open time.
        self.corpus_counters = corpus_counters
        self.medoid_run = medoid_run
        #: Label-surplus bound per corpus run, exact after every event.
        self.bounds: Dict[str, int] = dict.fromkeys(corpus_counters, 0)
        self.flagged = False
        self.flagged_at_seq: Optional[int] = None
        self.opened_meta = capture_run_metadata(origin="stream")

    # -- online bounds ---------------------------------------------------
    def update_bounds(self, changes: List[LabelChange]) -> None:
        """Fold the normaliser's label-count changes into the bounds.

        A run's bound sums ``max(0, open[l] - have[l])`` over labels,
        so moving ``open[l]`` from ``old`` to ``new`` moves it by the
        difference of the two surpluses.
        """
        for label, old, new in changes:
            for run_name, counters in self.corpus_counters.items():
                have = counters.get(label, 0)
                surplus = max(0, new - have) - max(0, old - have)
                self.bounds[run_name] += surplus

    def nearest(self) -> Tuple[Optional[str], float]:
        if not self.bounds:
            return None, 0.0
        name = min(self.bounds, key=lambda n: (self.bounds[n], n))
        return name, float(self.bounds[name])

    def check_flag(self, seq: int) -> bool:
        """Arm the divergence flag; True when it fires *now*."""
        if self.flagged or self.threshold is None or not self.bounds:
            return False
        _, bound = self.nearest()
        if bound > self.threshold:
            self.flagged = True
            self.flagged_at_seq = seq
            return True
        return False

    def live_status(self) -> LiveStatus:
        nearest_run, nearest_bound = self.nearest()
        outlier = (
            sum(self.bounds.values()) / len(self.bounds)
            if self.bounds
            else 0.0
        )
        sp_report: dict = {}
        if self.normalizer.num_activities:
            snapshot = self.normalizer.snapshot()
            sp_report = snapshot.report.to_dict()
        return LiveStatus(
            session=self.session_id,
            spec_name=self.spec_name,
            run_name=self.run_name,
            seq=self.last_seq,
            activities=self.normalizer.num_activities,
            edges=self.normalizer.num_edges,
            mode=self.mode,
            nearest_run=nearest_run,
            nearest_bound=nearest_bound,
            medoid_run=self.medoid_run,
            medoid_bound=(
                float(self.bounds[self.medoid_run])
                if self.medoid_run in self.bounds
                else 0.0
            ),
            outlier_score=float(outlier),
            threshold=self.threshold,
            flagged=self.flagged,
            flagged_at_seq=self.flagged_at_seq,
            sp_report=sp_report,
        )


class StreamHub:
    """Every open streaming session of one workspace, lock-disciplined.

    One coarse lock serialises event application (the corpus service
    below has its own monitor); reads (:meth:`live`, :meth:`summary`)
    take the same lock briefly.  Shared by the in-process
    :meth:`Workspace.stream` transport and the HTTP route, so both
    faces see one session namespace.
    """

    def __init__(self, workspace):
        self.workspace = workspace
        self._lock = threading.RLock()
        self._sessions: "OrderedDict[str, _Session]" = OrderedDict()
        #: Closed sessions: id -> (open payload, final ack), bounded.
        self._closed: "OrderedDict[str, Tuple[dict, StreamAck]]" = (
            OrderedDict()
        )
        self._counters = {
            "sessions_opened": 0,
            "events_ingested": 0,
            "runs_closed": 0,
            "resumed": 0,
            "duplicates": 0,
            "rejected_frames": 0,
            "flagged": 0,
        }
        metrics = workspace.metrics
        self._events_metric = metrics.counter(
            "stream_events_total",
            "Streaming events ingested, by event kind.",
        )
        self._opened_metric = metrics.counter(
            "stream_sessions_opened_total",
            "Streaming sessions opened.",
        )
        self._closed_metric = metrics.counter(
            "stream_runs_closed_total",
            "Streamed runs completed and folded into the corpus.",
        )
        self._resumed_metric = metrics.counter(
            "stream_resumed_total",
            "Session resumes (run_open replays onto live sessions).",
        )
        self._duplicates_metric = metrics.counter(
            "stream_duplicates_total",
            "Idempotently replayed event frames.",
        )
        self._rejected_metric = metrics.counter(
            "stream_rejected_frames_total",
            "Event frames rejected by the protocol, by error type.",
        )
        self._flags_metric = metrics.counter(
            "stream_flags_total",
            "Open runs flagged as diverging before run_close.",
        )
        metrics.gauge(
            "stream_open_sessions",
            "Streaming sessions currently open.",
        ).set_function(self.open_sessions)

    # -- introspection ----------------------------------------------------
    def open_sessions(self) -> int:
        with self._lock:
            return len(self._sessions)

    def summary(self) -> StreamSummary:
        """The hub's counters as a typed :class:`StreamSummary`."""
        with self._lock:
            return StreamSummary(
                open_sessions=len(self._sessions),
                **self._counters,
            )

    def live(self) -> List[LiveStatus]:
        """Analytics snapshots of every open session, oldest first."""
        with self._lock:
            return [
                session.live_status()
                for session in self._sessions.values()
            ]

    # -- event application ------------------------------------------------
    def apply(self, event: StreamEvent) -> StreamAck:
        """Apply one event (see :meth:`apply_batch`)."""
        return self.apply_batch([event])

    def apply_batch(self, events: List[StreamEvent]) -> StreamAck:
        """Apply a batch of events; one ack for the batch's session.

        All events of a batch must address one session (the client
        sends one POST per session).  Events apply in order; the first
        protocol violation aborts the batch with a
        :class:`~repro.errors.StreamProtocolError` (or a more specific
        :class:`~repro.errors.ReproError`), leaving the already-applied
        prefix acknowledged — the client re-handshakes with
        ``run_open`` and resumes from the acked sequence number.
        An open session's ack carries the batch's one ``LiveStatus``.
        """
        if not events:
            raise StreamProtocolError("empty event batch")
        session_ids = {event.session for event in events}
        if len(session_ids) != 1:
            raise StreamProtocolError(
                "one batch must address one session, got "
                + ", ".join(sorted(repr(s) for s in session_ids))
            )
        with self._lock:
            ack: Optional[StreamAck] = None
            duplicates = 0
            resumed = False
            try:
                for event in events:
                    ack = self._apply_locked(event)
                    duplicates += ack.duplicates
                    resumed = resumed or ack.resumed
            except ReproError:
                self._counters["rejected_frames"] += 1
                self._rejected_metric.inc()
                raise
            ack.duplicates = duplicates
            ack.resumed = resumed
            if ack.status == "open":
                ack.live = self._sessions[ack.session].live_status()
            return ack

    def _apply_locked(self, event: StreamEvent) -> StreamAck:
        if isinstance(event, RunOpen):
            return self._open(event)
        session = self._sessions.get(event.session)
        if session is None:
            return self._event_without_session(event)
        if event.seq <= session.last_seq:
            # Idempotent replay of an already-applied frame.
            self._counters["duplicates"] += 1
            self._duplicates_metric.inc()
            return self._ack(session, duplicates=1)
        if event.seq != session.last_seq + 1:
            raise StreamProtocolError(
                f"session {event.session!r}: out-of-order seq "
                f"{event.seq} (expected {session.last_seq + 1}; "
                f"resume from the last acknowledged frame)"
            )
        if isinstance(event, RunClose):
            return self._close(session, event)
        normalizer = session.normalizer
        if isinstance(event, ActivityEvent):
            changes = normalizer.add_activity(event.node, event.label)
        elif isinstance(event, EdgeEvent):
            changes = normalizer.add_edge(event.src, event.dst)
        else:  # pragma: no cover - event_from_dict is exhaustive
            raise StreamProtocolError(
                f"unknown event kind {event.kind!r}"
            )
        session.update_bounds(changes)
        self._ingested(session, event)
        return self._ack(session)

    def _ingested(self, session: _Session, event: StreamEvent) -> None:
        """Count one applied event, then check the divergence flag."""
        session.last_seq = event.seq
        self._counters["events_ingested"] += 1
        self._events_metric.inc(kind=event.kind)
        if session.check_flag(event.seq):
            self._counters["flagged"] += 1
            self._flags_metric.inc()

    def _event_without_session(self, event: StreamEvent) -> StreamAck:
        retained = self._closed.get(event.session)
        if retained is not None:
            _, final_ack = retained
            if event.seq <= final_ack.acked_seq:
                # Replay of a frame the closed session already applied:
                # answer with the cached final ack.
                self._counters["duplicates"] += 1
                self._duplicates_metric.inc()
                return self._copy_final(final_ack, duplicates=1)
            raise StreamProtocolError(
                f"session {event.session!r} is closed "
                f"(final seq {final_ack.acked_seq}); open a new "
                "session to stream another run"
            )
        raise StreamProtocolError(
            f"no open session {event.session!r}; send run_open first"
        )

    # -- open / resume -----------------------------------------------------
    def _open(self, event: RunOpen) -> StreamAck:
        existing = self._sessions.get(event.session)
        if existing is not None:
            if existing.open_payload != event.to_dict():
                raise ConflictError(
                    f"session {event.session!r} is already open with "
                    "a different run_open payload"
                )
            self._counters["resumed"] += 1
            self._resumed_metric.inc()
            return self._ack(existing, resumed=True)
        retained = self._closed.get(event.session)
        if retained is not None:
            open_payload, final_ack = retained
            if open_payload != event.to_dict():
                raise ConflictError(
                    f"session id {event.session!r} was already used "
                    "by a different run"
                )
            self._counters["resumed"] += 1
            self._resumed_metric.inc()
            return self._copy_final(final_ack, resumed=True)
        spec_known = self.workspace.store.has_specification(event.spec_name)
        mode = self._resolve_mode(event, spec_known)
        corpus_counters, medoid_run = (
            self._corpus_view(event) if spec_known else ({}, None)
        )
        session = _Session(event, mode, corpus_counters, medoid_run)
        self._sessions[event.session] = session
        self._counters["sessions_opened"] += 1
        self._opened_metric.inc()
        self._ingested(session, event)
        return self._ack(session)

    def _resolve_mode(self, event: RunOpen, spec_known: bool) -> str:
        mode = event.mode
        if mode == MODE_AUTO:
            return MODE_VALIDATED if spec_known else MODE_DERIVE
        if mode == MODE_VALIDATED and not spec_known:
            raise NotFoundError(
                f"no stored specification named {event.spec_name!r} "
                "to validate the streamed run against"
            )
        return mode

    def _corpus_view(
        self, event: RunOpen
    ) -> Tuple[Dict[str, Dict[str, int]], Optional[str]]:
        """Freeze a registered spec's corpus for online bounds.

        Loads no run: label counts come from the fingerprint index and
        the medoid from the family view, so a warm family opens in
        O(N) — a listing and a ``stat`` per run for each of the two.
        """
        run_names = self.workspace.runs(spec=event.spec_name)
        if event.run_name in run_names:
            raise ConflictError(
                f"run {event.run_name!r} already exists for "
                f"specification {event.spec_name!r}"
            )
        counters = self.workspace.service.label_counts(
            event.spec_name, run_names
        )
        medoid_run: Optional[str] = None
        if len(run_names) == 1:
            medoid_run = run_names[0]
        elif len(run_names) >= 2:
            medoid_run = self.workspace.medoid(spec=event.spec_name)[0]
        return counters, medoid_run

    # -- close -------------------------------------------------------------
    def _close(
        self, session: _Session, event: RunClose
    ) -> StreamAck:
        """Validate/normalise, enter the corpus, retire the session.

        Raises (validation failure, specification conflict) leave the
        sequence number untouched: the half-closed run stays invisible
        and the client may repair state and retry the close.
        """
        meta = capture_run_metadata(
            origin="stream", started=session.opened_meta.started
        )
        if session.mode == MODE_VALIDATED:
            run, report_dict, report_lines = self._validated_run(session)
        else:
            result = session.normalizer.finish()
            run = result.run
            report_dict = result.report.to_dict()
            report_lines = list(result.report.summary_lines())
        distances = self.workspace.service.add_run(
            run, cost=self.workspace.config.cost, meta=meta
        )
        summary = ImportSummary(
            spec_name=run.spec.name,
            run_name=run.name,
            origin="stream",
            nodes=run.graph.num_nodes,
            edges=run.graph.num_edges,
            report=report_dict,
            report_lines=report_lines,
            new_pairs=dict(distances),
        )
        self._ingested(session, event)
        self._counters["runs_closed"] += 1
        self._closed_metric.inc()
        final_ack = StreamAck(
            session=session.session_id,
            acked_seq=session.last_seq,
            status="closed",
            result=summary,
        )
        del self._sessions[session.session_id]
        self._closed[session.session_id] = (
            session.open_payload,
            final_ack,
        )
        while len(self._closed) > MAX_CLOSED_RETAINED:
            self._closed.popitem(last=False)
        return self._copy_final(final_ack)

    def _validated_run(self, session: _Session):
        """Build and validate the streamed graph as a run of the
        registered specification (``validated`` mode)."""
        spec = self.workspace.specification(session.spec_name)
        normalizer = session.normalizer
        graph = FlowNetwork(name=session.run_name)
        doc = normalizer.doc
        for node in doc.activity_ids():
            graph.add_node(node, normalizer.effective_label(node))
        for relation in doc.relations:
            # A self-dependency is no edge of the run, as for the
            # importer; duplicates stay (a fork's parallel edges).
            if relation.object != relation.subject:
                graph.add_edge(relation.object, relation.subject)
        run = WorkflowRun(spec, graph, name=session.run_name)
        lines = [
            f"validated against registered specification "
            f"{session.spec_name!r}"
        ]
        return run, {}, lines

    # -- ack assembly ------------------------------------------------------
    @staticmethod
    def _ack(
        session: _Session,
        duplicates: int = 0,
        resumed: bool = False,
    ) -> StreamAck:
        """An open session's ack; :meth:`apply_batch` adds its live view."""
        return StreamAck(
            session=session.session_id,
            acked_seq=session.last_seq,
            status="open",
            resumed=resumed,
            duplicates=duplicates,
        )

    @staticmethod
    def _copy_final(
        final_ack: StreamAck,
        duplicates: int = 0,
        resumed: bool = False,
    ) -> StreamAck:
        return StreamAck(
            session=final_ack.session,
            acked_seq=final_ack.acked_seq,
            status=final_ack.status,
            resumed=resumed,
            duplicates=duplicates,
            result=final_ack.result,
        )
