"""A pre-forked worker's app: the cluster-wide routes over one process.

Each worker runs a :class:`_ClusterApp`: the single process's request
frame, passing every route to its
:class:`~repro.service.app.WorkspaceApp`'s router (a request is framed
and counted once) but ``/healthz``, ``/stats`` and ``/metrics``.  Those
read the supervisor's membership file and merge this worker's live
numbers with each live sibling's snapshot, which a scrape asks for by
SIGUSR1 and awaits for up to :data:`SCRAPE_WAIT` seconds: with no
traffic in flight both scrapes are exact and agree.  Nothing is written
per request.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from typing import Dict, List, Optional

from repro.api_types import WIRE_VERSION, derive_stats
from repro.cluster.supervisor import MEMBERS_FILE, ClusterServer, write_json
from repro.obs.metrics import MetricsRegistry, render_exposition
from repro.service.app import (
    PROMETHEUS_TYPE,
    HttpRequest,
    HttpResponse,
    RequestFrame,
    WorkspaceApp,
    wants_json_metrics,
)

__all__ = ["ClusterServer"]  # the supervising parent, re-exported

#: Seconds a scrape waits for its siblings' fresh snapshots.
SCRAPE_WAIT = 2.0


def _alive(pid: int) -> bool:
    """Whether process ``pid`` runs: it exists, and is no zombie that
    the supervisor has yet to reap."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            state = handle.read().rsplit(b")", 1)[1].split()[0]
    except (OSError, IndexError):
        return True  # no procfs: the signal probe is all there is
    return state not in (b"Z", b"X")


def _read_json(path: str) -> Optional[dict]:
    try:
        with open(path, encoding="utf8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def _stamp(path: str) -> Optional[int]:
    """The inode, which each replacement of ``path`` changes."""
    try:
        return os.stat(path).st_ino
    except OSError:
        return None


class _ClusterApp(RequestFrame):
    """A worker's app: cluster-wide health and scrapes, the rest local."""

    def __init__(self, workspace, runtime: str, index: int):
        self.app = WorkspaceApp(workspace)
        super().__init__(workspace.metrics)
        self.workspace = workspace
        self.runtime = runtime
        self.index = index
        self.cluster_metrics = MetricsRegistry(
            enabled=workspace.config.metrics
        )
        self.cluster_metrics.gauge(
            "cluster_workers", "Worker processes in the serving cluster."
        ).set_function(lambda: self._members()["workers"])
        self.cluster_metrics.counter(
            "cluster_worker_restarts_total",
            "Worker processes restarted after a crash.",
        ).set_function(lambda: self._members()["restarts"])
        self._refresh = threading.Event()
        threading.Thread(
            target=self._snapshot_loop,
            name=f"repro-cluster-snapshots:{index}",
            daemon=True,
        ).start()

    def handle(self, request: HttpRequest) -> HttpResponse:
        """Route one request through the frame."""
        return self._framed(request)

    def abort_inflight(self, error: BaseException) -> int:
        """Fail every coalesced computation's waiters (graceful drain)."""
        return self.app.abort_inflight(error)

    def _route(self, request: HttpRequest) -> HttpResponse:
        parts = request.segments
        if request.method.upper() == "GET" and parts in (
            ["healthz"], ["stats"], ["metrics"],
        ):
            return getattr(self, "_" + parts[0])(request)
        return self.app._route(request)

    # -- the runtime directory ---------------------------------------------
    def _members(self) -> dict:
        return _read_json(os.path.join(self.runtime, MEMBERS_FILE)) or {
            "workers": 0, "restarts": 0, "members": [],
        }

    def _snapshot_path(self, index: int) -> str:
        return os.path.join(self.runtime, f"worker-{index}.json")

    def write_snapshot(self) -> None:
        """Write this worker's numbers for a sibling's scrape."""
        write_json(
            self._snapshot_path(self.index),
            {
                "index": self.index,
                "pid": os.getpid(),
                "stats": self.app.stats_payload(self.frame_counters()),
                "metrics": self.workspace.metrics.snapshot(),
            },
        )

    def request_snapshot(self, signum=None, frame=None) -> None:
        """SIGUSR1 handler: wake the snapshot thread, return at once."""
        self._refresh.set()

    def _snapshot_loop(self) -> None:
        while True:
            self._refresh.wait()
            self._refresh.clear()
            self.write_snapshot()

    def _sibling_snapshots(self) -> List[dict]:
        """A fresh snapshot from each live sibling, by index."""
        siblings = [
            member for member in self._members()["members"]
            if member["index"] != self.index and _alive(member["pid"])
        ]
        stale = {}
        for member in siblings:
            path = self._snapshot_path(member["index"])
            stale[path] = _stamp(path)
            try:
                os.kill(member["pid"], signal.SIGUSR1)
            except OSError:
                stale.pop(path)
        deadline = time.monotonic() + SCRAPE_WAIT
        while stale and time.monotonic() < deadline:
            time.sleep(0.001)
            stale = {
                path: stamp for path, stamp in stale.items()
                if _stamp(path) == stamp
            }
        snapshots = []
        for member in siblings:
            snapshot = _read_json(self._snapshot_path(member["index"]))
            if snapshot is not None and snapshot["pid"] == member["pid"]:
                snapshots.append(snapshot)
        return snapshots

    # -- the cluster-wide routes -------------------------------------------
    def _healthz(self, request: HttpRequest) -> HttpResponse:
        payload = self.app._healthz().json_payload()
        members = self._members()
        rows = [
            {**member, "alive": _alive(member["pid"])}
            for member in members["members"]
        ]
        alive = sum(1 for row in rows if row["alive"])
        payload["status"] = (
            "ok" if alive == members["workers"] else "degraded"
        )
        payload["cluster"] = {
            "workers": members["workers"],
            "alive": alive,
            "restarts": members["restarts"],
            "members": rows,
        }
        return HttpResponse.json(payload)

    def _stats(self, request: HttpRequest) -> HttpResponse:
        own = self.app.stats_payload(self.frame_counters())
        payloads = [own] + [s["stats"] for s in self._sibling_snapshots()]
        counters: Dict[str, int] = {}
        for payload in payloads:
            for name, value in payload["counters"].items():
                counters[name] = counters.get(name, 0) + int(value)
        # Open sessions are the store's journals, which every worker
        # counts alike.
        counters["stream_open_sessions"] = (
            own["counters"]["stream_open_sessions"]
        )
        members = self._members()
        counters["cluster_workers"] = members["workers"]
        counters["cluster_worker_restarts"] = members["restarts"]
        # Lock waits are additive: the cluster's is the workers' sum.
        lock_wait = sum(
            float(p.get("derived", {}).get("lock_wait_seconds", 0.0))
            for p in payloads
        )
        return HttpResponse.json(
            {
                **own,
                "source": "cluster",
                "counters": counters,
                "derived": derive_stats(counters, lock_wait),
            }
        )

    def _metrics(self, request: HttpRequest) -> HttpResponse:
        wants_json = wants_json_metrics(request)
        snapshots = [(self.index, self.workspace.metrics.snapshot())]
        snapshots += [
            (s["index"], s["metrics"]) for s in self._sibling_snapshots()
        ]
        snapshots.sort(key=lambda item: item[0])
        merged: Dict[str, dict] = {}
        for index, families in snapshots:
            for name, family in families.items():
                merged.setdefault(
                    name,
                    {"type": family["type"], "help": family["help"],
                     "samples": []},
                )["samples"].extend(
                    {**sample,
                     "labels": {**sample["labels"], "worker": str(index)}}
                    for sample in family["samples"]
                )
        merged.update(self.cluster_metrics.snapshot())
        if wants_json:
            return HttpResponse.json(
                {"v": WIRE_VERSION, "metrics": merged}
            )
        return HttpResponse.text(
            render_exposition(merged), PROMETHEUS_TYPE
        )
