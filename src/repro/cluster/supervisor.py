"""Worker process lifecycle: spawn, watch, restart, stop.

The :class:`WorkerSupervisor` owns the cluster's worker processes.  It
spawns ``count`` workers (``spawn`` start method — importable entry
point, picklable arguments, no inherited locks), learns each worker's
bound port over a one-shot pipe, and then watches liveness from a
background thread: a worker that dies is restarted on a fresh
OS-assigned port, like every worker (the routing parent opens a new
connection pool for each incarnation, so nothing needs the old port).
Restart counts are capped (:attr:`WorkerSupervisor.restart_limit`) so a
worker that crashes on arrival cannot flap forever; a worker past its
limit stays down and ``/healthz`` reports the cluster degraded.

Supervision state is guarded by one small lock; the routing parent
reads :meth:`incarnation` per request, so it always sees the current
incarnation of a shard's worker (and drops its pooled connections to a
restarted one).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.cluster.worker import worker_main
from repro.config import ReproConfig
from repro.errors import ReproError
from repro.obs.logging import get_logger

__all__ = ["WorkerHandle", "WorkerSupervisor"]

logger = get_logger("cluster.supervisor")

#: Seconds to wait for a spawned worker to report its bound port.
START_TIMEOUT = 60.0


@dataclass
class WorkerHandle:
    """One live (or lately deceased) worker incarnation."""

    index: int
    process: Any
    port: int
    pid: int
    restarts: int = 0

    def alive(self) -> bool:
        return self.process.is_alive()

    def status(self) -> Dict[str, Any]:
        """The ``/healthz`` row for this worker."""
        return {
            "index": self.index,
            "pid": self.pid,
            "port": self.port,
            "alive": self.alive(),
            "restarts": self.restarts,
        }


class WorkerSupervisor:
    """Spawns and supervises the cluster's worker processes."""

    def __init__(
        self,
        root,
        config: ReproConfig,
        count: int,
        host: str = "127.0.0.1",
        poll_interval: float = 0.2,
        restart_limit: int = 10,
    ):
        if count < 1:
            raise ReproError(
                f"cluster needs at least one worker, got {count}"
            )
        # Accept what ClusterServer accepts: a path or an existing
        # WorkflowStore/Workspace (unwrapped to its directory).  The
        # old unconditional str(root) turned a passed-in store object
        # into its repr — workers then mkdir'd a
        # ``<...WorkflowStore object at 0x...>`` directory under CWD.
        if isinstance(root, (str, os.PathLike)):
            self.root = os.fspath(root)
        else:
            store_root = getattr(root, "store", root)  # Workspace
            store_root = getattr(store_root, "root", None)  # store
            if not isinstance(store_root, (str, os.PathLike)):
                raise ReproError(
                    "worker supervisor root must be a path or a "
                    f"store, not {type(root).__name__}"
                )
            self.root = os.fspath(store_root)
        self.config = config
        self.count = count
        self.host = host
        self.poll_interval = poll_interval
        self.restart_limit = restart_limit
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._handles: Dict[int, WorkerHandle] = {}
        self._stopping = threading.Event()
        self._watcher: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "WorkerSupervisor":
        """Spawn all workers and begin liveness supervision."""
        if self._handles:
            return self
        try:
            for index in range(self.count):
                handle = self._spawn(index)
                with self._lock:
                    self._handles[index] = handle
        except BaseException:
            self.stop()
            raise
        self._watcher = threading.Thread(
            target=self._watch,
            name="repro-cluster-supervisor",
            daemon=True,
        )
        self._watcher.start()
        return self

    def stop(self, drain_timeout: float = 10.0) -> None:
        """Terminate every worker: SIGTERM (graceful drain), then kill."""
        self._stopping.set()
        if self._watcher is not None:
            self._watcher.join(timeout=5)
            self._watcher = None
        with self._lock:
            handles = list(self._handles.values())
            self._handles.clear()
        for handle in handles:
            if handle.alive():
                handle.process.terminate()
        deadline = time.monotonic() + max(1.0, drain_timeout)
        for handle in handles:
            remaining = max(0.1, deadline - time.monotonic())
            handle.process.join(timeout=remaining)
            if handle.alive():
                handle.process.kill()
                handle.process.join(timeout=2)

    # -- routing-table reads ---------------------------------------------
    def incarnation(self, index: int) -> WorkerHandle:
        """The current incarnation of shard ``index``'s worker."""
        with self._lock:
            handle = self._handles.get(index)
        if handle is None:
            raise ReproError(f"no worker for shard {index}")
        return handle

    def statuses(self) -> List[Dict[str, Any]]:
        """Per-worker ``/healthz`` rows, in shard order."""
        with self._lock:
            handles = [
                self._handles[i]
                for i in sorted(self._handles)
            ]
        return [handle.status() for handle in handles]

    def total_restarts(self) -> int:
        with self._lock:
            return sum(h.restarts for h in self._handles.values())

    # -- spawning --------------------------------------------------------
    def _spawn(self, index: int) -> WorkerHandle:
        """Start one worker and wait for its readiness report."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(index, self.root, self.config, self.host, child_conn),
            name=f"repro-cluster-worker:{index}",
        )
        process.start()
        child_conn.close()
        try:
            deadline = time.monotonic() + START_TIMEOUT
            while not parent_conn.poll(0.1):
                if not process.is_alive():
                    raise ReproError(
                        f"cluster worker {index} exited during startup "
                        f"(exit code {process.exitcode})"
                    )
                if time.monotonic() > deadline:
                    process.terminate()
                    raise ReproError(
                        f"cluster worker {index} did not report ready "
                        f"within {START_TIMEOUT}s"
                    )
            try:
                ready = parent_conn.recv()
            except EOFError:
                raise ReproError(
                    f"cluster worker {index} closed its readiness "
                    "pipe without reporting a port"
                ) from None
        finally:
            parent_conn.close()
        logger.info(
            "worker %d ready on port %d (pid %d)",
            index, ready["port"], ready["pid"],
            extra={
                "worker": index,
                "port": ready["port"],
                "pid": ready["pid"],
            },
        )
        return WorkerHandle(
            index=index,
            process=process,
            port=ready["port"],
            pid=ready["pid"],
        )

    # -- liveness --------------------------------------------------------
    def _watch(self) -> None:
        while not self._stopping.wait(self.poll_interval):
            for index in range(self.count):
                with self._lock:
                    handle = self._handles.get(index)
                if handle is None or handle.alive():
                    continue
                if self._stopping.is_set():
                    return
                self._restart(handle)

    def _restart(self, dead: WorkerHandle) -> None:
        restarts = dead.restarts + 1
        if restarts > self.restart_limit:
            logger.error(
                "worker %d exceeded restart limit (%d); leaving down",
                dead.index, self.restart_limit,
                extra={"worker": dead.index},
            )
            return
        logger.warning(
            "worker %d died (exit code %s); restarting (%d/%d)",
            dead.index, dead.process.exitcode,
            restarts, self.restart_limit,
            extra={"worker": dead.index, "restarts": restarts},
        )
        try:
            handle = self._spawn(dead.index)
        except ReproError:
            logger.error(
                "worker %d failed to restart; will retry",
                dead.index,
                extra={"worker": dead.index},
            )
            # Count the attempt so a hopeless crash loop still hits
            # the restart limit instead of spinning forever.
            dead.restarts = restarts
            return
        handle.restarts = restarts
        with self._lock:
            if self._stopping.is_set():
                handle.process.terminate()
                return
            self._handles[dead.index] = handle
