"""The supervising parent of ``repro serve --workers N``, and its workers.

A :class:`ClusterServer` binds one listening socket and has a
:class:`WorkerSupervisor` spawn ordinary diff servers that serve it
(:func:`worker_main`, ``spawn`` start method), so the parent serves no
request.  It records the membership (index, pid, restarts) in a private
runtime directory, restarts a worker that dies up to ``restart_limit``
times, and closes the socket once none is left.  Nothing here imports
the library the workers serve, so the parent stays small.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import shutil
import signal
import socket
import tempfile
import threading
import time
from typing import Any, Dict, Optional

from repro.config import ReproConfig
from repro.errors import ReproError
from repro.obs.logging import configure_logging, get_logger

__all__ = ["ClusterServer", "WorkerSupervisor", "worker_main"]

logger = get_logger("cluster.supervisor")

#: Seconds to wait for a spawned worker to report ready.
START_TIMEOUT = 60.0

#: The membership file in the runtime directory.
MEMBERS_FILE = "members.json"


def write_json(path: str, payload: Any) -> None:
    """Replace ``path`` with ``payload`` in one atomic rename."""
    temporary = f"{path}.{os.getpid()}.tmp"
    with open(temporary, "w", encoding="utf8") as handle:
        json.dump(payload, handle)
    os.replace(temporary, path)


def worker_main(index: int, root: str, config, listener, runtime, conn):
    """One worker: a diff server on the parent's socket, until SIGTERM.

    Reports ``{"ready": True}`` (or ``{"error": ...}``) on ``conn``.
    SIGTERM drains as ``repro serve`` does; SIGUSR1 asks for a fresh
    snapshot for a sibling's scrape.
    """
    from repro.cluster.server import _ClusterApp
    from repro.service.server import DiffServer

    try:
        server = DiffServer(
            root,
            dataclasses.replace(config, workers=0),
            listener=listener,
            app=lambda workspace: _ClusterApp(workspace, runtime, index),
        )
    except ReproError as exc:
        conn.send({"error": str(exc)})
        raise SystemExit(1) from None
    # stop() must not run on the serving thread: shutdown() would
    # deadlock against the serve_forever loop it waits on.
    drain = threading.Thread(target=server.stop, daemon=True)
    signal.signal(
        signal.SIGTERM, lambda *_: drain.ident is None and drain.start()
    )
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGUSR1, server.app.request_snapshot)
    server.app.write_snapshot()
    conn.send({"ready": True})
    conn.close()
    try:
        server.serve_forever()
    finally:
        if drain.ident is None:
            server.stop()
        else:
            drain.join()  # the in-flight requests finish first


class WorkerSupervisor:
    """Spawns, watches and restarts the cluster's worker processes."""

    def __init__(
        self,
        root,
        config: ReproConfig,
        count: int,
        listener: Optional[socket.socket] = None,
        runtime: Optional[str] = None,
        poll_interval: float = 0.2,
        restart_limit: int = 10,
    ):
        # A path, or a WorkflowStore or Workspace unwrapped to its
        # directory (str() of a store object would be its repr).
        if not isinstance(root, (str, os.PathLike)):
            root = getattr(getattr(root, "store", root), "root", None)
            if not isinstance(root, (str, os.PathLike)):
                raise ReproError(
                    "worker supervisor root must be a path or a store"
                )
        self.root = os.fspath(root)
        self.config = config
        self.count = count
        self.listener = listener
        self.runtime = runtime
        self.poll_interval = poll_interval
        self.restart_limit = restart_limit
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        #: The current process of each worker index, and its restarts.
        self._handles: Dict[int, Any] = {}
        self._restarts: Dict[int, int] = dict.fromkeys(range(count), 0)
        self._abandoned: set = set()
        self._stopping = threading.Event()
        #: Set once every worker is down past its restart limit.
        self.exhausted = threading.Event()
        self._watcher: Optional[threading.Thread] = None

    def start(self) -> None:
        """Spawn every worker at once, and return once all are ready."""
        self._write_members()  # no member yet: degraded until all are up
        spawned = []
        try:
            spawned = [self._spawn(index) for index in range(self.count)]
            for index, started in enumerate(spawned):
                self._handles[index] = self._await_ready(index, *started)
        except BaseException:
            for process, _ in spawned:
                process.kill()
            self.stop()
            raise
        self._write_members()
        self._watcher = threading.Thread(target=self._watch, daemon=True)
        self._watcher.start()

    def stop(self, drain_timeout: float = 10.0) -> None:
        """SIGTERM every worker (each drains), then kill stragglers."""
        self._stopping.set()
        if self._watcher is not None:
            self._watcher.join(timeout=5)
        with self._lock:
            processes = list(self._handles.values())
            self._handles.clear()
        for process in processes:
            process.terminate()
        deadline = time.monotonic() + max(1.0, drain_timeout)
        for process in processes:
            process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.kill()
                process.join(timeout=2)

    def _write_members(self) -> None:
        with self._lock:
            members = [
                {"index": i, "pid": p.pid, "restarts": self._restarts[i]}
                for i, p in sorted(self._handles.items())
            ]
        write_json(
            os.path.join(self.runtime, MEMBERS_FILE),
            {
                "workers": self.count,
                "restarts": sum(m["restarts"] for m in members),
                "members": members,
            },
        )

    def _spawn(self, index: int):
        receive, send = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(
                index, self.root, self.config, self.listener,
                self.runtime, send,
            ),
            name=f"repro-cluster-worker:{index}",
        )
        process.start()
        send.close()
        return process, receive

    def _await_ready(self, index: int, process, conn):
        """Wait for a spawned worker's report: serving, or its error."""
        deadline = time.monotonic() + START_TIMEOUT
        try:
            while not conn.poll(0.1):
                if not process.is_alive() or time.monotonic() > deadline:
                    process.kill()
                    raise ReproError(
                        f"cluster worker {index} did not start "
                        f"(exit code {process.exitcode})"
                    )
            report = conn.recv()
        except EOFError:
            report = {"error": "it closed its readiness pipe"}
        finally:
            conn.close()
        if "error" in report:
            raise ReproError(
                f"cluster worker {index} failed to start: "
                f"{report['error']}"
            )
        logger.info(
            "worker %d ready (pid %d)", index, process.pid,
            extra={"worker": index, "pid": process.pid},
        )
        return process

    def _watch(self) -> None:
        while not self._stopping.wait(self.poll_interval):
            with self._lock:
                dead = [
                    (index, process)
                    for index, process in self._handles.items()
                    if index not in self._abandoned
                    and not process.is_alive()
                ]
            # Every replacement starts before the first readiness wait,
            # so workers that died together come back together.
            spawned = []
            for index, process in dead:
                if self._may_restart(index, process.exitcode):
                    spawned.append((index, self._spawn(index)))
            for index, started in spawned:
                self._install(index, *started)

    def _may_restart(self, index: int, exitcode) -> bool:
        # ``is_alive`` reaped the process, so the workers see its pid
        # gone: the cluster reads degraded until the replacement is up.
        self._write_members()
        restarts = self._restarts[index] + 1
        if restarts > self.restart_limit:
            logger.error(
                "worker %d exceeded restart limit (%d); leaving down",
                index, self.restart_limit, extra={"worker": index},
            )
            with self._lock:
                self._abandoned.add(index)
                if len(self._abandoned) == self.count:
                    self.exhausted.set()
            return False
        logger.warning(
            "worker %d died (exit code %s); restarting (%d/%d)",
            index, exitcode, restarts, self.restart_limit,
            extra={"worker": index, "restarts": restarts},
        )
        # Count every attempt, so a hopeless crash loop still hits the
        # restart limit instead of spinning forever.
        self._restarts[index] = restarts
        return True

    def _install(self, index: int, process, conn) -> None:
        """Wait for a replacement's report, then make it the member."""
        try:
            process = self._await_ready(index, process, conn)
        except ReproError:
            return
        with self._lock:
            if self._stopping.is_set():
                process.terminate()
                return
            self._handles[index] = process
        self._write_members()


class ClusterServer:
    """``N`` pre-forked diff servers accepting from one socket.

    The lifecycle of a :class:`~repro.service.server.DiffServer` —
    :meth:`start`, :meth:`serve_forever`, :meth:`stop`, a context
    manager, :attr:`url` — over its wire surface.
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
        configure_logging(
            level=self.config.log_level, format=self.config.log_format
        )
        self.listener = socket.create_server((host, port), backlog=128)
        # The workers that lose the race for a connection must not
        # block in accept().
        self.listener.setblocking(False)
        self.host, self.port = self.listener.getsockname()[:2]
        self.runtime = tempfile.mkdtemp(prefix="repro-cluster-")
        self.supervisor = WorkerSupervisor(
            root, self.config, count, self.listener, self.runtime
        )
        self._stopped = threading.Event()
        self._stop_lock = threading.Lock()

    @property
    def url(self) -> str:
        """The service base URL, e.g. ``http://127.0.0.1:8321``."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ClusterServer":
        """Spawn the workers; returns once every one is serving."""
        try:
            self.supervisor.start()
        except BaseException:
            self.stop()
            raise
        return self

    def serve_forever(self) -> None:
        """Supervise until :meth:`stop`; raises once no worker is left."""
        self.start()
        logger.info(
            "serving %s with %d workers", self.url, self.supervisor.count,
            extra={"host": self.host, "port": self.port},
        )
        while not self._stopped.wait(0.2):
            if self.supervisor.exhausted.is_set():
                self.stop()
                raise ReproError(
                    "every cluster worker exceeded its restart limit"
                )

    def stop(self, drain_timeout: float = 10.0) -> None:
        """Drain the workers, close the socket, remove the runtime
        directory.  Idempotent."""
        with self._stop_lock:
            if not self._stopped.is_set():
                self.supervisor.stop(drain_timeout=drain_timeout)
                self.listener.close()
                shutil.rmtree(self.runtime, ignore_errors=True)
                self._stopped.set()

    def __enter__(self) -> "ClusterServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
