"""The cluster worker entry point: one diff server process.

:func:`worker_main` is the function a
:class:`~repro.cluster.supervisor.WorkerSupervisor` spawns (via the
``spawn`` multiprocessing context, so it must be importable by name and
its arguments picklable).  Each worker is a complete, ordinary
:class:`~repro.service.server.DiffServer` over the *shared* store
directory.  The sharding lives entirely in the routing parent, which
forwards each request whole to the one worker that owns it; a worker
never sees a partial request and answers exactly as one process.

Workers keep the configured persistence: every worker's derived state
(distance and script caches, fingerprint and script indexes) goes
through the store's one ``index/derived.db``
(:mod:`repro.corpus.derived`), whose transactions keep concurrent
writers from losing each other's rows.  A restarted worker therefore
starts warm, reading what it — or any other worker — computed before.

Shutdown: SIGTERM triggers the server's own graceful drain (finish
in-flight, abort coalesced waiters with 503, close), exactly the
single-process ``repro serve`` behaviour.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import threading

from repro.config import ReproConfig

__all__ = ["worker_main"]


def worker_main(
    index: int,
    root: str,
    config: ReproConfig,
    host: str,
    conn,
) -> None:
    """Run one worker: build a server, report readiness, serve.

    The server binds an OS-assigned port.  ``conn`` is the parent's
    pipe end; the worker sends one ``{"index", "pid", "port"}`` dict
    once its socket is bound (the parent blocks on this to learn the
    port) and then closes its end.
    """
    from repro.service.server import DiffServer

    worker_config = dataclasses.replace(config, workers=0)
    server = DiffServer(root, worker_config, host=host, port=0)

    def _drain(signum, frame):
        # stop() must not run on the serving thread: shutdown() would
        # deadlock against the serve_forever loop it waits on.
        threading.Thread(
            target=server.stop,
            name=f"repro-worker-drain:{index}",
            daemon=True,
        ).start()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    conn.send({"index": index, "pid": os.getpid(), "port": server.port})
    conn.close()
    try:
        server.serve_forever()
    finally:
        server.stop()
