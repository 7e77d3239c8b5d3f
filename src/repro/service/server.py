"""The stdlib HTTP host for the diff service (``repro serve``).

:class:`DiffServer` binds a :class:`~repro.service.app.WorkspaceApp`
over one shared :class:`Workspace` (whose corpus service is a
lock-disciplined monitor — see :mod:`repro.corpus.service`) to a
:class:`~http.server.ThreadingHTTPServer` — one thread per open
connection, kept alive across requests (HTTP/1.1) — and owns the
serve/drain lifecycle.  Each worker of ``repro serve --workers N`` is
one, accepting from its parent's socket.  No third-party dependencies:
the wire layer is ~a hundred lines over ``http.server``.

Two driving styles:

* ``DiffServer(store, config).serve_forever()`` — the CLI's blocking
  mode (``repro serve``);
* ``with DiffServer(store) as server: ...`` — background-thread mode
  for tests and embedded use; ``server.url`` is ready on entry, and
  leaving the block shuts the socket down cleanly.

``port=0`` asks the OS for a free port (the test fixtures' default),
reported through :attr:`DiffServer.port`.

Observability: constructing a server configures the ``repro`` logger
hierarchy from its config (``log_level``/``log_format``), every handled
request emits one structured access-log record on ``repro.access``
(method, path, status, duration, correlation ID), and :meth:`stop`
drains gracefully — the listener closes first, idle kept-alive
connections are shut, in-flight requests get ``drain_timeout`` seconds
to finish (answering with ``Connection: close``), and a final stats
line is logged.  Nothing is served after :meth:`stop` returns.
"""

from __future__ import annotations

import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Set
from urllib.parse import parse_qs, urlsplit

from repro.config import ReproConfig
from repro.errors import (
    PayloadTooLargeError,
    ReproError,
    ServiceUnavailableError,
)
from repro.obs.logging import configure_logging, get_logger
from repro.service.app import (
    REQUEST_ID_HEADER,
    HttpRequest,
    RequestFrame,
    WorkspaceApp,
)
from repro.workspace import Workspace

#: Default seconds :meth:`DiffServer.stop` waits for in-flight requests.
DEFAULT_DRAIN_TIMEOUT = 10.0

access_log = get_logger("access")
logger = get_logger("service.server")


class _BodyTooLarge(Exception):
    """Internal: a request body crossed the configured ceiling."""


class _Connections:
    """A host's open connections, so that a drain leaves none.

    A kept-alive connection outlives its requests: its handler thread
    waits on the socket for the next one, and stopping the accept loop
    does not stop it.  So :meth:`DiffServer.stop` shuts every idle
    connection, and a request in flight answers with ``Connection:
    close``.  A connection is idle (waiting for a request line) or busy
    (between a request and its response).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._open: Dict[socket.socket, bool] = {}  #: socket -> busy
        self._threads: Set[threading.Thread] = set()
        self.stopping = False

    def open(self, sock: socket.socket) -> bool:
        """Register a new connection; False once the host is stopping."""
        with self._lock:
            self._threads = {t for t in self._threads if t.is_alive()}
            self._threads.add(threading.current_thread())
            if not self.stopping:
                self._open[sock] = False
            return not self.stopping

    def begin(self, sock: socket.socket) -> bool:
        """A request arrived; False if the drain has shut ``sock``."""
        with self._lock:
            if sock not in self._open:
                return False
            self._open[sock] = True
            return True

    def end(self, sock: socket.socket) -> bool:
        """Its response is out; whether ``sock`` may stay open."""
        with self._lock:
            if sock in self._open and not self.stopping:
                self._open[sock] = False
                return True
            self._open.pop(sock, None)
            return False

    def closed(self, sock: socket.socket) -> None:
        """Its handler is done with ``sock``."""
        with self._lock:
            self._open.pop(sock, None)

    def shut(self, busy: bool = False) -> None:
        """Refuse new requests and shut the idle connections (with
        ``busy``, every open one): their handlers read EOF and exit."""
        with self._lock:
            self.stopping = True
            doomed = [
                sock for sock, working in self._open.items()
                if busy or not working
            ]
            for sock in doomed:
                del self._open[sock]
        for sock in doomed:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already gone

    def join(self, timeout: float) -> None:
        """Wait (bounded) for every handler thread to exit."""
        deadline = time.monotonic() + timeout
        with self._lock:
            threads = self._threads - {threading.current_thread()}
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))


def _make_handler(
    app: RequestFrame, max_body_bytes: int, connections: _Connections
):
    """A request-handler class bound to one app instance."""

    class Handler(BaseHTTPRequestHandler):
        """Adapts ``http.server`` requests onto the framework-free app."""

        # Keep-alive responses; every response carries Content-Length.
        protocol_version = "HTTP/1.1"

        def handle(self) -> None:
            if not connections.open(self.connection):
                return  # accepted as the host began to stop: unserved
            try:
                super().handle()
            finally:
                connections.closed(self.connection)

        def _dispatch(self) -> None:
            if not connections.begin(self.connection):
                # The drain shut this idle connection as the request
                # arrived: it goes unanswered, and unapplied.
                self.close_connection = True
                return
            app.begin_request()
            try:
                self._handle_one()
            finally:
                app.end_request()
                if not connections.end(self.connection):
                    self.close_connection = True

        def _read_chunked(self, limit: int) -> bytes:
            """Decode a ``Transfer-Encoding: chunked`` body, capped.

            Raises :class:`_BodyTooLarge` the moment the running total
            crosses ``limit`` (without reading the rest), and
            :class:`ValueError` on malformed framing.
            """
            total = 0
            chunks = []
            while True:
                size_line = self.rfile.readline(65536)
                if not size_line.endswith(b"\n"):
                    raise ValueError("truncated chunk-size line")
                size = int(size_line.split(b";", 1)[0].strip(), 16)
                if size < 0:
                    raise ValueError("negative chunk size")
                if size == 0:
                    break
                total += size
                if total > limit:
                    raise _BodyTooLarge()
                chunk = self.rfile.read(size)
                if len(chunk) != size:
                    raise ValueError("truncated chunk payload")
                if self.rfile.read(2) != b"\r\n":
                    raise ValueError("chunk payload not CRLF-terminated")
                chunks.append(chunk)
            # Trailer section: discard header lines up to the blank.
            while True:
                line = self.rfile.readline(65536)
                if line in (b"", b"\n", b"\r\n"):
                    break
            return b"".join(chunks)

        def _read_body(self) -> bytes:
            """The request body, enforcing ``config.max_body_bytes``.

            An oversized declared ``Content-Length`` is refused without
            reading a single body byte; a chunked transfer is refused
            at the first chunk that crosses the ceiling.  Either way
            the connection closes (the unread remainder poisons it for
            keep-alive) after the structured ``413`` envelope is sent.
            A malformed ``Content-Length`` or chunked framing is a
            ``400`` envelope, and closes the connection too.
            """
            limit = max_body_bytes
            transfer = (
                self.headers.get("Transfer-Encoding") or ""
            ).lower()
            if "chunked" in transfer:
                try:
                    return self._read_chunked(limit)
                except _BodyTooLarge:
                    self.close_connection = True
                    raise PayloadTooLargeError(
                        "chunked request body exceeds the server's "
                        f"limit of {limit} bytes"
                    ) from None
                except ValueError as exc:
                    self.close_connection = True
                    raise ReproError(
                        f"malformed chunked request body: {exc}"
                    ) from None
            declared = (self.headers.get("Content-Length") or "0").strip()
            if not (
                declared.isascii()
                and declared.isdigit()
                and len(declared) < 20
            ):
                # The body's end is unknown: the connection cannot
                # carry another request.
                self.close_connection = True
                raise ReproError(
                    f"malformed Content-Length header {declared!r} "
                    "(expected a non-negative integer)"
                )
            length = int(declared)
            if length > limit:
                self.close_connection = True
                raise PayloadTooLargeError(
                    f"request body of {length} bytes exceeds the "
                    f"server's limit of {limit} bytes"
                )
            return self.rfile.read(length) if length > 0 else b""

        def _handle_one(self) -> None:
            started = time.perf_counter()
            parsed = urlsplit(self.path)
            query = {
                key: values[-1]
                for key, values in parse_qs(
                    parsed.query, keep_blank_values=True
                ).items()
            }
            try:
                body = self._read_body()
            except ReproError as exc:
                # The body was never (fully) read: the app cannot see
                # this request, so the rejection is built at the
                # transport boundary — same envelope, same accounting.
                response = app.reject(exc, self.command, parsed.path)
            else:
                request = HttpRequest(
                    method=self.command,
                    path=parsed.path,
                    query=query,
                    headers={
                        key.lower(): value
                        for key, value in self.headers.items()
                    },
                    body=body,
                )
                response = app.handle(request)
            self.send_response(response.status)
            if response.body:
                self.send_header("Content-Type", response.content_type)
            self.send_header("Content-Length", str(len(response.body)))
            for name, value in response.headers.items():
                self.send_header(name, value)
            if self.close_connection or connections.stopping:
                # The connection ends with this response: say so.
                self.send_header("Connection", "close")
            # Status line, headers and body leave in one socket write
            # (end_headers would flush the head on its own first); an
            # HTTP/0.9 request gets the bare body, as http.server does.
            if self.request_version != "HTTP/0.9":
                self._headers_buffer.extend((b"\r\n", response.body))
                self.flush_headers()
            elif response.body:
                self.wfile.write(response.body)
            access_log.info(
                "%s %s %d",
                self.command,
                parsed.path,
                response.status,
                extra={
                    "method": self.command,
                    "path": parsed.path,
                    "status": response.status,
                    "duration_ms": round(
                        (time.perf_counter() - started) * 1000.0, 3
                    ),
                    "request_id": response.headers.get(
                        REQUEST_ID_HEADER
                    ),
                },
            )

        do_GET = _dispatch
        do_PUT = _dispatch
        do_POST = _dispatch
        do_DELETE = _dispatch

        def log_message(self, format, *args):  # noqa: A002 - stdlib name
            """Silence ``http.server``'s raw stderr lines — the access
            log above replaces them (structured, correlation-ID'd, and
            governed by ``log_format`` so tests can turn it off)."""

    return Handler


class DiffServer:
    """One workspace served over HTTP.

    Binds its app to a :class:`~http.server.ThreadingHTTPServer`
    (through :func:`_make_handler`), serves it, and drains it.

    Parameters
    ----------
    root:
        Store directory, an existing
        :class:`~repro.io.store.WorkflowStore`, or a fully built
        :class:`Workspace` to share.
    config:
        The :class:`ReproConfig` for a workspace built from a path
        (ignored when ``root`` is already a workspace — except that its
        logging knobs still apply when given).
    host / port:
        Bind address.  ``port=0`` picks a free port.
    listener:
        An already listening socket to accept from instead of binding
        one (``host``/``port`` are then ignored): each worker of
        ``repro serve --workers N`` serves its parent's socket.
    app:
        Builds the request handler from the workspace (default
        :class:`~repro.service.app.WorkspaceApp`); a cluster worker
        passes :class:`~repro.cluster.server._ClusterApp`.
    """

    def __init__(
        self,
        root,
        config: Optional[ReproConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        listener: Optional[socket.socket] = None,
        app: Optional[Callable[[Workspace], RequestFrame]] = None,
    ):
        self.workspace = (
            root
            if isinstance(root, Workspace)
            else Workspace(root, config)
        )
        self.config = config or self.workspace.config
        configure_logging(
            level=self.config.log_level,
            format=self.config.log_format,
        )
        self.app = (app or WorkspaceApp)(self.workspace)
        self._connections = _Connections()
        handler = _make_handler(
            self.app, self.config.max_body_bytes, self._connections
        )
        if listener is None:
            self.httpd = ThreadingHTTPServer((host, port), handler)
        else:
            self.httpd = ThreadingHTTPServer(
                listener.getsockname(), handler, bind_and_activate=False
            )
            self.httpd.socket.close()
            self.httpd.socket = listener
        # Handler threads are daemonic: after a drain timeout the
        # process may exit with stragglers still running — the
        # documented hard-exit fallback.
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        self._stop_lock = threading.Lock()
        self._stopped = False

    @property
    def host(self) -> str:
        """The bound host address."""
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (the OS's pick under ``port=0``)."""
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        """The service base URL, e.g. ``http://127.0.0.1:8321``."""
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (blocking)."""
        logger.info(
            "serving %s", self.url,
            extra={"host": self.host, "port": self.port},
        )
        self.httpd.serve_forever()

    def start(self) -> "DiffServer":
        """Serve on a background daemon thread; returns ``self``."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.httpd.serve_forever,
                name=f"repro-diff-server:{self.port}",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(
        self, drain_timeout: float = DEFAULT_DRAIN_TIMEOUT
    ) -> None:
        """Drain and stop: accept no more, finish in-flight, release.

        The accept loop stops first (no new connections) and idle
        kept-alive connections are shut, then in-flight requests get up
        to ``drain_timeout`` seconds to complete, each answering with
        ``Connection: close``, before the socket closes.  Requests
        still pending at the deadline that are blocked on a coalesced
        in-flight computation (single-flight followers waiting on a
        leader that will not land in time) are *aborted
        deterministically*: every pending flight fails with
        :class:`~repro.errors.ServiceUnavailableError`, which the app
        maps to a structured ``503`` — completed-or-503, never a hung
        client.  Only stragglers that are neither finished nor
        abortable are abandoned to their daemon threads, their
        connections shut.  Idempotent — signal handlers and ``finally``
        blocks may race onto it.
        """
        with self._stop_lock:
            if self._stopped:
                return
            self._stopped = True
        self.httpd.shutdown()
        self._connections.shut()
        deadline = time.monotonic() + max(0.0, drain_timeout)
        while self.app.in_flight() > 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if self.app.in_flight() > 0:
            # Deadline passed with requests still pending: fail every
            # coalesced waiter with a 503 envelope, then give the newly
            # unblocked handlers a short grace period to write it out.
            aborted = self.app.abort_inflight(
                ServiceUnavailableError(
                    "server is shutting down; retry against a healthy "
                    "instance"
                )
            )
            if aborted:
                logger.warning(
                    "drain timeout: aborted %d coalesced flight(s) "
                    "with 503",
                    aborted,
                    extra={"aborted_flights": aborted},
                )
                grace = time.monotonic() + 1.0
                while (
                    self.app.in_flight() > 0
                    and time.monotonic() < grace
                ):
                    time.sleep(0.01)
        remaining = self.app.in_flight()
        if remaining:
            logger.warning(
                "drain timeout: abandoning %d in-flight request(s)",
                remaining,
                extra={"in_flight": remaining},
            )
        logger.info("server stopped", extra=self.app.frame_counters())
        self._connections.shut(busy=True)
        self._connections.join(timeout=1.0)
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "DiffServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve(
    root,
    config: Optional[ReproConfig] = None,
    host: str = "127.0.0.1",
    port: int = 8321,
) -> None:
    """Blocking convenience: build a :class:`DiffServer` and serve.

    The programmatic equivalent of ``repro serve STORE --port N``.
    """
    DiffServer(root, config, host=host, port=port).serve_forever()
