"""Persistent HTTP/1.1 connections: the package's one client transport.

The package's HTTP client, :class:`repro.client.RemoteWorkspace`, sends
every request through a
:class:`ConnectionPool`: persistent :class:`http.client.HTTPConnection`
objects to one peer, reused last-in first-out.  Reuse saves each
request a TCP handshake, and the server a new handler thread (the
threading server runs one thread per connection, not per request).

The rules:

* before an idle connection is reused it is checked for EOF with a
  zero-timeout ``select``: an idle socket that reads ready was closed
  by its peer (a drained server, a restarted worker) and is dropped;
* a connection is dropped on any transport error, and after a response
  that ends it (``Connection: close``);
* a request that fails on a *reused* connection is sent again at once
  on a fresh one when the caller allows a resend (idempotent methods);
  any other failure is the caller's.

There is nothing to tune: a pool holds as many connections as its
callers ever had requests in flight at once, and keeps them until
:meth:`ConnectionPool.close` or until the peer closes them.
"""

from __future__ import annotations

import select
import socket
import threading
from http.client import (
    HTTPConnection,
    HTTPException,
    HTTPMessage,
    HTTPSConnection,
)
from typing import Dict, List, Optional, Tuple

__all__ = ["ConnectionPool", "IDEMPOTENT_METHODS", "TRANSPORT_ERRORS"]

#: What a round trip raises when no complete response arrived.
TRANSPORT_ERRORS = (OSError, HTTPException)

#: Methods safe to send again after a connection-level failure (the
#: request either never reached the server or may be repeated without
#: effect).
IDEMPOTENT_METHODS = frozenset({"GET", "HEAD", "PUT", "DELETE"})


def _reusable(connection: HTTPConnection) -> bool:
    """Whether an idle connection is open with nothing to read.

    An idle HTTP/1.1 connection owes no bytes; a socket that selects
    readable has reached EOF (or its peer broke the protocol).
    """
    sock = connection.sock
    if sock is None:
        return False
    try:
        readable, _, _ = select.select([sock], [], [], 0)
    except (OSError, ValueError):  # closed, or past FD_SETSIZE
        return False
    return not readable


class ConnectionPool:
    """Persistent connections to one HTTP peer, shared by threads.

    Parameters
    ----------
    host / port:
        The peer; ``port=None`` is the scheme's default.
    timeout:
        Socket timeout of each connection, in seconds.
    tls:
        Speak HTTPS (:class:`http.client.HTTPSConnection`).
    """

    def __init__(
        self,
        host: str,
        port: Optional[int],
        timeout: float,
        tls: bool = False,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._factory = HTTPSConnection if tls else HTTPConnection
        self._idle: List[HTTPConnection] = []
        self._lock = threading.Lock()
        self._closed = False

    def request(
        self,
        method: str,
        target: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
        resend: bool = False,
    ) -> Tuple[int, HTTPMessage, bytes]:
        """One round trip: ``(status, headers, body)``.

        ``target`` is the request path with its query string.  Raises
        one of :data:`TRANSPORT_ERRORS` when no complete response
        arrived; with ``resend``, a reused connection's failure is
        first retried once on a fresh connection (timeouts excepted:
        the peer is slow, not gone).
        """
        connection = self._reuse()
        while True:
            reused = connection is not None
            if connection is None:
                connection = self._factory(
                    self.host, self.port, timeout=self.timeout
                )
            try:
                connection.request(
                    method, target, body=body, headers=headers or {}
                )
                response = connection.getresponse()
                payload = response.read()
            except TRANSPORT_ERRORS as exc:
                connection.close()
                if reused and resend and not isinstance(exc, socket.timeout):
                    connection = None
                    continue
                raise
            if response.will_close:
                connection.close()
            else:
                self._release(connection)
            return response.status, response.headers, payload

    def _reuse(self) -> Optional[HTTPConnection]:
        """The most recently released connection still open, if any."""
        while True:
            with self._lock:
                if not self._idle:
                    return None
                connection = self._idle.pop()
            if _reusable(connection):
                return connection
            connection.close()

    def _release(self, connection: HTTPConnection) -> None:
        with self._lock:
            if not self._closed:
                self._idle.append(connection)
                return
        connection.close()

    def close(self) -> None:
        """Close every idle connection; later releases close theirs."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()
