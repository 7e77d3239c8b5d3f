"""Raw-socket HTTP helpers shared by the service and cluster suites.

Deliberately below :mod:`http.client`: these helpers send bytes a
well-behaved client never would (malformed ``Content-Length``, hand-
framed chunked bodies) and report exactly what came back, including
anything the server sent after the first response.
"""

from __future__ import annotations

import socket
from urllib.parse import urlsplit


def raw_exchange(url: str, data: bytes, timeout: float = 10.0):
    """Send raw request bytes and read until the server closes.

    Returns ``(status, headers, body, rest)`` of the first response:
    headers with lower-cased names, and ``rest`` whatever the server
    sent after that response's body.
    """
    parts = urlsplit(url)
    chunks = []
    with socket.create_connection(
        (parts.hostname, parts.port), timeout=timeout
    ) as sock:
        sock.sendall(data)
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, tail = b"".join(chunks).partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {
        name.strip().lower(): value.strip()
        for name, value in (line.split(":", 1) for line in lines[1:])
    }
    length = int(headers.get("content-length", "0"))
    return int(lines[0].split()[1]), headers, tail[:length], tail[length:]


def chunked_post(path: str, body: bytes, content_type: str) -> bytes:
    """A ``POST`` whose body travels in two ``chunked`` frames; the
    request asks the server to close the connection after answering."""
    half = len(body) // 2
    frames = b"".join(
        f"{len(part):x}\r\n".encode("ascii") + part + b"\r\n"
        for part in (body[:half], body[half:])
        if part
    )
    head = (
        f"POST {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Type: {content_type}\r\n"
        "Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    )
    return head.encode("ascii") + frames + b"0\r\n\r\n"
