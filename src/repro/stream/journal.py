"""Per-session stream journals: where a streaming session lives.

A session is one append-only NDJSON file under the store,
``<store>/streams/<digest>.open.ndjson`` (the digest is of the session
id), renamed ``.closed.ndjson`` once its run has landed.  Its first
record is the ``run_open`` frame with what the hub froze at open; then
come each batch's applied frames, fsync'd before the batch's ack; last,
the final ack.  An exclusive :func:`fcntl.flock` keeps two processes
from applying one session's batches at once, so any process over the
store resumes a session where the last one left it.  A last line
without its newline was cut short by a crash, never acknowledged, and
is cut off.  The :data:`MAX_CLOSED_RETAINED` most recent closed
journals are kept to answer replayed closes.  The ``streams/``
directory is created by the first stream.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
from pathlib import Path
from typing import List, Optional, Tuple

__all__ = ["Journal", "JournalDirectory", "MAX_CLOSED_RETAINED"]

#: Closed sessions whose journals stay to answer a replayed close.
MAX_CLOSED_RETAINED = 64

OPEN, CLOSED = ".open.ndjson", ".closed.ndjson"


class Journal:
    """One session's journal file, held under an exclusive lock."""

    def __init__(self, path: Path, fd: int):
        self.path = path
        self.fd = fd

    def stamp(self) -> Tuple[int, int]:
        """``(inode, size)``: what a cached session was built from."""
        stat = os.fstat(self.fd)
        return stat.st_ino, stat.st_size

    def records(self) -> List[dict]:
        """Every complete record; a torn last line is cut off."""
        data = os.pread(self.fd, os.fstat(self.fd).st_size, 0)
        complete = data.rfind(b"\n") + 1
        if complete < len(data):
            os.ftruncate(self.fd, complete)
        return [json.loads(line) for line in data[:complete].splitlines()]

    def append(self, data: bytes) -> None:
        """Append whole lines and make them durable."""
        if data:
            os.write(self.fd, data)
            os.fsync(self.fd)

    def release(self) -> None:
        os.close(self.fd)


class JournalDirectory:
    """The store's ``streams/`` directory of session journals."""

    def __init__(self, root):
        self.path = Path(root) / "streams"

    def lock(self, session: str, create: bool = False) -> Optional[Journal]:
        """``session``'s journal, locked; ``None`` when it has none
        (with ``create``, a new empty one, and ``streams/`` if need be)."""
        stem = hashlib.sha256(session.encode("utf8")).hexdigest()[:32]
        opened, closed = self.path / (stem + OPEN), self.path / (stem + CLOSED)
        if create:
            self.path.mkdir(parents=True, exist_ok=True)
        while True:
            for path, flags in ((opened, 0), (closed, 0), (opened, None)):
                if flags is None:
                    if not create:
                        return None
                    flags = os.O_CREAT
                try:
                    fd = os.open(path, os.O_RDWR | os.O_APPEND | flags, 0o644)
                except FileNotFoundError:
                    continue
                fcntl.flock(fd, fcntl.LOCK_EX)
                # Another process may have renamed or deleted the file
                # while this one waited for the lock: look again.
                try:
                    current = os.stat(path).st_ino == os.fstat(fd).st_ino
                except FileNotFoundError:
                    current = False
                if current:
                    if flags:  # a new file: make its entry durable too
                        directory = os.open(self.path, os.O_RDONLY)
                        os.fsync(directory)
                        os.close(directory)
                    return Journal(path, fd)
                os.close(fd)
                break

    def retire(self, journal: Journal) -> None:
        """Mark ``journal`` closed; delete all but the newest closed."""
        closed = journal.path.with_name(
            journal.path.name[: -len(OPEN)] + CLOSED
        )
        os.rename(journal.path, closed)
        journal.path = closed
        retained = sorted(
            self.path.glob("*" + CLOSED), key=_mtime, reverse=True
        )
        for path in retained[MAX_CLOSED_RETAINED:]:
            path.unlink(missing_ok=True)

    def open_count(self) -> int:
        """How many journals are open, counted by name: none is read."""
        try:
            names = os.listdir(self.path)
        except FileNotFoundError:
            return 0
        return sum(1 for name in names if name.endswith(OPEN))

    def open_sessions(self) -> List[str]:
        """The session id of every open journal."""
        if not self.path.is_dir():
            return []
        sessions = []
        for path in self.path.glob("*" + OPEN):
            try:
                with open(path, "rb") as handle:
                    sessions.append(
                        json.loads(handle.readline())["open"]["session"]
                    )
            except (OSError, ValueError, KeyError):
                continue  # just created, or closed meanwhile
        return sessions


def _mtime(path: Path) -> int:
    try:
        return path.stat().st_mtime_ns
    except FileNotFoundError:  # another process retired it first
        return 0
