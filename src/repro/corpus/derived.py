"""One SQLite database for every derived tier of a corpus service.

Every recomputable tier a :class:`~repro.corpus.service.DiffService`
keeps — the distance and edit-script caches
(:mod:`repro.corpus.cache`), the fingerprint index with its leaf
profiles (:mod:`repro.corpus.index`) and the inverted script index
(:mod:`repro.corpus.script_index`) — persists through one
:class:`DerivedDB`: ``<store>/index/derived.db`` in WAL mode, or a
private ``:memory:`` database for an ephemeral service, so both modes
run one code path.

Each tier owns one table and keeps its own in-memory state.  A tier's
``flush()`` writes only the rows it changed, in one transaction that is
durable when the flush returns (``synchronous=FULL``).  Processes that
share a store share the file: SQLite serialises their writers, so none
loses another's rows, and a write still busy after
:data:`BUSY_TIMEOUT_S` reports failure — the tier keeps its rows
pending for its next flush.

Everything here is derived data.  A missing, corrupt or
wrong-``user_version`` file is replaced by an empty database at open,
and its contents are recomputed on demand; a read that fails is a miss.
Nothing in this module raises.  ``sqlite3`` is imported only when a
database is opened, so processes that never open one (the cluster's
supervising parent) never load it.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.obs.logging import get_logger

#: File name of the database under ``<store>/index/``.
DB_FILE = "derived.db"

#: ``PRAGMA user_version`` of the current schema; any other version is
#: replaced by an empty database.
SCHEMA_VERSION = 1

#: Seconds a statement waits for another connection's write lock.
BUSY_TIMEOUT_S = 5.0

_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS distances ("
    "key TEXT PRIMARY KEY, value REAL NOT NULL) WITHOUT ROWID",
    "CREATE TABLE IF NOT EXISTS scripts ("
    "key TEXT PRIMARY KEY, value TEXT NOT NULL) WITHOUT ROWID",
    "CREATE TABLE IF NOT EXISTS fingerprints ("
    "spec TEXT NOT NULL, run TEXT NOT NULL, entry TEXT NOT NULL, "
    "PRIMARY KEY (spec, run)) WITHOUT ROWID",
    "CREATE TABLE IF NOT EXISTS script_docs ("
    "key TEXT PRIMARY KEY, distance REAL NOT NULL, "
    "ops INTEGER NOT NULL, terms TEXT NOT NULL) WITHOUT ROWID",
)

logger = get_logger("corpus.derived")


class DerivedDB:
    """One connection to a store's derived-state database.

    ``path=None`` opens a private in-memory database.  Every statement
    runs under one lock, so the tiers of a multi-threaded service share
    the connection.
    """

    def __init__(self, path: Optional[Path] = None):
        import sqlite3

        self.path = path
        self._error = sqlite3.Error
        self._lock = threading.Lock()
        self._conn = self._open(sqlite3)

    def _open(self, sqlite3):
        """Connect, replacing an unusable file once; memory as last resort."""
        if self.path is not None:
            for _ in range(2):
                try:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    return self._connect(sqlite3, str(self.path))
                except (sqlite3.Error, OSError) as exc:
                    if "locked" in str(exc) or "busy" in str(exc):
                        break  # another process holds it: never delete
                    logger.warning(
                        "replacing derived database %s: %s", self.path, exc
                    )
                    self._discard()
            logger.warning(
                "derived database %s unusable; keeping derived state "
                "in memory", self.path,
            )
        return self._connect(sqlite3, ":memory:")

    @staticmethod
    def _connect(sqlite3, target: str):
        conn = sqlite3.connect(
            target,
            timeout=BUSY_TIMEOUT_S,
            isolation_level=None,
            check_same_thread=False,
        )
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=FULL")
            version = conn.execute("PRAGMA user_version").fetchone()[0]
            if version == 0:
                conn.execute("BEGIN IMMEDIATE")
                # Re-read inside the write lock: a concurrent opener
                # may have created the schema meanwhile.
                version = conn.execute("PRAGMA user_version").fetchone()[0]
                if version == 0:
                    for statement in _SCHEMA:
                        conn.execute(statement)
                    conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
                    version = SCHEMA_VERSION
                conn.execute("COMMIT")
            if version != SCHEMA_VERSION:
                raise sqlite3.DatabaseError(
                    f"schema version {version}, expected {SCHEMA_VERSION}"
                )
        except BaseException:
            conn.close()
            raise
        return conn

    def _discard(self) -> None:
        for suffix in ("", "-wal", "-shm"):
            try:
                Path(f"{self.path}{suffix}").unlink()
            except OSError:
                pass

    def rows(self, sql: str, params: Sequence = ()) -> List[tuple]:
        """Every row ``sql`` selects; a failed read selects nothing."""
        with self._lock:
            try:
                return self._conn.execute(sql, params).fetchall()
            except self._error as exc:
                logger.warning("derived-state read failed: %s", exc)
                return []

    def commit(self, writes: Iterable[Tuple[str, Sequence[tuple]]]) -> bool:
        """Run every ``(sql, rows)`` batch in one durable transaction.

        ``False`` when the transaction could not commit (still busy
        after :data:`BUSY_TIMEOUT_S`, or failed): nothing was written,
        and the caller keeps its rows for the next attempt.
        """
        with self._lock:
            conn = self._conn
            try:
                conn.execute("BEGIN IMMEDIATE")
                try:
                    for sql, rows in writes:
                        conn.executemany(sql, rows)
                    conn.execute("COMMIT")
                except BaseException:
                    if conn.in_transaction:
                        conn.execute("ROLLBACK")
                    raise
            except self._error as exc:
                logger.warning("derived-state write deferred: %s", exc)
                return False
            return True
