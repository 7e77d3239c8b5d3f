"""Two-tier caches: an in-memory LRU over one table of the derived database.

The hot tier is a bounded LRU dictionary; the cold tier is one table of
the service's :class:`~repro.corpus.derived.DerivedDB` (a SQLite file
under ``<store>/index/``, or a private in-memory database).  Keys are
content-addressed strings (see :mod:`repro.corpus.fingerprint`), so
cached entries survive run renames, store moves, and process restarts —
a cache is addressed by *content*, never by file name.

:class:`TwoTierCache` implements the machinery; subclasses name their
table and pin down the value schema through the
:meth:`~TwoTierCache._decode` hook (a stored value failing to decode is
simply a miss — everything here is derived, recomputable data).
:class:`DistanceCache` stores plain floats (edit distances);
:class:`~repro.corpus.script_cache.ScriptCache` stores serialised edit
scripts.

Writes go to the hot tier and a dirty buffer immediately; a lookup that
misses both reads through to the table, and counts.  The one other
read, :meth:`TwoTierCache.peek`, answers from memory alone and counts
nothing: a single-flight leader's double-check.  :meth:`TwoTierCache.flush`
commits only the dirty rows, in one transaction (the service flushes
after every batch operation); a crash between flushes loses only
recomputable values, and a flush that finds the database busy keeps
its rows for the next one.

Every public operation is thread-safe: one re-entrant lock per cache
serialises tier lookups, inserts, and flushes, so the HTTP service
layer can hammer one cache from many request threads without corrupting
the LRU order or losing batched writes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.corpus.derived import DerivedDB

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.metrics import MetricsRegistry


@dataclass
class CacheStats:
    """Hit/miss counters, split by tier."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0
    flushes: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def as_dict(self) -> Dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "puts": self.puts,
            "flushes": self.flushes,
        }


class LRUCache:
    """A bounded least-recently-used mapping (insertion-ordered dict)."""

    def __init__(self, maxsize: int = 4096):
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._data: "OrderedDict[str, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def get(self, key: str) -> Optional[Any]:
        """Return the cached value and mark it most recently used."""
        if key not in self._data:
            return None
        self._data.move_to_end(key)
        return self._data[key]

    def peek(self, key: str) -> Optional[Any]:
        """Return the cached value without touching recency order."""
        return self._data.get(key)

    def put(self, key: str, value: Any) -> None:
        """Insert/refresh a value, evicting the LRU entry when full."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def keys(self):
        return list(self._data)

    def clear(self) -> None:
        self._data.clear()


class TwoTierCache:
    """An :class:`LRUCache` hot tier over one table of a derived database.

    Parameters
    ----------
    db:
        The :class:`~repro.corpus.derived.DerivedDB` holding the cold
        tier.  ``None`` opens a private in-memory database (used by
        tests and ephemeral callers).
    maxsize:
        Bound of the hot tier.  The cold tier is unbounded.

    Subclasses set :attr:`table` and override :meth:`_decode` to
    validate values read back from the table (return ``None`` to reject
    — a rejected value is a miss), :meth:`_encode` to canonicalise
    values on write and :meth:`_column` to turn a value into its stored
    column form.

    When a :class:`~repro.obs.metrics.MetricsRegistry` is supplied the
    cache also feeds the shared ``cache_*`` metric families, labelled
    with its ``name`` (``distance``, ``script``, ...) so one registry
    can carry every cache tier side by side.
    """

    #: The table of :mod:`repro.corpus.derived` holding the cold tier
    #: (set by each subclass).
    table: str

    def __init__(
        self,
        db: Optional[DerivedDB] = None,
        maxsize: int = 4096,
        stats: Optional[CacheStats] = None,
        metrics: Optional["MetricsRegistry"] = None,
        name: str = "cache",
    ):
        self.db = db if db is not None else DerivedDB()
        self.maxsize = maxsize
        self.name = name
        self.stats = stats if stats is not None else CacheStats()
        self._memory = LRUCache(self.maxsize)
        self._dirty: Dict[str, Any] = {}
        self._lock = threading.RLock()
        if metrics is None:
            from repro.obs.metrics import MetricsRegistry

            metrics = MetricsRegistry(enabled=False)
        # Collected, not event-driven: :class:`CacheStats` already
        # tallies every lookup under the cache lock, so the scrape
        # reads those exact numbers via callbacks and the hot path
        # pays nothing per hit.
        lookups = metrics.counter(
            "cache_lookups_total",
            "Cache lookups by cache tier and result.",
        )
        stats = self.stats
        lookups.set_function(
            lambda: stats.memory_hits,
            cache=self.name, result="memory_hit",
        )
        lookups.set_function(
            lambda: stats.disk_hits,
            cache=self.name, result="disk_hit",
        )
        lookups.set_function(
            lambda: stats.misses, cache=self.name, result="miss"
        )
        metrics.counter(
            "cache_puts_total", "Values written into a cache."
        ).set_function(lambda: stats.puts, cache=self.name)
        metrics.counter(
            "cache_flushes_total", "Cold-tier flushes per cache."
        ).set_function(lambda: stats.flushes, cache=self.name)

    # -- value schema hooks ---------------------------------------------
    def _decode(self, raw: Any) -> Optional[Any]:
        """Validate one stored column value (``None`` rejects it)."""
        return raw

    def _encode(self, value: Any) -> Any:
        """Canonicalise a value before storing it."""
        return value

    def _column(self, value: Any) -> Any:
        """The stored column form of an encoded value."""
        return value

    # -- cold tier ------------------------------------------------------
    def _read(self, key: str) -> Optional[Any]:
        """The decoded cold-tier value under ``key``, or ``None``."""
        rows = self.db.rows(
            f"SELECT value FROM {self.table} WHERE key = ?", (key,)
        )
        return self._decode(rows[0][0]) if rows else None

    def flush(self) -> None:
        """Commit the dirty rows in one transaction (kept when busy)."""
        with self._lock:
            if not self._dirty:
                return
            rows = [
                (key, self._column(value))
                for key, value in self._dirty.items()
            ]
            if self.db.commit([(
                f"INSERT OR REPLACE INTO {self.table} (key, value) "
                "VALUES (?, ?)",
                rows,
            )]):
                self._dirty.clear()
                self.stats.flushes += 1

    # -- lookups --------------------------------------------------------
    def get(self, key: str) -> Optional[Any]:
        """Two-tier lookup; cold hits are promoted into the hot tier."""
        with self._lock:
            value = self._memory.get(key)
            if value is None:
                value = self._dirty.get(key)
            if value is not None:
                self.stats.memory_hits += 1
                return value
            value = self._read(key)
            if value is not None:
                self.stats.disk_hits += 1
                self._memory.put(key, value)
                return value
            self.stats.misses += 1
            return None

    def peek(self, key: str) -> Optional[Any]:
        """A *non-counting*, memory-only lookup: the hot tier or the
        dirty buffer, with no stat update, no LRU promotion and no
        table read.

        For a single-flight leader's double-check before it computes:
        its own lookup already counted and read the table, so the only
        news can be a value another leader of this process put since.
        """
        with self._lock:
            value = self._memory.peek(key)
            if value is None:
                value = self._dirty.get(key)
            return value

    def put(self, key: str, value: Any) -> None:
        """Record a freshly computed value (the table at the next flush)."""
        with self._lock:
            self.stats.puts += 1
            encoded = self._encode(value)
            self._memory.put(key, encoded)
            self._dirty[key] = encoded

    def __len__(self) -> int:
        """Distinct keys across both tiers."""
        with self._lock:
            stored = self.db.rows(f"SELECT key FROM {self.table}")
            return len(
                {key for (key,) in stored}
                | set(self._dirty)
                | set(self._memory.keys())
            )


class DistanceCache(TwoTierCache):
    """The distance cache: float values keyed by symmetric pair keys.

    Keys are the ``fingerprint|fingerprint|cost_key`` strings from
    :func:`repro.corpus.fingerprint.pair_key`.
    """

    table = "distances"

    def _decode(self, raw: Any) -> Optional[float]:
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            return None
        return float(raw)

    def _encode(self, value: Any) -> float:
        return float(value)
