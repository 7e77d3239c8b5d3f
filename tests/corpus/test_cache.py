"""The two-tier distance cache: LRU behaviour, read-through, flushing."""

import sqlite3

import pytest

from repro.corpus import derived
from repro.corpus.cache import DistanceCache, LRUCache
from repro.corpus.derived import DB_FILE, DerivedDB


class TestLRUCache:
    def test_get_and_put(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1.0)
        assert cache.get("a") == 1.0
        assert cache.get("missing") is None
        assert len(cache) == 1

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1.0)
        cache.put("b", 2.0)
        assert cache.get("a") == 1.0  # refresh "a"; "b" is now LRU
        cache.put("c", 3.0)
        assert cache.get("b") is None
        assert cache.get("a") == 1.0
        assert cache.get("c") == 3.0

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1.0)
        cache.put("b", 2.0)
        cache.put("a", 9.0)  # refresh, not insert
        cache.put("c", 3.0)
        assert cache.get("a") == 9.0
        assert cache.get("b") is None

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)


@pytest.fixture
def db_path(tmp_path):
    return tmp_path / DB_FILE


class TestDistanceCache:
    def test_memory_database_roundtrip(self):
        cache = DistanceCache()
        assert cache.get("k") is None
        cache.put("k", 4.0)
        assert cache.get("k") == 4.0
        assert cache.stats.memory_hits == 1
        assert cache.stats.misses == 1
        cache.flush()  # commits into the private in-memory database
        assert cache.stats.flushes == 1
        cache.flush()  # clean: no transaction at all
        assert cache.stats.flushes == 1

    def test_zero_distance_is_a_hit(self):
        cache = DistanceCache()
        cache.put("k", 0.0)
        assert cache.get("k") == 0.0
        assert cache.stats.memory_hits == 1

    def test_persists_across_instances(self, db_path):
        warm = DistanceCache(DerivedDB(db_path))
        warm.put("k", 7.5)
        warm.flush()
        cold = DistanceCache(DerivedDB(db_path))
        assert cold.get("k") == 7.5
        assert cold.stats.disk_hits == 1
        # The database hit was promoted into the hot tier.
        assert cold.get("k") == 7.5
        assert cold.stats.memory_hits == 1

    def test_floats_round_trip_bit_identically(self, db_path):
        values = [0.1 + 0.2, 1 / 3, 2.0 ** -1074, 1e308, 3.0]
        warm = DistanceCache(DerivedDB(db_path))
        for index, value in enumerate(values):
            warm.put(f"k{index}", value)
        warm.flush()
        cold = DistanceCache(DerivedDB(db_path))
        read = [cold.get(f"k{index}") for index in range(len(values))]
        assert [value.hex() for value in read] == [
            value.hex() for value in values
        ]

    def test_unflushed_writes_are_still_readable(self, db_path):
        cache = DistanceCache(DerivedDB(db_path), maxsize=1)
        cache.put("a", 1.0)
        cache.put("b", 2.0)  # evicts "a" from the hot tier pre-flush
        assert cache.get("a") == 1.0  # served from the dirty buffer

    def test_evicted_entries_read_through_to_the_table(self, db_path):
        cache = DistanceCache(DerivedDB(db_path), maxsize=1)
        cache.put("a", 1.0)
        cache.put("b", 2.0)
        cache.flush()
        assert cache.get("a") == 1.0
        assert cache.stats.disk_hits == 1

    def test_flush_writes_only_dirty_rows(self, db_path):
        cache = DistanceCache(DerivedDB(db_path))
        cache.put("a", 1.0)
        cache.flush()
        written = []
        original = cache.db.commit

        def spy(writes):
            writes = [(sql, list(rows)) for sql, rows in writes]
            written.extend(rows for _, rows in writes)
            return original(writes)

        cache.db.commit = spy
        cache.put("b", 2.0)
        cache.flush()
        assert written == [[("b", 2.0)]]

    def test_corrupt_database_treated_as_empty(self, db_path):
        db_path.write_text("{not json", encoding="utf8")
        cache = DistanceCache(DerivedDB(db_path))
        assert cache.get("k") is None
        cache.put("k", 1.0)
        cache.flush()
        assert DistanceCache(DerivedDB(db_path)).get("k") == 1.0

    def test_busy_flush_keeps_rows_pending(self, db_path, monkeypatch):
        monkeypatch.setattr(derived, "BUSY_TIMEOUT_S", 0.05)
        cache = DistanceCache(DerivedDB(db_path))
        blocker = sqlite3.connect(str(db_path), isolation_level=None)
        blocker.execute("BEGIN IMMEDIATE")  # another writer holds the lock
        cache.put("a", 1.0)
        cache.flush()
        assert cache.stats.flushes == 0
        assert cache.get("a") == 1.0  # still served, still pending
        blocker.execute("ROLLBACK")
        cache.flush()
        assert cache.stats.flushes == 1
        assert DistanceCache(DerivedDB(db_path)).get("a") == 1.0

    def test_len_counts_all_tiers(self, db_path):
        first = DistanceCache(DerivedDB(db_path))
        first.put("a", 1.0)
        first.flush()
        second = DistanceCache(DerivedDB(db_path))
        second.put("b", 2.0)
        assert len(second) == 2

    def test_len_counts_unflushed_entries(self):
        cache = DistanceCache()
        cache.put("a", 1.0)
        cache.put("b", 2.0)
        assert len(cache) == 2

    def test_peek_answers_from_memory_without_counting(self, db_path):
        warm = DistanceCache(DerivedDB(db_path))
        warm.put("k", 3.0)
        warm.flush()
        cold = DistanceCache(DerivedDB(db_path))
        assert cold.peek("k") is None  # the table is never read
        assert cold.peek("missing") is None
        assert cold.stats.lookups == 0
        assert "k" not in cold._memory  # no promotion either
        cold.put("mine", 4.0)
        assert cold.peek("mine") == 4.0  # the dirty buffer answers
        cold.flush()
        assert cold.peek("mine") == 4.0  # and so does the hot tier
        assert cold.stats.lookups == 0
        assert cold.get("k") == 3.0  # a counting lookup reads through
