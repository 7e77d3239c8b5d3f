"""The derived-state database: opening, replacement, transactions, and
several processes writing one store."""

import os
import random
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.corpus import derived
from repro.corpus.derived import DB_FILE, SCHEMA_VERSION, DerivedDB
from repro.corpus.service import DiffService

import _derived_writer as writer

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")
WRITER = str(Path(__file__).resolve().parent / "_derived_writer.py")

INSERT = "INSERT OR REPLACE INTO distances (key, value) VALUES (?, ?)"


def spawn(mode: str, store, index: int, seed: int) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, WRITER, mode, str(store), str(index), str(seed)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def pragma(path, name):
    conn = sqlite3.connect(str(path))
    try:
        return conn.execute(f"PRAGMA {name}").fetchone()[0]
    finally:
        conn.close()


@pytest.fixture
def db_path(tmp_path):
    return tmp_path / "index" / DB_FILE


class TestOpen:
    def test_creates_a_wal_database_with_the_schema(self, db_path):
        db = DerivedDB(db_path)
        assert db_path.exists()
        assert pragma(db_path, "journal_mode") == "wal"
        assert pragma(db_path, "user_version") == SCHEMA_VERSION
        tables = {row[0] for row in db.rows(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )}
        assert tables == {
            "distances", "scripts", "fingerprints", "script_docs",
        }

    def test_commits_are_synchronous_full(self, db_path):
        db = DerivedDB(db_path)
        assert db.rows("PRAGMA synchronous") == [(2,)]

    def test_memory_database_writes_no_file(self, tmp_path):
        db = DerivedDB()
        assert db.commit([(INSERT, [("k", 1.0)])])
        assert db.rows("SELECT value FROM distances") == [(1.0,)]
        assert list(tmp_path.iterdir()) == []

    def test_reopen_keeps_committed_rows(self, db_path):
        DerivedDB(db_path).commit([(INSERT, [("k", 1.5)])])
        assert DerivedDB(db_path).rows("SELECT key, value FROM distances") \
            == [("k", 1.5)]

    @pytest.mark.parametrize(
        "garbage", [b"{not a database", b"SQLite format 3\x00" + b"\xff" * 200]
    )
    def test_corrupt_file_is_replaced_by_an_empty_one(
        self, db_path, garbage
    ):
        db_path.parent.mkdir(parents=True)
        db_path.write_bytes(garbage)
        db = DerivedDB(db_path)
        assert db.rows("SELECT * FROM distances") == []
        assert db.commit([(INSERT, [("k", 1.0)])])
        assert pragma(db_path, "integrity_check") == "ok"

    def test_wrong_user_version_is_replaced(self, db_path):
        DerivedDB(db_path).commit([(INSERT, [("old", 1.0)])])
        conn = sqlite3.connect(str(db_path))
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.commit()
        conn.close()
        db = DerivedDB(db_path)
        assert db.rows("SELECT key FROM distances") == []
        assert pragma(db_path, "user_version") == SCHEMA_VERSION

    def test_empty_file_is_a_fresh_database(self, db_path):
        db_path.parent.mkdir(parents=True)
        db_path.write_bytes(b"")
        assert DerivedDB(db_path).commit([(INSERT, [("k", 1.0)])])

    def test_unusable_location_falls_back_to_memory(self, tmp_path):
        blocker = tmp_path / "index"
        blocker.write_text("a file where the directory should be")
        db = DerivedDB(blocker / DB_FILE)
        assert db.commit([(INSERT, [("k", 1.0)])])
        assert db.rows("SELECT key FROM distances") == [("k",)]
        assert blocker.read_text().startswith("a file")

    def test_old_json_tiers_are_ignored(self, tmp_path):
        index = tmp_path / "index"
        index.mkdir()
        (index / "distances.json").write_text('{"k": 99.0}')
        service = DiffService(tmp_path)
        assert service.cache.get("k") is None
        assert (index / "distances.json").read_text() == '{"k": 99.0}'


class TestCommit:
    def test_batches_commit_in_one_transaction(self, db_path):
        db = DerivedDB(db_path)
        assert not db.commit([
            (INSERT, [("a", 1.0)]),
            ("INSERT INTO no_such_table VALUES (?)", [(1,)]),
        ])
        assert db.rows("SELECT key FROM distances") == []
        assert db.commit([(INSERT, [("a", 1.0)]), (INSERT, [("b", 2.0)])])
        assert len(db.rows("SELECT key FROM distances")) == 2

    def test_busy_write_gives_up_after_the_timeout(
        self, db_path, monkeypatch
    ):
        monkeypatch.setattr(derived, "BUSY_TIMEOUT_S", 0.05)
        db = DerivedDB(db_path)
        blocker = sqlite3.connect(str(db_path), isolation_level=None)
        blocker.execute("BEGIN IMMEDIATE")
        try:
            assert not db.commit([(INSERT, [("a", 1.0)])])
            # Readers are never blocked by the writer in WAL mode.
            assert db.rows("SELECT key FROM distances") == []
        finally:
            blocker.execute("ROLLBACK")
            blocker.close()
        assert db.commit([(INSERT, [("a", 1.0)])])

    def test_failed_read_is_empty(self, db_path):
        assert DerivedDB(db_path).rows("SELECT * FROM no_such_table") == []


class TestWarmReopen:
    def test_reopened_service_recomputes_nothing(self, pa_store, dp_counter):
        cold = DiffService(pa_store).distance_matrix("PA")
        computed = dp_counter["count"]
        reopened = DiffService(pa_store)
        assert reopened.distance_matrix("PA") == cold
        assert list(reopened.distance_matrix("PA")) == list(cold)
        assert reopened.computed_pairs == 0
        assert dp_counter["count"] == computed

    def test_matrix_lists_pairs_in_order_however_warm(self, pa_store):
        DiffService(pa_store).distance("PA", "r03", "r04")
        reopened = DiffService(pa_store)  # (r03, r04) warm, rest cold
        names = reopened.runs("PA")
        listing = [
            (a, b) for i, a in enumerate(names) for b in names[i + 1:]
        ]
        assert list(reopened.distance_matrix("PA")) == listing

    def test_ephemeral_service_uses_a_private_database(self, pa_store):
        first = DiffService(pa_store, persistent=False)
        first.distance_matrix("PA")
        second = DiffService(pa_store, persistent=False)
        second.distance_matrix("PA")
        assert second.computed_pairs == first.computed_pairs > 0
        assert not (pa_store.root / "index").exists()


class TestSeveralProcesses:
    """Writers sharing one store lose nothing; a kill corrupts nothing."""

    def test_interleaved_writers_lose_nothing(self, pa_store):
        children = [spawn("interleave", pa_store.root, i, 7) for i in range(3)]
        for child in children:
            _, err = child.communicate(timeout=120)
            assert child.returncode == 0, err
        fresh = DiffService(pa_store)
        keys = [f"shared-{i}" for i in range(writer.SHARED)] + [
            f"w{w}-{r}" for w in range(3) for r in range(writer.ROUNDS)
        ]
        for key in keys:
            assert fresh.cache.get(key) == writer.distance_of(key)
            assert fresh.script_cache.get(key) == writer.script_of(key)
            assert fresh.script_index.has(key)
        assert fresh.cache.stats.disk_hits == len(keys)
        assert len(fresh.script_index) == len(keys)
        runs = fresh.runs("PA")
        assert fresh.index.cached_entry_count("PA") == len(runs)
        spec = fresh.specification("PA")

        def explode(*args, **kwargs):
            raise AssertionError("a persisted fingerprint was re-parsed")

        fresh.store.load_run = explode
        for name in runs:
            fresh.index.fingerprint(spec, name)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_kill_leaves_a_readable_database(self, tmp_path, seed):
        rng = random.Random(seed)
        child = spawn("loop", tmp_path, 0, seed)
        committed = -1
        for _ in range(rng.randint(3, 15)):
            line = child.stdout.readline()
            assert line.startswith("committed "), child.stderr.read()
            committed = int(line.split()[1])
        # Land the kill at a seeded point inside the put/flush loop.
        time.sleep(rng.random() * 0.01)
        os.kill(child.pid, signal.SIGKILL)
        rest, _ = child.communicate(timeout=30)
        for line in rest.splitlines():
            if line.startswith("committed "):
                committed = max(committed, int(line.split()[1]))
        path = tmp_path / "index" / DB_FILE
        assert pragma(path, "integrity_check") == "ok"
        reopened = DiffService(tmp_path)
        for index in range(committed + 1):
            key = f"k{index}"
            assert reopened.cache.get(key) == writer.distance_of(key)
            assert reopened.script_cache.get(key) == writer.script_of(key)
            assert reopened.script_index.has(key)


class TestOneStore:
    def test_results_log_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            __import__("repro.cluster.results_log")

    def test_no_source_names_a_json_tier(self):
        src = Path(REPO_SRC) / "repro"
        names = (
            "distances.json", "fingerprints.json", "scripts.json",
            "postings.json",
        )
        offenders = [
            str(path.relative_to(src))
            for path in src.rglob("*.py")
            if any(name in path.read_text(encoding="utf8") for name in names)
        ]
        assert offenders == []
