"""The inverted script index: terms, buckets, persistence."""

import json

import pytest

from repro.corpus.derived import DB_FILE, DerivedDB
from repro.corpus.script_cache import encode_script
from repro.corpus.script_index import (
    ScriptIndex,
    cost_bucket,
    script_terms,
)
from repro.core.edit_script import PathOperation


def op(kind="path-insertion", path=("A", "X", "B"), cost=1.0):
    return PathOperation(
        kind=kind,
        cost=cost,
        length=len(path) - 1,
        source_label=path[0],
        sink_label=path[-1],
        path_labels=tuple(path),
    )


@pytest.fixture
def db_path(tmp_path):
    return tmp_path / "index" / DB_FILE


def open_index(db_path):
    """A fresh index over the database at ``db_path`` (a new connection,
    as another process would open it)."""
    return ScriptIndex(DerivedDB(db_path))


class TestCostBuckets:
    def test_bucket_layout(self):
        assert cost_bucket(0.0) == 0
        assert cost_bucket(0.99) == 0
        assert cost_bucket(1.0) == 1
        assert cost_bucket(1.99) == 1
        assert cost_bucket(2.0) == 2
        assert cost_bucket(3.99) == 2
        assert cost_bucket(4.0) == 3
        assert cost_bucket(1024.0) == 11

    def test_monotone(self):
        values = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 9.0, 100.0]
        buckets = [cost_bucket(v) for v in values]
        assert buckets == sorted(buckets)


class TestTermExtraction:
    def test_terms_cover_kinds_labels_and_bucket(self):
        record = encode_script(
            3.0,
            [op(), op(kind="path-deletion", path=("B", "C"))],
        )
        terms = script_terms(record)
        assert "kind:path-insertion" in terms
        assert "kind:path-deletion" in terms
        assert {"label:A", "label:X", "label:B", "label:C"} <= terms
        assert "cost:2" in terms

    def test_empty_script_still_gets_a_cost_term(self):
        assert script_terms(encode_script(0.0, [])) == {"cost:0"}


class TestScriptIndex:
    def test_add_and_candidates(self):
        index = ScriptIndex()
        index.add("k1", encode_script(1.0, [op()]))
        index.add(
            "k2",
            encode_script(5.0, [op(kind="path-deletion", path=("C", "D"))]),
        )
        assert index.has("k1") and index.has("k2")
        assert len(index) == 2
        assert index.candidates_for_kinds(["path-insertion"]) == {"k1"}
        assert index.candidates_for_labels(["C"]) == {"k2"}
        assert index.candidates_for_labels(["X", "D"]) == {"k1", "k2"}
        assert index.candidates_for_cost(2.0, None) == {"k2"}
        assert index.candidates_for_cost(None, 1.5) == {"k1"}
        assert index.candidates_for_cost(0.5, 8.0) == {"k1", "k2"}
        assert index.candidates_for_op_count(1, 1) == {"k1", "k2"}

    def test_add_is_idempotent(self):
        index = ScriptIndex()
        record = encode_script(1.0, [op()])
        index.add("k", record)
        index.add("k", encode_script(99.0, [op(kind="path-deletion")]))
        assert index.doc("k") == (1.0, 1)
        assert index.candidates_for_kinds(["path-deletion"]) == set()

    def test_flush_and_reload(self, db_path):
        index = open_index(db_path)
        index.add("k", encode_script(2.0, [op()]))
        index.flush()
        assert db_path.exists()
        reloaded = open_index(db_path)
        assert reloaded.has("k")
        assert reloaded.doc("k") == (2.0, 1)
        assert reloaded.candidates_for_labels(["X"]) == {"k"}
        assert reloaded.terms() == index.terms()

    def test_flush_writes_only_new_rows(self, db_path):
        index = open_index(db_path)
        index.add("a", encode_script(1.0, [op()]))
        index.flush()
        written = []
        original = index.db.commit

        def spy(writes):
            writes = [(sql, list(rows)) for sql, rows in writes]
            written.extend(row[0] for _, rows in writes for row in rows)
            return original(writes)

        index.db.commit = spy
        index.add("b", encode_script(2.0, [op(path=("P", "Q"))]))
        index.flush()
        index.flush()  # clean: nothing to write
        assert written == ["b"]
        assert open_index(db_path).keys() == {"a", "b"}

    def test_corrupt_terms_row_ignored(self, db_path):
        index = open_index(db_path)
        index.add("good", encode_script(1.0, [op()]))
        index.flush()
        index.db.commit([(
            "INSERT INTO script_docs (key, distance, ops, terms) "
            "VALUES (?, ?, ?, ?)",
            [("bad", 1.0, 1, "{broken")],
        )])
        reloaded = open_index(db_path)
        assert reloaded.keys() == {"good"}

    def test_corrupt_database_is_an_empty_index(self, db_path):
        db_path.parent.mkdir(parents=True)
        db_path.write_text("{broken", encoding="utf8")
        index = open_index(db_path)
        assert len(index) == 0
        index.add("k", encode_script(1.0, [op()]))
        index.flush()
        assert open_index(db_path).has("k")

    def test_memory_index_never_writes(self, tmp_path):
        index = ScriptIndex()
        index.add("k", encode_script(1.0, [op()]))
        index.flush()
        assert index.has("k")
        assert list(tmp_path.iterdir()) == []

    def test_stored_terms_match_script_terms(self, db_path):
        record = encode_script(3.0, [op(), op(path=("B", "C"))])
        index = open_index(db_path)
        index.add("k", record)
        index.flush()
        (terms,) = index.db.rows(
            "SELECT terms FROM script_docs WHERE key = ?", ("k",)
        )[0]
        assert json.loads(terms) == sorted(script_terms(record))
