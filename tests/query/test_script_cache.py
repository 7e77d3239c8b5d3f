"""Edit-script serialisation, the script cache, and service accounting."""

import json

import pytest

from repro.core.edit_script import (
    SCRIPT_SCHEMA_VERSION,
    PathOperation,
    operations_from_payload,
    operations_to_payload,
)
from repro.corpus.derived import DB_FILE, DerivedDB
from repro.corpus.script_cache import (
    ScriptCache,
    decode_script,
    encode_script,
)
from repro.corpus.service import DiffService
from repro.errors import EditScriptError


def make_op(kind="path-insertion", cost=1.0, note=""):
    return PathOperation(
        kind=kind,
        cost=cost,
        length=2,
        source_label="A",
        sink_label="B",
        path_labels=("A", "X", "B"),
        note=note,
    )


class TestPathOperationSerialisation:
    def test_roundtrip(self):
        op = make_op(note="unstable swap")
        assert PathOperation.from_dict(op.to_dict()) == op

    def test_payload_roundtrip_preserves_order(self):
        ops = [make_op(), make_op(kind="path-deletion", cost=2.5)]
        assert operations_from_payload(operations_to_payload(ops)) == ops

    def test_payload_is_json_safe(self):
        op = make_op()
        assert json.loads(json.dumps(op.to_dict())) == op.to_dict()

    def test_malformed_payload_raises(self):
        with pytest.raises(EditScriptError):
            PathOperation.from_dict({"kind": "path-insertion"})
        with pytest.raises(EditScriptError):
            operations_from_payload("not-a-list")

    def test_interior_labels_strip_terminals(self):
        assert make_op().interior_labels == ("X",)
        direct = PathOperation(
            kind="path-insertion",
            cost=1.0,
            length=1,
            source_label="A",
            sink_label="B",
            path_labels=("A", "B"),
        )
        assert direct.interior_labels == ()


class TestScriptRecordCodec:
    def test_roundtrip(self):
        ops = [make_op(), make_op(kind="path-contraction")]
        record = decode_script(encode_script(3.5, ops))
        assert record is not None
        assert record.distance == 3.5
        assert record.operations == ops
        assert record.op_count == 2

    def test_unknown_version_rejected(self):
        raw = encode_script(1.0, [make_op()])
        raw["v"] = SCRIPT_SCHEMA_VERSION + 1
        assert decode_script(raw) is None

    def test_malformed_record_rejected(self):
        assert decode_script({"v": SCRIPT_SCHEMA_VERSION}) is None
        assert decode_script("nope") is None
        raw = encode_script(1.0, [make_op()])
        raw["ops"] = [{"kind": "path-insertion"}]  # missing fields
        assert decode_script(raw) is None

    def test_summary_mentions_breakdown(self):
        record = decode_script(encode_script(2.0, [make_op(), make_op()]))
        assert "2 path-insertion" in record.summary()
        empty = decode_script(encode_script(0.0, []))
        assert "empty script" in empty.summary()


class TestScriptCache:
    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / DB_FILE
        raw = encode_script(2.0, [make_op()])
        warm = ScriptCache(DerivedDB(path))
        warm.put("k", raw)
        warm.flush()
        cold = ScriptCache(DerivedDB(path))
        assert cold.get("k") == raw
        assert cold.stats.disk_hits == 1

    def test_rejects_invalid_put(self):
        cache = ScriptCache()
        with pytest.raises(EditScriptError):
            cache.put("k", {"not": "a record"})

    def test_invalid_stored_entries_are_misses(self, tmp_path):
        db = DerivedDB(tmp_path / DB_FILE)
        good = encode_script(1.0, [make_op()])
        stale = dict(good, v=SCRIPT_SCHEMA_VERSION + 9)
        db.commit([(
            "INSERT INTO scripts (key, value) VALUES (?, ?)",
            [
                ("good", json.dumps(good)),
                ("stale", json.dumps(stale)),
                ("garbage", "{not json"),
            ],
        )])
        cache = ScriptCache(db)
        assert cache.get("good") == good
        assert cache.get("stale") is None
        assert cache.get("garbage") is None

    def test_records_stored_as_compact_json(self, tmp_path):
        cache = ScriptCache(DerivedDB(tmp_path / DB_FILE))
        raw = encode_script(2.5, [make_op(cost=2.5)])
        cache.put("k", raw)
        cache.flush()
        ((text,),) = cache.db.rows(
            "SELECT value FROM scripts WHERE key = ?", ("k",)
        )
        assert json.loads(text) == raw
        assert " " not in text


class TestServiceScriptAccounting:
    """Satellite: hit/miss counters for the edit-script cache."""

    def test_cold_compute_counts_misses_and_puts(self, service):
        service.edit_script("PA", "r01", "r02")
        stats = service.stats
        assert stats["computed_scripts"] == 1
        assert stats["script_misses"] == 1
        assert stats["script_puts"] == 1
        assert stats["script_memory_hits"] == 0
        assert stats["indexed_scripts"] == 1

    def test_warm_read_is_a_memory_hit(self, service):
        service.edit_script("PA", "r01", "r02")
        service.edit_script("PA", "r01", "r02")
        stats = service.stats
        assert stats["computed_scripts"] == 1
        assert stats["script_memory_hits"] == 1

    def test_restart_reads_from_disk(self, pa_store):
        DiffService(pa_store).edit_script("PA", "r01", "r02")
        reopened = DiffService(pa_store)
        reopened.edit_script("PA", "r01", "r02")
        stats = reopened.stats
        assert stats["computed_scripts"] == 0
        assert stats["script_disk_hits"] == 1
        assert stats["indexed_scripts"] == 1

    def test_script_seeds_distance_cache(self, service):
        record = service.edit_script("PA", "r01", "r02")
        assert service.computed_pairs == 0
        distance = service.distance("PA", "r01", "r02")
        # Served from the seeded distance cache — still zero DPs.
        assert service.computed_pairs == 0
        assert distance == record.distance

    def test_distance_counters_untouched_by_script_prefix(self, service):
        service.distance_matrix("PA")
        stats = service.stats
        assert stats["computed_pairs"] == 10
        assert stats["script_puts"] == 0

    def test_scripts_are_directed(self, service):
        forward = service.edit_script("PA", "r01", "r02")
        backward = service.edit_script("PA", "r02", "r01")
        assert service.stats["computed_scripts"] == 2
        assert forward.distance == backward.distance
        kinds = lambda record: sorted(
            op.kind for op in record.operations
        )
        swap = {
            "path-insertion": "path-deletion",
            "path-deletion": "path-insertion",
            "path-expansion": "path-contraction",
            "path-contraction": "path-expansion",
        }
        assert kinds(backward) == sorted(
            swap[k] for k in kinds(forward)
        )

    def test_ephemeral_service_writes_nothing(self, pa_store):
        service = DiffService(pa_store, persistent=False)
        service.edit_script("PA", "r01", "r02")
        assert not (pa_store.root / "index" / "query").exists()
