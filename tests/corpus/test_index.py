"""The persistent fingerprint index: reuse, invalidation, memoisation."""

import copy

from repro.corpus.derived import DB_FILE, DerivedDB
from repro.corpus.fingerprint import run_fingerprint
from repro.corpus.index import FingerprintIndex
from repro.workflow.execution import execute_workflow


def open_index(store):
    """An index over the store's database (a fresh connection)."""
    return FingerprintIndex(store, DerivedDB(store.root / "index" / DB_FILE))


class TestFingerprintIndex:
    def test_fingerprint_matches_direct_computation(self, pa_store):
        index = FingerprintIndex(pa_store)
        spec = pa_store.load_specification("PA")
        run = pa_store.load_run(spec, "r01")
        assert index.fingerprint(spec, "r01") == run_fingerprint(run)

    def test_entries_persist_across_instances(self, pa_store):
        spec = pa_store.load_specification("PA")
        first = open_index(pa_store)
        digest = first.fingerprint(spec, "r01")
        first.flush()
        second = open_index(pa_store)
        assert second.cached_entry_count("PA") == 1
        assert second.fingerprint(spec, "r01") == digest

    def test_persisted_entry_skips_the_parser(self, pa_store, monkeypatch):
        spec = pa_store.load_specification("PA")
        first = open_index(pa_store)
        digest = first.fingerprint(spec, "r01")
        first.flush()

        def explode(*args, **kwargs):  # any XML parse fails the test
            raise AssertionError("run was re-parsed despite a valid index")

        second = open_index(pa_store)
        monkeypatch.setattr(pa_store, "load_run", explode)
        assert second.fingerprint(spec, "r01") == digest

    def test_overwritten_run_is_reindexed(self, pa_store, varied_params):
        spec = pa_store.load_specification("PA")
        index = FingerprintIndex(pa_store)
        before = index.fingerprint(spec, "r01")
        replacement = execute_workflow(
            spec, varied_params, seed=77, name="r01"
        )
        pa_store.save_run(replacement)
        after = index.fingerprint(spec, "r01")
        assert after == run_fingerprint(replacement)
        assert after != before

    def test_load_run_memoises(self, pa_store):
        spec = pa_store.load_specification("PA")
        index = FingerprintIndex(pa_store)
        first = index.load_run(spec, "r02")
        assert index.load_run(spec, "r02") is first

    def test_a_parse_without_an_entry_is_dropped_after_a_rewrite(
        self, pa_store, varied_params
    ):
        """A run parsed before it was ever indexed, then overwritten, is
        fingerprinted from the new file, not from the memoised parse
        (the memo used to answer an index miss without a stamp)."""
        spec = pa_store.load_specification("PA")
        index = FingerprintIndex(pa_store)
        stale = index.load_run(spec, "r01")
        replacement = execute_workflow(
            spec, varied_params, seed=77, name="r01"
        )
        pa_store.save_run(replacement)
        assert index.fingerprint(spec, "r01") == run_fingerprint(replacement)
        assert index.load_run(spec, "r01") is not stale

    def test_the_memo_answers_only_its_spec_object(self, pa_store):
        """A parse answers only callers holding the specification
        object it was parsed against (after a re-registration, the
        object resolved now is another one)."""
        spec = pa_store.load_specification("PA")
        index = FingerprintIndex(pa_store)
        first = index.load_run(spec, "r02")
        now = copy.deepcopy(spec)
        again = index.load_run(now, "r02")
        assert again is not first and again.spec is now
        assert index.load_run(now, "r02") is again

    def test_fallback_loaded_runs_still_get_valid_stamps(self, pa_store):
        # A run reached by its raw stem (the literal-stem fallback)
        # must still index with a freshness stamp, or it would be
        # re-parsed on every query.
        spec = pa_store.load_specification("PA")
        run = pa_store.load_run(spec, "r01")
        run.name = "r one/odd"
        pa_store.save_run(run)
        stem = pa_store.locate_run("PA", "r one/odd").stem

        index = FingerprintIndex(pa_store)
        digest = index.fingerprint(spec, stem)
        entry = index._entries[("PA", stem)]
        assert entry["fingerprint"] == digest
        assert "mtime_ns" in entry and "size" in entry

    def test_forget_drops_entry(self, pa_store):
        spec = pa_store.load_specification("PA")
        index = FingerprintIndex(pa_store)
        index.fingerprint(spec, "r01")
        assert index.cached_entry_count("PA") == 1
        index.forget("PA", "r01")
        assert index.cached_entry_count("PA") == 0

    def test_forget_persists_as_a_deleted_row(self, pa_store):
        spec = pa_store.load_specification("PA")
        first = open_index(pa_store)
        first.fingerprint(spec, "r01")
        first.fingerprint(spec, "r02")
        first.flush()
        first.forget("PA", "r01")
        first.flush()
        assert open_index(pa_store).cached_entry_count("PA") == 1

    def test_two_writers_keep_each_others_rows(self, pa_store):
        spec = pa_store.load_specification("PA")
        one = open_index(pa_store)
        two = open_index(pa_store)
        one.fingerprint(spec, "r01")
        one.flush()
        two.fingerprint(spec, "r02")
        two.flush()
        assert open_index(pa_store).cached_entry_count("PA") == 2

    def test_entry_of_an_older_spec_is_not_served(
        self, pa_store, monkeypatch
    ):
        spec = pa_store.load_specification("PA")
        first = open_index(pa_store)
        digest = first.fingerprint(spec, "r01")
        # The persisted entry names another spec digest: stale.
        first._entries[("PA", "r01")]["spec"] = "another-digest"
        first._dirty.add(("PA", "r01"))
        first.flush()
        second = open_index(pa_store)
        calls = []
        original = second.load_run

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(second, "load_run", counting)
        assert second.fingerprint(spec, "r01") == digest
        assert calls  # re-fingerprinted from the XML

    def test_flush_writes_only_changed_rows(self, pa_store):
        spec = pa_store.load_specification("PA")
        index = open_index(pa_store)
        index.fingerprint(spec, "r01")
        index.flush()
        written = []
        original = index.db.commit

        def spy(writes):
            writes = [(sql, list(rows)) for sql, rows in writes]
            written.extend(row[1] for _, rows in writes for row in rows)
            return original(writes)

        index.db.commit = spy
        index.fingerprint(spec, "r01")  # valid entry: nothing changes
        index.flush()
        index.fingerprint(spec, "r02")
        index.flush()
        assert written == ["r02"]
