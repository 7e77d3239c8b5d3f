"""Tests for the file-backed workflow store."""

import json

import pytest

from repro.errors import ReproError
from repro.io import store as store_module
from repro.io.store import WorkflowStore, _safe_name
from repro.io.xml_io import run_to_xml
from repro.obs.runmeta import capture_run_metadata
from repro.workflow.execution import execute_workflow
from repro.workflow.real_workflows import protein_annotation


class TestSafeNames:
    def test_alphanumerics_kept(self):
        assert _safe_name("PA-2024_v1.xml") == "PA-2024_v1.xml"

    def test_specials_replaced_with_hash_suffix(self):
        mangled = _safe_name("a b/c")
        assert mangled.startswith("a_b_c~")
        assert len(mangled) == len("a_b_c~") + 8

    def test_mangled_names_cannot_collide(self):
        # Regression: "a/b" and "a_b" used to both map to "a_b.xml",
        # letting one entry silently overwrite the other.
        assert _safe_name("a/b") != _safe_name("a_b")
        assert _safe_name("a/b") != _safe_name("a b")
        assert _safe_name("a_b") == "a_b"

    def test_deterministic(self):
        assert _safe_name("a/b") == _safe_name("a/b")

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            _safe_name("")


class TestStore:
    def test_save_and_load_specification(self, tmp_path):
        store = WorkflowStore(tmp_path)
        spec = protein_annotation()
        path = store.save_specification(spec)
        assert path.exists()
        restored = store.load_specification("PA")
        assert restored.characteristics() == spec.characteristics()

    def test_list_specifications(self, tmp_path, fig2_spec):
        store = WorkflowStore(tmp_path)
        store.save_specification(fig2_spec)
        store.save_specification(protein_annotation())
        assert store.list_specifications() == ["PA", "fig2"]

    def test_missing_specification(self, tmp_path):
        store = WorkflowStore(tmp_path)
        with pytest.raises(ReproError, match="no stored"):
            store.load_specification("ghost")

    def test_save_and_load_run(self, tmp_path, fig2_spec, fig2_r1):
        store = WorkflowStore(tmp_path)
        store.save_run(fig2_r1)
        restored = store.load_run(fig2_spec, "R1")
        assert restored.equivalent(fig2_r1)

    def test_list_runs(self, tmp_path, fig2_spec, fig2_r1, fig2_r2):
        store = WorkflowStore(tmp_path)
        store.save_run(fig2_r1)
        store.save_run(fig2_r2)
        assert store.list_runs("fig2") == ["R1", "R2"]
        assert store.list_runs("unknown") == []

    def test_missing_run(self, tmp_path, fig2_spec):
        store = WorkflowStore(tmp_path)
        with pytest.raises(ReproError, match="no stored run"):
            store.load_run(fig2_spec, "ghost")

    def test_overwrite_is_atomic_replace(self, tmp_path, fig2_spec):
        store = WorkflowStore(tmp_path)
        run_a = execute_workflow(fig2_spec, seed=1, name="same")
        run_b = execute_workflow(fig2_spec, seed=2, name="same")
        store.save_run(run_a)
        store.save_run(run_b)
        restored = store.load_run(fig2_spec, "same")
        assert restored.equivalent(run_b)
        # No temp files left behind.
        leftovers = list(tmp_path.rglob(".tmp-*"))
        assert leftovers == []


class TestCollidingNames:
    def test_colliding_run_names_both_survive(self, tmp_path, fig2_spec):
        # Regression for the _safe_name collision hazard: without the
        # hash suffix, the second save silently overwrote the first.
        store = WorkflowStore(tmp_path)
        slashed = execute_workflow(fig2_spec, seed=1, name="a/b")
        underscored = execute_workflow(fig2_spec, seed=2, name="a_b")
        store.save_run(slashed)
        store.save_run(underscored)
        assert sorted(store.list_runs("fig2")) == ["a/b", "a_b"]
        assert store.load_run(fig2_spec, "a/b").equivalent(slashed)
        assert store.load_run(fig2_spec, "a_b").equivalent(underscored)

    def test_listing_reports_original_names(self, tmp_path, fig2_spec):
        store = WorkflowStore(tmp_path)
        run = execute_workflow(fig2_spec, seed=3, name="day 1/am")
        store.save_run(run)
        assert store.list_runs("fig2") == ["day 1/am"]
        assert store.load_run(fig2_spec, "day 1/am").equivalent(run)

    def test_raw_stem_entries_remain_loadable(self, tmp_path, fig2_spec):
        # A listing falls back to the raw file stem when it cannot read
        # a document's name; that stem must round-trip through load_run.
        store = WorkflowStore(tmp_path)
        run = execute_workflow(fig2_spec, seed=4, name="a/b")
        store.save_run(run)
        (path,) = (tmp_path / "runs" / "fig2").glob("*.xml")
        listed = path.stem
        assert listed.startswith("a_b~")  # the raw mangled stem
        assert store.load_run(fig2_spec, listed).equivalent(run)

    def test_spec_with_special_name_roundtrips(self, tmp_path):
        from repro.workflow.real_workflows import protein_annotation
        from repro.workflow.specification import WorkflowSpecification

        store = WorkflowStore(tmp_path)
        base = protein_annotation()
        spec = WorkflowSpecification(
            base.graph, forks=(), loops=(), name="PA v2/beta"
        )
        store.save_specification(spec)
        assert store.list_specifications() == ["PA v2/beta"]
        restored = store.load_specification("PA v2/beta")
        assert restored.characteristics() == spec.characteristics()


class TestIndexArea:
    def test_run_path_matches_save_location(self, tmp_path, fig2_spec, fig2_r1):
        store = WorkflowStore(tmp_path)
        saved = store.save_run(fig2_r1)
        assert store.run_path("fig2", "R1") == saved

    def test_store_never_creates_the_index_area(self, tmp_path, fig2_r1):
        store = WorkflowStore(tmp_path)
        store.save_run(fig2_r1)
        assert not (tmp_path / "index").exists()


class TestTempFiles:
    """Atomic-write temp files never list as runs or specifications."""

    def test_legacy_temp_leftovers_do_not_list(
        self, tmp_path, fig2_spec, fig2_r1
    ):
        store = WorkflowStore(tmp_path)
        store.save_specification(fig2_spec)
        store.save_run(fig2_r1)
        # What a writer killed inside atomic_write left behind before
        # temp files stopped ending in .xml.
        (tmp_path / "runs" / "fig2" / ".tmp-abc123.xml").write_text("<par")
        (tmp_path / "specs" / ".tmp-def456.xml").write_text("<spe")
        assert store.list_runs("fig2") == ["R1"]
        assert store.list_specifications() == ["fig2"]

    def test_a_listing_mid_save_sees_no_temp_file(
        self, tmp_path, fig2_spec, fig2_r1, monkeypatch
    ):
        import os

        store = WorkflowStore(tmp_path)
        store.save_specification(fig2_spec)
        seen = []
        real_fsync = os.fsync

        def listing_fsync(descriptor):
            # A concurrent reader listing while the temp file is on disk.
            seen.append(store.list_runs("fig2"))
            seen.append(store.list_specifications())
            real_fsync(descriptor)

        monkeypatch.setattr(os, "fsync", listing_fsync)
        store.save_run(fig2_r1)
        assert seen
        for listing in seen:
            assert not any(name.startswith(".") for name in listing)

    def test_temp_like_names_are_mangled_and_round_trip(
        self, tmp_path, fig2_spec
    ):
        store = WorkflowStore(tmp_path)
        assert not _safe_name(".tmp-x").startswith(".tmp-")
        run = execute_workflow(fig2_spec, seed=5, name=".tmp-x")
        store.save_run(run)
        assert store.list_runs("fig2") == [".tmp-x"]
        assert store.load_run(fig2_spec, ".tmp-x").equivalent(run)

    def test_a_legacy_temp_named_run_stays_loadable(
        self, tmp_path, fig2_spec, fig2_r1
    ):
        # Stored unmangled by an older version: the literal-stem
        # fallback still finds it, though the listing skips it.
        store = WorkflowStore(tmp_path)
        path = store.save_run(fig2_r1)
        path.rename(path.with_name(".tmp-old.xml"))
        assert store.load_run(fig2_spec, ".tmp-old").equivalent(fig2_r1)
        assert store.run_stamp("fig2", ".tmp-old") is not None


class TestRunStamp:
    def test_stamp_matches_the_located_file(self, tmp_path, fig2_r1):
        store = WorkflowStore(tmp_path)
        store.save_run(fig2_r1)
        stat = store.locate_run("fig2", "R1").stat()
        assert store.run_stamp("fig2", "R1") == (
            stat.st_size, stat.st_mtime_ns
        )
        assert store.run_stamp("fig2", "missing") is None
        assert store.run_stamp("nospec", "R1") is None

    def test_one_stat_per_stored_run(self, tmp_path, fig2_r1, monkeypatch):
        import os

        store = WorkflowStore(tmp_path)
        store.save_run(fig2_r1)
        calls = []
        real_stat = os.stat
        def counting_stat(path, *args, **kwargs):
            calls.append(path)
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", counting_stat)
        assert store.run_stamp("fig2", "R1") is not None
        assert len(calls) == 1


class TestOneDocument:
    """A run is one file, written once, that names itself and carries
    its metadata; what stores written before 9.0 hold still reads."""

    def test_save_run_is_one_atomic_write(
        self, tmp_path, fig2_spec, fig2_r1, monkeypatch
    ):
        store = WorkflowStore(tmp_path)
        store.save_specification(fig2_spec)
        writes = []
        real_write = store_module.atomic_write

        def counting_write(path, text):
            writes.append(path)
            return real_write(path, text)

        monkeypatch.setattr(store_module, "atomic_write", counting_write)
        assert writes == [store.save_run(fig2_r1)]

    @pytest.mark.parametrize("payload", ["{not json", "", '{"v": 99}'])
    def test_a_malformed_meta_is_no_metadata(
        self, tmp_path, fig2_spec, fig2_r1, payload
    ):
        store = WorkflowStore(tmp_path)
        path = store.save_run(fig2_r1)
        text = path.read_text(encoding="utf8")
        start = text.index("<meta>") + len("<meta>")
        end = text.index("</meta>")
        path.write_text(text[:start] + payload + text[end:], encoding="utf8")
        assert store.run_metadata("fig2", "R1") is None
        assert store.load_run(fig2_spec, "R1").equivalent(fig2_r1)

    @pytest.mark.parametrize("name", ["R1", "r one/odd"])
    def test_a_pre_9_entry_keeps_its_name_and_metadata(
        self, tmp_path, fig2_spec, name
    ):
        # What 8.x wrote: the run's XML without <meta>, the metadata in
        # <stem>.meta.json, and a <stem>.name for a mangled name.
        store = WorkflowStore(tmp_path)
        store.save_specification(fig2_spec)
        run = execute_workflow(fig2_spec, seed=3, name=name)
        path = store.run_path("fig2", name)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(run_to_xml(run), encoding="utf8")
        meta = capture_run_metadata(origin="prov-import")
        path.with_name(f"{path.stem}.meta.json").write_text(
            json.dumps(meta.to_dict(), sort_keys=True), encoding="utf8"
        )
        if path.stem != name:
            path.with_name(f"{path.stem}.name").write_text(
                name, encoding="utf8"
            )
        assert store.list_runs("fig2") == [name]
        assert store.run_metadata("fig2", name) == meta
        assert store.load_run(fig2_spec, name).equivalent(run)

    def test_a_head_that_names_no_entry_lists_the_raw_stem(
        self, tmp_path, fig2_spec
    ):
        store = WorkflowStore(tmp_path)
        path = store.save_run(execute_workflow(fig2_spec, seed=4, name="a/b"))
        # A copy names "a/b", which does not mangle to its stem.
        copied = path.with_name("x~0000.xml")
        copied.write_text(path.read_text(encoding="utf8"), encoding="utf8")
        path.write_text("<run", encoding="utf8")  # an unreadable head
        assert store.list_runs("fig2") == sorted([path.stem, "x~0000"])
