"""Interchange wired through store, corpus service, workspace and query.

Covers the acceptance path end-to-end: a checked-in non-series-parallel
PROV fixture is SP-ized, ingested via ``DiffService.add_prov_document``,
grown into a small corpus, and queried through the PR 2 query engine.
"""

import json
from pathlib import Path

import pytest

from repro.corpus.service import DiffService
from repro.errors import ConflictError, ReproError
from repro.interchange import export_run_json, import_document
from repro.query.engine import QueryEngine
from repro.query.predicates import Q
from repro.workflow.execution import ExecutionParams, execute_workflow
from repro.workspace import Workspace

GOLDEN = Path(__file__).parent / "golden"
SPARSE = ExecutionParams(prob_parallel=0.4)


def test_store_ingest_prov_persists_spec_and_run(tmp_path):
    store_root = tmp_path / "store"
    from repro.io.store import WorkflowStore

    store = WorkflowStore(store_root)
    result = store.ingest_prov(
        GOLDEN / "opm_pipeline.json", run_name="r1", spec_name="opm"
    )
    assert store.has_specification("opm")
    assert store.list_runs("opm") == ["r1"]
    reloaded = store.load_run(store.load_specification("opm"), "r1")
    assert reloaded.equivalent(result.run)


def test_non_sp_fixture_ingested_and_queryable_end_to_end(tmp_path):
    service = DiffService(tmp_path / "corpus")
    result, distances = service.add_prov_document(
        GOLDEN / "non_sp_minor.json", run_name="imported"
    )
    assert result.origin == "normalized"
    assert not result.report.was_series_parallel
    assert result.report.forced_serializations
    assert distances == {}  # first run of its specification

    # Grow the corpus with native runs of the derived specification:
    # the imported document now behaves like any other workflow.
    spec = result.spec
    for index, seed in enumerate((3, 8)):
        run = execute_workflow(
            spec, SPARSE, seed=seed, name=f"generated-{index}"
        )
        service.add_run(run)
    assert len(service.runs(spec.name)) == 3

    # Query engine over the imported corpus: indexed select agrees with
    # the brute-force scan, and predicates resolve over the imported
    # run's labels.
    engine = QueryEngine(service)
    selected = list(engine.select(spec.name))
    scanned = list(engine.scan(spec.name))
    assert [(d.pair, d.distance) for d in selected] == [
        (d.pair, d.distance) for d in scanned
    ]
    assert len(selected) == 3
    deletions = list(
        engine.select(spec.name, Q.op_kind("path-deletion"))
    )
    assert all(
        any(op.kind == "path-deletion" for op in doc.operations)
        for doc in deletions
    )
    # The imported run participates in at least one matching pair.
    assert any("imported" in doc.pair for doc in selected)


def test_workspace_import_export_prov_round_trip(tmp_path, fig2_spec):
    ws = Workspace(tmp_path / "workspace")
    ws.register(fig2_spec)
    ws.generate_run("native", "fig2", seed=11)

    text = ws.export_prov("native", spec="fig2")
    result = ws.import_prov(text, name="reimported")
    assert result.origin == "embedded-plan"
    assert set(ws.runs("fig2")) == {"native", "reimported"}
    assert ws.diff("native", "reimported", spec="fig2").distance == 0.0

    # Exported text parses as PROV-JSON with the expected sections.
    document = json.loads(text)
    assert set(document) >= {
        "activity",
        "entity",
        "used",
        "wasGeneratedBy",
    }


def test_imported_runs_flow_into_fingerprints_and_caches(tmp_path):
    service = DiffService(tmp_path / "corpus")
    result, _ = service.add_prov_document(
        GOLDEN / "base.json", run_name="base"
    )
    service.add_prov_document(
        GOLDEN / "fork_twice.json", run_name="forked"
    )
    spec_name = result.spec.name
    fingerprints = service.fingerprints(spec_name)
    assert set(fingerprints) == {"base", "forked"}

    matrix = service.distance_matrix(spec_name)
    assert matrix[("base", "forked")] == 4.0

    # A brand-new service over the same store answers warm.
    reopened = DiffService(tmp_path / "corpus")
    assert reopened.distance_matrix(spec_name) == matrix
    assert reopened.computed_pairs == 0


def test_conflicting_spec_names_are_refused(tmp_path):
    service = DiffService(tmp_path / "corpus")
    service.add_prov_document(
        GOLDEN / "opm_pipeline.json", run_name="r1", spec_name="clash"
    )
    with pytest.raises(ReproError, match="different specification"):
        service.add_prov_document(
            GOLDEN / "non_sp_minor.json", run_name="r2", spec_name="clash"
        )


def test_exported_edit_script_document_is_valid_prov(fig2_r1, fig2_r2):
    from repro.core.api import diff_runs
    from repro.interchange import export_script_document, parse_prov_json

    result = diff_runs(fig2_r1, fig2_r2)
    document = export_script_document(
        result.script.operations,
        result.distance,
        "R1",
        "R2",
        spec_name="fig2",
    )
    doc = parse_prov_json(document)
    # One activity per operation, chained in order.
    assert len(doc.activities) == len(result.script.operations)
    chain = doc.relations_of("wasInformedBy")
    assert len(chain) == len(result.script.operations) - 1
    derivations = doc.relations_of("wasDerivedFrom")
    assert len(derivations) == 1
    assert derivations[0].attributes["repro:distance"] == result.distance


def test_import_document_round_trips_across_stores(tmp_path):
    # Export from one store, import into a fresh one: the embedded plan
    # carries everything across.
    first = DiffService(tmp_path / "one")
    result, _ = first.add_prov_document(
        GOLDEN / "loop_twice.json", run_name="origin"
    )
    text = export_run_json(result.run)

    second = DiffService(tmp_path / "two")
    moved, _ = second.add_prov_document(text, run_name="moved")
    assert moved.run.equivalent(result.run)
    assert second.runs(moved.spec.name) == ["moved"]


def test_qualified_activity_ids_survive_the_exact_round_trip():
    # A normalised import keeps qualified PROV ids (``ex:step``) as run
    # node ids; re-importing the export must strip exactly the writer's
    # ``run:`` prefix — not everything up to the last colon, which
    # would corrupt ``ex:step`` to ``step`` and collide it with
    # ``other:step``.
    doc = {
        "activity": {"ex:step": {}, "other:step": {}, "ex:merge": {}},
        "wasInformedBy": {
            "_:1": {
                "prov:informed": "ex:merge",
                "prov:informant": "ex:step",
            },
            "_:2": {
                "prov:informed": "ex:merge",
                "prov:informant": "other:step",
            },
        },
    }
    first = import_document(doc, run_name="q", spec_name="qualified")
    again = import_document(export_run_json(first.run))
    assert again.origin == "embedded-plan"
    assert first.run.equivalent(again.run)
    assert set(again.run.graph.nodes()) == set(first.run.graph.nodes())


def test_workspace_refuses_conflicting_spec_overwrite(tmp_path):
    diamond = {
        "activity": {"a": {}, "b": {}, "c": {}, "d": {}},
        "wasInformedBy": {
            "_:1": {"prov:informed": "b", "prov:informant": "a"},
            "_:2": {"prov:informed": "c", "prov:informant": "a"},
            "_:3": {"prov:informed": "d", "prov:informant": "b"},
            "_:4": {"prov:informed": "d", "prov:informant": "c"},
        },
    }
    chain = {
        "activity": {"x": {}, "y": {}},
        "wasInformedBy": {
            "_:1": {"prov:informed": "y", "prov:informant": "x"}
        },
    }
    ws = Workspace(tmp_path / "s")
    ws.import_prov(diamond, name="monday")
    with pytest.raises(ConflictError, match="different specification"):
        ws.import_prov(chain, name="tuesday")
    # The original spec and run are untouched.
    assert ws.runs("imported") == ["monday"]
    assert ws.run("monday", spec="imported").num_nodes == 4
    # Re-importing the *same* content under the name is fine.
    ws.import_prov(diamond, name="wednesday")
    assert set(ws.runs("imported")) == {"monday", "wednesday"}


def test_import_document_rejects_garbage_early():
    from repro.errors import InterchangeError

    with pytest.raises(InterchangeError):
        import_document("{broken json")
    with pytest.raises(InterchangeError):
        import_document({"activity": {"a": {}}, "used": {"_:u": {}}})
