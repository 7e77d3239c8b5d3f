"""The process-wide, content-addressed specification registry."""

import copy
import os
import pickle
import sys
import threading
import uuid

import pytest

from repro.errors import InterchangeError, NotFoundError, ReproError
from repro.graphs.flow_network import FlowNetwork
from repro.interchange.convert import (
    SPEC_ATTRIBUTE,
    export_run_document,
    import_document,
)
from repro.io import registry, xml_io
from repro.io.store import WorkflowStore
from repro.workflow.execution import ExecutionParams, execute_workflow
from repro.workflow.real_workflows import protein_annotation
from repro.workflow.run import WorkflowRun
from repro.workflow.specification import WorkflowSpecification

VARIED = ExecutionParams(
    prob_parallel=0.7, max_fork=3, prob_fork=0.6, max_loop=2, prob_loop=0.6
)


def fresh_spec(tag: str, rename=lambda node: node, name=None):
    """The protein-annotation workflow under a never-seen name, so its
    XML misses the registry however many tests ran before."""
    base = protein_annotation()
    graph = FlowNetwork()
    for node in base.graph.nodes():
        graph.add_node(rename(node), base.graph.label(node))
    for u, v, key in base.graph.edges():
        graph.add_edge(rename(u), rename(v), key)

    def elements(annotations):
        return [
            sorted((rename(u), rename(v), key) for u, v, key in a.edges)
            for a in annotations
        ]

    return WorkflowSpecification(
        graph,
        forks=elements(base.fork_elements),
        loops=elements(base.loop_elements),
        name=name or f"{tag}-{uuid.uuid4().hex[:12]}",
    )


def documents(spec, count, first_seed=1):
    return [
        export_run_document(
            execute_workflow(spec, VARIED, seed=seed, name=f"r{seed:03d}")
        )
        for seed in range(first_seed, first_seed + count)
    ]


@pytest.fixture
def parses(monkeypatch):
    """Every real specification parse, counted."""
    seen = []
    original = xml_io.specification_from_xml

    def counting(text):
        seen.append(text)
        return original(text)

    monkeypatch.setattr(xml_io, "specification_from_xml", counting)
    return seen


def test_one_plan_is_parsed_once_and_written_once(tmp_path, parses):
    store = WorkflowStore(tmp_path)
    spec = fresh_spec("once")
    first, *rest = documents(spec, 6)
    result = store.ingest_prov(first)
    path = tmp_path / "specs" / f"{spec.name}.xml"
    stamp = path.stat()
    results = [result] + [store.ingest_prov(doc) for doc in rest]
    assert len(parses) == 1
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (
        stamp.st_ino,
        stamp.st_mtime_ns,
    )
    # Every import, and a load from the store, share one object.
    assert {id(r.spec) for r in results} == {id(result.spec)}
    assert store.load_specification(spec.name) is result.spec
    assert len(parses) == 1
    assert len(store.list_runs(spec.name)) == 6


def test_malformed_plan_raises_on_every_attempt(parses):
    (document,) = documents(fresh_spec("malformed"), 1)
    plan = document["entity"]["plan:specification"]
    for broken in ("<specification name='x'><nodes>", "<specification/>"):
        plan[SPEC_ATTRIBUTE] = broken
        for _ in range(2):
            with pytest.raises(InterchangeError, match="embedded"):
                import_document(copy.deepcopy(document))
    assert len(parses) == 4  # a failure is never cached


def test_corrupt_stored_spec_surfaces_as_repro_error(tmp_path):
    store = WorkflowStore(tmp_path)
    spec = fresh_spec("corrupt")
    path = store.save_specification(spec)
    path.write_text("<specification name=", encoding="utf8")
    for _ in range(2):
        with pytest.raises(ReproError, match="malformed"):
            store.load_specification(spec.name)
    (document,) = documents(spec, 1)
    with pytest.raises(ReproError, match="malformed"):
        store.ingest_prov(document)
    path.write_bytes(b"\xff\xfe not utf-8")
    with pytest.raises(ReproError, match="cannot read"):
        store.load_specification(spec.name)


def test_spec_file_vanishing_before_the_read_counts_as_absent(
    tmp_path, monkeypatch
):
    # The file is there when stat-ed (with a stamp the memo does not
    # know, so it must be read) but gone when opened.
    store = WorkflowStore(tmp_path)
    spec = fresh_spec("vanish")
    path = store.save_specification(spec)
    os.utime(path, ns=(0, 0))

    def vanished(*args, **kwargs):
        raise FileNotFoundError(str(path))

    monkeypatch.setattr(registry, "open", vanished, raising=False)
    with pytest.raises(NotFoundError):
        store.load_specification(spec.name)
    assert store.adopt_specification(spec) is spec
    monkeypatch.undo()
    assert store.load_specification(spec.name).name == spec.name


def test_an_unchanged_spec_file_is_stat_ed_not_read(tmp_path, monkeypatch):
    """Loads of a saved spec return the saved object without opening
    its file; a rewrite this process never saw (another process's) is
    read once, at the next load."""
    opened = []
    real_open = open

    def counting(*args, **kwargs):
        opened.append(args[0])
        return real_open(*args, **kwargs)

    monkeypatch.setattr(registry, "open", counting, raising=False)
    store = WorkflowStore(tmp_path)
    spec = fresh_spec("stat")
    store.save_specification(spec)
    for _ in range(3):
        assert store.load_specification(spec.name) is spec
    assert opened == []
    other = fresh_spec("stat", rename=lambda n: f"y-{n}", name=spec.name)
    (tmp_path / "specs" / f"{spec.name}.xml").write_text(
        xml_io.specification_to_xml(other), encoding="utf8"
    )
    reloaded = store.load_specification(spec.name)
    assert reloaded is not spec
    assert store.load_specification(spec.name) is reloaded
    assert len(opened) == 1


def test_same_digest_spec_never_overwrites_the_first(tmp_path):
    store = WorkflowStore(tmp_path)
    spec = fresh_spec("first")
    store.save_specification(spec)
    path = tmp_path / "specs" / f"{spec.name}.xml"
    text, stamp = path.read_text(encoding="utf8"), path.stat()
    # Same labels and structure (so the same fingerprint), other ids.
    twin = fresh_spec("twin", rename=lambda n: f"x-{n}", name=spec.name)
    (document,) = documents(twin, 1)
    result = store.ingest_prov(document)
    assert result.spec.name == spec.name
    assert path.read_text(encoding="utf8") == text
    assert path.stat().st_mtime_ns == stamp.st_mtime_ns
    assert store.load_run(spec, result.run.name).equivalent(result.run)


def test_registry_stays_at_its_capacity():
    extra = 5
    for index in range(registry.CAPACITY + extra):
        (document,) = documents(fresh_spec(f"cap{index}"), 1)
        import_document(document)
        assert len(registry.SPEC_REGISTRY) <= registry.CAPACITY
    assert len(registry.SPEC_REGISTRY) == registry.CAPACITY


def test_racing_misses_share_one_spec():
    # Threads missing on one text at once all parse it; the first parse
    # to land wins, so every caller still gets the same object.
    workers = 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the parses finely
    try:
        for _ in range(10):
            text = xml_io.specification_to_xml(fresh_spec("race"))
            barrier = threading.Barrier(workers)
            resolved = []

            def resolve():
                barrier.wait(timeout=30)
                resolved.append(registry.SPEC_REGISTRY.specification(text))

            threads = [
                threading.Thread(target=resolve) for _ in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert len(resolved) == workers
            assert len({id(spec) for spec in resolved}) == 1
    finally:
        sys.setswitchinterval(interval)


def test_pickle_is_byte_stable_across_run_annotation():
    spec = fresh_spec("pickle")
    before = pickle.dumps(spec)
    run = execute_workflow(spec, VARIED, seed=4)
    annotated = WorkflowRun(spec, run.graph, name="again")
    assert spec._run_tables is not None  # the memo was built
    assert pickle.dumps(spec) == before
    clone = pickle.loads(before)
    assert WorkflowRun(clone, run.graph).equivalent(annotated)
