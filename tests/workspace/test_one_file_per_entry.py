"""One document per catalog entry, on every write path.

A stored specification is one XML file and a stored run is one XML
file that also carries its operational metadata (``<meta>``): no
``.meta.json`` or ``.name`` sidecar is written, and a mangled name
(``"r one/odd"``, ``"PA v2/beta"``) lists and loads under the name the
document declares.  Each write path is driven in its own fresh store.
"""

from __future__ import annotations

import pytest

from repro import __version__
from repro.client import RemoteWorkspace
from repro.config import ReproConfig
from repro.interchange.convert import export_run_json
from repro.io.store import WorkflowStore
from repro.obs.runmeta import capture_run_metadata
from repro.service.server import DiffServer
from repro.workflow.execution import ExecutionParams, execute_workflow
from repro.workflow.real_workflows import protein_annotation
from repro.workflow.specification import WorkflowSpecification
from repro.workspace import Workspace

VARIED = ExecutionParams(
    prob_parallel=0.7, max_fork=3, prob_fork=0.6, max_loop=2, prob_loop=0.6
)
SPEC = "PA v2/beta"
RUNS = ("r one/odd", "r02")


def mangled_pa() -> WorkflowSpecification:
    """PA, forks and loops included, under a name that gets mangled."""
    base = protein_annotation()
    return WorkflowSpecification(
        base.graph,
        forks=[sorted(a.edges, key=str) for a in base.fork_elements],
        loops=[sorted(a.edges, key=str) for a in base.loop_elements],
        name=SPEC,
    )


def runs_of(spec):
    return [
        execute_workflow(spec, VARIED, seed=seed, name=name)
        for seed, name in enumerate(RUNS, start=1)
    ]


def stream_close(ws, run):
    """Stream ``run``'s graph in validated mode, then close it."""
    with ws.stream(run.spec.name, run.name, mode="validated") as stream:
        labels = run.graph.labels()
        for node in run.graph.nodes():
            stream.activity(str(node), labels[node])
        for src, dst, _key in run.graph.edges():
            stream.edge(str(src), str(dst))
        stream.close_run()


def write_local(path, ws, spec):
    if path in ("generate_run", "stream"):
        ws.register(spec)
    for index, run in enumerate(runs_of(spec), start=1):
        if path == "add_run":
            ws.add_run(run)
        elif path == "import_run":
            ws.import_run(run)
        elif path == "generate_run":
            ws.generate_run(run.name, spec=SPEC, params=VARIED, seed=index)
        elif path == "import_prov":
            ws.import_prov(export_run_json(run), name=run.name)
        elif path == "import_prov_diff":
            ws.import_prov(export_run_json(run), name=run.name, diff=True)
        elif path == "stream":
            stream_close(ws, run)


def write_remote(path, remote, spec):
    for run in runs_of(spec):
        if path == "put_run":
            remote.import_run(run)
        elif path == "post_prov_import":
            remote.import_prov(export_run_json(run), name=run.name, diff=True)


ORIGINS = {
    "add_run": "native",
    "import_run": "native",
    "generate_run": "native",
    "import_prov": "prov-import",
    "import_prov_diff": "prov-import",
    "put_run": "prov-import",
    "post_prov_import": "prov-import",
    "stream": "stream",
}


@pytest.mark.parametrize("path", sorted(ORIGINS))
def test_every_write_path_stores_one_document_per_entry(tmp_path, path):
    config = ReproConfig(backend="serial", log_format="off")
    if path in ("put_run", "post_prov_import"):
        with DiffServer(tmp_path, config) as live:
            remote = RemoteWorkspace(live.url)
            try:
                write_remote(path, remote, mangled_pa())
            finally:
                remote.close()
    else:
        write_local(path, Workspace(tmp_path, config), mangled_pa())

    entries = [
        p.relative_to(tmp_path)
        for p in tmp_path.rglob("*")
        if p.is_file()
        and p.relative_to(tmp_path).parts[0] not in ("index", "streams")
    ]
    assert sorted(p.parts[0] for p in entries) == ["runs"] * len(RUNS) + [
        "specs"
    ]
    # A streamed run's session journal is no entry: one per session.
    journals = sorted(p.name for p in tmp_path.glob("streams/*"))
    assert len(journals) == (len(RUNS) if path == "stream" else 0)
    assert all(name.endswith(".closed.ndjson") for name in journals)
    assert {p.suffix for p in entries} == {".xml"}

    store = WorkflowStore(tmp_path)
    assert store.list_specifications() == [SPEC]
    assert store.list_runs(SPEC) == sorted(RUNS)
    spec = store.load_specification(SPEC)
    assert spec.name == SPEC
    captured = capture_run_metadata()
    for name in RUNS:
        assert store.load_run(spec, name).name == name
        meta = store.run_metadata(SPEC, name)
        assert meta is not None
        assert meta.origin == ORIGINS[path]
        assert (meta.user, meta.host) == (captured.user, captured.host)
        assert meta.tool_version == __version__
        assert meta.started <= meta.ended
