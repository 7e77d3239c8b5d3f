"""API hygiene: exports, documentation coverage and performance guards."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import pytest

import repro

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def public_members(module):
    for name in getattr(module, "__all__", dir(module)):
        if name.startswith("_"):
            continue
        member = getattr(module, name)
        if inspect.isclass(member) or inspect.isfunction(member):
            yield name, member


class TestAllConsistency:
    """Every ``__all__`` name is importable and documented."""

    def test_every_export_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_every_export_is_documented(self):
        for name in repro.__all__:
            if name == "__version__":
                continue
            member = getattr(repro, name)
            if inspect.ismodule(member):
                continue
            assert inspect.getdoc(member), f"{name} lacks a docstring"

    def test_no_stray_public_attributes(self):
        """Public attributes of the package are all declared exports
        (modules imported as submodule side effects are exempt)."""
        declared = set(repro.__all__)
        for name in dir(repro):
            if name.startswith("_"):
                continue
            if inspect.ismodule(getattr(repro, name)):
                continue
            assert name in declared, f"undeclared public name {name}"

    @pytest.mark.parametrize(
        "name",
        [
            "definitely_not_an_export",
            # The entry points removed in 2.0.
            "diff_runs",
            "DiffService",
            "PDiffViewSession",
            "QueryEngine",
            # Removed in 3.0.
            "ProcessBackend",
        ],
    )
    def test_unknown_attribute_still_raises(self, name):
        with pytest.raises(AttributeError):
            getattr(repro, name)


class TestImportSurface:
    def test_imports_are_silent_and_numpy_free(self):
        """Importing the library, the CLI and both servers warns about
        nothing and never pulls in numpy — checked in a clean
        interpreter so earlier imports cannot mask either."""
        code = (
            "import sys, warnings\n"
            "warnings.simplefilter('error', DeprecationWarning)\n"
            "import repro, repro.cli, repro.service.server\n"
            "import repro.cluster.server\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
            "print('clean')\n"
        )
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "clean" in proc.stdout

    def test_imports_leave_networkx_unloaded(self):
        """The library, the CLI and both servers never load networkx
        (no module imports it; see the stdlib-only test below)."""
        code = (
            "import sys\n"
            "import repro, repro.cli, repro.service.server\n"
            "import repro.cluster.server\n"
            "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
            "print('clean')\n"
        )
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "clean" in proc.stdout

    def test_imports_leave_urllib_request_unloaded(self):
        """One client transport: the library, the CLI and both servers
        speak HTTP through :mod:`repro.transport`'s pooled
        :mod:`http.client` connections, so ``urllib.request`` (a
        second, connection-per-request client) is never loaded."""
        code = (
            "import sys\n"
            "import repro, repro.cli, repro.service.server\n"
            "import repro.cluster.server\n"
            "assert 'urllib.request' not in sys.modules, "
            "'urllib.request was imported'\n"
            "print('clean')\n"
        )
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "clean" in proc.stdout

    def test_imports_leave_the_cluster_unloaded(self):
        """The library and the single-process server never load
        :mod:`repro.cluster`: the corpus service's single-flight table
        lives in :mod:`repro.corpus.singleflight`, so only
        ``repro serve --workers N`` imports the cluster package."""
        code = (
            "import sys\n"
            "import repro, repro.service.server\n"
            "loaded = sorted(m for m in sys.modules"
            " if m.split('.')[:2] == ['repro', 'cluster'])\n"
            "assert not loaded, loaded\n"
            "print('clean')\n"
        )
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "clean" in proc.stdout

    def test_the_supervising_parent_stays_lean(self, tmp_path):
        """``import repro``, ``import repro.cli`` and the supervising
        path of ``repro serve --workers N`` — bind, spawn a worker, wait
        until it serves, stop — load none of the library it serves."""
        code = (
            "import sys\n"
            "import repro, repro.cli\n"
            "from repro.cluster.supervisor import ClusterServer\n"
            "from repro.config import ReproConfig\n"
            "config = ReproConfig.from_env(log_format='off')\n"
            f"with ClusterServer({str(tmp_path)!r}, config, workers=1):\n"
            "    pass\n"
            "heavy = ('core', 'corpus', 'interchange', 'query', 'service',\n"
            "         'stream', 'workspace', 'client')\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m.split('.')[:2][-1] in heavy\n"
            "                and m.startswith('repro.'))\n"
            "assert not loaded, loaded\n"
            "print('lean')\n"
        )
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "lean" in proc.stdout

    def test_the_cluster_relays_nothing(self):
        """No module under ``src/repro/cluster`` imports an HTTP
        client: no process forwards a request."""
        offenders = []
        cluster = Path(REPO_SRC, "repro", "cluster")
        for path in sorted(cluster.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module]
                else:
                    continue
                offenders.extend(
                    f"{path.name}: {name}"
                    for name in names
                    if name in ("http.client", "repro.transport")
                )
        assert offenders == []

    def test_corpus_never_imports_the_cluster(self):
        """Static companion of the subprocess check: no module under
        ``src/repro/corpus`` names :mod:`repro.cluster` in an import."""
        offenders = []
        corpus = Path(REPO_SRC, "repro", "corpus")
        for path in sorted(corpus.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module]
                else:
                    continue
                offenders.extend(
                    f"{path.name}: {name}"
                    for name in names
                    if name.split(".")[:2] == ["repro", "cluster"]
                )
        assert offenders == []

    @pytest.mark.parametrize(
        "module_name, name",
        [
            # Removed in 6.0: payloads made for the deleted process pool.
            ("repro.backends", "DistanceTask"),
            ("repro.backends", "ScriptTask"),
            ("repro.backends.work", "DistanceTask"),
            ("repro.backends.work", "ScriptTask"),
            # Moved in 6.0 to repro.corpus.singleflight.
            ("repro.cluster", "SingleFlight"),
            # Removed in 8.0: nothing is keyed by a spec name to
            # invalidate, and the run memo has one method.
            ("repro.corpus.service", "DiffService.invalidate_specification"),
            ("repro.corpus.index", "FingerprintIndex.spec_digest"),
            ("repro.corpus.index", "FingerprintIndex.forget_spec"),
            ("repro.corpus.index", "FingerprintIndex.peek_run"),
            ("repro.corpus.index", "FingerprintIndex.remember"),
            ("repro.cluster.supervisor", "WorkerSupervisor.all_alive"),
            # Removed in 9.0: a second serialisation of runs and
            # specifications, and a width knob no product caller set.
            ("repro.io", "json_io"),
            ("repro.corpus.service", "DiffService.max_workers"),
            # Removed in 10.0: the relaying parent and its routing.
            ("repro.cluster", "shard"),
            ("repro.cluster.supervisor", "WorkerSupervisor.incarnation"),
            ("repro.cluster.server", "ClusterServer.wait_for_worker"),
        ],
    )
    def test_removed_names_stay_removed(self, module_name, name):
        owner = importlib.import_module(module_name)
        *parents, attribute = name.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        assert attribute not in getattr(owner, "__all__", ())
        assert not hasattr(owner, attribute)
        if hasattr(owner, "__path__"):  # nor a submodule of a package
            assert importlib.util.find_spec(
                f"{owner.__name__}.{attribute}"
            ) is None
        elif inspect.isclass(owner):  # nor a constructor parameter
            assert attribute not in inspect.signature(owner).parameters

    def test_no_name_keyed_specification_state(self, tmp_path):
        """One identity since 8.0, the stored file: no workspace,
        service, index or client keeps specifications, their digests or
        their op ceilings by name."""
        from repro.client import RemoteWorkspace
        from repro.workspace import Workspace

        ws = Workspace(tmp_path)
        holders = [
            ws, ws.service, ws.service.index,
            RemoteWorkspace("http://127.0.0.1:1"),
        ]
        for holder in holders:
            for attribute in ("_specs", "_spec_digests", "_max_op_leaves"):
                assert not hasattr(holder, attribute), (
                    type(holder).__name__, attribute,
                )

    def test_the_stream_keeps_no_sp_ization_of_its_own(self):
        """A stream SP-izes through the importer since 9.0: it keeps
        no depths or reachability closures beside its document."""
        from repro.stream.incremental import IncrementalNormalizer

        normalizer = IncrementalNormalizer()
        normalizer.add_edge("ex:a", "ex:b")
        for attribute in ("_reach", "_coreach", "_depth"):
            assert not hasattr(normalizer, attribute), attribute

    def test_the_importer_takes_no_injected_layering(self):
        """``normalize_document`` is the one SP-izer: no function of
        the importer takes precomputed depths or reachability."""
        from repro.interchange import normalize

        for name, member in vars(normalize).items():
            if (
                inspect.isfunction(member)
                and member.__module__ == normalize.__name__
            ):
                parameters = set(inspect.signature(member).parameters)
                assert not parameters & {"depths", "reach"}, name

    def test_no_triangle_bounds(self, tmp_path):
        """The analytics price in one batch since 7.0: no triangle
        bound, cache read-through probe or triangle counter is left."""
        from repro.core import bounds
        from repro.corpus.cache import TwoTierCache
        from repro.corpus.service import DiffService

        assert [n for n in dir(bounds) if n.startswith("triangle")] == []
        assert list(inspect.signature(TwoTierCache.peek).parameters) == [
            "self", "key",
        ]
        service = DiffService(tmp_path, persistent=False)
        assert not hasattr(service, "dp_pruned_by_triangle")

    def test_backend_workers_take_runs_directly(self):
        """No payload record: each worker takes the two runs, the cost
        model and the batch's shared tables."""
        import dataclasses

        from repro.backends import compute_distance, compute_script
        from repro.backends import work

        for worker in (compute_distance, compute_script):
            assert list(inspect.signature(worker).parameters) == [
                "run_a", "run_b", "cost", "shared",
            ]
        assert not [
            name
            for name, member in vars(work).items()
            if inspect.isclass(member)
            and member.__module__ == work.__name__
            and dataclasses.is_dataclass(member)
        ]

    def test_star_import_is_warning_free(self):
        """``from repro import *`` resolves every ``__all__`` name
        silently and brings none of the removed entry points along."""
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            namespace = {}
            exec("from repro import *", namespace)
        assert "Workspace" in namespace
        assert "diff_runs" not in namespace

    def test_no_module_imports_numpy(self):
        """Static companion of the subprocess check: no module of the
        package, imported or not, names numpy in an import."""
        offenders = []
        for path in sorted(Path(REPO_SRC, "repro").rglob("*.py")):
            for line in path.read_text(encoding="utf-8").splitlines():
                words = line.strip().replace(",", " ").split()
                if words[:1] in (["import"], ["from"]) and any(
                    word.split(".")[0] == "numpy" for word in words[1:]
                ):
                    offenders.append(f"{path.name}: {line.strip()}")
        assert offenders == []

    def test_version_matches_pyproject(self):
        pyproject = Path(REPO_SRC).parent / "pyproject.toml"
        line = next(
            line
            for line in pyproject.read_text(encoding="utf-8").splitlines()
            if line.startswith("version = ")
        )
        assert line == f'version = "{repro.__version__}"'
        assert repro.__version__ == "10.0.0"

    def test_pyproject_declares_no_dependencies(self):
        pyproject = Path(REPO_SRC).parent / "pyproject.toml"
        lines = pyproject.read_text(encoding="utf-8").splitlines()
        declared = [line for line in lines if line.startswith("dependencies")]
        assert declared == ["dependencies = []"]

    def test_every_import_is_stdlib_or_repro(self):
        """The package has no runtime dependency: every ``import`` and
        ``from`` under ``src/repro`` names ``repro``, ``__future__`` or
        a standard-library module — built in, frozen, or found under
        the interpreter's stdlib directory outside ``site-packages``
        (``sys.stdlib_module_names`` only exists from Python 3.10)."""
        stdlib_dirs = {
            Path(sysconfig.get_paths()[key]).resolve()
            for key in ("stdlib", "platstdlib")
        }
        verdicts = {"repro": True, "__future__": True}

        def is_stdlib(top: str) -> bool:
            spec = importlib.util.find_spec(top)
            if spec is None or spec.origin is None:
                return False
            if spec.origin in ("built-in", "frozen"):
                return True
            origin = Path(spec.origin).resolve()
            return any(
                base in origin.parents for base in stdlib_dirs
            ) and not {"site-packages", "dist-packages"} & set(origin.parts)

        offenders = []
        for path in sorted(Path(REPO_SRC, "repro").rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    tops = [alias.name.split(".")[0] for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    tops = [node.module.split(".")[0]]
                else:
                    continue
                for top in tops:
                    if top not in verdicts:
                        verdicts[top] = is_stdlib(top)
                    if not verdicts[top]:
                        offenders.append(f"{path.name}: {top}")
        assert offenders == []
        assert {"os", "sqlite3", "concurrent"} <= set(verdicts)


class TestNoKernelKeyword:
    """The DP has one convolution and one path, so no layer takes a
    ``kernel`` or a keyword that picks a mode."""

    @pytest.mark.parametrize(
        "dotted",
        [
            "repro.core.api.diff_runs",
            "repro.core.api.distance_only",
            "repro.core.edit_distance.EditDistanceComputation",
            "repro.core.memo.SharedTables",
            "repro.core.deletion.DeletionTables",
            "repro.corpus.service.DiffService",
        ],
    )
    def test_signature_has_no_kernel(self, dotted):
        module_name, attribute = dotted.rsplit(".", 1)
        target = getattr(importlib.import_module(module_name), attribute)
        assert "kernel" not in inspect.signature(target).parameters

    @pytest.mark.parametrize(
        "dotted, keyword",
        [
            (
                "repro.core.edit_distance.EditDistanceComputation",
                "distance_only",
            ),
            ("repro.core.api.distance_only", "assume_aligned"),
            ("repro.distance_only", "assume_aligned"),
        ],
    )
    def test_one_dp_path_has_no_mode_keyword(self, dotted, keyword):
        """Distances and scripts share one DP, so no layer picks one."""
        module_name, attribute = dotted.rsplit(".", 1)
        target = getattr(importlib.import_module(module_name), attribute)
        assert keyword not in inspect.signature(target).parameters


class TestOneOwnerPerRequest:
    """A served cluster forwards each matrix and query whole to one
    worker, so no layer takes a keyword that evaluates a shard of it."""

    @pytest.mark.parametrize(
        "owner, method, keyword",
        [
            ("repro.workspace.Workspace", "matrix", "shard"),
            ("repro.workspace.Workspace", "query_page", "shard"),
            ("repro.query.engine.QueryEngine", "select", "pair_filter"),
        ],
    )
    def test_no_partial_evaluation_keyword(self, owner, method, keyword):
        module_name, attribute = owner.rsplit(".", 1)
        cls = getattr(importlib.import_module(module_name), attribute)
        target = getattr(cls, method)
        assert keyword not in inspect.signature(target).parameters


class TestDocumentation:
    def test_top_level_exports_are_documented(self):
        for name, member in public_members(repro):
            assert inspect.getdoc(member), f"{name} lacks a docstring"

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.graphs.flow_network",
            "repro.graphs.spgraph",
            "repro.graphs.decomposition",
            "repro.graphs.homomorphism",
            "repro.sptree.nodes",
            "repro.sptree.canonical",
            "repro.sptree.annotate_spec",
            "repro.sptree.annotate_run",
            "repro.sptree.validate",
            "repro.workflow.specification",
            "repro.workflow.run",
            "repro.workflow.execution",
            "repro.workflow.generators",
            "repro.workflow.real_workflows",
            "repro.costs.base",
            "repro.costs.standard",
            "repro.costs.validation",
            "repro.matching.hungarian",
            "repro.matching.noncrossing",
            "repro.core.deletion",
            "repro.core.spec_costs",
            "repro.core.edit_distance",
            "repro.core.mapping",
            "repro.core.edit_script",
            "repro.core.apply",
            "repro.core.api",
            "repro.core.postprocess",
            "repro.baselines.naive",
            "repro.baselines.exhaustive",
            "repro.hardness.reduction",
            "repro.provenance.records",
            "repro.provenance.capture",
            "repro.provenance.annotate_diff",
            "repro.pdiffview.render",
            "repro.pdiffview.clustering",
            "repro.pdiffview.session",
            "repro.io.xml_io",
            "repro.io.store",
            "repro.workspace",
            "repro.config",
            "repro.backends.base",
            "repro.backends.work",
            "repro.corpus.singleflight",
            "repro.api_types",
            "repro.client",
            "repro.transport",
            "repro.service.app",
            "repro.service.server",
        ],
    )
    def test_module_and_public_classes_documented(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        assert inspect.getdoc(module), f"{module_name} lacks a docstring"
        for name, member in vars(module).items():
            if name.startswith("_"):
                continue
            if getattr(member, "__module__", None) != module_name:
                continue
            if inspect.isclass(member) or inspect.isfunction(member):
                assert inspect.getdoc(member), (
                    f"{module_name}.{name} lacks a docstring"
                )

    def test_public_methods_documented(self):
        from repro.core.api import DiffResult
        from repro.graphs.flow_network import FlowNetwork
        from repro.sptree.nodes import SPTree
        from repro.workflow.specification import WorkflowSpecification

        for cls in (FlowNetwork, SPTree, WorkflowSpecification, DiffResult):
            for name, member in vars(cls).items():
                if name.startswith("_") or not callable(member):
                    continue
                assert inspect.getdoc(member), (
                    f"{cls.__name__}.{name} lacks a docstring"
                )


class TestPerformanceGuards:
    def test_medium_diff_stays_interactive(self, fig2_spec):
        """A ~200-total-edge diff should stay well under a second
        (regression guard for the O(|E|³) pipeline's constants)."""
        from repro import ExecutionParams, execute_workflow
        from repro.core.api import diff_runs

        params = ExecutionParams(
            prob_parallel=0.9,
            max_fork=6,
            prob_fork=0.8,
            max_loop=4,
            prob_loop=0.8,
        )
        one = execute_workflow(fig2_spec, params, seed=1)
        two = execute_workflow(fig2_spec, params, seed=2)
        start = time.perf_counter()
        diff_runs(one, two)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"diff took {elapsed:.2f}s"

    def test_annotation_is_fast(self):
        from repro.sptree.annotate_run import annotate_run_tree
        from repro import ExecutionParams, execute_workflow
        from repro.workflow.real_workflows import pgaq

        spec = pgaq()
        params = ExecutionParams(
            prob_parallel=1.0, max_fork=4, prob_fork=0.9,
            max_loop=4, prob_loop=0.9,
        )
        run = execute_workflow(spec, params, seed=1)
        start = time.perf_counter()
        annotate_run_tree(spec, run.graph)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, (
            f"annotating {run.num_edges} edges took {elapsed:.2f}s"
        )
