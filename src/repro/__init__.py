"""Reproduction of *Differencing Provenance in Scientific Workflows*.

Bao, Cohen-Boulakia, Davidson, Eyal, Khanna (ICDE 2009 / UPenn TR
MS-CIS-08-04).  The library implements the SP-workflow model (series-
parallel specifications overlaid with well-nested forks and loops), the
polynomial-time run-differencing algorithms (annotated SP-trees, subtree
deletion DP, Hungarian and non-crossing matchings), minimum-cost edit
scripts with valid intermediates, and the PDiffView prototype.

Quickstart
----------
The client API is the :class:`Workspace`: one façade over storage,
differencing, querying, interchange and viewing, configured by a single
:class:`ReproConfig` (cost model, execution backend, parallelism,
caches):

>>> from repro import ReproConfig, Workspace, protein_annotation
>>> ws = Workspace(path, ReproConfig(backend="thread"))  # doctest: +SKIP
>>> ws.register(protein_annotation())
>>> ws.generate_run("monday", seed=1)
>>> ws.generate_run("tuesday", seed=2)
>>> ws.diff("monday", "tuesday").distance >= 0
True
"""

import importlib

__version__ = "10.0.0"

#: Where each export lives: ``import repro`` loads none of them, and
#: ``repro.X`` imports X's module on first access (PEP 562).
_EXPORTS = {
    "repro.api_types": (
        "DiffOutcome ErrorEnvelope ImportSummary MatrixResult QueryFilter "
        "QueryPage StatsSnapshot StreamSummary WorkspaceAPI"
    ),
    "repro.backends.base": (
        "ExecutorBackend SerialBackend ThreadBackend make_backend"
    ),
    "repro.client": "RemoteWorkspace",
    "repro.config": "ReproConfig",
    "repro.core.api": "DiffResult distance_only edit_distance",
    "repro.core.verify": "VerificationReport verify_diff",
    "repro.corpus.fingerprint": "run_fingerprint spec_fingerprint",
    "repro.costs.base": "CostModel",
    "repro.costs.standard": (
        "CallableCost LabelWeightedCost LengthCost PowerCost UnitCost"
    ),
    "repro.errors": (
        "ConflictError CostModelError EditScriptError GraphStructureError "
        "InterchangeError InvalidRunError MatchingError NotFoundError "
        "NotSeriesParallelError ReproError SpecificationError"
    ),
    "repro.graphs.flow_network": "FlowNetwork",
    "repro.interchange": (
        "ImportResult NormalizationReport export_run_document "
        "export_run_json export_script_document import_document"
    ),
    "repro.obs.logging": "configure_logging get_logger",
    "repro.obs.metrics": "MetricsRegistry",
    "repro.obs.runmeta": "RunMetadata",
    "repro.pdiffview.session": "DiffView",
    "repro.service.server": "DiffServer serve",
    "repro.stream.client": "StreamSession",
    "repro.stream.events": "LiveStatus StreamAck",
    "repro.stream.hub": "StreamHub",
    "repro.stream.incremental": "IncrementalNormalizer",
    "repro.query.aggregate": (
        "GroupDivergence ModuleChurn module_churn op_kind_histogram"
    ),
    "repro.query.engine": "ScriptDoc",
    "repro.query.predicates": "Predicate Q",
    "repro.workflow.execution": "ExecutionParams execute_workflow",
    "repro.workflow.generators": (
        "random_prov_document random_run_pair random_sp_graph "
        "random_specification"
    ),
    "repro.workflow.real_workflows": (
        "all_real_workflows baidd emboss mb pgaq protein_annotation saxpf"
    ),
    "repro.workflow.run": "WorkflowRun",
    "repro.workflow.specification": "WorkflowSpecification",
    "repro.workspace": "Workspace",
}
_MODULE_OF = {
    name: module
    for module, names in _EXPORTS.items()
    for name in names.split()
}


__all__ = [
    "__version__",
    # -- the client API ------------------------------------------------
    "WorkspaceAPI",
    "Workspace",
    "RemoteWorkspace",
    "ReproConfig",
    "DiffOutcome",
    "MatrixResult",
    "QueryFilter",
    "QueryPage",
    "StatsSnapshot",
    "ImportSummary",
    "ErrorEnvelope",
    "DiffView",
    # -- the HTTP diff service -------------------------------------------
    "DiffServer",
    "serve",
    # -- streaming ingestion ---------------------------------------------
    "StreamSession",
    "StreamHub",
    "StreamAck",
    "StreamSummary",
    "LiveStatus",
    "IncrementalNormalizer",
    # -- observability --------------------------------------------------
    "MetricsRegistry",
    "RunMetadata",
    "configure_logging",
    "get_logger",
    # -- execution backends --------------------------------------------
    "ExecutorBackend",
    "SerialBackend",
    "ThreadBackend",
    "make_backend",
    # -- core differencing ----------------------------------------------
    "edit_distance",
    "distance_only",
    "DiffResult",
    "verify_diff",
    "VerificationReport",
    # -- querying --------------------------------------------------------
    "Q",
    "Predicate",
    "ScriptDoc",
    "op_kind_histogram",
    "module_churn",
    "ModuleChurn",
    "GroupDivergence",
    # -- corpus fingerprints ---------------------------------------------
    "run_fingerprint",
    "spec_fingerprint",
    # -- model -----------------------------------------------------------
    "FlowNetwork",
    "WorkflowSpecification",
    "WorkflowRun",
    "ExecutionParams",
    "execute_workflow",
    # -- cost models -----------------------------------------------------
    "CostModel",
    "UnitCost",
    "LengthCost",
    "PowerCost",
    "LabelWeightedCost",
    "CallableCost",
    # -- generators ------------------------------------------------------
    "random_sp_graph",
    "random_specification",
    "random_run_pair",
    "random_prov_document",
    # -- interchange -----------------------------------------------------
    "ImportResult",
    "NormalizationReport",
    "import_document",
    "export_run_document",
    "export_run_json",
    "export_script_document",
    # -- real workflows --------------------------------------------------
    "all_real_workflows",
    "protein_annotation",
    "emboss",
    "saxpf",
    "mb",
    "pgaq",
    "baidd",
    # -- errors ----------------------------------------------------------
    "ReproError",
    "NotFoundError",
    "ConflictError",
    "GraphStructureError",
    "NotSeriesParallelError",
    "SpecificationError",
    "InvalidRunError",
    "CostModelError",
    "EditScriptError",
    "MatchingError",
    "InterchangeError",
]


def __getattr__(name):
    """Resolve an export from its module's current attribute."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
