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

from repro.api_types import (
    DiffOutcome,
    ErrorEnvelope,
    ImportSummary,
    MatrixResult,
    QueryFilter,
    QueryPage,
    StatsSnapshot,
    StreamSummary,
    WorkspaceAPI,
)
from repro.backends.base import (
    ExecutorBackend,
    SerialBackend,
    ThreadBackend,
    make_backend,
)
from repro.client import RemoteWorkspace
from repro.config import ReproConfig
from repro.core.api import (
    DiffResult,
    distance_only,
    edit_distance,
)
from repro.core.verify import VerificationReport, verify_diff
from repro.corpus.fingerprint import run_fingerprint, spec_fingerprint
from repro.costs.base import CostModel
from repro.costs.standard import (
    CallableCost,
    LabelWeightedCost,
    LengthCost,
    PowerCost,
    UnitCost,
)
from repro.errors import (
    ConflictError,
    CostModelError,
    EditScriptError,
    GraphStructureError,
    InterchangeError,
    InvalidRunError,
    MatchingError,
    NotFoundError,
    NotSeriesParallelError,
    ReproError,
    SpecificationError,
)
from repro.graphs.flow_network import FlowNetwork
from repro.interchange import (
    ImportResult,
    NormalizationReport,
    export_run_document,
    export_run_json,
    export_script_document,
    import_document,
)
from repro.obs import (
    MetricsRegistry,
    RunMetadata,
    configure_logging,
    get_logger,
)
from repro.pdiffview.session import DiffView
from repro.service import DiffServer, serve
from repro.stream import (
    IncrementalNormalizer,
    LiveStatus,
    StreamAck,
    StreamHub,
    StreamSession,
)
from repro.query.aggregate import (
    GroupDivergence,
    ModuleChurn,
    module_churn,
    op_kind_histogram,
)
from repro.query.engine import ScriptDoc
from repro.query.predicates import Predicate, Q
from repro.workflow.execution import ExecutionParams, execute_workflow
from repro.workflow.generators import (
    random_prov_document,
    random_run_pair,
    random_sp_graph,
    random_specification,
)
from repro.workflow.real_workflows import (
    all_real_workflows,
    baidd,
    emboss,
    mb,
    pgaq,
    protein_annotation,
    saxpf,
)
from repro.workflow.run import WorkflowRun
from repro.workflow.specification import WorkflowSpecification
from repro.workspace import Workspace

__version__ = "9.0.0"

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
