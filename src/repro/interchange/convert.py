"""Import/export between :class:`WorkflowRun` and PROV-JSON documents.

Export (:func:`export_run_document`) renders a run as an idiomatic
PROV-JSON graph — one ``activity`` per module invocation, one ``entity``
per dataflow edge, linked through ``wasGeneratedBy`` / ``used`` — with
**stable ids**: the same run always serialises to byte-identical JSON,
and node instance ids survive the trip (``run:getGOAnnot-a``).  The
workflow specification rides along as a ``prov:Plan`` entity carrying
its XML serialisation, which is what makes the round trip *exact*: a
re-import rebuilds the very same specification and validates the run
graph against it, instead of re-deriving an approximate one.

Import (:func:`import_document`) handles both worlds:

* documents carrying our plan entity take the **exact** path —
  spec from the embedded XML, run graph from the entity/edge encoding,
  full run validation, empty normalisation report;
* foreign documents take the **normalisation** path of
  :mod:`repro.interchange.normalize` — dependency DAG, synthetic
  terminals, SP-ization with a forced-serialisation report, derived
  specification.

Edit scripts export too (:func:`export_script_document`): operations
become a ``wasInformedBy``-chained activity sequence deriving the
target run entity from the source one — the provenance *of the diff
itself*.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import InterchangeError, ReproError
from repro.graphs.flow_network import FlowNetwork
from repro.interchange.normalize import (
    NormalizationReport,
    NormalizedImport,
    normalize_document,
)
from repro.interchange.prov_json import (
    ProvDocument,
    ProvRelation,
    document_to_mapping,
    load_prov_source,
)
from repro.io.registry import SPEC_REGISTRY
from repro.io.xml_io import specification_to_xml
from repro.workflow.run import WorkflowRun
from repro.workflow.specification import WorkflowSpecification

#: Document prefixes used by the writer (reader treats them as opaque).
PREFIXES = {
    "repro": "urn:repro:vocab:",
    "run": "urn:repro:instance:",
    "data": "urn:repro:dataflow:",
    "plan": "urn:repro:plan:",
    "op": "urn:repro:edit-op:",
}

PLAN_TYPE = "prov:Plan"
MODULE_TYPE = "repro:ModuleExecution"
RUN_TYPE = "repro:Run"
OPERATION_TYPE = "repro:PathOperation"
SPEC_ATTRIBUTE = "repro:specification"


@dataclass
class ImportResult:
    """Outcome of importing one PROV document.

    ``origin`` is ``"embedded-plan"`` for exact reconstructions of our
    own exports and ``"normalized"`` for foreign documents that went
    through SP-ization.
    """

    run: WorkflowRun
    spec: WorkflowSpecification
    report: NormalizationReport
    origin: str
    activity_nodes: Dict[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------
def _edge_entity_id(index: int, u, v) -> str:
    return f"data:e{index:04d}_{u}__{v}"


def export_run_document(
    run: WorkflowRun, include_spec: bool = True
) -> dict:
    """Render a run as a PROV-JSON mapping (deterministic, stable ids).

    ``include_spec=False`` omits the ``prov:Plan`` entity, producing a
    document indistinguishable from foreign provenance — useful for
    exercising the normalisation path with known inputs.
    """
    doc = ProvDocument(prefixes=dict(PREFIXES))
    graph = run.graph
    for node in graph.nodes():
        doc.activities[f"run:{node}"] = {
            "prov:type": MODULE_TYPE,
            "repro:label": graph.label(node),
        }
    for index, (u, v, key) in enumerate(graph.edges()):
        entity_id = _edge_entity_id(index, u, v)
        doc.entities[entity_id] = {
            "prov:type": "repro:Dataflow",
            "repro:key": key,
        }
        doc.relations.append(
            ProvRelation(
                "wasGeneratedBy", entity_id, f"run:{u}"
            )
        )
        doc.relations.append(
            ProvRelation("used", f"run:{v}", entity_id)
        )
    if include_spec:
        doc.entities["plan:specification"] = {
            "prov:type": PLAN_TYPE,
            "repro:spec_name": run.spec.name,
            "repro:run_name": run.name,
            SPEC_ATTRIBUTE: specification_to_xml(run.spec),
        }
    return document_to_mapping(doc)


def export_run_json(run: WorkflowRun, include_spec: bool = True) -> str:
    """Deterministic PROV-JSON text for a run."""
    return json.dumps(
        export_run_document(run, include_spec=include_spec),
        indent=2,
        sort_keys=True,
    )


def export_script_document(
    operations,
    distance: float,
    run_a: str,
    run_b: str,
    spec_name: str = "",
) -> dict:
    """Render an edit script as PROV: the provenance of a diff.

    The target run entity ``wasDerivedFrom`` the source run entity;
    each path operation is an activity carrying its kind/cost/length
    and label path, chained by ``wasInformedBy`` in application order.
    """
    doc = ProvDocument(prefixes=dict(PREFIXES))
    source_id = f"run:{run_a}"
    target_id = f"run:{run_b}"
    doc.entities[source_id] = {"prov:type": RUN_TYPE}
    doc.entities[target_id] = {"prov:type": RUN_TYPE}
    previous: Optional[str] = None
    for position, op in enumerate(operations, start=1):
        op_id = f"op:{position:04d}"
        doc.activities[op_id] = {
            "prov:type": OPERATION_TYPE,
            "repro:kind": op.kind,
            "repro:cost": op.cost,
            "repro:length": op.length,
            "repro:path": " -> ".join(op.path_labels),
        }
        doc.relations.append(ProvRelation("used", op_id, source_id))
        if previous is not None:
            doc.relations.append(
                ProvRelation("wasInformedBy", op_id, previous)
            )
        previous = op_id
    if previous is not None:
        doc.relations.append(
            ProvRelation("wasGeneratedBy", target_id, previous)
        )
    doc.relations.append(
        ProvRelation(
            "wasDerivedFrom",
            target_id,
            source_id,
            attributes={
                "repro:distance": distance,
                "repro:spec": spec_name,
                "repro:operations": len(doc.activities),
            },
        )
    )
    return document_to_mapping(doc)


# ---------------------------------------------------------------------
# Import
# ---------------------------------------------------------------------
def _find_plan(doc: ProvDocument) -> Optional[Tuple[str, dict]]:
    for entity_id, attrs in doc.entities.items():
        if isinstance(attrs.get(SPEC_ATTRIBUTE), str):
            return entity_id, attrs
    return None


def _exact_import(
    doc: ProvDocument, plan_attrs: dict, run_name: str
) -> ImportResult:
    """Rebuild a run exported by :func:`export_run_document`.

    The plan resolves through the process-wide spec registry: runs of
    one plan share one parsed specification.
    """
    try:
        spec = SPEC_REGISTRY.specification(plan_attrs[SPEC_ATTRIBUTE])
    except ReproError as exc:
        raise InterchangeError(
            f"embedded specification is invalid: {exc}"
        ) from exc

    graph = FlowNetwork(
        name=run_name
        or str(plan_attrs.get("repro:run_name", "") or "imported")
    )
    node_ids: Dict[str, str] = {}
    for activity_id, attrs in doc.activities.items():
        label = attrs.get("repro:label")
        if not isinstance(label, str) or not label:
            raise InterchangeError(
                f"activity {activity_id!r} lacks the repro:label "
                "attribute required by the embedded-plan encoding"
            )
        # Strip exactly the writer's ``run:`` prefix — nothing more.
        # Node ids may themselves contain ``:`` (a normalised import
        # keeps qualified activity ids like ``ex:step`` as node ids),
        # so a general local-name split would corrupt or collide them.
        node = (
            activity_id[len("run:"):]
            if activity_id.startswith("run:")
            else activity_id
        )
        node_ids[activity_id] = node
        graph.add_node(node, label)

    generators = doc.generators()
    users: Dict[str, List[str]] = {}
    for rel in doc.relations_of("used"):
        users.setdefault(rel.object, []).append(rel.subject)
    for entity_id in sorted(doc.entities):
        attrs = doc.entities[entity_id]
        if isinstance(attrs.get(SPEC_ATTRIBUTE), str):
            continue  # the plan entity is not a dataflow edge
        producer = generators.get(entity_id)
        consumers = users.get(entity_id, [])
        if producer is None or not consumers:
            raise InterchangeError(
                f"dataflow entity {entity_id!r} is missing its "
                "wasGeneratedBy/used statements"
            )
        key = attrs.get("repro:key")
        for consumer in consumers:
            if producer not in node_ids or consumer not in node_ids:
                raise InterchangeError(
                    f"dataflow entity {entity_id!r} references an "
                    "undeclared activity"
                )
            graph.add_edge(
                node_ids[producer],
                node_ids[consumer],
                key if isinstance(key, int) else None,
            )

    try:
        run = WorkflowRun(spec, graph, name=graph.name)
    except ReproError as exc:
        raise InterchangeError(
            f"embedded-plan document is not a valid run of its own "
            f"specification: {exc}"
        ) from exc
    return ImportResult(
        run=run,
        spec=spec,
        report=NormalizationReport(),
        origin="embedded-plan",
        activity_nodes={
            activity: node for activity, node in node_ids.items()
        },
    )


def import_document(
    source,
    run_name: str = "",
    spec_name: Optional[str] = None,
) -> ImportResult:
    """Import a PROV-JSON/OPM document as a workflow run.

    ``source`` may be a decoded mapping, JSON text, or a file path.
    ``run_name`` overrides the stored run name; ``spec_name`` overrides
    the derived specification name on the normalisation path (it never
    renames an embedded plan — the plan's identity is part of the
    round-trip contract).
    """
    doc = load_prov_source(source)
    plan = _find_plan(doc)
    if plan is not None:
        return _exact_import(doc, plan[1], run_name)
    normalized: NormalizedImport = normalize_document(
        doc,
        name=spec_name or "imported",
        run_name=run_name,
    )
    return ImportResult(
        run=normalized.run,
        spec=normalized.spec,
        report=normalized.report,
        origin="normalized",
        activity_nodes=normalized.activity_nodes,
    )
