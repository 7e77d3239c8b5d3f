"""Mapping foreign entity/activity graphs onto the SP ``Run`` model.

The paper's differ consumes *series-parallel* runs of an SP-workflow
specification; a foreign PROV document yields an arbitrary activity DAG.
:func:`normalize_document` bridges the gap in four explicit steps:

1. **Dependency DAG** — activities become module invocations, the
   document's dependency relation (``wasInformedBy`` plus the
   ``used`` ∘ ``wasGeneratedBy`` dataflow join) becomes the edge set.
   Cycles are rejected: cyclic provenance is not a run of anything.
2. **Flow-network closure** — documents with several initial or final
   activities (or a single isolated one) get synthetic ``__source__`` /
   ``__sink__`` terminals so Definition 3.1 holds.
3. **SP-ization** — if the DAG is already series-parallel it is kept
   verbatim.  Otherwise it is rebuilt as a *level graph*: activities are
   placed on longest-path layers, consecutive layers are bridged
   (through synthetic ``__join_N__`` junctions where both sides branch),
   and every original dependency is preserved because every activity of
   layer ``i`` reaches every activity of layer ``j > i``.  The price is
   over-ordering: previously incomparable activities on different
   layers become ordered.  Those pairs are reported explicitly as
   **forced serialisations** — the importer never silently invents
   ordering.
4. **Specification derivation** — the normalised graph, with activity
   labels made unique (collisions renamed and reported), *is* its own
   specification: every module appears once, no forks or loops, and the
   imported run is the full execution.  Two imports agree on a
   specification exactly when their normalised shapes agree, which is
   what lets the corpus service fingerprint and diff them.

The output bundles the run, the derived specification, and a
:class:`NormalizationReport` so callers (and the CLI) can show exactly
how faithful the embedding is.

:func:`normalize_document` is the one SP-izer: a streamed run is the
document its events accumulate, and each of its snapshots is this
function over that document
(:class:`~repro.stream.incremental.IncrementalNormalizer`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import InterchangeError
from repro.graphs.decomposition import is_series_parallel
from repro.graphs.flow_network import FlowNetwork
from repro.interchange.prov_json import (
    ProvDocument,
    activity_label,
)
from repro.workflow.run import WorkflowRun
from repro.workflow.specification import WorkflowSpecification

SYNTHETIC_SOURCE = "__source__"
SYNTHETIC_SINK = "__sink__"
_JUNCTION_FORMAT = "__join_{index}__"


def _fresh_name(base: str, taken) -> str:
    """``base`` or the first ``base~N`` not colliding with ``taken``.

    Synthetic terminals and junctions share the activity namespace in
    the normalised graph; an adversarial document that declares an
    activity literally named ``__source__`` must not fuse with it.
    """
    name = base
    counter = 1
    while name in taken:
        counter += 1
        name = f"{base}~{counter}"
    return name


@dataclass
class NormalizationReport:
    """What the normaliser did to make a foreign graph series-parallel.

    ``forced_serializations`` lists activity-id pairs ``(a, b)`` that
    were *incomparable* in the source document but are ordered
    ``a before b`` in the normalised run — the information the paper's
    differ would otherwise silently invent.  An empty list together
    with ``was_series_parallel`` means the embedding is exact.
    """

    was_series_parallel: bool = True
    synthetic_source: Optional[str] = None
    synthetic_sink: Optional[str] = None
    junctions: List[str] = field(default_factory=list)
    forced_serializations: List[Tuple[str, str]] = field(
        default_factory=list
    )
    renamed_labels: Dict[str, str] = field(default_factory=dict)
    deduplicated_edges: int = 0

    @property
    def exact(self) -> bool:
        """True when the run's dependency relation equals the source's."""
        return not self.forced_serializations

    def to_dict(self) -> dict:
        return {
            "was_series_parallel": self.was_series_parallel,
            "synthetic_source": self.synthetic_source,
            "synthetic_sink": self.synthetic_sink,
            "junctions": list(self.junctions),
            "forced_serializations": [
                list(pair) for pair in self.forced_serializations
            ],
            "renamed_labels": dict(self.renamed_labels),
            "deduplicated_edges": self.deduplicated_edges,
        }

    def summary_lines(self) -> List[str]:
        lines = [
            "series-parallel: "
            + ("yes" if self.was_series_parallel else "no (SP-ized)")
        ]
        if self.synthetic_source or self.synthetic_sink:
            added = [
                name
                for name in (self.synthetic_source, self.synthetic_sink)
                if name
            ]
            lines.append(f"synthetic terminals: {', '.join(added)}")
        if self.junctions:
            lines.append(f"junction nodes: {len(self.junctions)}")
        if self.forced_serializations:
            lines.append(
                f"forced serialisations: "
                f"{len(self.forced_serializations)}"
            )
            for a, b in self.forced_serializations[:5]:
                lines.append(f"  {a} before {b}")
            if len(self.forced_serializations) > 5:
                lines.append(
                    f"  ... and "
                    f"{len(self.forced_serializations) - 5} more"
                )
        if self.renamed_labels:
            lines.append(
                f"renamed duplicate labels: {len(self.renamed_labels)}"
            )
        return lines


@dataclass
class NormalizedImport:
    """A foreign document embedded into the SP run model."""

    run: WorkflowRun
    spec: WorkflowSpecification
    report: NormalizationReport
    #: original activity id -> node id in ``run.graph``
    activity_nodes: Dict[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------
# Dependency DAG construction
# ---------------------------------------------------------------------
def _unique_labels(
    doc: ProvDocument,
    activities: List[str],
    report: NormalizationReport,
    reserved,
) -> Dict[str, str]:
    """Assign a unique specification label to every activity.

    Labels default to the activity's declared label (or id local name);
    collisions — with each other or with the ``reserved`` synthetic
    names — get a ``~N`` suffix, recorded in the report, so the derived
    specification's unique-label invariant holds.
    """
    labels: Dict[str, str] = {}
    used = set(reserved)
    for activity in activities:
        base = activity_label(doc, activity)
        label = base
        counter = 1
        while label in used:
            counter += 1
            label = f"{base}~{counter}"
        if label != base:
            report.renamed_labels[activity] = label
        used.add(label)
        labels[activity] = label
    return labels


def _dependency_dag(
    doc: ProvDocument, report: NormalizationReport
) -> Tuple[List[str], List[Tuple[str, str]]]:
    """Activities plus deduplicated dependency edges; rejects cycles."""
    activities = doc.activity_ids()
    if not activities:
        raise InterchangeError(
            "provenance document contains no activities to import"
        )
    pairs = doc.dependency_pairs()
    raw_count = 0
    for rel in doc.relations:
        if rel.kind in ("wasInformedBy", "used"):
            raw_count += 1
    report.deduplicated_edges = max(0, raw_count - len(pairs))

    # Cycle check: Kahn's traversal leaves cyclic activities unordered.
    order = _topological(activities, pairs)
    if len(order) != len(activities):
        cyclic = sorted(set(activities) - set(order))
        raise InterchangeError(
            "provenance dependencies are cyclic (activities "
            f"{', '.join(cyclic[:4])}{'...' if len(cyclic) > 4 else ''} "
            "remain); cannot interpret the document as a workflow run"
        )
    return activities, pairs


def _reachability(
    activities: List[str], pairs: List[Tuple[str, str]]
) -> Dict[str, set]:
    """``{activity: set of activities reachable from it}`` (exclusive)."""
    succ: Dict[str, List[str]] = {a: [] for a in activities}
    for a, b in pairs:
        succ[a].append(b)
    reach: Dict[str, set] = {}

    def visit(start: str) -> set:
        if start in reach:
            return reach[start]
        seen: set = set()
        stack = list(succ[start])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(succ[node])
        reach[start] = seen
        return seen

    for activity in activities:
        visit(activity)
    return reach


# ---------------------------------------------------------------------
# SP-ization
# ---------------------------------------------------------------------
def _layered_sp_edges(
    activities: List[str],
    pairs: List[Tuple[str, str]],
    source: str,
    sink: str,
    report: NormalizationReport,
) -> List[Tuple[str, str]]:
    """Rebuild a non-SP DAG as a series of parallel layers.

    Interior activities are grouped by longest-path depth; consecutive
    groups are bridged directly when either side is a single node, and
    through a fresh junction when both sides branch.  The result is a
    series composition of parallel bundles — always SP — whose order
    relation is a superset of the input's (every original dependency
    survives transitively; the additions are reported).
    """
    taken = set(activities)
    interior = [a for a in activities if a not in (source, sink)]
    preds: Dict[str, List[str]] = {a: [] for a in activities}
    for a, b in pairs:
        preds[b].append(a)

    depth: Dict[str, int] = {source: 0}

    def compute_depth(node: str) -> int:
        if node in depth:
            return depth[node]
        value = 1 + max(
            (compute_depth(p) for p in preds[node]), default=0
        )
        depth[node] = value
        return value

    # Iterative guard not needed: the DAG was cycle-checked and
    # import sizes are document-scale, but recursion depth equals
    # the longest path; process deepest-last via a topological pass
    # instead.
    order = _topological(activities, pairs)
    for node in order:
        compute_depth(node)

    layers: Dict[int, List[str]] = {}
    for node in interior:
        layers.setdefault(depth[node], []).append(node)
    groups: List[List[str]] = [[source]]
    for level in sorted(layers):
        groups.append(layers[level])
    groups.append([sink])

    edges: List[Tuple[str, str]] = []
    junction_index = 0
    for left, right in zip(groups, groups[1:]):
        if len(left) == 1:
            edges.extend((left[0], node) for node in right)
        elif len(right) == 1:
            edges.extend((node, right[0]) for node in left)
        else:
            junction_index += 1
            junction = _fresh_name(
                _JUNCTION_FORMAT.format(index=junction_index), taken
            )
            taken.add(junction)
            report.junctions.append(junction)
            edges.extend((node, junction) for node in left)
            edges.extend((junction, node) for node in right)

    # Report the orderings the layering invented: pairs on different
    # layers that were incomparable in the source document.
    reach = _reachability(activities, pairs)
    for i, left in enumerate(groups[1:-1], start=1):
        for right in groups[i + 1 : -1]:
            for a in left:
                for b in right:
                    if b not in reach[a] and a not in reach[b]:
                        report.forced_serializations.append((a, b))
    return edges


def _topological(
    activities: List[str], pairs: List[Tuple[str, str]]
) -> List[str]:
    indegree = {a: 0 for a in activities}
    succ: Dict[str, List[str]] = {a: [] for a in activities}
    for a, b in pairs:
        succ[a].append(b)
        indegree[b] += 1
    queue = [a for a in activities if indegree[a] == 0]
    order: List[str] = []
    head = 0
    while head < len(queue):
        node = queue[head]
        head += 1
        order.append(node)
        for other in succ[node]:
            indegree[other] -= 1
            if indegree[other] == 0:
                queue.append(other)
    return order


def _close_terminals(
    activities: List[str],
    pairs: List[Tuple[str, str]],
    report: NormalizationReport,
) -> Tuple[List[str], List[Tuple[str, str]], str, str]:
    """Ensure a unique source and sink (adding synthetics as needed)."""
    has_in = {b for _, b in pairs}
    has_out = {a for a, _ in pairs}
    sources = [a for a in activities if a not in has_in]
    sinks = [a for a in activities if a not in has_out]
    taken = set(activities)

    nodes = list(activities)
    edges = list(pairs)
    if len(sources) == 1 and len(sinks) == 1 and sources != sinks:
        return nodes, edges, sources[0], sinks[0]

    if len(sources) == 1 and sources == sinks:
        # A single isolated activity: wrap it between both terminals.
        sole = sources[0]
        synth_source = _fresh_name(SYNTHETIC_SOURCE, taken)
        synth_sink = _fresh_name(SYNTHETIC_SINK, taken)
        nodes = [synth_source, sole, synth_sink]
        edges = [(synth_source, sole), (sole, synth_sink)]
        report.synthetic_source = synth_source
        report.synthetic_sink = synth_sink
        return nodes, edges, synth_source, synth_sink

    if len(sources) == 1:
        source = sources[0]
    else:
        source = _fresh_name(SYNTHETIC_SOURCE, taken)
        taken.add(source)
        nodes.insert(0, source)
        edges.extend((source, a) for a in sources)
        report.synthetic_source = source
    if len(sinks) == 1:
        sink = sinks[0]
    else:
        sink = _fresh_name(SYNTHETIC_SINK, taken)
        taken.add(sink)
        nodes.append(sink)
        edges.extend((a, sink) for a in sinks)
        report.synthetic_sink = sink
    return nodes, edges, source, sink


# ---------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------
def normalize_document(
    doc: ProvDocument,
    name: str = "imported",
    run_name: str = "",
) -> NormalizedImport:
    """Embed a foreign PROV document into the SP run model.

    ``name`` names the derived specification (and defaults the run
    name); the returned :class:`NormalizedImport` carries the validated
    run, the derived specification, the normalisation report, and the
    activity-to-node mapping for provenance-preserving round trips.
    """
    report = NormalizationReport()
    activities, pairs = _dependency_dag(doc, report)
    nodes, edges, source, sink = _close_terminals(
        activities, pairs, report
    )

    candidate = FlowNetwork(name=name)
    for node in nodes:
        candidate.add_node(node)
    for a, b in edges:
        candidate.add_edge(a, b)
    candidate.validate_flow_network()

    if not is_series_parallel(candidate):
        report.was_series_parallel = False
        edges = _layered_sp_edges(nodes, edges, source, sink, report)
        ordered = _topological(
            nodes + report.junctions,
            edges,
        )
        nodes = ordered

    synthetics = [
        name
        for name in (report.synthetic_source, report.synthetic_sink)
        if name
    ] + report.junctions
    activity_set = set(activities)
    labels = _unique_labels(
        doc,
        [n for n in nodes if n in activity_set],
        report,
        reserved=synthetics,
    )
    for synthetic in synthetics:
        labels[synthetic] = synthetic

    spec_graph = FlowNetwork(name=name)
    run_graph = FlowNetwork(name=run_name or name)
    for node in nodes:
        label = labels[node]
        spec_graph.add_node(label, label)
        run_graph.add_node(node, label)
    for a, b in edges:
        spec_graph.add_edge(labels[a], labels[b])
        run_graph.add_edge(a, b)

    spec = WorkflowSpecification(spec_graph, name=name)
    run = WorkflowRun(spec, run_graph, name=run_name or name)
    return NormalizedImport(
        run=run,
        spec=spec,
        report=report,
        activity_nodes={a: a for a in activities if a in labels},
    )
