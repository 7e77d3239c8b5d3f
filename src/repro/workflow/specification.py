"""SP-workflow specifications ``(G, F, L)`` (Sections III-D and VI).

A :class:`WorkflowSpecification` bundles

* an acyclic series-parallel flow network ``G`` with unique node labels,
* a family ``F`` of fork elements (series subgraphs), and
* a family ``L`` of loop elements (complete subgraphs),

such that the edge sets of ``F ∪ L`` form a laminar family.  Construction
validates everything and builds the annotated SP-tree via Algorithm 1.

Element syntax
--------------
Fork/loop elements may be given as

* an iterable of **edge ids** ``(u, v, key)``,
* an iterable of **node ids** (the induced subgraph's edges are taken), or
* for loops only, a ``(source, sink)`` **terminal pair** — the complete
  subgraph between two nodes is unique, so this is unambiguous.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SpecificationError
from repro.graphs.flow_network import FlowNetwork, NodeId
from repro.graphs.homomorphism import label_index
from repro.sptree.annotate_spec import (
    Annotation,
    annotate_specification_tree,
)
from repro.sptree.canonical import canonical_sp_tree
from repro.sptree.nodes import NodeType, SPTree
from repro.sptree.validate import validate_spec_tree

EdgeKey = Tuple[NodeId, NodeId, int]
EdgeSet = FrozenSet[EdgeKey]


def induced_edge_set(graph: FlowNetwork, nodes: Iterable[NodeId]) -> EdgeSet:
    """Edge ids of the subgraph induced by ``nodes``."""
    node_set = set(nodes)
    unknown = node_set - set(graph.nodes())
    if unknown:
        raise SpecificationError(f"unknown nodes in element: {sorted(map(repr, unknown))}")
    return frozenset(
        (u, v, key)
        for u, v, key in graph.edges()
        if u in node_set and v in node_set
    )


def complete_subgraph_edges(
    graph: FlowNetwork, source: NodeId, sink: NodeId
) -> EdgeSet:
    """Edges of the complete subgraph between ``source`` and ``sink``.

    The complete subgraph contains *all* paths from ``source`` to ``sink``:
    its edges are exactly those lying on some such path.
    """
    for node in (source, sink):
        if node not in graph:
            raise SpecificationError(f"unknown node {node!r} in loop element")
    reach = graph._reachable_from(source)
    coreach = graph._coreachable_from(sink)
    between = reach & coreach
    edges = frozenset(
        (u, v, key)
        for u, v, key in graph.edges()
        if u in between and v in between
    )
    if not edges:
        raise SpecificationError(
            f"no paths between {source!r} and {sink!r}; cannot form a "
            "complete subgraph"
        )
    return edges


def _normalise_element(
    graph: FlowNetwork, element, kind: NodeType
) -> EdgeSet:
    """Convert one of the accepted element syntaxes to an edge-id set."""
    items = list(element)
    if not items:
        raise SpecificationError("empty fork/loop element")
    if all(isinstance(item, tuple) and len(item) == 3 for item in items):
        known = set(graph.edges())
        missing = [item for item in items if item not in known]
        if missing:
            raise SpecificationError(
                f"element references unknown edges: {missing!r}"
            )
        return frozenset(items)
    if (
        kind is NodeType.L
        and len(items) == 2
        and all(item in graph for item in items)
        and not graph.has_edge(items[0], items[1])
    ):
        # Ambiguity guard: a two-node iterable could mean a terminal pair or
        # a two-node induced subgraph.  When the two nodes are directly
        # connected, the induced reading is taken; otherwise a terminal pair.
        return complete_subgraph_edges(graph, items[0], items[1])
    if all(item in graph for item in items):
        edges = induced_edge_set(graph, items)
        if not edges:
            raise SpecificationError(
                f"element {items!r} induces no edges"
            )
        return edges
    raise SpecificationError(
        f"cannot interpret fork/loop element {items!r}: expected edge ids, "
        "node ids, or a loop terminal pair"
    )


class WorkflowSpecification:
    """A validated SP-workflow specification ``(G, F, L)``.

    Parameters
    ----------
    graph:
        The specification flow network (unique labels, acyclic, SP).
    forks:
        Iterable of fork elements (see module docstring for syntaxes).
    loops:
        Iterable of loop elements.
    name:
        Display name.

    Attributes
    ----------
    tree:
        The annotated SP-tree ``T_G`` built by Algorithm 1.
    fork_elements / loop_elements:
        The normalised :class:`~repro.sptree.annotate_spec.Annotation`
        objects, in input order.

    Instances are shared and must not be mutated: the process-wide
    :data:`~repro.io.registry.SPEC_REGISTRY` hands one object to every
    store, workspace and import that resolves the same XML, and every run
    of a specification references it.
    """

    def __init__(
        self,
        graph: FlowNetwork,
        forks: Sequence = (),
        loops: Sequence = (),
        name: str = "",
    ):
        self.name = name or graph.name or "spec"
        self.graph = graph.copy()
        self.graph.name = self.name
        self.label_to_node = label_index(self.graph)

        canonical = canonical_sp_tree(self.graph)

        self.fork_elements: List[Annotation] = []
        for i, element in enumerate(forks, start=1):
            edges = _normalise_element(self.graph, element, NodeType.F)
            self.fork_elements.append(
                Annotation(NodeType.F, edges, name=f"F{i}")
            )
        self.loop_elements: List[Annotation] = []
        for i, element in enumerate(loops, start=1):
            edges = _normalise_element(self.graph, element, NodeType.L)
            self.loop_elements.append(
                Annotation(NodeType.L, edges, name=f"L{i}")
            )

        self.tree, self.element_nodes = annotate_specification_tree(
            canonical, self.fork_elements + self.loop_elements
        )
        validate_spec_tree(self.tree)

        #: True when the graph has parallel multi-edges between the same
        #: node pair.  Such specifications have *identical* parallel
        #: branches, so a run's derivation is ambiguous; runs must be
        #: normalised through the canonical annotator so that equivalent
        #: runs receive equivalent annotated trees (see
        #: :mod:`repro.sptree.annotate_run`).
        self.has_ambiguous_branches = any(
            count > 1 for count in self.graph.edge_multiset().values()
        )

        #: Loop back-edge label pairs ``(t(H), s(H))`` -> loop annotation.
        self.loop_markers: Dict[Tuple[str, str], Annotation] = {}
        for annotation in self.loop_elements:
            node = self.element_nodes[annotation]
            marker = (node.sink_label, node.source_label)
            if marker in self.loop_markers:
                raise SpecificationError(
                    f"two loops share the back-edge label pair {marker!r}"
                )
            self.loop_markers[marker] = annotation

        #: Spec-side tables of run annotation, built on first use by
        #: :func:`repro.sptree.annotate_run.spec_tables`.
        self._run_tables = None

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Instance state minus the run-annotation tables.

        The tables are derived data keyed by node identity, which does
        not survive a pickle; dropping them also keeps a pickle
        byte-stable whether or not runs were annotated before it.
        """
        state = self.__dict__.copy()
        state.pop("_run_tables", None)
        return state

    def __setstate__(self, state):
        """Restore state; the tables rebuild on first use."""
        self.__dict__.update(state)
        self._run_tables = None

    # ------------------------------------------------------------------
    # Characteristics (Table I)
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """``|V|`` of Table I."""
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        """``|E|`` of Table I."""
        return self.graph.num_edges

    @property
    def num_forks(self) -> int:
        """``|F|`` of Table I."""
        return len(self.fork_elements)

    @property
    def fork_edge_total(self) -> int:
        """``||F||`` of Table I: total edges across fork elements."""
        return sum(len(a.edges) for a in self.fork_elements)

    @property
    def num_loops(self) -> int:
        """``|L|`` of Table I."""
        return len(self.loop_elements)

    @property
    def loop_edge_total(self) -> int:
        """``||L||`` of Table I: total edges across loop elements."""
        return sum(len(a.edges) for a in self.loop_elements)

    def characteristics(self) -> Dict[str, int]:
        """The Table I row for this specification."""
        return {
            "|V|": self.num_nodes,
            "|E|": self.num_edges,
            "|F|": self.num_forks,
            "||F||": self.fork_edge_total,
            "|L|": self.num_loops,
            "||L||": self.loop_edge_total,
        }

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def node_for_label(self, label: str) -> NodeId:
        """Specification node carrying ``label``."""
        try:
            return self.label_to_node[label]
        except KeyError:
            raise SpecificationError(
                f"label {label!r} does not occur in the specification"
            ) from None

    def allowed_back_edges(self) -> set:
        """Label pairs of implicit loop back-edges accepted in runs."""
        return set(self.loop_markers)

    def __repr__(self) -> str:
        stats = self.characteristics()
        return (
            f"WorkflowSpecification({self.name!r}, |V|={stats['|V|']}, "
            f"|E|={stats['|E|']}, |F|={stats['|F|']}, |L|={stats['|L|']})"
        )
