"""Node-labelled directed multigraphs and flow networks (Definition 3.1).

A *flow network* is a directed graph with a single source ``s``, a single
sink ``t``, and the property that every node lies on some ``s``-``t`` path.
Workflow specifications and runs are both flow networks; specifications have
unique node labels while runs repeat labels (one instance per execution of a
module).

The class below is a small, deterministic multigraph tailored to the needs
of the differencing pipeline:

* edges are identified by ``(u, v, key)`` triples so that parallel
  composition may create multi-edges (Definition 3.2 allows multigraphs);
* node and edge iteration order is insertion order, which keeps canonical
  SP-tree construction reproducible.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from repro.errors import GraphStructureError

NodeId = Hashable
EdgeId = Tuple[NodeId, NodeId, int]


class FlowNetwork:
    """A mutable node-labelled directed multigraph with flow-network checks.

    Parameters
    ----------
    name:
        Optional human-readable name (used by the PDiffView prototype and
        XML serialisation).

    Examples
    --------
    >>> g = FlowNetwork(name="toy")
    >>> for node in ("s", "a", "t"):
    ...     _ = g.add_node(node, label=node)
    >>> _ = g.add_edge("s", "a")
    >>> _ = g.add_edge("a", "t")
    >>> g.source(), g.sink()
    ('s', 't')
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._labels: Dict[NodeId, str] = {}
        self._succ: Dict[NodeId, List[EdgeId]] = {}
        self._pred: Dict[NodeId, List[EdgeId]] = {}
        self._edge_key_counter: Dict[Tuple[NodeId, NodeId], int] = {}
        #: Edge ids in insertion order (a dict for O(1) membership).
        self._edges: Dict[EdgeId, None] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId, label: Optional[str] = None) -> NodeId:
        """Add ``node`` with ``label`` (defaults to ``str(node)``).

        Re-adding an existing node with the same label is a no-op; re-adding
        with a different label raises :class:`GraphStructureError`.
        """
        new_label = str(node) if label is None else label
        if node in self._labels:
            if self._labels[node] != new_label:
                raise GraphStructureError(
                    f"node {node!r} already has label {self._labels[node]!r}; "
                    f"cannot relabel to {new_label!r}"
                )
            return node
        self._labels[node] = new_label
        self._succ[node] = []
        self._pred[node] = []
        return node

    def add_edge(self, u: NodeId, v: NodeId, key: Optional[int] = None) -> EdgeId:
        """Add a directed edge ``u -> v`` and return its ``(u, v, key)`` id.

        Both endpoints must already exist.  ``key`` disambiguates parallel
        edges; when omitted, the next unused key for ``(u, v)`` is chosen.
        """
        for endpoint in (u, v):
            if endpoint not in self._labels:
                raise GraphStructureError(
                    f"edge endpoint {endpoint!r} has not been added as a node"
                )
        if key is None:
            key = self._edge_key_counter.get((u, v), 0)
        edge = (u, v, key)
        if edge in self._edges:
            raise GraphStructureError(f"duplicate edge id {edge!r}")
        self._edge_key_counter[(u, v)] = max(
            self._edge_key_counter.get((u, v), 0), key + 1
        )
        self._succ[u].append(edge)
        self._pred[v].append(edge)
        self._edges[edge] = None
        return edge

    def remove_edge(self, edge: EdgeId) -> None:
        """Remove an edge by its ``(u, v, key)`` id."""
        u, v, _ = edge
        try:
            del self._edges[edge]
        except KeyError:
            raise GraphStructureError(f"edge {edge!r} not in graph") from None
        self._succ[u].remove(edge)
        self._pred[v].remove(edge)

    def remove_node(self, node: NodeId) -> None:
        """Remove ``node``; it must be isolated (no incident edges)."""
        if node not in self._labels:
            raise GraphStructureError(f"node {node!r} not in graph")
        if self._succ[node] or self._pred[node]:
            raise GraphStructureError(
                f"node {node!r} still has incident edges; remove them first"
            )
        del self._labels[node]
        del self._succ[node]
        del self._pred[node]

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __contains__(self, node: NodeId) -> bool:
        return node in self._labels

    def __len__(self) -> int:
        return len(self._labels)

    @property
    def num_nodes(self) -> int:
        """Number of nodes, ``|V(G)|``."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of edges, ``|E(G)|`` (counting multi-edges)."""
        return len(self._edges)

    def nodes(self) -> Iterator[NodeId]:
        """Iterate over node ids in insertion order."""
        return iter(list(self._labels))

    def edges(self) -> Iterator[EdgeId]:
        """Iterate over ``(u, v, key)`` edge ids in insertion order."""
        return iter(list(self._edges))

    def label(self, node: NodeId) -> str:
        """Return the label of ``node``."""
        try:
            return self._labels[node]
        except KeyError:
            raise GraphStructureError(f"node {node!r} not in graph") from None

    def labels(self) -> Dict[NodeId, str]:
        """Return a copy of the node -> label mapping."""
        return dict(self._labels)

    def out_edges(self, node: NodeId) -> List[EdgeId]:
        """Outgoing edges of ``node`` in insertion order."""
        return list(self._succ[node])

    def in_edges(self, node: NodeId) -> List[EdgeId]:
        """Incoming edges of ``node`` in insertion order."""
        return list(self._pred[node])

    def out_degree(self, node: NodeId) -> int:
        """Number of outgoing edges of ``node``."""
        return len(self._succ[node])

    def in_degree(self, node: NodeId) -> int:
        """Number of incoming edges of ``node``."""
        return len(self._pred[node])

    def successors(self, node: NodeId) -> List[NodeId]:
        """Distinct successor nodes (order of first appearance)."""
        seen = []
        for _, v, _ in self._succ[node]:
            if v not in seen:
                seen.append(v)
        return seen

    def predecessors(self, node: NodeId) -> List[NodeId]:
        """Distinct predecessor nodes (order of first appearance)."""
        seen = []
        for u, _, _ in self._pred[node]:
            if u not in seen:
                seen.append(u)
        return seen

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """True if at least one ``u -> v`` edge exists."""
        return any(edge[1] == v for edge in self._succ.get(u, []))

    # ------------------------------------------------------------------
    # Flow-network structure
    # ------------------------------------------------------------------
    def source_candidates(self) -> List[NodeId]:
        """Nodes with in-degree zero."""
        return [n for n in self._labels if not self._pred[n]]

    def sink_candidates(self) -> List[NodeId]:
        """Nodes with out-degree zero."""
        return [n for n in self._labels if not self._succ[n]]

    def source(self) -> NodeId:
        """The unique source node ``s(G)``.

        Raises :class:`GraphStructureError` if there is not exactly one node
        with in-degree zero.
        """
        candidates = self.source_candidates()
        if len(candidates) != 1:
            raise GraphStructureError(
                f"expected exactly one source, found {len(candidates)}: "
                f"{candidates!r}"
            )
        return candidates[0]

    def sink(self) -> NodeId:
        """The unique sink node ``t(G)``."""
        candidates = self.sink_candidates()
        if len(candidates) != 1:
            raise GraphStructureError(
                f"expected exactly one sink, found {len(candidates)}: "
                f"{candidates!r}"
            )
        return candidates[0]

    def is_acyclic(self) -> bool:
        """True iff the graph has no directed cycle (Kahn's algorithm)."""
        indegree = {n: len(self._pred[n]) for n in self._labels}
        stack = [n for n, d in indegree.items() if d == 0]
        visited = 0
        while stack:
            node = stack.pop()
            visited += 1
            for _, v, _ in self._succ[node]:
                indegree[v] -= 1
                if indegree[v] == 0:
                    stack.append(v)
        return visited == len(self._labels)

    def topological_order(self) -> List[NodeId]:
        """A topological order of the nodes (deterministic for fixed input).

        Raises :class:`GraphStructureError` when the graph has a cycle.
        """
        indegree = {n: len(self._pred[n]) for n in self._labels}
        queue = [n for n in self._labels if indegree[n] == 0]
        order: List[NodeId] = []
        head = 0
        while head < len(queue):
            node = queue[head]
            head += 1
            order.append(node)
            for _, v, _ in self._succ[node]:
                indegree[v] -= 1
                if indegree[v] == 0:
                    queue.append(v)
        if len(order) != len(self._labels):
            raise GraphStructureError("graph has a directed cycle")
        return order

    def validate_flow_network(self) -> None:
        """Check Definition 3.1: single source/sink, all nodes on s-t paths.

        Raises :class:`GraphStructureError` on the first violation found.
        """
        if not self._labels:
            raise GraphStructureError("empty graph is not a flow network")
        source = self.source()
        sink = self.sink()
        if source == sink and self._edges:
            raise GraphStructureError("source and sink coincide")
        reachable = self._reachable_from(source)
        coreachable = self._coreachable_from(sink)
        for node in self._labels:
            if node not in reachable or node not in coreachable:
                raise GraphStructureError(
                    f"node {node!r} does not lie on any path from "
                    f"{source!r} to {sink!r}"
                )

    def is_flow_network(self) -> bool:
        """Boolean form of :meth:`validate_flow_network`."""
        try:
            self.validate_flow_network()
        except GraphStructureError:
            return False
        return True

    def _reachable_from(self, start: NodeId) -> set:
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for _, v, _ in self._succ[node]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    def _coreachable_from(self, start: NodeId) -> set:
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for u, _, _ in self._pred[node]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return seen

    # ------------------------------------------------------------------
    # Copies and conversions
    # ------------------------------------------------------------------
    def copy(self) -> "FlowNetwork":
        """Deep structural copy (labels and edge keys preserved)."""
        clone = FlowNetwork(name=self.name)
        for node, label in self._labels.items():
            clone.add_node(node, label)
        for u, v, key in self._edges:
            clone.add_edge(u, v, key)
        return clone

    @classmethod
    def from_edge_list(
        cls,
        edges: Iterable[Tuple[NodeId, NodeId]],
        labels: Optional[Dict[NodeId, str]] = None,
        name: str = "",
    ) -> "FlowNetwork":
        """Build from ``(u, v)`` pairs, adding endpoints as needed.

        ``labels`` overrides the default ``str(node)`` labelling.
        """
        labels = labels or {}
        network = cls(name=name)
        for u, v in edges:
            for node in (u, v):
                if node not in network:
                    network.add_node(node, labels.get(node))
            network.add_edge(u, v)
        return network

    # ------------------------------------------------------------------
    # Comparisons and display
    # ------------------------------------------------------------------
    def edge_multiset(self) -> Dict[Tuple[NodeId, NodeId], int]:
        """Multiset of ``(u, v)`` pairs (multiplicity per pair)."""
        counts: Dict[Tuple[NodeId, NodeId], int] = {}
        for u, v, _ in self._edges:
            counts[(u, v)] = counts.get((u, v), 0) + 1
        return counts

    def structurally_equal(self, other: "FlowNetwork") -> bool:
        """Same labelled nodes and the same ``(u, v)`` edge multiset.

        Edge keys are ignored: two graphs that differ only in the keys
        assigned to parallel edges are considered equal.
        """
        if self._labels != other._labels:
            return False
        return self.edge_multiset() == other.edge_multiset()

    def __repr__(self) -> str:
        return (
            f"FlowNetwork(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )
