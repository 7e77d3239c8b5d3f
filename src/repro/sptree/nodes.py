"""SP-tree node model: Q / S / P / F / L nodes (Sections IV and VI).

An SP-tree represents the construction of an SP-graph:

* ``Q`` leaves represent single edges (basic SP-graphs);
* ``S`` nodes represent series compositions (children **ordered**);
* ``P`` nodes represent parallel compositions (children **unordered**);
* ``F`` nodes mark fork executions (children unordered copies);
* ``L`` nodes mark loop executions (children **ordered** iterations,
  joined by implicit ``(t(H), s(H))`` edges in the underlying graph).

Trees are immutable: every editing step in the library builds new nodes.
Identity (``id(node)``) is therefore a safe dictionary key for the dynamic
programs, while :meth:`SPTree.structure_key` provides value-level
equivalence ``≡`` — equality up to reordering children of P and F nodes and
up to renaming node instances with equal labels.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

from repro.errors import GraphStructureError
from repro.graphs.flow_network import FlowNetwork


class NodeType(enum.Enum):
    """The five SP-tree node types."""

    Q = "Q"
    S = "S"
    P = "P"
    F = "F"
    L = "L"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class EdgeRef:
    """A reference to a concrete graph edge carried by a ``Q`` leaf.

    ``source``/``sink`` are node ids in the underlying graph (unique per
    run instance, e.g. ``"3a"``); ``source_label``/``sink_label`` are the
    specification labels (e.g. ``"3"``).  ``key`` disambiguates parallel
    multi-edges.
    """

    source: object
    sink: object
    source_label: str
    sink_label: str
    key: int = 0


class SPTree:
    """An immutable SP-tree node.

    Use the module-level constructors :func:`q_node`, :func:`s_node`,
    :func:`p_node`, :func:`f_node` and :func:`l_node` rather than calling
    this class directly.

    Attributes
    ----------
    kind:
        The :class:`NodeType`.
    children:
        Tuple of child nodes (empty for ``Q`` leaves).
    edge:
        The :class:`EdgeRef` for ``Q`` leaves, else ``None``.
    origin:
        For nodes of a *run* tree: the specification-tree node this node was
        derived from (the homologous-node map ``h`` of Section V-A).
        ``None`` for specification trees.
    """

    __slots__ = (
        "kind",
        "children",
        "edge",
        "origin",
        "_leaf_count",
        "_source",
        "_sink",
        "_source_label",
        "_sink_label",
        "_branch_free",
        "_num_nodes",
        "_structure_key",
    )

    def __init__(
        self,
        kind: NodeType,
        children: Tuple["SPTree", ...] = (),
        edge: Optional[EdgeRef] = None,
        origin: Optional["SPTree"] = None,
    ):
        self.kind = kind
        self.children = tuple(children)
        self.edge = edge
        self.origin = origin
        self._structure_key = None

        if kind is NodeType.Q:
            if edge is None:
                raise GraphStructureError("Q node requires an EdgeRef")
            if self.children:
                raise GraphStructureError("Q node cannot have children")
            self._leaf_count = 1
            self._source = edge.source
            self._sink = edge.sink
            self._source_label = edge.source_label
            self._sink_label = edge.sink_label
            self._branch_free = True
            self._num_nodes = 1
            return

        if edge is not None:
            raise GraphStructureError(f"{kind} node cannot carry an EdgeRef")
        if not self.children:
            raise GraphStructureError(f"{kind} node requires children")

        first = self.children[0]
        last = self.children[-1]
        self._leaf_count = sum(c._leaf_count for c in self.children)
        self._num_nodes = 1 + sum(c._num_nodes for c in self.children)
        self._source = first._source
        self._source_label = first._source_label
        self._sink = last._sink
        self._sink_label = last._sink_label

        true_branch = len(self.children) > 1 and kind in (
            NodeType.P,
            NodeType.F,
            NodeType.L,
        )
        self._branch_free = not true_branch and all(
            c._branch_free for c in self.children
        )

        if kind in (NodeType.P, NodeType.F):
            for child in self.children[1:]:
                if (
                    child._source != first._source
                    or child._sink != first._sink
                ):
                    raise GraphStructureError(
                        f"{kind} children must share terminals; got "
                        f"({first._source!r}, {first._sink!r}) vs "
                        f"({child._source!r}, {child._sink!r})"
                    )
        elif kind is NodeType.S:
            for left, right in zip(self.children, self.children[1:]):
                if left._sink != right._source:
                    raise GraphStructureError(
                        "S children must chain: sink "
                        f"{left._sink!r} != source {right._source!r}"
                    )
        elif kind is NodeType.L:
            for left, right in zip(self.children, self.children[1:]):
                if (
                    left._sink_label != right._sink_label
                    or left._source_label != right._source_label
                ):
                    raise GraphStructureError(
                        "L iterations must share terminal labels"
                    )

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------
    @property
    def is_leaf(self) -> bool:
        """True for ``Q`` nodes."""
        return self.kind is NodeType.Q

    @property
    def degree(self) -> int:
        """Number of children, ``d(v)``."""
        return len(self.children)

    @property
    def is_true(self) -> bool:
        """A *true* node has more than one child (Section IV-D)."""
        return len(self.children) > 1

    @property
    def is_pseudo(self) -> bool:
        """A *pseudo* node is an internal node with exactly one child."""
        return self.kind is not NodeType.Q and len(self.children) == 1

    @property
    def leaf_count(self) -> int:
        """Number of ``Q`` leaves in this subtree, ``|Leaf(T[v])|``."""
        return self._leaf_count

    @property
    def num_nodes(self) -> int:
        """Total number of tree nodes in this subtree."""
        return self._num_nodes

    @property
    def source(self):
        """Graph node id of the subgraph source ``s(v)``."""
        return self._source

    @property
    def sink(self):
        """Graph node id of the subgraph sink ``t(v)``."""
        return self._sink

    @property
    def source_label(self) -> str:
        """Specification label of ``s(v)`` (used by the cost model)."""
        return self._source_label

    @property
    def sink_label(self) -> str:
        """Specification label of ``t(v)`` (used by the cost model)."""
        return self._sink_label

    @property
    def is_branch_free(self) -> bool:
        """True iff the subtree contains no true P, F or L node (Def. 4.1).

        The extended model treats true ``L`` nodes like true ``F`` nodes:
        an elementary edit operation touches at most one loop iteration.
        """
        return self._branch_free

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Slot state minus the ``structure_key`` memo.

        :func:`copy.deepcopy` and :mod:`pickle` both go through this
        hook.  The memo is derived data that can hold a large nested
        tuple, so dropping it keeps copies and pickles lean and makes a
        pickle byte-stable regardless of which queries ran before it.
        """
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot != "_structure_key"
        }

    def __setstate__(self, state):
        """Restore slots; the memo starts empty and recomputes on demand."""
        for slot, value in state.items():
            setattr(self, slot, value)
        self._structure_key = None

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def iter_nodes(self, order: str = "pre") -> Iterator["SPTree"]:
        """Iterate over the subtree in ``"pre"`` or ``"post"`` order."""
        if order == "pre":
            yield self
        for child in self.children:
            yield from child.iter_nodes(order)
        if order == "post":
            yield self

    def leaves(self) -> Iterator["SPTree"]:
        """Iterate over the ``Q`` leaves left to right."""
        if self.kind is NodeType.Q:
            yield self
        else:
            for child in self.children:
                yield from child.leaves()

    def leaf_edges(self) -> Iterator[EdgeRef]:
        """Iterate over the :class:`EdgeRef` payloads of the leaves."""
        for leaf in self.leaves():
            yield leaf.edge

    def find(self, predicate: Callable[["SPTree"], bool]) -> Optional["SPTree"]:
        """First node in pre-order satisfying ``predicate`` (or ``None``)."""
        for node in self.iter_nodes("pre"):
            if predicate(node):
                return node
        return None

    # ------------------------------------------------------------------
    # Equivalence
    # ------------------------------------------------------------------
    def structure_key(self):
        """A hashable canonical key realising the ``≡`` relation.

        Two trees have equal structure keys iff they differ only in

        * the order of children of ``P`` and ``F`` nodes, and
        * the concrete node-instance ids (labels must agree).

        ``S`` and ``L`` children keep their order in the key.
        """
        if self._structure_key is None:
            if self.kind is NodeType.Q:
                key = ("Q", self._source_label, self._sink_label)
            else:
                child_keys = [c.structure_key() for c in self.children]
                if self.kind in (NodeType.P, NodeType.F):
                    child_keys.sort()
                key = (self.kind.value, tuple(child_keys))
            self._structure_key = key
        return self._structure_key

    def equivalent(self, other: "SPTree") -> bool:
        """``T ≡ T'``: equality up to P/F child order and instance renaming."""
        return self.structure_key() == other.structure_key()

    # ------------------------------------------------------------------
    # Graph materialisation
    # ------------------------------------------------------------------
    def to_graph(self, name: str = "") -> FlowNetwork:
        """Materialise ``Graph(T)``: the flow network this tree represents.

        ``Q`` leaves contribute their referenced edges; ``L`` nodes with
        multiple iterations additionally contribute the implicit
        ``(t(iteration_i), s(iteration_{i+1}))`` edges (Section VI).
        """
        graph = FlowNetwork(name=name)

        def ensure_node(node_id, label):
            if node_id not in graph:
                graph.add_node(node_id, label)

        def visit(node: "SPTree") -> None:
            if node.kind is NodeType.Q:
                ref = node.edge
                ensure_node(ref.source, ref.source_label)
                ensure_node(ref.sink, ref.sink_label)
                graph.add_edge(ref.source, ref.sink)
                return
            for child in node.children:
                visit(child)
            if node.kind is NodeType.L:
                for left, right in zip(node.children, node.children[1:]):
                    ensure_node(left.sink, left.sink_label)
                    ensure_node(right.source, right.source_label)
                    graph.add_edge(left.sink, right.source)

        visit(self)
        return graph

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def pretty(self, indent: str = "  ") -> str:
        """Multi-line indented rendering (used by PDiffView and tests)."""
        lines = []

        def walk(node: "SPTree", depth: int) -> None:
            if node.kind is NodeType.Q:
                lines.append(
                    f"{indent * depth}Q({node.source!r} -> {node.sink!r})"
                )
            else:
                lines.append(f"{indent * depth}{node.kind.value}")
                for child in node.children:
                    walk(child, depth + 1)

        walk(self, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        if self.kind is NodeType.Q:
            return f"SPTree(Q, {self._source!r}->{self._sink!r})"
        return (
            f"SPTree({self.kind.value}, degree={self.degree}, "
            f"leaves={self._leaf_count})"
        )


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------
def q_node(edge: EdgeRef, origin: Optional[SPTree] = None) -> SPTree:
    """Create a ``Q`` leaf for ``edge``."""
    return SPTree(NodeType.Q, (), edge=edge, origin=origin)


def s_node(children, origin: Optional[SPTree] = None) -> SPTree:
    """Create an ``S`` node over ordered ``children`` (at least two)."""
    children = tuple(children)
    if len(children) < 2:
        raise GraphStructureError("S node requires at least two children")
    return SPTree(NodeType.S, children, origin=origin)


def p_node(children, origin: Optional[SPTree] = None) -> SPTree:
    """Create a ``P`` node.

    Specification trees require at least two children; run trees allow a
    single (pseudo) child — validation is performed separately by
    :mod:`repro.sptree.validate`.
    """
    return SPTree(NodeType.P, tuple(children), origin=origin)


def f_node(children, origin: Optional[SPTree] = None) -> SPTree:
    """Create an ``F`` node (one child in specs, one or more in runs)."""
    return SPTree(NodeType.F, tuple(children), origin=origin)


def l_node(children, origin: Optional[SPTree] = None) -> SPTree:
    """Create an ``L`` node (one child in specs, ordered iterations in runs)."""
    return SPTree(NodeType.L, tuple(children), origin=origin)


def with_origin(node: SPTree, origin: SPTree) -> SPTree:
    """Return a copy of ``node`` (sharing children) with ``origin`` set."""
    return SPTree(node.kind, node.children, edge=node.edge, origin=origin)
