"""Algorithms 2 and 5: annotated SP-trees for valid runs (``f''``).

Given a specification ``(G, F, L)`` with annotated tree ``T_G`` and a run
graph ``R``, this module computes the annotated SP-tree ``T_R`` with every
node carrying its *origin* — the ``T_G`` node it derives from (the
homologous-node map ``h`` of Section V-A).

The construction is a deterministic simulation of the nondeterministic tree
execution function ``f'``: the canonical SP-tree of ``R`` is matched
against ``T_G`` top-down, grouping run subtrees by the specification
subtree their *leaf images* fall into.

Leaf images
-----------
Every run edge ``(u, v)`` maps to a marker:

* ``("edge", Label(u), Label(v))`` when the label pair is a specification
  edge, or
* ``("loop", Label(u), Label(v))`` when it is the implicit back-edge
  ``(t(H), s(H))`` of a loop ``H ∈ L`` (Section VI).

Specification labels are unique, so an edge's marker is unambiguous, and —
except for direct parallel multi-edges between the same node pair — a
marker occurs in exactly one child of any S or P specification node.  The
multi-edge ambiguity (exercised by the paper's ``r -> 0`` parallel
workload, Fig. 12) is resolved by a deterministic greedy assignment among
the identical branches; since those branches are identical subtrees, any
assignment yields ``≡``-equivalent results.

Any structural mismatch raises :class:`~repro.errors.InvalidRunError`:
``f''`` doubles as the SP-model validity checker.

The specification side of this matching (edge label pairs, loop markers,
the image of every ``T_G`` subtree) is built once per specification
object and memoised on it (:func:`spec_tables`); only the run-side
images are computed per run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import InvalidRunError
from repro.graphs.flow_network import FlowNetwork
from repro.graphs.homomorphism import check_valid_run
from repro.sptree.canonical import canonical_sp_tree
from repro.sptree.nodes import NodeType, SPTree
from repro.sptree.validate import validate_run_tree

Marker = Tuple[str, str, str]


class _SpecTables:
    """The specification side of ``f''``, a pure function of the spec.

    Keyed by ``id()`` of ``T_G`` nodes: the tables live on the
    specification, which keeps its tree — and so every keyed node —
    alive as long as the tables.
    """

    __slots__ = ("edge_pairs", "loop_pairs", "loop_marker_of_node", "images")

    def __init__(self, spec):
        self.edge_pairs = frozenset(
            (spec.graph.label(u), spec.graph.label(v))
            for u, v, _ in spec.graph.edges()
        )
        self.loop_marker_of_node: Dict[int, Marker] = {}
        for annotation in spec.loop_elements:
            node = spec.element_nodes[annotation]
            self.loop_marker_of_node[id(node)] = (
                "loop",
                node.sink_label,
                node.source_label,
            )
        self.loop_pairs = frozenset(
            (marker[1], marker[2])
            for marker in self.loop_marker_of_node.values()
        )
        #: Markers covered by each specification subtree.
        self.images: Dict[int, frozenset] = {}
        for node in spec.tree.iter_nodes("post"):
            if node.kind is NodeType.Q:
                image = frozenset(
                    {("edge", node.source_label, node.sink_label)}
                )
            else:
                image = frozenset().union(
                    *(self.images[id(child)] for child in node.children)
                )
                if node.kind is NodeType.L:
                    image |= {self.loop_marker_of_node[id(node)]}
            self.images[id(node)] = image


def spec_tables(spec) -> _SpecTables:
    """The spec-side tables of ``spec``, built on first use.

    Memoised on the specification (which drops them from its pickled
    state); a race between threads builds equal tables twice, never
    wrong ones.
    """
    tables = spec._run_tables
    if tables is None:
        tables = spec._run_tables = _SpecTables(spec)
    return tables


class _Annotator:
    def __init__(self, tables: _SpecTables):
        self.spec_edge_pairs = tables.edge_pairs
        self.loop_pairs = tables.loop_pairs
        self.loop_marker_of_node = tables.loop_marker_of_node
        self._spec_images = tables.images
        # The memo holds (node, image) pairs: keeping a strong reference
        # to the keyed node prevents id() reuse after garbage collection
        # (it memoises synthetic grouping wrappers, which are temporaries).
        self._run_images: Dict[int, Tuple[SPTree, frozenset]] = {}

    # -- leaf images -----------------------------------------------------
    def leaf_marker(self, leaf: SPTree) -> Marker:
        pair = (leaf.source_label, leaf.sink_label)
        if pair in self.spec_edge_pairs:
            return ("edge", pair[0], pair[1])
        if pair in self.loop_pairs:
            return ("loop", pair[0], pair[1])
        raise InvalidRunError(
            f"run edge {leaf.source!r} -> {leaf.sink!r} maps to label pair "
            f"{pair!r}, which is neither a specification edge nor a loop "
            "back-edge"
        )

    def spec_image(self, node: SPTree) -> frozenset:
        """Markers covered by a specification subtree."""
        return self._spec_images[id(node)]

    def run_image(self, node: SPTree) -> frozenset:
        """Markers covered by a run subtree (memoised)."""
        cached = self._run_images.get(id(node))
        if cached is not None and cached[0] is node:
            return cached[1]
        if node.kind is NodeType.Q:
            image = frozenset({self.leaf_marker(node)})
        else:
            image = frozenset().union(
                *(self.run_image(child) for child in node.children)
            )
        self._run_images[id(node)] = (node, image)
        return image

    # -- grouping helpers --------------------------------------------------
    @staticmethod
    def _wrap_series(group: Sequence[SPTree]) -> SPTree:
        if len(group) == 1:
            return group[0]
        return SPTree(NodeType.S, tuple(group))

    @staticmethod
    def _wrap_parallel(group: Sequence[SPTree]) -> SPTree:
        if len(group) == 1:
            return group[0]
        return SPTree(NodeType.P, tuple(group))

    def _locate_unique_child(
        self, spec_children: Sequence[SPTree], image: frozenset, where: str
    ) -> int:
        """Index of the unique spec child whose image contains ``image``."""
        hits = [
            index
            for index, child in enumerate(spec_children)
            if image <= self.spec_image(child)
        ]
        if len(hits) == 1:
            return hits[0]
        if not hits:
            raise InvalidRunError(
                f"run subtree with image {sorted(image)} does not fit any "
                f"child of the specification {where} node"
            )
        raise InvalidRunError(
            f"run subtree with image {sorted(image)} is ambiguous among "
            f"{len(hits)} children of the specification {where} node"
        )

    # -- the recursive f'' --------------------------------------------------
    def annotate(self, tg: SPTree, tr: SPTree) -> SPTree:
        handler = {
            NodeType.Q: self._annotate_q,
            NodeType.S: self._annotate_s,
            NodeType.P: self._annotate_p,
            NodeType.F: self._annotate_f,
            NodeType.L: self._annotate_l,
        }[tg.kind]
        return handler(tg, tr)

    def _annotate_q(self, tg: SPTree, tr: SPTree) -> SPTree:
        if tr.kind is not NodeType.Q:
            raise InvalidRunError(
                f"expected a single edge for specification edge "
                f"({tg.source_label!r} -> {tg.sink_label!r}), got a "
                f"{tr.kind} subtree"
            )
        if (tr.source_label, tr.sink_label) != (
            tg.source_label,
            tg.sink_label,
        ):
            raise InvalidRunError(
                f"run edge {tr.source!r} -> {tr.sink!r} does not match "
                f"specification edge ({tg.source_label!r} -> "
                f"{tg.sink_label!r})"
            )
        return SPTree(NodeType.Q, (), edge=tr.edge, origin=tg)

    def _annotate_s(self, tg: SPTree, tr: SPTree) -> SPTree:
        if tr.kind is not NodeType.S:
            raise InvalidRunError(
                "expected a series composition for a specification S node, "
                f"got {tr.kind}"
            )
        groups: List[List[SPTree]] = [[] for _ in tg.children]
        current = 0
        for run_child in tr.children:
            image = self.run_image(run_child)
            index = self._locate_unique_child(tg.children, image, "S")
            if index < current:
                raise InvalidRunError(
                    "run series children are out of specification order"
                )
            current = index
            groups[index].append(run_child)
        for index, group in enumerate(groups):
            if not group:
                raise InvalidRunError(
                    f"series child {index} of the specification was not "
                    "executed by the run"
                )
        children = tuple(
            self.annotate(tg.children[i], self._wrap_series(groups[i]))
            for i in range(len(tg.children))
        )
        return SPTree(NodeType.S, children, origin=tg)

    def _assign_parallel(
        self, tg: SPTree, run_children: Sequence[SPTree]
    ) -> List[List[SPTree]]:
        """Assign run children to spec children of a P node (greedy on ties)."""
        groups: List[List[SPTree]] = [[] for _ in tg.children]
        is_fork = [child.kind is NodeType.F for child in tg.children]
        for run_child in run_children:
            image = self.run_image(run_child)
            hits = [
                index
                for index, child in enumerate(tg.children)
                if image <= self.spec_image(child)
            ]
            if not hits:
                raise InvalidRunError(
                    f"run parallel branch with image {sorted(image)} does "
                    "not fit any branch of the specification P node"
                )
            chosen: Optional[int] = None
            if len(hits) == 1:
                chosen = hits[0]
            else:
                # Multi-edge ambiguity: prefer an unused plain branch, then
                # any fork branch (identical branches, so any choice is ≡).
                for index in hits:
                    if not is_fork[index] and not groups[index]:
                        chosen = index
                        break
                if chosen is None:
                    for index in hits:
                        if is_fork[index]:
                            chosen = index
                            break
            if chosen is None:
                raise InvalidRunError(
                    "too many parallel copies of a non-forked branch"
                )
            if groups[chosen] and not is_fork[chosen]:
                raise InvalidRunError(
                    "multiple parallel copies of a branch that is not "
                    "marked as a fork"
                )
            groups[chosen].append(run_child)
        return groups

    def _annotate_p(self, tg: SPTree, tr: SPTree) -> SPTree:
        if tr.kind is NodeType.P:
            groups = self._assign_parallel(tg, tr.children)
            children = []
            for index, group in enumerate(groups):
                if not group:
                    continue
                children.append(
                    self.annotate(
                        tg.children[index], self._wrap_parallel(group)
                    )
                )
            if not children:
                raise InvalidRunError("parallel node executed no branch")
            return SPTree(NodeType.P, tuple(children), origin=tg)
        # A single branch was taken and it is serial or a single edge.
        image = self.run_image(tr)
        hits = [
            index
            for index, child in enumerate(tg.children)
            if image <= self.spec_image(child)
        ]
        if not hits:
            raise InvalidRunError(
                f"run branch with image {sorted(image)} does not fit any "
                "branch of the specification P node"
            )
        # Multi-edge ambiguity: identical branches — prefer a plain one.
        index = next(
            (i for i in hits if tg.children[i].kind is not NodeType.F),
            hits[0],
        )
        child = self.annotate(tg.children[index], tr)
        return SPTree(NodeType.P, (child,), origin=tg)

    def _annotate_f(self, tg: SPTree, tr: SPTree) -> SPTree:
        body = tg.children[0]
        if tr.kind is NodeType.P:
            copies = tuple(
                self.annotate(body, copy) for copy in tr.children
            )
            return SPTree(NodeType.F, copies, origin=tg)
        return SPTree(NodeType.F, (self.annotate(body, tr),), origin=tg)

    def _annotate_l(self, tg: SPTree, tr: SPTree) -> SPTree:
        body = tg.children[0]
        marker = self.loop_marker_of_node[id(tg)]
        if tr.kind is NodeType.S:
            segments: List[List[SPTree]] = [[]]
            for run_child in tr.children:
                if (
                    run_child.kind is NodeType.Q
                    and self.leaf_marker(run_child) == marker
                ):
                    segments.append([])
                else:
                    segments[-1].append(run_child)
            if any(not segment for segment in segments):
                raise InvalidRunError(
                    "loop iteration with an empty body (dangling implicit "
                    "back-edge)"
                )
            iterations = tuple(
                self.annotate(body, self._wrap_series(segment))
                for segment in segments
            )
            return SPTree(NodeType.L, iterations, origin=tg)
        # Single iteration whose body is parallel or a single edge.
        return SPTree(NodeType.L, (self.annotate(body, tr),), origin=tg)


def annotate_run_tree(spec, run: FlowNetwork) -> SPTree:
    """Build the annotated SP-tree of ``run`` with origins into ``spec.tree``.

    Parameters
    ----------
    spec:
        A :class:`~repro.workflow.specification.WorkflowSpecification`.
    run:
        The run graph (a flow network whose labels are specification
        labels).

    Raises
    ------
    InvalidRunError
        If ``run`` is not a valid run of ``spec`` under the SP-model
        semantics (series/parallel/fork/loop executions).
    """
    check_valid_run(run, spec.graph, spec.allowed_back_edges())
    canonical = canonical_sp_tree(run)
    annotator = _Annotator(spec_tables(spec))
    annotated = annotator.annotate(spec.tree, canonical)
    validate_run_tree(annotated, require_origin=True)
    return annotated


def is_valid_sp_run(spec, run: FlowNetwork) -> bool:
    """True iff ``run`` is a valid SP-model run of ``spec``."""
    try:
        annotate_run_tree(spec, run)
    except InvalidRunError:
        return False
    return True
