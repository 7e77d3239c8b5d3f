"""Algorithm 3: minimum-cost subtree deletion (Section V-B).

For every node ``v`` of an annotated run tree the tables computed here give

* ``X_T(v)`` — the minimum cost of deleting ``T[v]`` entirely, and
* ``Y_T(v)[l]`` — the minimum cost of a sequence of elementary subtree
  deletions reducing ``T[v]`` to a *branch-free* subtree with exactly
  ``l`` leaves.

The recurrences follow the paper exactly:

* ``Q``: one leaf, zero reduction cost; deleting costs ``γ(1, s, t)``.
* ``P`` / ``F`` / ``L``: keep one child (reduced to ``l`` leaves), delete
  the others — true loops are treated like true forks per Section VI.
* ``S``: a knapsack-style convolution ``Z`` distributing ``l`` leaves over
  the ordered children (this is the O(|E|³) bottleneck the paper measures
  in Fig. 12).
* Finally ``X_T(v) = min_l Y_T(v)[l] + γ(l, s(v), t(v))`` — by the
  quadrangle inequality an optimal deletion never inserts (Lemma 5.7).

Besides the costs, :class:`DeletionTables` exposes *backtraces*:
:meth:`reduction_plan` reconstructs the concrete sequence of elementary
deletions (deepest-first, Lemma 5.5), which the edit-script generator
lowers to path operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.costs.base import CostModel
from repro.errors import EditScriptError
from repro.sptree.nodes import NodeType, SPTree

INF = math.inf


def series_convolve(prefix: List[float], child_y: List[float]) -> List[float]:
    """One S-node convolution step: ``Z' = Z ⊕ Y(child)`` (min-plus).

    ``prefix[b]`` is the cost of distributing ``b`` leaves over the
    children consumed so far; ``child_y[l]`` the child's reduction cost
    to ``l`` leaves (index 0 unused, ``INF``).  Returns the merged
    table of size ``len(prefix) + len(child_y) - 1``.
    """
    new_size = len(prefix) - 1 + len(child_y) - 1 + 1
    merged = [INF] * new_size
    for base in range(len(prefix)):
        if math.isinf(prefix[base]):
            continue
        base_cost = prefix[base]
        for leaves in range(1, len(child_y)):
            if math.isinf(child_y[leaves]):
                continue
            total = base_cost + child_y[leaves]
            if total < merged[base + leaves]:
                merged[base + leaves] = total
    return merged


@dataclass(frozen=True)
class SpineNode:
    """A node of a reduced (branch-free) subtree form.

    ``node`` is the original tree node; ``children`` the kept children's
    spines (one child for P/F/L nodes, all children for S nodes).
    """

    node: SPTree
    children: Tuple["SpineNode", ...]


@dataclass
class ReductionStep:
    """One elementary deletion emitted by a reduction plan.

    ``victim`` is the original tree node whose (already reduced, hence
    branch-free) subtree is deleted; ``leaves`` is the number of leaves it
    has at deletion time, and ``cost`` the operation's price.
    """

    victim: SPTree
    leaves: int
    cost: float


class DeletionTables:
    """X/Y tables for one annotated run tree under a cost model.

    Tables are immutable once built, so one instance is safely shared
    across every DP pairing ``tree`` within a batch
    (:class:`~repro.core.memo.SharedTables`).
    """

    def __init__(self, tree: SPTree, cost: CostModel):
        self.tree = tree
        self.cost = cost
        # Dense Y arrays indexed by leaf count (index 0 unused -> INF).
        self._y: Dict[int, List[float]] = {}
        self._x: Dict[int, float] = {}
        self._max_leaves: Dict[int, int] = {}
        self._compute()

    # ------------------------------------------------------------------
    # Table access
    # ------------------------------------------------------------------
    def x(self, node: SPTree) -> float:
        """``X_T(v)``: minimum cost of deleting ``T[v]``."""
        return self._x[id(node)]

    def y(self, node: SPTree, leaves: int) -> float:
        """``Y_T(v)[l]`` (``inf`` when no branch-free form with l leaves)."""
        array = self._y[id(node)]
        if leaves < 1 or leaves >= len(array):
            return INF
        return array[leaves]

    def max_leaves(self, node: SPTree) -> int:
        """``l(v)``: maximum achievable branch-free leaf count."""
        return self._max_leaves[id(node)]

    # ------------------------------------------------------------------
    # Computation
    # ------------------------------------------------------------------
    def _compute(self) -> None:
        for node in self.tree.iter_nodes("post"):
            if node.kind is NodeType.Q:
                self._compute_q(node)
            elif node.kind in (NodeType.P, NodeType.F, NodeType.L):
                self._compute_branching(node)
            else:
                self._compute_series(node)

    def _finalise_x(self, node: SPTree, y_array: List[float]) -> None:
        best = INF
        for leaves in range(1, len(y_array)):
            if math.isinf(y_array[leaves]):
                continue
            candidate = y_array[leaves] + self.cost.path_cost(
                leaves, node.source_label, node.sink_label
            )
            if candidate < best:
                best = candidate
        self._x[id(node)] = best

    def _compute_q(self, node: SPTree) -> None:
        self._max_leaves[id(node)] = 1
        y_array = [INF, 0.0]
        self._y[id(node)] = y_array
        self._finalise_x(node, y_array)

    def _compute_branching(self, node: SPTree) -> None:
        children = node.children
        sum_x = sum(self._x[id(child)] for child in children)
        limit = max(self._max_leaves[id(child)] for child in children)
        y_array = [INF] * (limit + 1)
        for child in children:
            child_y = self._y[id(child)]
            rest = sum_x - self._x[id(child)]
            for leaves in range(1, len(child_y)):
                if math.isinf(child_y[leaves]):
                    continue
                candidate = child_y[leaves] + rest
                if candidate < y_array[leaves]:
                    y_array[leaves] = candidate
        self._max_leaves[id(node)] = limit
        self._y[id(node)] = y_array
        self._finalise_x(node, y_array)

    def _compute_series(self, node: SPTree) -> None:
        prefix = [0.0]  # Z for zero children: exactly zero leaves, cost 0.
        for child in node.children:
            # The O(|E|³) knapsack convolution (the paper's Fig. 12
            # bottleneck).
            prefix = series_convolve(prefix, self._y[id(child)])
        self._max_leaves[id(node)] = len(prefix) - 1
        self._y[id(node)] = prefix
        self._finalise_x(node, prefix)

    # ------------------------------------------------------------------
    # Backtraces
    # ------------------------------------------------------------------
    def best_leaf_count(self, node: SPTree) -> int:
        """The ``l`` minimising ``Y[l] + γ(l, s, t)`` (deletion target)."""
        y_array = self._y[id(node)]
        best_l = -1
        best = INF
        for leaves in range(1, len(y_array)):
            if math.isinf(y_array[leaves]):
                continue
            candidate = y_array[leaves] + self.cost.path_cost(
                leaves, node.source_label, node.sink_label
            )
            if candidate < best:
                best = candidate
                best_l = leaves
        if best_l < 0:
            raise EditScriptError("subtree has no achievable branch-free form")
        return best_l

    def deletion_plan(self, node: SPTree) -> List[ReductionStep]:
        """Elementary deletions realising ``X_T(v)`` (reduce, then delete).

        The final step deletes ``node`` itself, branch-free at that point.
        """
        target = self.best_leaf_count(node)
        steps = self.reduction_plan(node, target)
        steps.append(
            ReductionStep(
                victim=node,
                leaves=target,
                cost=self.cost.path_cost(
                    target, node.source_label, node.sink_label
                ),
            )
        )
        return steps

    def reduction_plan(self, node: SPTree, leaves: int) -> List[ReductionStep]:
        """Elementary deletions reducing ``T[v]`` to ``l`` leaves (``Y``)."""
        steps: List[ReductionStep] = []
        self._emit_reduction(node, leaves, steps)
        return steps

    def _emit_reduction(
        self, node: SPTree, leaves: int, steps: List[ReductionStep]
    ) -> None:
        if node.kind is NodeType.Q:
            if leaves != 1:
                raise EditScriptError("Q node can only reduce to one leaf")
            return
        y_value = self.y(node, leaves)
        if math.isinf(y_value):
            raise EditScriptError(
                f"no branch-free reduction of a {node.kind} node to "
                f"{leaves} leaves"
            )
        if node.kind in (NodeType.P, NodeType.F, NodeType.L):
            sum_x = sum(self._x[id(child)] for child in node.children)
            keeper = None
            for child in node.children:
                rest = sum_x - self._x[id(child)]
                if (
                    not math.isinf(self.y(child, leaves))
                    and abs(self.y(child, leaves) + rest - y_value) <= 1e-9
                ):
                    keeper = child
                    break
            if keeper is None:
                raise EditScriptError("inconsistent branching backtrace")
            for child in node.children:
                if child is keeper:
                    continue
                # Delete the sibling entirely: reduce it, then remove it.
                target = self.best_leaf_count(child)
                self._emit_reduction(child, target, steps)
                steps.append(
                    ReductionStep(
                        victim=child,
                        leaves=target,
                        cost=self.cost.path_cost(
                            target, child.source_label, child.sink_label
                        ),
                    )
                )
            self._emit_reduction(keeper, leaves, steps)
            return

        # S node: redo the convolution with per-child allocations.
        allocations = self._series_allocation(node, leaves)
        for child, child_leaves in zip(node.children, allocations):
            self._emit_reduction(child, child_leaves, steps)

    def reduced_spine(self, node: SPTree, leaves: int) -> "SpineNode":
        """The branch-free form of ``T[v]`` with ``leaves`` leaves.

        Returns a :class:`SpineNode` tree mirroring the kept structure: the
        keeper chain through P/F/L nodes and the full (reduced) child list
        of S nodes.  Used by the script generator to materialise insertion
        states (insertion is the reverse of deletion).
        """
        if node.kind is NodeType.Q:
            if leaves != 1:
                raise EditScriptError("Q node can only reduce to one leaf")
            return SpineNode(node, ())
        if math.isinf(self.y(node, leaves)):
            raise EditScriptError(
                f"no branch-free reduction of a {node.kind} node to "
                f"{leaves} leaves"
            )
        if node.kind in (NodeType.P, NodeType.F, NodeType.L):
            sum_x = sum(self._x[id(child)] for child in node.children)
            for child in node.children:
                rest = sum_x - self._x[id(child)]
                if (
                    not math.isinf(self.y(child, leaves))
                    and abs(self.y(child, leaves) + rest - self.y(node, leaves))
                    <= 1e-9
                ):
                    return SpineNode(node, (self.reduced_spine(child, leaves),))
            raise EditScriptError("inconsistent branching backtrace")
        allocations = self._series_allocation(node, leaves)
        children = tuple(
            self.reduced_spine(child, child_leaves)
            for child, child_leaves in zip(node.children, allocations)
        )
        return SpineNode(node, children)

    def _series_allocation(self, node: SPTree, leaves: int) -> List[int]:
        children = node.children
        # Forward tables Z_i as in the computation, then backtrack.
        tables: List[List[float]] = [[0.0]]
        for child in children:
            tables.append(series_convolve(tables[-1], self._y[id(child)]))

        allocations = [0] * len(children)
        remaining = leaves
        for index in range(len(children) - 1, -1, -1):
            child_y = self._y[id(children[index])]
            prev = tables[index]
            found = False
            for count in range(1, len(child_y)):
                base = remaining - count
                if base < 0 or base >= len(prev):
                    continue
                if math.isinf(child_y[count]) or math.isinf(prev[base]):
                    continue
                if (
                    abs(prev[base] + child_y[count] - tables[index + 1][remaining])
                    <= 1e-9
                ):
                    allocations[index] = count
                    remaining = base
                    found = True
                    break
            if not found:
                raise EditScriptError("inconsistent series backtrace")
        return allocations
