"""Algorithms 4 and 6: the edit-distance dynamic program (Section V-C).

The edit distance between two annotated run trees equals the minimum cost
of a *well-formed mapping* (Theorem 3).  The DP computes, bottom-up over
pairs of **homologous** nodes (equal origins in the specification tree),
the minimum mapping cost ``γ(M(v1, v2))``:

* **Q pairs** map with zero cost;
* **S pairs** map all corresponding children (Definition 5.1.5);
* **P pairs** either match homologous children when beneficial (case 3b),
  or — when both are single-child with homologous children — weigh the
  child mapping against the *unstable* route costing
  ``X(c1) + X(c2) + 2·W_TG`` (case 3a, Eq. 2 and Fig. 8);
* **F pairs** solve a minimum-cost bipartite matching over the copies
  (Hungarian algorithm, Fig. 9);
* **L pairs** solve a minimum-cost **non-crossing** matching over the
  ordered iterations (Algorithm 6).

The total work is O(|E|³) as analysed in Section V-D.

Cells are computed **lazily**, and every child pair is priced by
:meth:`EditDistanceComputation.pair_cost`, one DP path for distances,
mappings and edit scripts alike, through the cheapest source that
determines the cost without changing a bit of any produced value:

* **The ``≡``-shortcut** — a homologous pair whose subtrees have the
  same *shape* (ordered, origin-annotated structure) maps at cost
  exactly ``0.0``: every branch bottoms out in same-origin Q pairs, and
  every intermediate sum and minimum is taken over exact zeros.  ``≡``
  subtrees whose P or F children arrive in a different order have
  different shapes; they reach the DP, which still returns exactly
  ``0.0``.
* **Shared cells** — any other non-root pair is decided once per batch
  and stored under its two shapes; later pairs of the batch read the
  cost back.  Equal shapes feed every recurrence identical inputs in
  identical order, so a stored cost is bit-identical to a recomputed
  one (see :mod:`repro.core.memo`).
* **Decisions** — any other pair goes to :meth:`decision`, the
  identity-keyed memo that the traceback (``extract_mapping``,
  ``generate_script``) reads.  ``_decide`` reads only its children's
  costs, so it makes the choice a DP without shortcut or cells makes;
  the traceback decides the pairs it visits that pricing skipped.

Cells, tables and shapes live in one batch-wide
:class:`~repro.core.memo.SharedTables`; a computation built without one
gets a private instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.memo import SharedTables
from repro.costs.base import CostModel
from repro.errors import EditScriptError
from repro.matching.hungarian import match_children
from repro.matching.noncrossing import noncrossing_match
from repro.sptree.nodes import NodeType, SPTree

INF = math.inf


@dataclass
class PairDecision:
    """DP cell for a homologous pair ``(v1, v2)``.

    ``cost`` is ``γ(M(v1, v2))`` for the optimal mapping of the two
    subtrees; ``matched`` lists the matched child pairs (empty for Q);
    ``unstable`` marks P pairs taking the Eq. 2 route.
    """

    cost: float
    matched: List[Tuple[SPTree, SPTree]] = field(default_factory=list)
    unstable: bool = False


class EditDistanceComputation:
    """Demand-driven DP over homologous node pairs of two annotated run
    trees.

    Parameters
    ----------
    spec, tree1, tree2, cost:
        The specification, the two annotated run trees, and ``γ``.
    shared:
        The batch's :class:`~repro.core.memo.SharedTables` (tables,
        shapes, cells); must be bound to the same cost model object.
        ``None`` builds a private one.
    """

    def __init__(
        self,
        spec,
        tree1: SPTree,
        tree2: SPTree,
        cost: CostModel,
        shared: Optional[SharedTables] = None,
    ):
        self.spec = spec
        self.tree1 = tree1
        self.tree2 = tree2
        self.cost = cost
        if shared is None:
            shared = SharedTables(cost)
        elif shared.cost is not cost:
            raise EditScriptError(
                "shared tables are bound to a different cost model "
                "object; build one SharedTables per (batch, cost)"
            )
        shared.intern(tree1)
        shared.intern(tree2)
        self._shape_of = shared.shape_of
        self._cells = shared.cells
        self.deletions1 = shared.deletions(tree1)
        self.deletions2 = shared.deletions(tree2)
        self.spec_tables = shared.spec_tables(spec)
        self._pairs: Dict[Tuple[int, int], PairDecision] = {}

    # ------------------------------------------------------------------
    def decision(self, v1: SPTree, v2: SPTree) -> PairDecision:
        """The pair's decision, memoised by node identity on demand."""
        key = (id(v1), id(v2))
        cell = self._pairs.get(key)
        if cell is None:
            cell = self._decide(v1, v2)
            self._pairs[key] = cell
        return cell

    def pair_cost(self, v1: SPTree, v2: SPTree) -> float:
        """``γ(M(v1, v2))`` — minimum mapping cost for the pair.

        The ``≡``-shortcut, then the batch's cell for the two shapes,
        then :meth:`decision`.  The root pair is unique to this
        computation, so its cost is never stored as a cell.
        """
        key = (self._shape_of[id(v1)], self._shape_of[id(v2)])
        if key[0] == key[1]:
            return 0.0
        cost = self._cells.get(key)
        if cost is None:
            cost = self.decision(v1, v2).cost
            if v1 is not self.tree1:
                self._cells[key] = cost
        return cost

    @property
    def distance(self) -> float:
        """``δ(T1, T2) = γ(M(r1, r2))`` (Theorem 3)."""
        return self.pair_cost(self.tree1, self.tree2)

    # ------------------------------------------------------------------
    def _decide(self, v1: SPTree, v2: SPTree) -> PairDecision:
        if v1.kind is not v2.kind:  # pragma: no cover - impossible for valid runs
            raise EditScriptError(
                f"homologous nodes disagree on type: {v1.kind} vs {v2.kind}"
            )
        if v1.kind is NodeType.Q:
            return PairDecision(0.0)
        if v1.kind is NodeType.S:
            return self._decide_series(v1, v2)
        if v1.kind is NodeType.P:
            return self._decide_parallel(v1, v2)
        if v1.kind is NodeType.F:
            return self._decide_fork(v1, v2)
        return self._decide_loop(v1, v2)

    def _decide_series(self, v1: SPTree, v2: SPTree) -> PairDecision:
        if v1.degree != v2.degree:  # pragma: no cover - valid runs agree
            raise EditScriptError("homologous S nodes disagree on arity")
        total = 0.0
        matched = []
        for c1, c2 in zip(v1.children, v2.children):
            total += self.pair_cost(c1, c2)
            matched.append((c1, c2))
        return PairDecision(total, matched)

    def _decide_parallel(self, v1: SPTree, v2: SPTree) -> PairDecision:
        if (
            v1.degree == 1
            and v2.degree == 1
            and v1.children[0].origin is v2.children[0].origin
        ):
            # Case 3a: potentially unstable (Definition 5.2).
            c1 = v1.children[0]
            c2 = v2.children[0]
            mapped = self.pair_cost(c1, c2)
            w_value = self.spec_tables.w(v1.origin, c1.origin)
            unstable = (
                self.deletions1.x(c1) + self.deletions2.x(c2) + 2.0 * w_value
            )
            if mapped <= unstable:
                return PairDecision(mapped, [(c1, c2)])
            return PairDecision(unstable, [], unstable=True)

        # Case 3b: at most one child per origin on each side.
        by_origin1 = {id(c.origin): c for c in v1.children}
        by_origin2 = {id(c.origin): c for c in v2.children}
        total = 0.0
        matched = []
        for key, c1 in by_origin1.items():
            c2 = by_origin2.get(key)
            delete_cost = self.deletions1.x(c1)
            if c2 is None:
                total += delete_cost
                continue
            replace = delete_cost + self.deletions2.x(c2)
            mapped = self.pair_cost(c1, c2)
            if mapped <= replace:
                total += mapped
                matched.append((c1, c2))
            else:
                total += replace
        for key, c2 in by_origin2.items():
            if key not in by_origin1:
                total += self.deletions2.x(c2)
        return PairDecision(total, matched)

    def _decide_fork(self, v1: SPTree, v2: SPTree) -> PairDecision:
        children1 = list(v1.children)
        children2 = list(v2.children)
        total, matches = match_children(
            lambda i, j: self.pair_cost(children1[i], children2[j]),
            [self.deletions1.x(c) for c in children1],
            [self.deletions2.x(c) for c in children2],
        )
        matched = [(children1[i], children2[j]) for i, j in matches]
        return PairDecision(total, matched)

    def _decide_loop(self, v1: SPTree, v2: SPTree) -> PairDecision:
        children1 = list(v1.children)
        children2 = list(v2.children)
        total, matches = noncrossing_match(
            lambda i, j: self.pair_cost(children1[i], children2[j]),
            [self.deletions1.x(c) for c in children1],
            [self.deletions2.x(c) for c in children2],
        )
        matched = [(children1[i], children2[j]) for i, j in matches]
        return PairDecision(total, matched)
