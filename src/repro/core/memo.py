"""Per-batch sharing of DP work across pair computations.

A cold ``distance_matrix`` over ``N`` runs performs ``N·(N−1)/2`` DPs,
a ``diff_many`` sweep one per pair, and the runs of one specification
repeat most of their subtrees.  A :class:`SharedTables` instance
memoises, for the lifetime of one batch, what those DPs have in
common:

* each run's :class:`DeletionTables` and the per-spec
  :class:`SpecCostTables`, built once per batch instead of once per
  pair — the tables are pure functions of ``(tree, cost)``
  (respectively ``(spec, cost)``), and the S-node convolution inside
  them is the DP's stated O(|E|³) bottleneck;
* each node's **shape**: an interned id of its ordered,
  origin-annotated subtree, ``(kind, id(origin), source_label,
  sink_label, child shapes in child order)``.  Each tree is walked once
  per batch, and the walk doubles as origin validation;
* the DP **cells**, ``(shape1, shape2) → cost``, which every
  computation prices its child pairs through, whether it then stops at
  the distance or goes on to a mapping and an edit script.  A cell
  holds a cost only: the traceback reads each visited pair's decision
  from its own computation's identity-keyed memo.

An order-preserving shape key is exactly strong enough for sharing a
cell.  Everything a cell reads is a function of the two ordered
subtrees: the X/Y deletion tables (labels, leaf counts, sums in child
order), ``W_TG`` (origins), and the Hungarian and non-crossing
matchings (cost matrices in child order).  Equal shapes feed identical
inputs through identical float operations, so a stored cost is
bit-identical to a recomputed one.  Children are never sorted: two
``≡`` subtrees whose P or F children arrive in different orders sum
and match in different orders, which is exact in real arithmetic but
not in floats, so they get distinct shapes.

The corpus service constructs one instance per cold dispatch and
threads it through the in-process backends (serial/thread).  Trees are
memoised by ``id()`` behind strong references, which makes id reuse
impossible while an entry lives — lookups verify identity anyway, out
of caution.  A lock serialises table builds and shape walks (O(runs)
per batch, negligible against the O(pairs) DP work they amortise).
``cells`` and ``shape_of`` are read without it: their keys are ints
and tuples of ints, so each dict operation is atomic under the GIL,
and a race on a cell merely computes the same value twice.
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

from repro.core.deletion import DeletionTables
from repro.core.spec_costs import SpecCostTables
from repro.costs.base import CostModel
from repro.errors import EditScriptError
from repro.sptree.nodes import SPTree


class SharedTables:
    """One batch's memo of tables, node shapes and DP cells.

    Bound to a single cost model; the edit-distance DP refuses a
    mismatched cost at construction time rather than serving tables
    priced under a different ``γ``.
    """

    def __init__(self, cost: CostModel):
        self.cost = cost
        #: ``id(node) → shape`` for every node of every interned tree.
        self.shape_of: Dict[int, int] = {}
        #: DP cells: ``(shape1, shape2) → γ(M(v1, v2))``.
        self.cells: Dict[Tuple[int, int], float] = {}
        self._lock = threading.Lock()
        self._deletions: Dict[int, Tuple[SPTree, DeletionTables]] = {}
        self._spec_tables: Dict[int, Tuple[object, SpecCostTables]] = {}
        self._interned: Dict[int, SPTree] = {}
        self._shapes: Dict[tuple, int] = {}

    def deletions(self, tree: SPTree) -> DeletionTables:
        """The (memoised) deletion tables for one run tree."""
        key = id(tree)
        with self._lock:
            entry = self._deletions.get(key)
            if entry is not None and entry[0] is tree:
                return entry[1]
            tables = DeletionTables(tree, self.cost)
            self._deletions[key] = (tree, tables)
            return tables

    def spec_tables(self, spec) -> SpecCostTables:
        """The (memoised) insertion-cost tables for one specification."""
        key = id(spec)
        with self._lock:
            entry = self._spec_tables.get(key)
            if entry is not None and entry[0] is spec:
                return entry[1]
            tables = SpecCostTables(spec, self.cost)
            self._spec_tables[key] = (spec, tables)
            return tables

    def intern(self, tree: SPTree) -> None:
        """Record the shape of every node of ``tree`` in :attr:`shape_of`.

        Equal shapes certify ordered, origin-for-origin equal subtrees
        across *any* two trees this instance interned.  Raises
        :class:`~repro.errors.EditScriptError` for a node without an
        origin.
        """
        with self._lock:
            if self._interned.get(id(tree)) is not tree:
                self._shape(tree)
                self._interned[id(tree)] = tree

    def _shape(self, node: SPTree) -> int:
        if node.origin is None:
            raise EditScriptError(
                "run tree node lacks an origin; build trees via "
                "annotate_run_tree or the executor"
            )
        key = (
            node.kind,
            id(node.origin),
            node.source_label,
            node.sink_label,
            tuple([self._shape(child) for child in node.children]),
        )
        shapes = self._shapes
        shape = self.shape_of[id(node)] = shapes.setdefault(key, len(shapes))
        return shape

    def __len__(self) -> int:
        with self._lock:
            return len(self._deletions)
