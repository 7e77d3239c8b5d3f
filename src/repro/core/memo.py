"""Per-batch sharing of DP support tables across pair computations.

A cold ``distance_matrix`` over ``N`` runs performs ``N·(N−1)/2`` DPs,
and each historically rebuilt its two :class:`DeletionTables` (one per
run) and the per-spec :class:`SpecCostTables` from scratch — ``N−1``
redundant table builds per run, and the S-node convolution inside the
tables is the DP's stated O(|E|³) bottleneck.  A :class:`SharedTables`
instance memoises those tables for the lifetime of one batch: the
corpus service constructs one per cold dispatch and threads it through
the in-process backends (serial/thread), so every run's tables are
built exactly once per batch.

Sharing is sound because the tables are pure functions of
``(tree, cost)`` (respectively ``(spec, cost)``) and immutable once
built — results are bit-identical to per-pair construction, the same
objects merely get reused.  Cross-pair *DP cell* sharing is
deliberately absent: P-node accumulation order follows each pair's
child order, so cells keyed by anything weaker than object identity
would not be bit-stable.

The memo keys by ``id()`` and keeps strong references to the keyed
objects, which makes id reuse impossible while an entry lives — the
lookup verifies identity anyway, out of caution.  A lock serialises
construction (thread backends race to build the same run's tables);
table building is O(runs), negligible against the O(pairs) DP work it
amortises.

The process backend cannot share memory; its workers keep an analogous
per-worker memo (:mod:`repro.backends.work`), fresh per pool.
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

from repro.core.deletion import DeletionTables
from repro.core.spec_costs import SpecCostTables
from repro.costs.base import CostModel
from repro.errors import EditScriptError
from repro.sptree.nodes import NodeType, SPTree


class SharedTables:
    """One batch's memo of :class:`DeletionTables`/:class:`SpecCostTables`.

    Bound to a single cost model; the edit-distance DP
    refuses a mismatched cost at construction time rather than serving
    tables priced under a different ``γ``.
    """

    def __init__(self, cost: CostModel):
        self.cost = cost
        self._lock = threading.Lock()
        self._deletions: Dict[int, Tuple[SPTree, DeletionTables]] = {}
        self._spec_tables: Dict[int, Tuple[object, SpecCostTables]] = {}
        self._origin_ids: Dict[int, Tuple[SPTree, Dict[int, int]]] = {}
        self._origin_intern: Dict[tuple, int] = {}

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

    def origin_ids(self, tree: SPTree) -> Dict[int, int]:
        """Per-node interned origin-structure keys for one run tree.

        The intern table is batch-wide, so equal ids certify ``≡``
        across *any* two trees served by this instance — exactly the
        property the DP's ``≡``-shortcut compares.  Each tree's keys
        are built once per batch instead of once per pair, which is
        where the per-pair DP spent a quarter of its time.  The walk
        doubles as origin validation, letting callers skip a separate
        pre-order pass.
        """
        key = id(tree)
        with self._lock:
            entry = self._origin_ids.get(key)
            if entry is not None and entry[0] is tree:
                return entry[1]
            intern = self._origin_intern
            ids: Dict[int, int] = {}
            for node in tree.iter_nodes("post"):
                if node.origin is None:
                    raise EditScriptError(
                        "run tree node lacks an origin; build trees via "
                        "annotate_run_tree or the executor"
                    )
                if node.kind is NodeType.Q:
                    node_key: tuple = ("Q", id(node.origin))
                else:
                    child_ids = [ids[id(c)] for c in node.children]
                    if node.kind in (NodeType.P, NodeType.F):
                        child_ids.sort()
                    node_key = (
                        node.kind.value,
                        id(node.origin),
                        tuple(child_ids),
                    )
                ids[id(node)] = intern.setdefault(node_key, len(intern))
            self._origin_ids[key] = (tree, ids)
            return ids

    def __len__(self) -> int:
        with self._lock:
            return len(self._deletions)
