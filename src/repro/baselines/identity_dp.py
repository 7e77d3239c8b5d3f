"""The paper's DP with every cell keyed by node identity (Section V-C).

:class:`IdentityKeyedComputation` runs the unchanged ``_decide*`` bodies
but prices each child pair through :meth:`decision` alone: no
``≡``-shortcut and no shared cells, as Algorithms 4 and 6 state it.  It
is the oracle the product DP must match bit for bit (distances,
mappings, scripts, ties included) and the baseline it is timed against.
"""

from __future__ import annotations

from repro.core.edit_distance import EditDistanceComputation
from repro.sptree.nodes import SPTree


class IdentityKeyedComputation(EditDistanceComputation):
    """Demand-driven DP whose every cell is the pair's own decision."""

    def pair_cost(self, v1: SPTree, v2: SPTree) -> float:
        """``γ(M(v1, v2))`` from the identity-keyed :meth:`decision`."""
        return self.decision(v1, v2).cost
