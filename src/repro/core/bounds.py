"""Cheap, never-overestimating lower bounds on the edit distance.

Every elementary edit operation inserts or deletes one elementary path
of length ``l`` (equivalently: an elementary subtree with ``l`` Q
leaves) at cost ``γ(l, A, B)``, and changes the run tree's multiset of
leaf-edge label pairs by exactly ``l`` units.  Loop stitch edges are
*not* Q leaves, so counting Q-leaf label pairs (not graph edges) is
what keeps the accounting exact for loops: deleting a one-edge loop
iteration costs ``γ(1)`` and removes one Q leaf — and two graph edges.

From that invariant, for two runs with label-pair multisets ``c₁`` and
``c₂`` and ``D = Σ |c₁(e) − c₂(e)|``, any edit script's op lengths
``l_i`` satisfy ``Σ l_i ≥ D`` with ``1 ≤ l_i ≤ L``, where ``L`` is the
maximum achievable branch-free leaf count of the *specification* root
(every elementary subtree is a branch-free run of some spec subtree,
and the root's achievable set dominates every node's).  For the paper's
power family ``γ(l) = l^ε``:

* ``0 ≤ ε ≤ 1`` (concave, subadditive): the cheapest feasible length
  multiset is ``⌊D/L⌋`` full pieces plus one remainder piece, so
  ``δ ≥ ⌊D/L⌋·L^ε + r^ε`` with ``r = D mod L`` — this specialises to
  ``δ ≥ D`` for the length model and ``δ ≥ ⌈D/L⌉`` for the unit model
  (the streaming hub's label-surplus bound, generalised);
* ``ε < 0`` (decreasing): every op costs at least ``L^ε`` and at least
  ``⌈D/L⌉`` ops are needed, so ``δ ≥ ⌈D/L⌉·L^ε``.

:class:`~repro.costs.standard.LabelWeightedCost` over a power base
scales by its minimum weight.  Models this module cannot reason about
(``CallableCost``, custom subclasses) get the trivially sound bound
``0.0`` — a bound may be useless, never wrong.

The corpus service persists each run's profile beside its fingerprint
(:mod:`repro.corpus.index`), so warm-path bound checks never re-parse a
run's XML; :func:`encode_profile`/:func:`decode_profile` define the
JSON shape.
"""

from __future__ import annotations

import weakref
from typing import Dict, Mapping, Optional, Tuple

from repro.core.spec_costs import _achievable_mask
from repro.costs.base import CostModel
from repro.costs.standard import LabelWeightedCost, PowerCost
from repro.sptree.nodes import SPTree

#: A leaf profile: Q-leaf ``(source_label, sink_label)`` pair counts.
LeafProfile = Dict[Tuple[str, str], int]

#: Separator for JSON-encoded label pairs (unit separator: cannot occur
#: in well-formed specification labels read from XML attribute values).
_PAIR_SEP = "\x1f"

#: Relative slack for bounds whose arithmetic is not exactly
#: representable in binary floating point.  The packing inequality is
#: proven over the reals; when ``ε ∉ {0, 1}`` (or a weight multiplies
#: in) the *rounded* bound could exceed a *rounded* true distance by an
#: ULP, and a cost-gated query would then skip a pair the ungated one
#: keeps.  Scaling such bounds down by 1e-9 relative — nine orders of
#: magnitude above double rounding error, nine below any distance worth
#: gating on — restores a sound margin at no practical loss of power.
#: Integer-exact cases (``ε ∈ {0, 1}``, counts below 2⁵³) skip the
#: slack: their floats are exact and so is the comparison.
_FLOAT_GUARD_DOWN = 1.0 - 1e-9


def leaf_profile(tree: SPTree) -> LeafProfile:
    """The multiset of Q-leaf terminal-label pairs of a run tree.

    Exactly the quantity every elementary edit operation moves by its
    own length; loop stitch edges are implicit graph edges, not Q
    leaves, and correctly do not appear.
    """
    profile: LeafProfile = {}
    for edge in tree.leaf_edges():
        pair = (edge.source_label, edge.sink_label)
        profile[pair] = profile.get(pair, 0) + 1
    return profile


def profile_delta(
    profile_a: Mapping[Tuple[str, str], int],
    profile_b: Mapping[Tuple[str, str], int],
) -> int:
    """``D = Σ_pairs |c₁(pair) − c₂(pair)|`` — the multiset distance."""
    delta = 0
    for pair, count in profile_a.items():
        delta += abs(count - profile_b.get(pair, 0))
    for pair, count in profile_b.items():
        if pair not in profile_a:
            delta += count
    return delta


#: :func:`spec_max_op_leaves` per specification object, held weakly.
_CEILINGS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def spec_max_op_leaves(spec) -> int:
    """``L``: the longest elementary path any edit op can move.

    The maximum achievable branch-free leaf count of the specification
    root; every elementary subtree insertable/deletable anywhere is a
    branch-free run of some spec subtree, whose achievable counts the
    root's dominate (S parents add siblings, P parents take unions).
    Computed once per (immutable) specification object.
    """
    ceiling = _CEILINGS.get(spec)
    if ceiling is None:
        mask = _achievable_mask(spec.tree, {})
        ceiling = _CEILINGS[spec] = mask.bit_length() - 1
    return ceiling


def _power_packing_bound(
    delta: int, max_leaves: int, epsilon: float
) -> float:
    """The packing bound for ``γ(l) = l^ε`` (``delta > 0``)."""
    if max_leaves < 1:
        return 0.0
    if epsilon == 1.0:
        return float(delta)  # exact: Σ l_i ≥ D, integer float
    if epsilon == 0.0:
        full, remainder = divmod(delta, max_leaves)
        return float(full + (1 if remainder else 0))  # exact op count
    if epsilon < 0.0:
        pieces = -(-delta // max_leaves)  # ceil
        return (
            pieces * float(max_leaves) ** epsilon * _FLOAT_GUARD_DOWN
        )
    full, remainder = divmod(delta, max_leaves)
    bound = full * float(max_leaves) ** epsilon
    if remainder:
        bound += float(remainder) ** epsilon
    return bound * _FLOAT_GUARD_DOWN


def packing_lower_bound(
    delta: int, max_leaves: int, cost: CostModel
) -> float:
    """``δ ≥ packing_lower_bound(D, L, γ)`` for any two runs with
    label-pair multiset distance ``D`` under a spec with op ceiling
    ``L``.

    Returns ``0.0`` (sound, vacuous) for cost models outside the
    power/weighted-power family.
    """
    if delta <= 0:
        return 0.0
    if isinstance(cost, PowerCost):
        return _power_packing_bound(delta, max_leaves, cost.epsilon)
    if isinstance(cost, LabelWeightedCost) and isinstance(
        cost.base, PowerCost
    ):
        weights = list(cost.weights.values())
        weights.append(cost.default_weight)
        # The weight multiplication rounds once more: guard it.
        return (
            min(weights)
            * _power_packing_bound(delta, max_leaves, cost.base.epsilon)
            * _FLOAT_GUARD_DOWN
        )
    return 0.0


def distance_lower_bound(
    profile_a: Mapping[Tuple[str, str], int],
    profile_b: Mapping[Tuple[str, str], int],
    max_leaves: int,
    cost: CostModel,
) -> float:
    """Lower bound on ``δ`` between two runs given their leaf profiles."""
    return packing_lower_bound(
        profile_delta(profile_a, profile_b), max_leaves, cost
    )


def run_lower_bound(run_a, run_b, cost: CostModel) -> float:
    """Convenience face over in-memory runs (profiles computed fresh)."""
    return distance_lower_bound(
        leaf_profile(run_a.tree),
        leaf_profile(run_b.tree),
        spec_max_op_leaves(run_a.spec),
        cost,
    )


# -- persistence ---------------------------------------------------------
def encode_profile(profile: LeafProfile) -> Dict[str, int]:
    """A JSON-safe encoding of a leaf profile (stable key order not
    required: consumers treat it as a mapping)."""
    return {
        f"{source}{_PAIR_SEP}{sink}": count
        for (source, sink), count in profile.items()
    }


def decode_profile(payload) -> Optional[LeafProfile]:
    """Decode :func:`encode_profile` output; ``None`` on malformed data
    (older index files simply lack profiles — recompute lazily)."""
    if not isinstance(payload, dict):
        return None
    profile: LeafProfile = {}
    for key, count in payload.items():
        if not isinstance(key, str) or _PAIR_SEP not in key:
            return None
        if not isinstance(count, int) or isinstance(count, bool):
            return None
        if count < 0:
            return None
        source, sink = key.split(_PAIR_SEP, 1)
        profile[(source, sink)] = count
    return profile


def is_sound_for(cost: CostModel) -> bool:
    """Whether this module produces non-trivial bounds for ``cost``.

    ``False`` means every bound degenerates to ``0.0`` — callers can
    skip profile work entirely for such models.
    """
    if isinstance(cost, PowerCost):
        return True
    return isinstance(cost, LabelWeightedCost) and isinstance(
        cost.base, PowerCost
    )
