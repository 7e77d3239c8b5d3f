"""Content-addressed fingerprints for specifications and runs.

A fingerprint is a SHA-256 digest of a *canonical* serialisation of a
graph, chosen so that it keys distance caches safely:

* **Specifications** hash their annotated SP-tree ``T_G`` (Algorithm 1)
  together with the label-level edge multiset — unique node labels make
  this a complete, order-independent description of ``(G, F, L)``.
* **Runs** hash the specification fingerprint plus the annotated run
  tree's :meth:`~repro.sptree.nodes.SPTree.structure_key`, the canonical
  form realising the paper's ``≡`` relation: children of parallel and
  fork nodes are sorted, instance ids are erased, and only specification
  labels remain.  Two runs receive equal fingerprints **iff** they are
  equivalent (equal up to instance renaming and P/F reordering).

Because the edit-distance DP consumes exactly ``(spec, T_R1, T_R2, γ)``,
equal fingerprints guarantee equal distances to every third run under
every cost model — the property that makes fingerprints sound cache keys
and lets the corpus service skip re-parsing runs it has already seen.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import Optional

from repro.costs.base import CostModel
from repro.workflow.run import WorkflowRun
from repro.workflow.specification import WorkflowSpecification

_ALGORITHM = "sha256"


#: :func:`spec_fingerprint` per specification object, held weakly.
_DIGESTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _digest(payload: str) -> str:
    return hashlib.new(_ALGORITHM, payload.encode("utf8")).hexdigest()


def spec_fingerprint(spec: WorkflowSpecification) -> str:
    """Canonical content hash of a specification ``(G, F, L)``.

    Independent of the specification's name, node ids, and node/edge
    insertion order: the hash covers the sorted label-level edge multiset
    and the annotated SP-tree's structure key (which encodes the fork and
    loop families through their F/L tree nodes).  Computed once per
    (immutable) specification object.
    """
    digest = _DIGESTS.get(spec)
    if digest is None:
        labels = spec.graph.labels()
        edges = sorted(
            (labels[u], labels[v], count)
            for (u, v), count in spec.graph.edge_multiset().items()
        )
        payload = repr(("spec", tuple(edges), spec.tree.structure_key()))
        digest = _DIGESTS[spec] = _digest(payload)
    return digest


def run_fingerprint(
    run: WorkflowRun, spec_digest: Optional[str] = None
) -> str:
    """Canonical content hash of a run, scoped to its specification.

    ``spec_digest`` lets callers that fingerprint many runs of one
    specification amortise the spec hash.  Equal fingerprints ⇔ the runs
    are ``≡``-equivalent and belong to content-identical specifications.
    """
    if spec_digest is None:
        spec_digest = spec_fingerprint(run.spec)
    payload = repr(("run", spec_digest, run.tree.structure_key()))
    return _digest(payload)


def cost_model_key(cost: CostModel) -> Optional[str]:
    """The cache-key component identifying a cost model, if it has one.

    Returns ``None`` for models that declare themselves uncacheable
    (e.g. :class:`~repro.costs.standard.CallableCost`), in which case
    every distance under that model must be computed fresh.
    """
    key = cost.cache_key
    return None if key is None else str(key)


def pair_key(
    fingerprint_a: str, fingerprint_b: str, cost_key: str
) -> str:
    """Symmetric cache key for one (run, run, cost-model) distance.

    ``δ`` is symmetric, so the two fingerprints are ordered before
    joining; the result is a flat string usable as a JSON object key.
    """
    low, high = sorted((fingerprint_a, fingerprint_b))
    return f"{low}|{high}|{cost_key}"


def script_key(
    fingerprint_from: str, fingerprint_to: str, cost_key: str
) -> str:
    """Directed cache key for one (run → run, cost-model) edit script.

    Unlike :func:`pair_key`, the operands are **not** sorted: an edit
    script transforms the first run into the second, and the reverse
    transformation is a different script (insertions and deletions swap
    roles and the operation order inverts).  The ``>`` separator makes
    the direction legible in persisted keys.
    """
    return f"{fingerprint_from}>{fingerprint_to}|{cost_key}"
