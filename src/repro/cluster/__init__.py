"""Sharded multi-process serving cluster.

This package scales the HTTP diff service past one coarse lock in
two composable layers:

- :mod:`repro.cluster.singleflight` — a keyed in-flight table so
  concurrent identical computations (a thundering herd on one cold
  ``GET /diff/{a}/{b}``) share a single DP instead of racing N copies.
- :mod:`repro.cluster.server` — a pre-forked multi-process cluster
  (``repro serve --workers N``): a parent process forwards each
  request to one per-worker HTTP server, supervised by
  :mod:`repro.cluster.supervisor` — diffs and run writes by name-hash
  shard (:mod:`repro.cluster.shard`), matrices, queries and the rest
  to worker 0.  Only ``/stats`` and ``/metrics`` (merged) and
  ``PUT /specs`` (broadcast) visit every worker.  Workers share the
  store's derived-state database (:mod:`repro.corpus.derived`), so a
  restarted worker starts warm and N workers warm once, not N times.

The single-flight table is also used by the single-process server — it
is what makes ``DiffService`` read-mostly instead of a monitor.  See
``docs/SCALING.md`` for the full design.
"""

from repro.cluster.shard import shard_for_name, shard_for_pair
from repro.cluster.singleflight import SingleFlight

__all__ = [
    "SingleFlight",
    "shard_for_name",
    "shard_for_pair",
]
