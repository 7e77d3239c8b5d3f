"""Sharded multi-process serving cluster: ``repro serve --workers N``.

:mod:`repro.cluster.server` runs a parent process that forwards each
request to one of N pre-forked per-worker HTTP servers, supervised by
:mod:`repro.cluster.supervisor`: diffs by run-pair shard and run
writes by run-name shard (:mod:`repro.cluster.shard`), matrices,
queries, spec registrations and the rest to worker 0.  Only
``/stats`` and ``/metrics`` (merged) visit every worker; each worker
resolves specifications from the store, so a registration needs
telling no other.  Workers share the store's derived-state database
(:mod:`repro.corpus.derived`), so a restarted worker starts warm and N
workers warm once, not N times.  The parent does not coalesce: pair
routing sends identical diffs to one worker, whose service coalesces
them (:mod:`repro.corpus.singleflight`), so K identical concurrent
cold diffs cost one DP cluster-wide.  See ``docs/SCALING.md``.
"""

from repro.cluster.shard import shard_for_name, shard_for_pair

__all__ = [
    "shard_for_name",
    "shard_for_pair",
]
