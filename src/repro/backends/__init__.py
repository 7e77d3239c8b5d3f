"""Pluggable execution backends for corpus-scale differencing.

The edit-distance DP is pure Python and O(|E|³), so *where* a batch of
pairwise diffs executes decides what the batch can share and what it
pays in overhead.  Both backends run in-process and hand every task of
a batch one :class:`~repro.core.memo.SharedTables` of tables and DP
cells:

* :class:`SerialBackend` — one pair at a time.  The default and the
  reference the other backend is checked against: zero overhead and
  deterministic scheduling.
* :class:`ThreadBackend` — a :class:`concurrent.futures`
  ``ThreadPoolExecutor`` of ``effective_jobs`` threads.  Under the GIL
  the pure-Python DP gains no speed from threads (they only contend),
  but the pool overlaps the XML-parsing share of a cold batch.

A backend maps a plain callable over a batch: nothing crosses a
process boundary, so a task is a closure over the two runs and the
batch's tables, and the workers :func:`compute_distance` and
:func:`compute_script` take ``(run_a, run_b, cost, shared)``
directly (6.0 removed the ``DistanceTask``/``ScriptTask`` payloads,
which existed to be pickled to the deleted process pool).

The one path that runs the DP on more than one core is ``repro serve
--workers N`` (:mod:`repro.cluster`), whose worker processes accept
requests from one socket.  Property tests assert bit-identical distance matrices and
edit-script costs across backends.  Select one through
:class:`repro.config.ReproConfig` (``backend="thread"``, ``jobs=8``)
or pass an instance anywhere a backend is accepted.
"""

from repro.backends.base import (
    BACKEND_NAMES,
    ExecutorBackend,
    SerialBackend,
    ThreadBackend,
    make_backend,
)


__all__ = [
    "BACKEND_NAMES",
    "ExecutorBackend",
    "SerialBackend",
    "ThreadBackend",
    "make_backend",
    "compute_distance",
    "compute_script",
]


def __getattr__(name):
    """The workers load the DP core on first use, not with the package."""
    if name in ("compute_distance", "compute_script"):
        from repro.backends import work

        return getattr(work, name)
    raise AttributeError(
        f"module 'repro.backends' has no attribute {name!r}"
    )
