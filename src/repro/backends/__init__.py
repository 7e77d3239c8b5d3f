"""Pluggable execution backends for corpus-scale differencing.

The edit-distance DP is pure Python and O(|E|³), so *where* a batch of
pairwise diffs executes decides what the batch can share and what it
pays in overhead:

* :class:`SerialBackend` — in-process, one pair at a time.  The
  default and the reference every other backend is checked against:
  zero overhead, deterministic scheduling, and one batch-wide
  :class:`~repro.core.memo.SharedTables` of tables and DP cells.
* :class:`ThreadBackend` — a :class:`concurrent.futures`
  ``ThreadPoolExecutor``.  Under the GIL the pure-Python DP gains no
  speed from threads (they only contend), but the backend is cheap to
  spin up and never requires picklable payloads.
* :class:`ProcessBackend` — a ``ProcessPoolExecutor``.  Payloads are
  pickled to worker processes, so the DP runs in parallel; each batch
  starts a fresh pool and pickles every payload, and on a 2-core
  machine a cold ``distance_matrix`` measured slower than serial (see
  ``benchmarks/bench_backends.py``).

All three implement the :class:`ExecutorBackend` contract — ``map`` a
module-level worker function over picklable task payloads — and are
interchangeable by construction: property tests assert bit-identical
distance matrices and edit-script costs across backends.  Select one
through :class:`repro.config.ReproConfig` (``backend="process"``,
``jobs=8``) or pass an instance anywhere a backend is accepted.
"""

from repro.backends.base import (
    BACKEND_NAMES,
    ExecutorBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    make_backend,
)
from repro.backends.work import (
    DistanceTask,
    ScriptTask,
    compute_distance,
    compute_script,
)

__all__ = [
    "BACKEND_NAMES",
    "ExecutorBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "make_backend",
    "DistanceTask",
    "ScriptTask",
    "compute_distance",
    "compute_script",
]
