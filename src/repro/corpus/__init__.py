"""Corpus-scale differencing: fingerprints, caches, and the DiffService.

The :mod:`repro.corpus` package scales the paper's pairwise differ to
collections of runs — the "which executions cluster together" workload
from the paper's conclusions:

* :mod:`repro.corpus.fingerprint` — content-addressed run/spec hashes;
* :mod:`repro.corpus.derived` — the one SQLite database every derived
  tier below persists through (``<store>/index/derived.db``);
* :mod:`repro.corpus.index` — persistent fingerprint index over a store;
* :mod:`repro.corpus.cache` — two-tier (LRU + database table) distance
  cache;
* :mod:`repro.corpus.service` — the :class:`DiffService` facade with
  parallel batch queries and incremental updates;
* :mod:`repro.corpus.singleflight` — the keyed in-flight table through
  which the service coalesces identical cold computations;
* :mod:`repro.corpus.script_cache` — persistent, directed edit-script
  cache (the scripts themselves, not just their costs);
* :mod:`repro.corpus.script_index` — inverted index over cached scripts
  (operation kinds, module labels, cost buckets → diff pairs);
* :mod:`repro.corpus.analytics` — medoid / outlier / k-NN queries over
  distance matrices.
"""

from repro.corpus.analytics import (
    k_nearest,
    matrix_names,
    mean_distances,
    medoid,
    outliers,
    pair_distance,
)
from repro.corpus.cache import (
    CacheStats,
    DistanceCache,
    LRUCache,
    TwoTierCache,
)
from repro.corpus.fingerprint import (
    cost_model_key,
    pair_key,
    run_fingerprint,
    script_key,
    spec_fingerprint,
)
from repro.corpus.index import FingerprintIndex
from repro.corpus.script_cache import (
    ScriptCache,
    ScriptRecord,
    decode_script,
    encode_script,
)
from repro.corpus.script_index import ScriptIndex, cost_bucket
from repro.corpus.service import DiffService

__all__ = [
    "DiffService",
    "FingerprintIndex",
    "DistanceCache",
    "TwoTierCache",
    "LRUCache",
    "CacheStats",
    "ScriptCache",
    "ScriptRecord",
    "ScriptIndex",
    "cost_bucket",
    "encode_script",
    "decode_script",
    "run_fingerprint",
    "spec_fingerprint",
    "cost_model_key",
    "pair_key",
    "script_key",
    "mean_distances",
    "medoid",
    "outliers",
    "k_nearest",
    "pair_distance",
    "matrix_names",
]
