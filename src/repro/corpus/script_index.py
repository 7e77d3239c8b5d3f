"""Persistent inverted index over cached edit scripts.

Maps query terms to the directed script keys
(:func:`repro.corpus.fingerprint.script_key`) of the diffs whose scripts
satisfy them, so the query engine can prune the candidate set of a
predicate **before** loading a single script:

* ``kind:<operation kind>`` — scripts containing at least one operation
  of that kind (insertion/deletion/expansion/contraction);
* ``label:<module label>`` — scripts with at least one operation whose
  path touches the label (terminals included);
* ``cost:<bucket>`` — scripts whose total cost (= distance) falls in a
  power-of-two bucket, supporting range predicates.

The index is *built incrementally as diffs are computed*: the
:class:`~repro.corpus.service.DiffService` calls :meth:`ScriptIndex.add`
whenever it computes (or first re-reads) a script.  Each indexed script
is one row of the ``script_docs`` table of the service's derived
database (:mod:`repro.corpus.derived`) — its distance, op count and
terms — from which the posting sets are rebuilt at open; a flush writes
only the rows added since, so concurrent services lose neither's
scripts, and an unreadable database is an empty index to be rebuilt.

Pruning is **conservative by construction**: a term's posting list is a
superset test only — the engine always re-evaluates the full predicate
against the candidate scripts, so an over-approximate posting can cost
time but never correctness.

All public methods are thread-safe (one re-entrant lock per index):
candidate generation copies its result sets under the lock, so a
request thread can never iterate a posting set while another mutates
it in place.
"""

from __future__ import annotations

import json
import math
import threading
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.corpus.derived import DerivedDB

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.metrics import MetricsRegistry

KIND_PREFIX = "kind:"
LABEL_PREFIX = "label:"
COST_PREFIX = "cost:"


def cost_bucket(distance: float) -> int:
    """Power-of-two bucket of a script's total cost.

    Bucket 0 holds ``[0, 1)``; bucket ``k >= 1`` holds
    ``[2^(k-1), 2^k)``.  The function is monotone in ``distance``, which
    is what makes bucket-range pruning exact: every script with cost in
    ``[lo, hi]`` lands in a bucket between ``cost_bucket(lo)`` and
    ``cost_bucket(hi)``.
    """
    if distance < 1.0:
        return 0
    return int(math.floor(math.log2(distance))) + 1


def script_terms(record: dict) -> Set[str]:
    """The index terms of one encoded script record."""
    terms = {COST_PREFIX + str(cost_bucket(float(record["distance"])))}
    for op in record["ops"]:
        terms.add(KIND_PREFIX + str(op["kind"]))
        for label in op["path"]:
            terms.add(LABEL_PREFIX + str(label))
    return terms


class ScriptIndex:
    """The inverted index: term → posting set, plus a docs table.

    The docs table records ``key → (distance, op count)`` so pure
    cost/op-count predicates can prune without touching the script
    cache at all.  ``db=None`` keeps the index in a private in-memory
    database.
    """

    def __init__(
        self,
        db: Optional[DerivedDB] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ):
        self.db = db if db is not None else DerivedDB()
        self._postings: Dict[str, Set[str]] = {}
        self._docs: Dict[str, Tuple[float, int]] = {}
        #: Rows added since the last flush: key -> (distance, ops, terms).
        self._pending: Dict[str, Tuple[float, int, str]] = {}
        # Posting sets are mutated in place; every public read and
        # write holds this re-entrant lock so concurrent request
        # threads can never observe a half-updated index.
        self._lock = threading.RLock()
        if metrics is None:
            from repro.obs.metrics import MetricsRegistry

            metrics = MetricsRegistry(enabled=False)
        self._indexed_metric = metrics.counter(
            "script_index_additions_total",
            "Edit scripts newly indexed (first-time keys only).",
        )
        metrics.gauge(
            "script_index_size",
            "Distinct edit scripts currently indexed.",
        ).set_function(self.__len__)
        for key, distance, ops, terms in self.db.rows(
            "SELECT key, distance, ops, terms FROM script_docs"
        ):
            try:
                decoded = json.loads(terms)
                self._insert(
                    key, float(distance), int(ops), map(str, decoded)
                )
            except (TypeError, ValueError):
                continue  # derived data: a bad row is an unindexed script

    # -- persistence ----------------------------------------------------
    def flush(self) -> None:
        """Commit the scripts indexed since the last flush."""
        with self._lock:
            if not self._pending:
                return
            if self.db.commit([(
                "INSERT OR REPLACE INTO script_docs "
                "(key, distance, ops, terms) VALUES (?, ?, ?, ?)",
                [(key, *row) for key, row in self._pending.items()],
            )]):
                self._pending.clear()

    # -- building -------------------------------------------------------
    def has(self, key: str) -> bool:
        with self._lock:
            return key in self._docs

    def _insert(
        self, key: str, distance: float, ops: int, terms: Iterable[str]
    ) -> None:
        for term in terms:
            self._postings.setdefault(term, set()).add(key)
        self._docs[key] = (distance, ops)

    def add(self, key: str, record: dict) -> None:
        """Index one encoded script record (idempotent per key)."""
        with self._lock:
            if key in self._docs:
                return
            terms = sorted(script_terms(record))
            distance = float(record["distance"])
            ops = len(record["ops"])
            self._insert(key, distance, ops, terms)
            self._pending[key] = (distance, ops, json.dumps(terms))
            self._indexed_metric.inc()

    # -- introspection ---------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._docs)

    def keys(self) -> Set[str]:
        with self._lock:
            return set(self._docs)

    def doc(self, key: str) -> Optional[Tuple[float, int]]:
        """``(distance, op count)`` of an indexed script, or ``None``."""
        with self._lock:
            return self._docs.get(key)

    def terms(self) -> List[str]:
        with self._lock:
            return sorted(self._postings)

    def postings(self, term: str) -> Set[str]:
        """The posting set of one term (a copy; empty when unknown)."""
        with self._lock:
            return set(self._postings.get(term, ()))

    # -- candidate generation (used by predicates) -----------------------
    def candidates_for_kinds(self, kinds: Iterable[str]) -> Set[str]:
        with self._lock:
            result: Set[str] = set()
            for kind in kinds:
                result |= self._postings.get(KIND_PREFIX + kind, set())
            return result

    def candidates_for_labels(self, labels: Iterable[str]) -> Set[str]:
        with self._lock:
            result: Set[str] = set()
            for label in labels:
                result |= self._postings.get(
                    LABEL_PREFIX + label, set()
                )
            return result

    def candidates_for_cost(
        self,
        minimum: Optional[float] = None,
        maximum: Optional[float] = None,
    ) -> Set[str]:
        low = cost_bucket(minimum) if minimum is not None else 0
        high = cost_bucket(maximum) if maximum is not None else None
        with self._lock:
            result: Set[str] = set()
            for term, keys in self._postings.items():
                if not term.startswith(COST_PREFIX):
                    continue
                bucket = int(term[len(COST_PREFIX):])
                if bucket < low:
                    continue
                if high is not None and bucket > high:
                    continue
                result |= keys
            return result

    def candidates_for_op_count(
        self,
        minimum: Optional[int] = None,
        maximum: Optional[int] = None,
    ) -> Set[str]:
        with self._lock:
            return {
                key
                for key, (_, ops) in self._docs.items()
                if (minimum is None or ops >= minimum)
                and (maximum is None or ops <= maximum)
            }
