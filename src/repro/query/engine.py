"""The provenance diff query engine: indexed search over edit scripts.

:class:`QueryEngine` turns a corpus :class:`~repro.corpus.service.DiffService`
into a queryable collection of diffs.  Where PR 1's service answers
*"how far apart are these runs?"* from its distance cache, the engine
answers *"which pairs of runs changed like this?"* — the paper's
motivating scenarios ("which runs dropped the annotation module?",
"where do executions diverge most?") as first-class queries:

* :meth:`select` streams the diffs matching a composable
  :class:`~repro.query.predicates.Predicate` — candidate pairs are
  pruned through the persistent inverted index
  (:class:`~repro.corpus.script_index.ScriptIndex`) before any script
  is loaded, and surviving candidates are verified exactly;
* :meth:`scan` is the deliberately brute-force baseline: it reloads and
  re-diffs every pair from XML with no cache, index, or fingerprint
  shortcuts.  Property tests (and the benchmark) assert the two paths
  return identical results;
* aggregations — :meth:`histogram`, :meth:`churn`,
  :meth:`divergence` — fold streamed results into op-kind counts,
  per-module churn rankings, and group-vs-group divergence reports.

The first query over a cold corpus pays the pairwise diffs once (they
enter the script cache and index as they are computed — the index is
incremental, never rebuilt); every later query over any subset streams
from the warm index at I/O speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.api import diff_runs
from repro.core.edit_script import PathOperation
from repro.corpus.fingerprint import cost_model_key, script_key
from repro.corpus.service import DiffService
from repro.costs.base import CostModel
from repro.costs.standard import UnitCost
from repro.errors import ReproError
from repro.query.aggregate import (
    GroupDivergence,
    ModuleChurn,
    group_divergence,
    module_churn,
    op_kind_histogram,
)
from repro.query.predicates import MatchAll, Predicate


@dataclass
class ScriptDoc:
    """One query result: a run pair and its minimum-cost edit script."""

    spec_name: str
    run_a: str
    run_b: str
    key: Optional[str]  #: directed cache key (None under uncacheable costs)
    distance: float
    operations: List[PathOperation]

    @property
    def pair(self) -> Tuple[str, str]:
        return (self.run_a, self.run_b)

    @property
    def op_count(self) -> int:
        return len(self.operations)

    def __str__(self) -> str:
        return (
            f"{self.run_a} -> {self.run_b}: distance {self.distance:g}, "
            f"{self.op_count} ops"
        )


def _ordered_pairs(names: Sequence[str]) -> List[Tuple[str, str]]:
    """Unordered pairs in listing order — the corpus-wide convention
    shared with :meth:`DiffService.distance_matrix`."""
    return [
        (a, b) for i, a in enumerate(names) for b in names[i + 1:]
    ]


class QueryEngine:
    """Indexed search and aggregation over a corpus of edit scripts."""

    def __init__(self, service: DiffService):
        self.service = service

    # -- corpus resolution ----------------------------------------------
    def _names(
        self, spec_name: str, runs: Optional[Sequence[str]]
    ) -> List[str]:
        names = (
            list(runs) if runs is not None else self.service.runs(spec_name)
        )
        if len(names) != len(set(names)):
            raise ReproError("duplicate run names in query corpus")
        return names

    # -- building --------------------------------------------------------
    def build(
        self,
        spec_name: str,
        cost: Optional[CostModel] = None,
        runs: Optional[Sequence[str]] = None,
    ) -> int:
        """Ensure every pair's script is cached and indexed; returns the
        number of pairs covered.

        Purely an optimisation valve: :meth:`select` performs the same
        incremental top-up on the fly, so calling this first merely
        front-loads the one-time diff cost (e.g. in an ingest job).
        """
        cost = cost or UnitCost()
        pairs = _ordered_pairs(self._names(spec_name, runs))
        if pairs:
            self.service.edit_scripts(spec_name, pairs, cost)
        return len(pairs)

    # -- querying --------------------------------------------------------
    def select(
        self,
        spec_name: str,
        predicate: Optional[Predicate] = None,
        cost: Optional[CostModel] = None,
        runs: Optional[Sequence[str]] = None,
    ) -> Iterator[ScriptDoc]:
        """Stream the diffs whose edit scripts satisfy ``predicate``.

        Pairs are enumerated in listing order (the
        :meth:`DiffService.distance_matrix` convention).  Uncached pairs
        are computed (and indexed) on the fly; cached pairs whose keys
        the index rules out are skipped without loading their scripts;
        the rest are loaded and checked exactly.
        """
        predicate = predicate if predicate is not None else MatchAll()
        cost = cost or UnitCost()
        names = self._names(spec_name, runs)
        pairs = _ordered_pairs(names)
        if not pairs:
            return
        cost_key = cost_model_key(cost)
        if cost_key is None:
            # Uncacheable cost model: nothing can be indexed; evaluate
            # each pair's freshly computed script directly.
            for run_a, run_b in pairs:
                record = self.service.edit_script(
                    spec_name, run_a, run_b, cost
                )
                doc = ScriptDoc(
                    spec_name, run_a, run_b, None,
                    record.distance, record.operations,
                )
                if predicate.matches(doc):
                    yield doc
            return

        fingerprints = self.service.fingerprints(spec_name, names)
        keys = {
            (a, b): script_key(
                fingerprints[a], fingerprints[b], cost_key
            )
            for a, b in pairs
        }
        index = self.service.script_index
        # Cost-ceiling gate: a pair whose packing lower bound exceeds
        # the predicate's ceiling has true distance above it too, so it
        # cannot match — drop it before the top-up prices it.  Exact,
        # not approximate: the bound never overestimates, and matches()
        # would have returned False.  Only cold pairs count as skipped
        # DPs (a warm pair's script already exists; nothing was saved).
        ceiling = predicate.cost_ceiling()
        if ceiling is not None:
            bounds = self.service.lower_bounds(spec_name, pairs, cost)
            kept = []
            skipped_cold = 0
            for pair in pairs:
                if bounds.get(pair, 0.0) > ceiling:
                    if not index.has(keys[pair]):
                        skipped_cold += 1
                    continue
                kept.append(pair)
            pairs = kept
            self.service.note_bound_skips(skipped_cold)
            if not pairs:
                return
        # Incremental top-up: index (and cache) whatever this corpus
        # view hasn't seen yet, *before* asking the index to prune.
        # One batch call — one flush — however many pairs are cold.
        missing = [
            pair for pair in pairs if not index.has(keys[pair])
        ]
        if missing:
            self.service.edit_scripts(spec_name, missing, cost)
        candidates = predicate.candidates(index)
        for run_a, run_b in pairs:
            key = keys[(run_a, run_b)]
            if candidates is not None and key not in candidates:
                continue
            record = self.service.cached_script(key)
            if record is None:
                # The cache was pruned between top-up and read (e.g. a
                # deleted index/ directory); recompute transparently.
                record = self.service.edit_script(
                    spec_name, run_a, run_b, cost
                )
            doc = ScriptDoc(
                spec_name, run_a, run_b, key,
                record.distance, record.operations,
            )
            if predicate.matches(doc):
                yield doc

    def scan(
        self,
        spec_name: str,
        predicate: Optional[Predicate] = None,
        cost: Optional[CostModel] = None,
        runs: Optional[Sequence[str]] = None,
    ) -> Iterator[ScriptDoc]:
        """Brute-force baseline: re-diff every pair, no caches, no index.

        Every run is re-read from its stored XML for every pair it
        participates in, and every edit script is regenerated by
        :func:`repro.core.api.diff_runs`.  Exists so the indexed path
        has an independently computed ground truth to be checked
        against — and a baseline to be benchmarked against.
        """
        predicate = predicate if predicate is not None else MatchAll()
        cost = cost or UnitCost()
        names = self._names(spec_name, runs)
        spec = self.service.store.load_specification(spec_name)
        for run_a, run_b in _ordered_pairs(names):
            result = diff_runs(
                self.service.store.load_run(spec, run_a),
                self.service.store.load_run(spec, run_b),
                cost=cost,
                with_script=True,
            )
            doc = ScriptDoc(
                spec_name, run_a, run_b, None,
                result.distance, list(result.script.operations),
            )
            if predicate.matches(doc):
                yield doc

    # -- aggregations -----------------------------------------------------
    def histogram(
        self,
        spec_name: str,
        predicate: Optional[Predicate] = None,
        cost: Optional[CostModel] = None,
        runs: Optional[Sequence[str]] = None,
    ) -> Dict[str, int]:
        """Operation-kind histogram over the matching diffs."""
        return op_kind_histogram(
            self.select(spec_name, predicate, cost=cost, runs=runs)
        )

    def churn(
        self,
        spec_name: str,
        predicate: Optional[Predicate] = None,
        cost: Optional[CostModel] = None,
        runs: Optional[Sequence[str]] = None,
    ) -> List[ModuleChurn]:
        """Per-module churn ranking over the matching diffs."""
        return module_churn(
            self.select(spec_name, predicate, cost=cost, runs=runs)
        )

    def divergence(
        self,
        spec_name: str,
        group_a: Sequence[str],
        group_b: Sequence[str],
        cost: Optional[CostModel] = None,
    ) -> GroupDivergence:
        """Group-vs-group divergence between two disjoint sets of runs.

        Prices only the pairs it needs — within-A, within-B, and the
        A×B cross pairs — through the distance cache, then ranks the
        modules the cross-group edit scripts touch.  All of it warm
        after a prior :meth:`build`/:meth:`select` over the corpus.
        """
        cost = cost or UnitCost()
        group_a = list(group_a)
        group_b = list(group_b)
        if not group_a or not group_b:
            raise ReproError("divergence requires two non-empty groups")
        overlap = set(group_a) & set(group_b)
        if overlap:
            raise ReproError(
                f"divergence groups overlap on {sorted(overlap)}"
            )
        within_a = self.service.distances(
            spec_name, _ordered_pairs(group_a), cost
        )
        within_b = self.service.distances(
            spec_name, _ordered_pairs(group_b), cost
        )
        cross_pairs = [(a, b) for a in group_a for b in group_b]
        # Scripts first: each one's total cost is the distance, and
        # edit_scripts seeds the distance cache — one diff per cold
        # cross pair instead of a distance DP plus a full diff.
        cross_records = self.service.edit_scripts(
            spec_name, cross_pairs, cost
        )
        cross = {
            pair: record.distance
            for pair, record in cross_records.items()
        }
        cross_docs = (
            ScriptDoc(
                spec_name, a, b, None,
                record.distance, record.operations,
            )
            for (a, b), record in cross_records.items()
        )
        return group_divergence(
            group_a, group_b, within_a, within_b, cross, cross_docs
        )
