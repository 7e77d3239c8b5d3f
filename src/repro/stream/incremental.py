"""Incremental SP-ization: extend a partial SP-tree per event batch.

The whole-document importer (:func:`repro.interchange.normalize.
normalize_document`) derives everything from scratch: dependency DAG,
cycle check, longest-path layering, reachability for the
forced-serialisation report.  For a run arriving as an event stream
that is O(full graph) per event batch — so this module maintains the
expensive intermediate state **incrementally**:

* the accumulated :class:`~repro.interchange.prov_json.ProvDocument`
  (each ``activity`` event a declaration, each ``edge`` event one
  ``wasInformedBy`` relation in arrival order);
* **longest-path depths** (the SP-ization layer assignment), relaxed
  by worklist on each new dependency pair;
* **forward and backward reachability closures**, extended per edge —
  which also makes cycle rejection an O(1) set test *at event time*
  instead of a whole-graph Kahn pass at close;
* the raw/deduplicated edge accounting of the normalisation report;
* the effective-label multiset, whose changes the event methods
  return as ``(label, old, new)`` (the hub's exact live bounds).

:meth:`IncrementalNormalizer.snapshot` then assembles the normalised
run through the *same* ``_assemble`` tail the whole-document importer
uses, injecting the maintained depths and reachability so the layering
and the forced-serialisation scan skip their recomputation (still
O(full graph), so the hub takes one snapshot per batch, not per
event).  Injected depths are uniformly shifted (+1 when the graph has
a real unique source) relative to the source-seeded computation; the
layer partition is shift-invariant, so the output is **bit-identical**
to importing the accumulated document whole — the invariant the
Hypothesis property suite (``tests/stream/test_stream_property.py``)
pins down.

A snapshot of an *open* run is a valid normalised run of its partial
derived specification — the live SP-tree view ``GET /stream/live``
serves — and :meth:`finish` is simply the final snapshot.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import InterchangeError
from repro.interchange.normalize import (
    NormalizationReport,
    NormalizedImport,
    _assemble,
)
from repro.interchange.prov_json import (
    ProvDocument,
    ProvRelation,
    activity_label,
    local_name,
)

#: One label-count change: ``(label, old count, new count)``.
LabelChange = Tuple[str, int, int]


class IncrementalNormalizer:
    """Maintain a foreign run's SP embedding as events arrive.

    Parameters mirror :func:`normalize_document`: ``name`` names the
    derived specification, ``run_name`` the run (defaulting to
    ``name``).
    """

    def __init__(self, name: str = "imported", run_name: str = ""):
        self.name = name
        self.run_name = run_name
        self.doc = ProvDocument()
        #: Deduplicated dependency pairs in first-arrival order.
        self._pairs: List[Tuple[str, str]] = []
        self._pair_set: Set[Tuple[str, str]] = set()
        self._succ: Dict[str, Set[str]] = {}
        #: Longest-path depth, parentless nodes at 1 (a uniform +1
        #: shift against the synthetic-source-seeded computation when
        #: the graph has a real unique source — layering-invariant).
        self._depth: Dict[str, int] = {}
        #: Exclusive forward reachability: ``reach[a]`` = reachable
        #: *from* ``a``; ``coreach[a]`` = nodes that reach ``a``.
        self._reach: Dict[str, Set[str]] = {}
        self._coreach: Dict[str, Set[str]] = {}
        #: Raw dependency-bearing relations seen (incl. duplicates and
        #: self-dependencies) — the report's deduplication accounting.
        self._raw_edges = 0
        self._label_counts: Counter = Counter()
        self._snapshot_cache: Optional[NormalizedImport] = None

    # -- event application ----------------------------------------------
    def _ensure(self, node: str) -> None:
        if node not in self._depth:
            self._depth[node] = 1
            self._succ[node] = set()
            self._reach[node] = set()
            self._coreach[node] = set()

    def _count(self, label: str, delta: int) -> LabelChange:
        """Move ``label``'s count by ``delta``; the change made."""
        old = self._label_counts[label]
        new = old + delta
        if new:
            self._label_counts[label] = new
        else:
            del self._label_counts[label]
        return label, old, new

    def add_activity(self, node: str, label: str = "") -> List[LabelChange]:
        """Declare one activity (idempotent for an identical redeclare).

        Redeclaring an id with a *different* label is refused — the
        stream would otherwise silently disagree with itself about what
        executed.  Returns the label-count changes made.
        """
        effective = label or local_name(node)
        if node in self.doc.activities:
            existing = self.effective_label(node)
            if existing != effective:
                raise InterchangeError(
                    f"activity {node!r} redeclared with label "
                    f"{effective!r} (was {existing!r})"
                )
            return []
        attrs: Dict[str, object] = {}
        if label:
            attrs["repro:label"] = label
        changes: List[LabelChange] = []
        if node not in self._depth:
            changes.append(self._count(effective, 1))
        elif local_name(node) != effective:
            # Referenced-only activities were counted under their local
            # name; the declaration renames them.
            changes.append(self._count(local_name(node), -1))
            changes.append(self._count(effective, 1))
        self.doc.activities[node] = attrs
        self._ensure(node)
        self._snapshot_cache = None
        return changes

    def add_edge(self, src: str, dst: str) -> List[LabelChange]:
        """Record one dependency ``src`` before ``dst``.

        Duplicates and self-dependencies are recorded (they feed the
        report's raw-edge accounting) but do not change the DAG, as in
        :meth:`ProvDocument.dependency_pairs`.  An edge that would
        close a cycle between distinct activities is rejected
        immediately, before any state changes — an O(1) reachability
        test, where the whole-document importer only discovers the
        cycle at import time.  Returns the label-count changes made.
        """
        if src != dst and src in self._reach.get(dst, ()):
            raise InterchangeError(
                f"dependency {src!r} -> {dst!r} would close a cycle; "
                "cannot interpret the stream as a workflow run"
            )
        changes: List[LabelChange] = []
        for node in (src, dst):
            if node not in self._depth:
                # Referenced-only activity: labelled by local name,
                # exactly as the whole-document importer labels ids
                # that appear in relations without a declaration.
                self._ensure(node)
                changes.append(self._count(local_name(node), 1))
        # The relation lands in the accumulated document regardless —
        # arrival order is the document's relation order.
        self.doc.relations.append(
            ProvRelation(kind="wasInformedBy", subject=dst, object=src)
        )
        self._raw_edges += 1
        self._snapshot_cache = None
        pair = (src, dst)
        if src == dst or pair in self._pair_set:
            return changes
        self._pair_set.add(pair)
        self._pairs.append(pair)
        self._succ[src].add(dst)
        # Reachability closure: everything at or upstream of ``src``
        # now reaches everything at or downstream of ``dst``.
        ancestors = {src} | self._coreach[src]
        descendants = {dst} | self._reach[dst]
        for node in ancestors:
            self._reach[node] |= descendants
        for node in descendants:
            self._coreach[node] |= ancestors
        # Longest-path relaxation by worklist.
        proposed = self._depth[src] + 1
        if proposed > self._depth[dst]:
            self._depth[dst] = proposed
            stack = [dst]
            while stack:
                node = stack.pop()
                base = self._depth[node] + 1
                for other in self._succ[node]:
                    if base > self._depth[other]:
                        self._depth[other] = base
                        stack.append(other)
        return changes

    # -- introspection ----------------------------------------------------
    @property
    def num_activities(self) -> int:
        return len(self._depth)

    @property
    def num_edges(self) -> int:
        """Deduplicated dependency pairs (the DAG's edge count)."""
        return len(self._pairs)

    def effective_label(self, node: str) -> str:
        """The label the importer would give ``node`` right now."""
        return activity_label(self.doc, node)

    def label_counts(self) -> Counter:
        """Multiset of effective activity labels streamed so far.

        Maintained incrementally; the event methods return each change.
        (Raw labels — the derived specification may still rename
        duplicates ``base~N`` at assembly time.)
        """
        return Counter(self._label_counts)

    # -- assembly ----------------------------------------------------------
    def snapshot(self) -> NormalizedImport:
        """The accumulated events as a normalised run, right now.

        Bit-identical to ``normalize_document`` over the accumulated
        document; the layering and forced-serialisation scan reuse the
        incrementally maintained depths and reachability instead of
        recomputing.  Cached until the next event, but still a full
        assembly: take one per batch of events, not one per event.
        """
        if self._snapshot_cache is not None:
            return self._snapshot_cache
        activities = self.doc.activity_ids()
        if not activities:
            raise InterchangeError(
                "stream session has no activities to normalise"
            )
        pairs = self.doc.dependency_pairs()
        report = NormalizationReport()
        report.deduplicated_edges = max(0, self._raw_edges - len(pairs))
        result = _assemble(
            self.doc,
            activities,
            pairs,
            report,
            self.name,
            self.run_name,
            depths=self._depth,
            reach=self._reach,
        )
        self._snapshot_cache = result
        return result

    def finish(self) -> NormalizedImport:
        """The final snapshot (the ``run_close`` assembly)."""
        return self.snapshot()
