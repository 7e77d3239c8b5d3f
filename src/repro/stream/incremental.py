"""Incremental SP-ization: one accumulated document per streamed run.

A run arriving as an event stream is one PROV document, built up event
by event, and SP-ized by the same importer as a whole document
(:func:`repro.interchange.normalize.normalize_document`).  Between
events this module keeps only what the stream protocol needs at event
time:

* the accumulated :class:`~repro.interchange.prov_json.ProvDocument`
  (each ``activity`` event a declaration, each ``edge`` event one
  ``wasInformedBy`` relation in arrival order);
* the deduplicated successor sets of its dependency DAG, so an edge
  that would close a cycle is rejected *at event time* — a search from
  its target — instead of failing the whole import at close;
* the effective-label multiset, whose changes the event methods
  return as ``(label, old, new)`` (the hub's exact live bounds);
* the cached snapshot.

:meth:`IncrementalNormalizer.snapshot` is ``normalize_document`` over
the accumulated document, so it is **bit-identical** to importing that
document whole — the invariant the Hypothesis property suite
(``tests/stream/test_stream_property.py``) pins down.  A snapshot is
O(full graph), so the hub takes one per batch, not per event.

A snapshot of an *open* run is a valid normalised run of its partial
derived specification — the live SP-tree view ``GET /stream/live``
serves — and :meth:`finish` is simply the final snapshot.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import InterchangeError
from repro.interchange.normalize import NormalizedImport, normalize_document
from repro.interchange.prov_json import (
    ProvDocument,
    ProvRelation,
    activity_label,
    local_name,
)

#: One label-count change: ``(label, old count, new count)``.
LabelChange = Tuple[str, int, int]


class IncrementalNormalizer:
    """Accumulate a foreign run's document as events arrive.

    Parameters mirror :func:`normalize_document`: ``name`` names the
    derived specification, ``run_name`` the run (defaulting to
    ``name``).
    """

    def __init__(self, name: str = "imported", run_name: str = ""):
        self.name = name
        self.run_name = run_name
        self.doc = ProvDocument()
        #: Every activity seen (declared or referenced) -> its
        #: deduplicated successors in the dependency DAG.
        self._succ: Dict[str, Set[str]] = {}
        self._label_counts: Counter = Counter()
        self._snapshot_cache: Optional[NormalizedImport] = None

    # -- event application ----------------------------------------------
    def _count(self, label: str, delta: int) -> LabelChange:
        """Move ``label``'s count by ``delta``; the change made."""
        old = self._label_counts[label]
        new = old + delta
        if new:
            self._label_counts[label] = new
        else:
            del self._label_counts[label]
        return label, old, new

    def _reaches(self, start: str, target: str) -> bool:
        """True when ``target`` is reachable from ``start``."""
        seen = {start}
        stack = [start]
        while stack:
            for other in self._succ.get(stack.pop(), ()):
                if other == target:
                    return True
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        return False

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
        if node not in self._succ:
            self._succ[node] = set()
            changes.append(self._count(effective, 1))
        elif local_name(node) != effective:
            # Referenced-only activities were counted under their local
            # name; the declaration renames them.
            changes.append(self._count(local_name(node), -1))
            changes.append(self._count(effective, 1))
        self.doc.activities[node] = attrs
        self._snapshot_cache = None
        return changes

    def add_edge(self, src: str, dst: str) -> List[LabelChange]:
        """Record one dependency ``src`` before ``dst``.

        Duplicates and self-dependencies are recorded (the importer
        counts them as deduplicated edges) but do not change the DAG,
        as in :meth:`ProvDocument.dependency_pairs`.  An edge that
        would close a cycle between distinct activities is rejected
        immediately, before any state changes, where the
        whole-document importer only discovers the cycle at import
        time.  Returns the label-count changes made.
        """
        if src != dst and self._reaches(dst, src):
            raise InterchangeError(
                f"dependency {src!r} -> {dst!r} would close a cycle; "
                "cannot interpret the stream as a workflow run"
            )
        changes: List[LabelChange] = []
        for node in (src, dst):
            if node not in self._succ:
                # Referenced-only activity: labelled by local name,
                # exactly as the whole-document importer labels ids
                # that appear in relations without a declaration.
                self._succ[node] = set()
                changes.append(self._count(local_name(node), 1))
        # Arrival order is the document's relation order.
        self.doc.relations.append(
            ProvRelation(kind="wasInformedBy", subject=dst, object=src)
        )
        self._snapshot_cache = None
        if src != dst:
            self._succ[src].add(dst)
        return changes

    # -- introspection ----------------------------------------------------
    @property
    def num_activities(self) -> int:
        return len(self._succ)

    @property
    def num_edges(self) -> int:
        """Deduplicated dependency pairs (the DAG's edge count)."""
        return sum(len(successors) for successors in self._succ.values())

    def effective_label(self, node: str) -> str:
        """The label the importer would give ``node`` right now."""
        return activity_label(self.doc, node)

    def label_counts(self) -> Counter:
        """Multiset of effective activity labels streamed so far.

        Maintained incrementally; the event methods return each change.
        (Raw labels — the derived specification may still rename
        duplicates ``base~N`` at import time.)
        """
        return Counter(self._label_counts)

    # -- assembly ----------------------------------------------------------
    def snapshot(self) -> NormalizedImport:
        """The accumulated events as a normalised run, right now.

        ``normalize_document`` over the accumulated document, cached
        until the next event: take one per batch of events, not one
        per event.
        """
        if self._snapshot_cache is None:
            self._snapshot_cache = normalize_document(
                self.doc, self.name, self.run_name
            )
        return self._snapshot_cache

    def finish(self) -> NormalizedImport:
        """The final snapshot (the ``run_close`` import)."""
        return self.snapshot()
