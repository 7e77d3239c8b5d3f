"""Persistent run-fingerprint index over a :class:`WorkflowStore`.

Fingerprinting a run requires parsing its XML and rebuilding the
annotated SP-tree — exactly the per-query cost the corpus service exists
to avoid.  :class:`FingerprintIndex` computes each run's fingerprint
once and persists it as one row of the ``fingerprints`` table of the
service's derived database (:mod:`repro.corpus.derived`), keyed by
specification and run name with the source file's size and mtime
recorded for invalidation: an overwritten run file is transparently
re-fingerprinted.  A warm read costs one ``stat`` of the run file
(:meth:`~repro.io.store.WorkflowStore.run_stamp`).  The stamp check
shares the usual limitation of (size, mtime)-based freshness: a
rewrite that keeps the byte length identical within one timestamp tick
of a coarse-resolution filesystem is indistinguishable from no change.
Writes that go through the service (``DiffService.add_run``)
re-fingerprint unconditionally and are immune.

Each entry also carries the run's leaf profile (for packing bounds) and
its node-label counts (for the streaming hub's online bounds), so warm
callers of either never parse the run's XML.

Each entry also records the *specification's own digest*: run
fingerprints embed it, so when a specification is re-registered with
different structure (same name, new content), entries minted under the
old spec no longer validate and are rebuilt rather than served — even
across processes.  The digest is that of the specification object the
caller resolved, never looked up by name, so nothing needs invalidating.

The whole table is loaded at open; :meth:`FingerprintIndex.flush`
writes only the rows that changed since (upserts, plus deletes for
forgotten entries), so processes sharing a store never overwrite each
other's entries.

The index also memoises loaded :class:`WorkflowRun` objects for the
lifetime of the service instance, so a batch query parses each run at
most once; a memoised run answers only a caller holding the very
specification object it was parsed against.

The entry table is guarded by a re-entrant lock (the service layer is
multi-threaded); the run memo deliberately stays lock-free — XML
parsing runs outside any lock and :meth:`FingerprintIndex.load_run`
publishes with plain dict operations, so a rare duplicate parse costs
time, never correctness.
"""

from __future__ import annotations

import json
import threading
from collections import Counter
from typing import Dict, Optional, Set, Tuple

from repro.core.bounds import (
    LeafProfile,
    decode_profile,
    encode_profile,
    leaf_profile,
)
from repro.corpus.derived import DerivedDB
from repro.corpus.fingerprint import run_fingerprint, spec_fingerprint
from repro.io.store import WorkflowStore
from repro.workflow.run import WorkflowRun
from repro.workflow.specification import WorkflowSpecification

#: ``(spec name, run name)``: the key of one index entry.
EntryKey = Tuple[str, str]


def _label_counts(run: WorkflowRun) -> Dict[str, int]:
    """How many of the run's nodes carry each module label."""
    return dict(Counter(run.graph.labels().values()))


class FingerprintIndex:
    """Content-addressed run index persisted in a derived database.

    ``db=None`` keeps the index in a private in-memory database.
    """

    def __init__(self, store: WorkflowStore, db: Optional[DerivedDB] = None):
        self.store = store
        self.db = db if db is not None else DerivedDB()
        #: (spec, run) -> {"spec": spec digest, "fingerprint", "profile",
        #: "labels", "size", "mtime_ns"}
        self._entries: Dict[EntryKey, dict] = {}
        self._runs: Dict[EntryKey, WorkflowRun] = {}
        #: Entries changed since the last flush (deleted when absent).
        self._dirty: Set[EntryKey] = set()
        # Guards the entry table and the dirty set.  The run memo stays
        # on bare dict ops (see load_run): parsing happens outside any
        # lock by design.
        self._lock = threading.RLock()
        for spec_name, run_name, text in self.db.rows(
            "SELECT spec, run, entry FROM fingerprints"
        ):
            try:
                entry = json.loads(text)
            except (TypeError, ValueError):
                continue
            if isinstance(entry, dict):
                self._entries[(spec_name, run_name)] = entry

    # -- persistence ----------------------------------------------------
    def flush(self) -> None:
        """Commit changed entries in one transaction (no-op when clean)."""
        with self._lock:
            if not self._dirty:
                return
            upserts = [
                (spec, run, json.dumps(self._entries[(spec, run)]))
                for spec, run in self._dirty
                if (spec, run) in self._entries
            ]
            deletes = [
                key for key in self._dirty if key not in self._entries
            ]
            if self.db.commit([
                (
                    "INSERT OR REPLACE INTO fingerprints (spec, run, entry) "
                    "VALUES (?, ?, ?)",
                    upserts,
                ),
                ("DELETE FROM fingerprints WHERE spec = ? AND run = ?",
                 deletes),
            ]):
                self._dirty.clear()

    # -- entries ---------------------------------------------------------
    def _entry(
        self, spec: WorkflowSpecification, run_name: str
    ) -> Optional[dict]:
        """The run's entry, unless minted under another version of the
        specification (run fingerprints embed the spec digest, so such
        an entry is stale)."""
        digest = spec_fingerprint(spec)
        with self._lock:
            entry = self._entries.get((spec.name, run_name))
            if entry is None or entry.get("spec") != digest:
                return None
            return entry

    # -- fingerprints ---------------------------------------------------
    def fingerprint(
        self, spec: WorkflowSpecification, run_name: str
    ) -> str:
        """The run's fingerprint, from the index when still valid.

        A valid entry answers without touching the run's XML beyond one
        ``stat``; otherwise the run is loaded, fingerprinted, and the
        index entry refreshed from a fresh parse.
        """
        stamp = self.store.run_stamp(spec.name, run_name)
        entry = self._entry(spec, run_name)
        if (
            entry is not None
            and stamp is not None
            and entry.get("size") == stamp[0]
            and entry.get("mtime_ns") == stamp[1]
            and isinstance(entry.get("fingerprint"), str)
        ):
            return entry["fingerprint"]
        # The file may have changed since any parse the memo holds.
        self._runs.pop((spec.name, run_name), None)
        return self.record(self.load_run(spec, run_name), as_name=run_name)

    def record(
        self, run: WorkflowRun, as_name: Optional[str] = None
    ) -> str:
        """Fingerprint ``run`` and upsert its index entry.

        ``as_name`` indexes the entry under the name the caller used to
        reach the run — which differs from ``run.name`` when the run was
        found through the store's literal-stem fallback.  Indexing under
        the lookup name keeps the stamp pointing at the file actually
        read, so fallback-reached runs cache like any other.
        """
        name = as_name or run.name
        spec_digest = spec_fingerprint(run.spec)
        digest = run_fingerprint(run, spec_digest)
        stamp = self.store.run_stamp(run.spec.name, name)
        # The leaf profile and label counts ride along for free: the
        # run is in hand, counting is linear, and persisting them lets
        # warm bound checks and stream opens skip the XML parse.
        entry = {
            "spec": spec_digest,
            "fingerprint": digest,
            "profile": encode_profile(leaf_profile(run.tree)),
            "labels": _label_counts(run),
        }
        if stamp is not None:
            entry["size"], entry["mtime_ns"] = stamp
        key = (run.spec.name, name)
        with self._lock:
            self._entries[key] = entry
            self._runs[key] = run
            self._dirty.add(key)
        return digest

    def profile(
        self, spec: WorkflowSpecification, run_name: str
    ) -> LeafProfile:
        """The run's leaf profile (Q-leaf label-pair counts).

        Served from the persisted index entry when it decodes;
        otherwise the run is loaded (through the memo) and the entry
        backfilled.  Freshness rides on :meth:`fingerprint`'s stamp
        validation: a stale entry is refreshed there first, and
        :meth:`record` always writes the profile alongside.
        """
        self.fingerprint(spec, run_name)
        entry = self._entry(spec, run_name)
        decoded = (
            decode_profile(entry.get("profile"))
            if entry is not None
            else None
        )
        if decoded is not None:
            return decoded
        run = self.load_run(spec, run_name)
        profile = leaf_profile(run.tree)
        with self._lock:
            entry = self._entry(spec, run_name)
            if entry is not None:
                entry["profile"] = encode_profile(profile)
                self._dirty.add((spec.name, run_name))
        return profile

    def label_counts(
        self, spec: WorkflowSpecification, run_name: str
    ) -> Dict[str, int]:
        """``{module label: node count}`` of the run (a fresh dict).

        Served from the persisted index entry, with :meth:`profile`'s
        freshness rule; an entry written before label counts were
        recorded is backfilled from the run (loaded through the memo).
        """
        self.fingerprint(spec, run_name)
        entry = self._entry(spec, run_name)
        labels = entry.get("labels") if entry is not None else None
        if isinstance(labels, dict):
            return dict(labels)
        counts = _label_counts(self.load_run(spec, run_name))
        with self._lock:
            entry = self._entry(spec, run_name)
            if entry is not None:
                entry["labels"] = dict(counts)
                self._dirty.add((spec.name, run_name))
        return counts

    def forget(self, spec_name: str, run_name: str) -> None:
        """Drop a run's index entry and memoised object (if any)."""
        key = (spec_name, run_name)
        with self._lock:
            if self._entries.pop(key, None) is not None:
                self._dirty.add(key)
            self._runs.pop(key, None)

    # -- run objects ----------------------------------------------------
    def load_run(
        self, spec: WorkflowSpecification, run_name: str
    ) -> WorkflowRun:
        """The run parsed against ``spec`` (each XML once per spec
        object), keyed by the lookup name.  No ``stat`` here:
        :meth:`fingerprint` checks freshness and drops a stale parse.
        Parsing runs outside any lock; the first published parse wins.
        """
        key = (spec.name, run_name)
        run = self._runs.get(key)
        if run is None or run.spec is not spec:
            loaded = self.store.load_run(spec, run_name)
            run = self._runs.get(key)
            if run is None or run.spec is not spec:
                run = self._runs[key] = loaded
        return run

    def cached_entry_count(self, spec_name: str) -> int:
        with self._lock:
            return sum(1 for key in self._entries if key[0] == spec_name)
