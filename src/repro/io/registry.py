"""Content-addressed registry of parsed specifications.

The paper builds the annotated specification tree ``T_G`` (Algorithm 1)
once per workflow and validates every run against it.  ``T_G`` is a pure
function of a specification's XML text, so one process never needs to
build it twice for the same text: :data:`SPEC_REGISTRY` maps the SHA-256
of a specification's XML to the parsed
:class:`~repro.workflow.specification.WorkflowSpecification` and its
:func:`~repro.corpus.fingerprint.spec_fingerprint` digest.  The store's
``load_specification`` and the embedded-plan import both resolve
specifications through it, so a flood of runs under a few plans parses
and annotates each plan once.

The contract:

* **keyed by content** — a key hashes the text, never a name, so an
  entry cannot go stale: a spec file rewritten by another process or
  cluster worker simply hashes to a different key;
* **one per process, bounded** — at most :data:`CAPACITY` entries; the
  least recently used goes first;
* **shared specifications** — every caller resolving the same text gets
  the same object, which is therefore never mutated;
* **failures are not cached** — text that does not parse raises on every
  attempt (a parse happens only on a miss, through
  :func:`repro.io.xml_io.specification_from_xml`).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import NamedTuple

from repro.io import xml_io
from repro.workflow.specification import WorkflowSpecification

#: Most specifications the registry holds; the least recently used go
#: first.
CAPACITY = 64


class SpecEntry(NamedTuple):
    """A parsed specification and its content fingerprint."""

    spec: WorkflowSpecification
    digest: str


class SpecRegistry:
    """Thread-safe, bounded map from specification text to its parse."""

    def __init__(self):
        self._entries: "OrderedDict[str, SpecEntry]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def resolve(self, text: str) -> SpecEntry:
        """The entry for specification XML ``text``, parsing on a miss.

        Raises :class:`~repro.errors.ReproError` when ``text`` is not a
        valid specification.
        """
        key = hashlib.sha256(text.encode("utf8")).hexdigest()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry
        # Imported here: repro.corpus imports this module (via the store).
        from repro.corpus.fingerprint import spec_fingerprint

        # Parse unlocked, so a slow parse never blocks other lookups.
        spec = xml_io.specification_from_xml(text)
        parsed = SpecEntry(spec, spec_fingerprint(spec))
        with self._lock:
            # Concurrent misses on one text: the first to land wins, so
            # every caller still shares one object.
            entry = self._entries.setdefault(key, parsed)
            self._entries.move_to_end(key)
            while len(self._entries) > CAPACITY:
                self._entries.popitem(last=False)
            return entry

    def specification(self, text: str) -> WorkflowSpecification:
        """The shared specification parsed from XML ``text``."""
        return self.resolve(text).spec


#: The process-wide registry.
SPEC_REGISTRY = SpecRegistry()
