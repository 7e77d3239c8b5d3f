"""Persistent edit-script cache: the corpus layer's second cache tier.

The distance cache (:class:`~repro.corpus.cache.DistanceCache`) lets a
warm corpus answer *how far apart* two runs are without repaying the
O(|E|³) DP — but inspecting *what changed* (the edit script itself)
would recompute the whole diff every time.  :class:`ScriptCache`
persists serialised edit scripts in the ``scripts`` table of the
service's derived database (:mod:`repro.corpus.derived`), keyed by the
**directed** ``fingerprint>fingerprint|cost_key`` strings from
:func:`repro.corpus.fingerprint.script_key`: scripts transform run A into
run B, so unlike distances they are not symmetric.

A cached value is one :data:`~repro.core.edit_script.SCRIPT_SCHEMA_VERSION`
record, stored as JSON text::

    {"v": 1, "distance": <float>, "ops": [<PathOperation.to_dict()>, ...]}

Records with an unknown version or malformed shape are treated as misses
and recomputed — everything here is derived data.  :class:`ScriptRecord`
is the decoded in-memory form handed to callers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.edit_script import (
    SCRIPT_SCHEMA_VERSION,
    PathOperation,
    operations_from_payload,
    operations_to_payload,
)
from repro.corpus.cache import TwoTierCache
from repro.errors import EditScriptError

@dataclass
class ScriptRecord:
    """One cached edit script: the distance plus its operations.

    The operation sequence is the minimum-cost script in order; its
    total cost equals ``distance`` (Lemma 5.1).
    """

    distance: float
    operations: List[PathOperation]

    @property
    def op_count(self) -> int:
        return len(self.operations)

    def summary(self) -> str:
        kinds: Dict[str, int] = {}
        for op in self.operations:
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
        breakdown = ", ".join(
            f"{count} {kind}" for kind, count in sorted(kinds.items())
        )
        return (
            f"distance {self.distance:g}"
            + (f" [{breakdown}]" if breakdown else " [empty script]")
        )


def encode_script(distance: float, operations) -> dict:
    """The JSON-safe cache record for one computed edit script."""
    return {
        "v": SCRIPT_SCHEMA_VERSION,
        "distance": float(distance),
        "ops": operations_to_payload(operations),
    }


def decode_script(raw: Any) -> Optional[ScriptRecord]:
    """Rebuild a :class:`ScriptRecord`, or ``None`` if ``raw`` is invalid."""
    if not _valid_record(raw):
        return None
    try:
        operations = operations_from_payload(raw["ops"])
    except EditScriptError:
        return None
    return ScriptRecord(
        distance=float(raw["distance"]), operations=operations
    )


def _valid_record(raw: Any) -> bool:
    """Cheap structural check (full decoding happens lazily on use)."""
    return (
        isinstance(raw, dict)
        and raw.get("v") == SCRIPT_SCHEMA_VERSION
        and isinstance(raw.get("distance"), (int, float))
        and not isinstance(raw.get("distance"), bool)
        and isinstance(raw.get("ops"), list)
        and all(isinstance(op, dict) for op in raw["ops"])
    )


class ScriptCache(TwoTierCache):
    """Two-tier cache of encoded script records (see module docstring).

    Values are the raw record dicts; callers decode through
    :func:`decode_script` (the service does this) so cache internals
    never leak mutable state into :class:`PathOperation` objects.
    """

    table = "scripts"

    def _decode(self, raw: Any) -> Optional[dict]:
        try:
            record = json.loads(raw)
        except (TypeError, ValueError):
            return None
        return record if _valid_record(record) else None

    def _column(self, value: dict) -> str:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))

    def _encode(self, value: Any) -> dict:
        if not _valid_record(value):
            raise EditScriptError(
                "script cache values must be encode_script() records"
            )
        return value
