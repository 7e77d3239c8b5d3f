"""Deterministic shard assignment for the cluster router.

Shards are assigned by SHA-256 of the run name — **not** ``hash()``,
which is salted per process (PYTHONHASHSEED) and would scatter the
same run to different workers across parent restarts and across the
parent/worker boundary.  Every process that imports this module agrees
on the mapping, so the parent can route without consulting workers and
a restarted worker re-owns exactly its old shard.

Pairs shard by their *undirected* canonical form (sorted names), so
``/diff/a/b`` and ``/diff/b/a`` land on the same worker and share its
cache — the same canonicalisation the distance cache itself uses.
"""

import hashlib

__all__ = ["shard_for_name", "shard_for_pair", "pair_shard_key"]


def _stable_hash(text: str) -> int:
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def shard_for_name(name: str, count: int) -> int:
    """The shard index in ``[0, count)`` owning ``name``."""
    if count <= 0:
        raise ValueError(f"shard count must be positive: {count}")
    if count == 1:
        return 0
    return _stable_hash(name) % count


def pair_shard_key(name_a: str, name_b: str) -> str:
    """The canonical (undirected) routing key for a run pair."""
    first, second = sorted((name_a, name_b))
    return first + "\x00" + second


def shard_for_pair(name_a: str, name_b: str, count: int) -> int:
    """The shard index owning the undirected pair ``{a, b}``."""
    if count <= 0:
        raise ValueError(f"shard count must be positive: {count}")
    if count == 1:
        return 0
    return _stable_hash(pair_shard_key(name_a, name_b)) % count

