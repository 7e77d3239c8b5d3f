"""Shard assignment: deterministic, process-independent, undirected."""

import collections
import subprocess
import sys

import pytest

from repro.cluster.shard import (
    pair_shard_key,
    shard_for_name,
    shard_for_pair,
)
from repro.errors import ReproError  # noqa: F401 - parity import


class TestShardForName:
    def test_in_range(self):
        for count in (1, 2, 3, 7):
            for i in range(50):
                assert 0 <= shard_for_name(f"run-{i}", count) < count

    def test_single_shard_owns_everything(self):
        assert shard_for_name("anything", 1) == 0

    def test_deterministic(self):
        assert shard_for_name("r01", 4) == shard_for_name("r01", 4)

    def test_rejects_non_positive_counts(self):
        with pytest.raises(ValueError):
            shard_for_name("r01", 0)
        with pytest.raises(ValueError):
            shard_for_name("r01", -2)

    def test_stable_across_interpreter_processes(self):
        """The mapping must not depend on PYTHONHASHSEED — a parent
        and its spawned workers have different seeds and must agree."""
        code = (
            "import sys; sys.path.insert(0, 'src'); "
            "from repro.cluster.shard import shard_for_name; "
            "print([shard_for_name(f'r{i:02d}', 3) for i in range(8)])"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                check=True,
                cwd=_repo_root(),
                env=_hash_seed_env(seed),
            ).stdout.strip()
            for seed in ("0", "12345")
        }
        assert len(outputs) == 1
        local = str([shard_for_name(f"r{i:02d}", 3) for i in range(8)])
        assert outputs == {local}

    def test_spreads_across_shards(self):
        owners = collections.Counter(
            shard_for_name(f"run-{i}", 4) for i in range(64)
        )
        assert sum(owners.values()) == 64
        assert set(owners) == {0, 1, 2, 3}


class TestShardForPair:
    def test_undirected(self):
        assert shard_for_pair("a", "b", 5) == shard_for_pair("b", "a", 5)

    def test_key_is_canonical(self):
        assert pair_shard_key("b", "a") == pair_shard_key("a", "b")
        assert pair_shard_key("a", "b") == "a\x00b"

    def test_in_range(self):
        for count in (1, 2, 4):
            for i in range(20):
                assert (
                    0
                    <= shard_for_pair(f"r{i}", f"r{i + 1}", count)
                    < count
                )

    def test_rejects_non_positive_counts(self):
        with pytest.raises(ValueError):
            shard_for_pair("a", "b", 0)


def _repo_root():
    import pathlib

    return str(pathlib.Path(__file__).resolve().parents[2])


def _hash_seed_env(seed: str):
    import os

    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    return env
