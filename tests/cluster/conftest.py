"""Fixtures for the cluster suite: shared corpus and live clusters.

The corpus is the same seed-deterministic fixture the service suite
uses (``tests/service/_fixture.py``), built once per session.  Two
cluster shapes are offered: a module-scoped cluster for read-mostly
assertions, and a function-scoped one for tests that must start from
cold caches / zero counters (coalescing) or that kill workers
(restart supervision).  Workers persist derived state in the store's
``index/derived.db``, so the function-scoped cluster serves its own
copy of the corpus, without that database.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))
sys.path.insert(0, str(_HERE.parent / "service"))

from _fixture import build_corpus  # noqa: E402

from repro.config import ReproConfig  # noqa: E402


def _cluster_config() -> ReproConfig:
    return ReproConfig(backend="serial", log_format="off")


@pytest.fixture(scope="session")
def corpus_root(tmp_path_factory):
    """The fixture corpus (r01..r04 over spec PA), built once."""
    root = tmp_path_factory.mktemp("cluster-corpus")
    build_corpus(root)
    return root


@pytest.fixture(scope="module")
def cluster(corpus_root):
    """A long-lived two-worker cluster for read-mostly tests."""
    from repro.cluster.server import ClusterServer

    with ClusterServer(
        corpus_root, _cluster_config(), workers=2
    ) as live:
        yield live


@pytest.fixture
def fresh_corpus(corpus_root, tmp_path):
    """A private copy of the corpus with no derived state."""
    root = tmp_path / "corpus"
    shutil.copytree(
        corpus_root, root, ignore=shutil.ignore_patterns("index")
    )
    return root


@pytest.fixture
def fresh_cluster(fresh_corpus):
    """A per-test cluster: cold caches, zero counters, killable."""
    from repro.cluster.server import ClusterServer

    with ClusterServer(
        fresh_corpus, _cluster_config(), workers=2
    ) as live:
        yield live
