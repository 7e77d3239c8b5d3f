"""Fixtures for the streaming suite.

Reuses the deterministic service-suite corpus (``tests/service/
_fixture.py``) for the analytics tests that need registered
specifications and stored runs; protocol-level tests build tiny empty
workspaces of their own.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(
    0, str(Path(__file__).resolve().parent.parent / "service")
)

from _fixture import SPEC_NAME, build_corpus, forget_sessions  # noqa: E402

from repro.config import ReproConfig  # noqa: E402
from repro.workspace import Workspace  # noqa: E402


@pytest.fixture(scope="module")
def corpus_root(tmp_path_factory):
    """A freshly built fixture corpus (one per test module)."""
    root = tmp_path_factory.mktemp("stream-corpus")
    build_corpus(root)
    return root


@pytest.fixture
def corpus_ws(corpus_root) -> Workspace:
    """A workspace over the fixture corpus (fresh client per test), with
    no stream session left by an earlier test."""
    forget_sessions(corpus_root)
    return Workspace(corpus_root, ReproConfig(backend="serial"))


@pytest.fixture
def empty_ws(tmp_path) -> Workspace:
    """An empty workspace (no specifications, no corpus)."""
    return Workspace(tmp_path, ReproConfig(backend="serial"))


@pytest.fixture
def spec_name() -> str:
    return SPEC_NAME
