"""The repository benchmark's span targets still exist where it looks.

``perfbench/harness/spans.install()`` wraps every ``TARGETS`` entry by
resolving ``owner.__dict__[name]`` on each traced run, so renaming one
of those functions — or moving a method onto a base class — crashes
the traced benchmark.  These tests resolve every target the same way,
reading ``perfbench/`` without editing it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[2] / "perfbench" / "harness" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "module_name", spans._PRELOAD, ids=lambda name: name
)
def test_preloaded_module_imports(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize(
    "name, module_name, path",
    spans.TARGETS,
    ids=[f"{module}:{path}" for _, module, path in spans.TARGETS],
)
def test_target_resolves_in_its_owner(name, module_name, path):
    for preload in spans._PRELOAD:
        importlib.import_module(preload)
    # KeyError when the name is gone or only inherited from a base.
    _, _, value = spans.resolve(module_name, path)
    assert callable(value), f"{module_name}:{path} is not callable"
