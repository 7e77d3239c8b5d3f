"""The repository benchmark's span targets still exist where it looks.

``perfbench/harness/spans.install()`` wraps every ``TARGETS`` entry by
resolving ``owner.__dict__[name]`` on each traced run, and the traced
serve launcher wraps every ``REQUEST_HANDLERS`` entry the same way, so
renaming one of those functions — or moving a method onto a base
class — crashes the traced benchmark.  These tests resolve every
target the same way, reading ``perfbench/`` without editing it.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parents[2] / "perfbench" / "harness"
SPANS = HARNESS / "spans.py"


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


def _request_handlers():
    """``launcher.REQUEST_HANDLERS``, read without importing it."""
    tree = ast.parse((HARNESS / "launcher.py").read_text("utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "REQUEST_HANDLERS"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("launcher.py defines no REQUEST_HANDLERS")


REQUEST_HANDLERS = _request_handlers()


@pytest.mark.parametrize(
    "module_name, path",
    REQUEST_HANDLERS,
    ids=[f"{module}:{path}" for module, path in REQUEST_HANDLERS],
)
def test_request_handler_resolves_in_its_owner(module_name, path):
    # KeyError when ``handle`` is only inherited from a base class.
    _, _, value = spans.resolve(module_name, path)
    assert callable(value), f"{module_name}:{path} is not callable"


def test_request_handlers_never_nest():
    """No handler's class inherits another's: a request through one
    would reach the other wrapped ``handle`` and count twice."""
    owners = [
        spans.resolve(module_name, path)[0]
        for module_name, path in REQUEST_HANDLERS
    ]
    assert len(owners) >= 2
    for owner in owners:
        for other in owners:
            assert owner is other or not issubclass(owner, other)
