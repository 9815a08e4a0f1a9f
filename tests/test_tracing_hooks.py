"""The traced benchmark finds every program function it wraps.

``perfbench/tracing.py`` replaces functions by module and attribute name;
one name that a module stops binding makes every traced run fail.
"""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _wrapped():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._WRAPPED


def test_every_wrapped_attribute_resolves():
    missing = [f"{module}.{attr}" for module, attr, _, _ in _wrapped()
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing
