"""The benchmark tracer's targets exist in the package.

``perfbench/tracer.py`` wraps package functions and methods by name; a
rename or deletion here would break the traced benchmark pass without
failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _tracer()
    for mod, attr, _ in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"qpnbuf.{mod}"), attr, None)), (mod, attr)
    for mod, cls, method, _ in tracer.METHODS:
        owner = getattr(importlib.import_module(f"qpnbuf.{mod}"), cls, None)
        assert callable(getattr(owner, method, None)), (mod, cls, method)
