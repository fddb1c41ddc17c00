"""The benchmark tracer's targets exist in the package.

``perfbench/tracer.py`` wraps package functions and methods by name; a
rename or deletion here would break the traced benchmark pass without
failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from qpnbuf import buffers

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


@pytest.mark.parametrize("spec", [
    buffers.BufferSpec(kind="siso", n=1, m=1),
    buffers.BufferSpec(kind="simo", n=1, m=1, k=2),
    buffers.BufferSpec(kind="miso", r=(1, 1), m=1),
    buffers.BufferSpec(kind="mimo", r=(1, 1), outputs=2, m=1),
    buffers.BufferSpec(kind="priority", r_low=1, r_high=1, m_low=1, m_high=1),
], ids=lambda spec: spec.kind)
def test_buffer_spec_calls_the_builder_by_its_module_name(monkeypatch, spec):
    # The tracer counts buffers.build.calls by rebinding these names.
    calls = []
    builder = getattr(buffers, f"build_{spec.kind}")
    monkeypatch.setattr(buffers, f"build_{spec.kind}",
                        lambda *args: calls.append(args) or builder(*args))
    spec.build()
    assert len(calls) == 1
