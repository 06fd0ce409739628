"""The benchmark's span tracer wraps solver functions by (module, attribute).

A refactor that renames or moves one of them breaks `perfbench/run.py
--trace 1` with TracerError; this test makes the same rename fail here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _entry_points(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)  # imports the standard library only
    return tracer.ENTRY_POINTS


def test_traced_entry_points_resolve(monkeypatch):
    entry_points = _entry_points(monkeypatch)
    assert entry_points
    for module, attribute, _layer, _counter in entry_points:
        target = getattr(importlib.import_module(module), attribute, None)
        assert callable(target), f"{module}.{attribute} is not a callable"
