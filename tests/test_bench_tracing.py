"""The benchmark's traced layers must name functions that exist.

``bench/tracing.py`` looks every traced function up by name and only
prints "not traced" for one it cannot find, so after a rename that layer's
metrics would silently read 0.  The file is executed from its source text,
so the check writes nothing under ``bench/``.
"""

from __future__ import annotations

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing_module() -> types.ModuleType:
    module = types.ModuleType("tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_and_counted_function_resolves():
    tracing = _tracing_module()
    entries = [*tracing.TRACED, tracing.COUNTED]
    assert len(entries) > 20
    for label, modname, attr in entries:
        assert modname.startswith("segwiener."), label
        owner = importlib.import_module(modname)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        # the tracer rebinds plain functions and wraps Tree.from_edges as
        # a staticmethod, so check the attribute the way it reads it
        fn = vars(owner).get(name) if path else getattr(owner, name, None)
        assert fn is not None, f"{label}: {modname}.{attr} not found"
        assert callable(fn) or isinstance(fn, staticmethod), label
