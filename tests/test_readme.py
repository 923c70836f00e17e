"""The public surface: the README's library quickstart runs as written and
does what its comments say, and ``from segwiener import *`` binds every
exported name."""

from __future__ import annotations

import re
from pathlib import Path

import segwiener
from segwiener import is_isomorphic, starlike

README = Path(__file__).resolve().parent.parent / "README.md"


def _quickstart() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "the quickstart section has no python block"
    return match.group(1)


def test_library_quickstart_runs():
    namespace: dict = {}
    exec(compile(_quickstart(), f"{README.name} quickstart", "exec"), namespace)
    t = namespace["t"]
    assert namespace["segment_sequence"](t) == (3, 2, 2)
    assert len(namespace["sw_profile"](t)) == t.n
    assert is_isomorphic(namespace["best"], starlike((2, 2, 1, 1, 1)))


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from segwiener import *", namespace)
    assert segwiener.__all__ == sorted(segwiener.__all__)
    assert set(namespace) - {"__builtins__"} == set(segwiener.__all__)
    imported = re.search(r"from segwiener import \((.*?)\)", _quickstart(), re.S)
    assert imported
    assert {name.strip() for name in imported.group(1).split(",") if name.strip()} <= set(segwiener.__all__)
