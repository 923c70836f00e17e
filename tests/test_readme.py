"""The public surface: the README's library quickstart runs as written and
does what its comments say, ``from segwiener import *`` binds every
exported name, and the README documents every exported name."""

from __future__ import annotations

import re
from pathlib import Path

import segwiener
from segwiener import canonical_code, starlike

README = Path(__file__).resolve().parent.parent / "README.md"


def _quickstart() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "the quickstart section has no python block"
    return match.group(1)


def _quickstart_imports() -> set[str]:
    imported = re.search(r"from segwiener import \((.*?)\)", _quickstart(), re.S)
    assert imported, "the quickstart imports nothing from segwiener"
    return {name.strip() for name in imported.group(1).split(",") if name.strip()}


def test_library_quickstart_runs():
    namespace: dict = {}
    exec(compile(_quickstart(), f"{README.name} quickstart", "exec"), namespace)
    t = namespace["t"]
    assert namespace["segment_sequence"](t) == (3, 2, 2)
    assert len(namespace["sw_profile"](t)) == t.n
    assert canonical_code(namespace["best"]) == canonical_code(starlike((2, 2, 1, 1, 1)))


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from segwiener import *", namespace)
    assert segwiener.__all__ == sorted(segwiener.__all__)
    assert set(namespace) - {"__builtins__"} == set(segwiener.__all__)
    assert _quickstart_imports() <= set(segwiener.__all__)


def test_every_exported_name_is_documented():
    # an exported name counts as documented when it is imported in the
    # quickstart or starts an inline code span of its own, as `name`,
    # `name(...)` or `segwiener.name`; a word in prose or inside another
    # name's signature does not count
    text = README.read_text(encoding="utf-8")
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    spans = re.findall(r"`([^`\n]+)`", prose)
    documented = _quickstart_imports()
    documented |= {m.group(1) for span in spans if (m := re.match(r"(?:segwiener\.)?(\w+)(?:\(|$)", span))}
    missing = [name for name in segwiener.__all__ if name not in documented]
    assert not missing, missing
