"""Every definition in the package has a caller or is public.

Each module of ``src/segwiener`` is parsed with ``ast``.  A module-level
function or class, or a method, passes when its name is used somewhere in
the package outside its own definition (a name, an attribute or an
import), when it is in ``segwiener.__all__``, or when ``bench/tracing.py``
binds it by name (``TRACED`` and ``COUNTED``).  Dunder methods are called
by Python itself and are not checked.

The check matches names, not bindings: a definition whose name is also
the name of something else in the package (a dataclass field, a local, an
attribute of another class) passes whether or not anything calls it.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import segwiener

from .test_bench_tracing import _tracing_module

PACKAGE = Path(segwiener.__file__).resolve().parent


def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """The module-level functions and classes, and the methods, each with
    its qualified name (``Class.method`` for a method)."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out.append((f"{node.name}.{item.name}", item))
    return out


def _names_used(node: ast.AST) -> Counter:
    """How often each name, attribute and imported name occurs under
    *node*."""
    used: Counter = Counter()
    for x in ast.walk(node):
        if isinstance(x, ast.Name):
            used[x.id] += 1
        elif isinstance(x, ast.Attribute):
            used[x.attr] += 1
        elif isinstance(x, ast.alias):
            used[x.name] += 1
    return used


def uncalled_definitions(package: Path, bound: set[tuple[str, str]]) -> list[str]:
    """The definitions in *package* that nothing else in it names, that are
    not in ``segwiener.__all__`` and that are not in *bound*, a set of
    (module, qualified name) pairs; each as ``module.qualified_name``."""
    modules = {f"segwiener.{p.stem}": ast.parse(p.read_text(), str(p)) for p in sorted(package.glob("*.py"))}
    used = sum((_names_used(tree) for tree in modules.values()), Counter())
    public = set(segwiener.__all__)
    flagged = []
    for modname, tree in modules.items():
        for qualname, node in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in public or (modname, qualname) in bound:
                continue
            # a use inside its own definition (a recursive call) does not count
            if used[name] > _names_used(node)[name]:
                continue
            flagged.append(f"{modname}.{qualname}")
    return flagged


def test_every_definition_has_a_caller_or_is_public():
    tracing = _tracing_module()
    bound = {(modname, attr) for _, modname, attr in (*tracing.TRACED, tracing.COUNTED)}
    flagged = uncalled_definitions(PACKAGE, bound)
    assert not flagged, flagged
