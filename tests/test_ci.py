"""The CI workflow runs the tier-1 suite as it is run locally: it installs
every third-party module the tests import, and its test step is the tier-1
command.  The workflow is read as text and the imports with ``ast``, so
the check needs nothing outside the stdlib.  The package's sources also
parse as the oldest Python that ``pyproject.toml`` admits, and import
nothing but the stdlib and the package's own modules, as its empty
``dependencies`` and the README's "no runtime dependencies" say."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "segwiener"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
# the tier-1 command, as ROADMAP.md gives it
TIER1 = "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors"


def _absolute_imports(directory: Path) -> set[str]:
    """The top-level modules that the ``*.py`` files of *directory* import
    by absolute name."""
    roots = set()
    for path in sorted(directory.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots.add(node.module.split(".")[0])
    return roots


def _third_party_imports() -> set[str]:
    """The top-level modules that ``tests/*.py`` import by absolute name,
    less the stdlib and the package under test."""
    return _absolute_imports(ROOT / "tests") - set(sys.stdlib_module_names) - {"segwiener"}


def _runs() -> list[str]:
    """The command of every ``run:`` step of the workflow, one line each."""
    return re.findall(r"^\s*run: (.+?)\s*$", WORKFLOW.read_text(encoding="utf-8"), re.M)


def test_workflow_installs_every_test_import():
    installed = set()
    for run in _runs():
        words = run.split()
        if words[:4] == ["python", "-m", "pip", "install"]:
            names = (re.split(r"[=<>!~\[]", word)[0] for word in words[4:] if not word.startswith("-"))
            installed |= {name.lower().replace("-", "_") for name in names}
    imported = _third_party_imports()
    assert imported, "the tests import no third-party module: the scan found nothing"
    assert imported <= installed, sorted(imported - installed)


def test_workflow_runs_the_tier1_command():
    assert [run for run in _runs() if "pytest" in run and " pip " not in run] == [TIER1]


def test_package_parses_as_the_oldest_supported_python():
    # the grammar of the requires-python floor; names and library calls
    # added after it are not checked here, only the syntax
    floor = re.search(r'^requires-python = ">=3\.(\d+)"$', (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M)
    assert floor is not None, "pyproject.toml declares no requires-python floor"
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, int(floor.group(1))))


def test_package_imports_only_the_stdlib_and_itself():
    # its own modules are imported relatively; the tests' oracles and any
    # third-party module stay out
    imported = _absolute_imports(PACKAGE)
    assert {"itertools", "typing"} <= imported, "the scan found none of the package's stdlib imports"
    assert imported <= set(sys.stdlib_module_names) | {"segwiener"}, sorted(imported - set(sys.stdlib_module_names))
