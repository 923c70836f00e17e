"""The benchmark's view of the program: import it from the checkout's own
source tree, call its CLI in-process, and describe the environment.

Requests go through ``segwiener.cli.main`` in this process, one after
another, with stdout and stderr captured.  A subprocess per request would
fold the interpreter start and the package import into every request;
``setup_s`` reports those separately.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import platform
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "segwiener"
OUT = Path(__file__).resolve().parent / "out"  # results, span files, request files


class ProgramMissing(RuntimeError):
    """The checkout holds no segwiener source tree to benchmark."""


def import_program():
    """Import ``segwiener`` from ``<checkout>/src`` and nowhere else."""
    if not (PACKAGE / "__init__.py").is_file():
        raise ProgramMissing(f"no segwiener package under {SRC}")
    sys.path.insert(0, str(SRC))
    module = importlib.import_module("segwiener")
    importlib.import_module("segwiener.cli")
    if Path(module.__file__).resolve().parent != PACKAGE.resolve():
        raise ProgramMissing(f"segwiener was imported from {module.__file__}, not from {PACKAGE}")
    return module


@dataclass(frozen=True)
class CliCall:
    code: int | None  # exit code; None when cli.main raised
    stdout: str
    stderr: str
    seconds: float


def call_cli(argv: list[str], clock: Callable[[], float] = time.perf_counter) -> CliCall:
    """Run one ``segwiener`` command line in-process and time it by *clock*.

    ``cli.main`` is looked up at call time, so a traced run sees the
    wrapped entry point.
    """
    cli = sys.modules["segwiener.cli"]
    out, err = StringIO(), StringIO()
    code: int | None
    start = clock()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a request that raised is a failed request
        code = None
        err.write(f"{type(exc).__name__}: {exc}\n")
    seconds = clock() - start
    return CliCall(code, out.getvalue(), err.getvalue(), seconds)


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """sha256 over the package's .py files, so a result names its code even
    where no commit is known."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment() -> dict:
    try:
        networkx = importlib.import_module("networkx").__version__
    except ImportError:
        networkx = "absent"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "networkx": networkx,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "platform": platform.platform(),
    }
