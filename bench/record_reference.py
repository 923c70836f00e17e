"""Record the reference outputs that the verify-12 and enumerate-16 checks
compare against, by running the program once per request.

Run it only at a commit whose outputs are trusted, from the repository root:

    python3 bench/record_reference.py

It rewrites bench/reference.json.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from program import OUT, call_cli, import_program
from workloads import (
    SEGMENT_COUNT,
    SEGMENTS,
    VERIFY_ORDERS,
    VERIFY_TARGETS,
    codes_digest,
    report_digest,
    verify_argv,
)

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def _count(argv: list[str]) -> int:
    call = call_cli(argv)
    if call.code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {call.code}: {call.stderr}")
    return int(call.stdout)


def main() -> None:
    import_program()
    verify: dict = {}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        report = Path(tmp) / "report.json"
        for target in VERIFY_TARGETS:
            for max_n in VERIFY_ORDERS:
                call = call_cli(verify_argv(target, max_n, report))
                if call.code not in (0, 1):
                    raise SystemExit(f"verify {target} --max-n {max_n} exited {call.code}: {call.stderr}")
                reports = json.loads(report.read_text())
                verify.setdefault(target, {})[str(max_n)] = {
                    "instances": len(reports),
                    "digest": report_digest(reports),
                }
    codes = call_cli(["enumerate", "--n", "15"]).stdout.split()
    enumerate_ = {
        "codes_15_digest": codes_digest(codes),
        "num_segments_count": _count(["enumerate", "--n", "16", "--num-segments", str(SEGMENT_COUNT), "--count-only"]),
        "segments_count": _count(["enumerate", "--n", "16", "--segments", SEGMENTS, "--count-only"]),
    }
    REFERENCE.write_text(json.dumps({"verify": verify, "enumerate": enumerate_}, indent=2) + "\n")


if __name__ == "__main__":
    main()
