from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from segwiener import cli
from segwiener.cli import main
from segwiener.io import format_edge_list, parse_edge_list
from segwiener.trees import canonical_code, segment_sequence

from .oracles import random_labeled_tree


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_starlike_edgelist(capsys):
    code, out, _ = run(capsys, "gen", "starlike", "--segments", "3,2,2")
    assert code == 0
    t = parse_edge_list(out)
    assert segment_sequence(t) == (3, 2, 2)


def test_gen_starlike_single_segment_is_the_path(capsys):
    code, out, _ = run(capsys, "gen", "starlike", "--segments", "4")
    assert code == 0 and out == "0 1\n1 2\n2 3\n3 4\n"


def test_gen_starlike_dot(capsys):
    code, out, _ = run(capsys, "gen", "starlike", "--segments", "1,1,1", "--format", "dot")
    assert code == 0 and out.startswith("graph tree {")


def test_gen_balanced_to_file(tmp_path, capsys):
    target = tmp_path / "tree.edges"
    code, out, _ = run(capsys, "gen", "balanced", "--n", "8", "--m", "3", "--out", str(target))
    assert code == 0 and out == ""
    assert segment_sequence(parse_edge_list(target.read_text())) == (3, 2, 2)


def test_gen_family_records_backbone_adjustment(capsys):
    code, out, _ = run(capsys, "gen", "family", "--n", "8", "--m", "5", "--which", "ii")
    assert code == 0
    assert out.startswith("#") and "t=5" in out.splitlines()[0]
    t = parse_edge_list(out)
    assert t.n == 8 and len(segment_sequence(t)) == 5


def test_gen_family_dot_records_backbone_adjustment(capsys):
    code, out, _ = run(capsys, "gen", "family", "--n", "8", "--m", "5", "--which", "ii", "--format", "dot")
    assert code == 0
    header, rest = out.split("\n", 1)
    assert header == "// family ii: published backbone formula gives t=6, order accounting gives t=5"
    assert rest.startswith("graph tree {")


def test_gen_unrealizable_is_usage_error(capsys):
    code, _, err = run(capsys, "gen", "starlike", "--segments", "2,2")
    assert code == 2 and "error" in err


def test_sw_value_and_profile(tmp_path, capsys):
    tree_file = tmp_path / "p4.edges"
    tree_file.write_text("0 1\n1 2\n2 3\n")
    code, out, _ = run(capsys, "sw", "--k", "2", "--in", str(tree_file))
    assert code == 0 and out.strip() == "10"
    code, out, _ = run(capsys, "sw", "--profile", "--in", str(tree_file))
    assert code == 0
    # SW_3(P4) = (n-2)/2 * W = 10
    assert [line.split() for line in out.strip().splitlines()] == [
        ["1", "0"],
        ["2", "10"],
        ["3", "10"],
        ["4", "3"],
    ]


def test_sw_requires_k_or_profile(tmp_path, capsys):
    tree_file = tmp_path / "p2.edges"
    tree_file.write_text("0 1\n")
    code, _, err = run(capsys, "sw", "--in", str(tree_file))
    assert code == 2 and "--k" in err


def test_sw_missing_file(capsys):
    code, _, err = run(capsys, "sw", "--k", "2", "--in", "/nonexistent/tree.edges")
    assert code == 2 and "error" in err


def test_enumerate_count_and_codes(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "7", "--count-only")
    assert code == 0 and out.strip() == "11"
    code, out, _ = run(capsys, "enumerate", "--n", "5")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 3
    assert all(set(line) <= {"(", ")"} for line in lines)


def test_enumerate_filters(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "6", "--segments", "1,1,1,1,1", "--count-only")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "enumerate", "--n", "6", "--num-segments", "3", "--count-only")
    assert code == 0 and out.strip() == "2"
    code, _, err = run(
        capsys, "enumerate", "--n", "6", "--segments", "1,1,1", "--num-segments", "3"
    )
    assert code == 2
    code, _, err = run(capsys, "enumerate", "--n", "7", "--segments", "1,1,1,1,1")
    assert code == 2 and "--n 6" in err
    code, out, err = run(capsys, "enumerate", "--n", "6", "--num-segments", "-3")
    assert code == 2 and out == "" and "-3" in err


@pytest.mark.parametrize("count_only", [[], ["--count-only"]], ids=["codes", "count-only"])
@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "17", "--segments", "16"], "error: order must be in 1..16"),
        (["--n", "7", "--segments", "3,3"], "error: no tree has exactly two segments"),
        (["--n", "4", "--segments", "3,0"], "error: segment lengths must be positive"),
        (["--n", "1", "--segments", ""], "error: segment sequence must be non-empty"),
        (["--n", "2", "--segments", ""], "enumerate: --segments sums to 0 edges, which needs --n 1"),
    ],
    ids=["order-17", "two-segments", "zero-part", "empty", "empty-at-order-2"],
)
def test_enumerate_segments_errors(capsys, argv, message, count_only):
    assert run(capsys, "enumerate", *argv, *count_only) == (2, "", message + "\n")


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    for n, code, out, err in (("5", 0, "3\n", ""), ("0", 2, "", "error: order must be in 1..16\n")):
        argv = [sys.executable, "-m", "segwiener", "enumerate", "--n", n, "--count-only"]
        result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert (result.returncode, result.stdout, result.stderr) == (code, out, err), n


def test_verify_writes_report_and_exits_zero(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "theorem1", "--max-n", "6", "--k", "2,3", "--report", str(report)
    )
    assert code == 0
    assert "0 violated" in out
    records = json.loads(report.read_text())
    assert records and all(rec["verdict"] == "confirmed" for rec in records)


def test_verify_lemma31(capsys):
    code, out, _ = run(capsys, "verify", "lemma31", "--samples", "30", "--seed", "42", "--k", "2,3")
    assert code == 0 and "lemma31" in out


def test_verify_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["theorem1", "--max-n", "-3"],
        ["theorem1", "--k", "0,-1"],
        ["theorem1", "--k", "99", "--max-n", "4"],
        ["lemma31", "--k", "0"],
    ],
)
def test_verify_that_checks_nothing_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert "error" in err


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["lemma31", "--samples", "3", "--seed", "1", "--k=0,2"], 0),
        (["theorem1", "--max-n", "4", "--k=-5,2"], -5),
    ],
)
def test_verify_k_below_one_is_usage_error(capsys, argv, bad):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert f"k={bad} is below 1" in err


def test_verify_k_list_not_integers_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "theorem1", "--k", "2,x"])
    assert exc.value.code == 2
    assert "expected a comma-separated integer list, got '2,x'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--samples", "0"], "need at least one sample"),
        (["--samples", "5", "--k", "99"], "no k in [99] fits any sampled tree"),
    ],
)
def test_verify_lemma31_that_checks_nothing_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, "verify", "lemma31", *argv)
    assert code == 2 and out == ""
    assert message in err


def test_verify_above_enumeration_cap_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "theorem1", "--max-n", "17")
    assert code == 2 and out == ""
    assert "max_n <= 16" in err


def test_verify_violation_exits_one(capsys, monkeypatch):
    import segwiener.verify as verify

    stub = verify.VerificationReport(
        theorem="theorem1",
        instance={"n": 4, "segments": [1, 1, 1], "k": 2},
        extremal_value=9,
        arg_trees=("(()()())",),
        predicate_outcomes=None,
        verdict=verify.VIOLATED,
        notes="stubbed for the exit-code contract",
    )
    monkeypatch.setattr(verify, "verify_min_starlike", lambda max_n, ks: [stub])
    code, out, _ = run(capsys, "verify", "theorem1", "--max-n", "4", "--k", "2")
    assert code == 1
    assert "VIOLATED" in out


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # main parses with one parser per process: through it, each call of a
    # sequence (an argparse error first, input errors, the default --k
    # twice) prints and exits as it does on a freshly built parser
    calls = [
        ["verify", "nonsense"],
        ["enumerate", "--n", "7", "--count-only"],
        ["verify", "theorem1", "--max-n", "17"],
        ["verify", "theorem1", "--max-n", "6"],
        ["verify", "theorem1", "--max-n", "6", "--k", "2,5"],
        ["verify", "theorem1", "--max-n", "6"],
        ["--help"],
    ]

    def outcomes():
        seen = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            seen.append((code, *capsys.readouterr()))
        return seen

    build, builds = cli.build_parser, []

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    shared = outcomes()
    assert len(builds) == 1
    monkeypatch.setattr(cli, "_parser", counted)
    assert outcomes() == shared
    assert len(builds) == 1 + len(calls)
    assert [code for code, _, _ in shared] == [2, 0, 2, 0, 0, 0, 0]
    assert shared[3][1] != shared[4][1] and shared[3] == shared[5]
    assert shared[-1][1] == build().format_help()


def test_optimize_trace(tmp_path, capsys):
    tree_file = tmp_path / "qc.edges"
    # order-8 caterpillar, not starlike: minimization has work to do
    tree_file.write_text("0 1\n1 2\n2 3\n3 4\n1 5\n3 6\n6 7\n")
    code, out, _ = run(
        capsys, "optimize", "--in", str(tree_file), "--k", "2", "--direction", "min", "--trace"
    )
    assert code == 0
    assert "# local optimum" in out
    result = parse_edge_list("\n".join(l for l in out.splitlines() if not l.startswith("#")))
    assert segment_sequence(result) == segment_sequence(parse_edge_list(tree_file.read_text()))
    assert canonical_code(result) != b""


def test_optimize_trace_golden(tmp_path, capsys):
    # sha256 over the stdout of `optimize --trace` on 168 seeded labelled
    # trees, one per order 12..32, k 2..5 and direction; recorded before the
    # climber ranked its moves by closed-form deltas
    digest = hashlib.sha256()
    rng = random.Random(1168)
    tree_file = tmp_path / "start.edges"
    for n in range(12, 33):
        for k in (2, 3, 4, 5):
            for direction in ("max", "min"):
                tree_file.write_text(format_edge_list(random_labeled_tree(n, rng)))
                code, out, _ = run(
                    capsys, "optimize", "--in", str(tree_file), "--k", str(k), "--direction", direction, "--trace"
                )
                assert code == 0
                digest.update(out.encode())
    assert digest.hexdigest() == "3f1110baf64d175672197aab4e075d39ef2e54e2fe5dc3d93292d64fe002e3b1"
