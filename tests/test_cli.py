from __future__ import annotations

import json

import pytest

from segwiener.cli import main
from segwiener.io import parse_edge_list
from segwiener.trees import canonical_code, segment_sequence


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
