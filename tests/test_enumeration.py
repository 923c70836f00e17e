from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from segwiener.cli import main
from segwiener.enumeration import (
    MAX_ORDER,
    _level_code,
    _level_sequences,
    _read_levels,
    _tree_from_levels,
    all_trees,
    count_trees,
    segment_sequences_of_order,
    trees_with_segment_count,
    trees_with_segment_sequence,
)
from segwiener.generators import UnrealizableError
from segwiener.trees import Tree, canonical_code, is_starlike, segment_sequence

from .conftest import path_tree
from .oracles import (
    ahu_code_by_recursion,
    automorphism_count,
    edge_side_sizes,
    free_trees_by_prufer,
    segment_decomposition,
)

# number of free trees per order (verified against the Prüfer dedup oracle)
FREE_TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}

# sha256 of `segwiener enumerate --n 12` stdout: pins the enumeration order,
# which the order-free code-set checks below do not
ENUMERATE_12_SHA256 = "0d4c08c3da03f5c3a3d60ac996db64278e08451510e23644be00a5b5a63cbf79"


class TestAllTrees:
    def test_counts(self):
        for n, expected in FREE_TREE_COUNTS.items():
            assert sum(1 for _ in all_trees(n)) == expected

    def test_order_four_classes(self):
        from segwiener.generators import starlike

        codes = {canonical_code(t) for t in all_trees(4)}
        assert codes == {canonical_code(path_tree(4)), canonical_code(starlike((1, 1, 1)))}

    def test_no_duplicates_up_to_nine(self):
        for n in range(1, 10):
            codes = [canonical_code(t) for t in all_trees(n)]
            assert len(codes) == len(set(codes))

    def test_deterministic_streams(self):
        first = [tuple(t.edges()) for t in all_trees(9)]
        second = [tuple(t.edges()) for t in all_trees(9)]
        assert first == second

    def test_guard(self):
        with pytest.raises(ValueError):
            list(all_trees(0))
        with pytest.raises(ValueError):
            list(all_trees(MAX_ORDER + 1))

    def test_every_tree_passes_edge_list_validation(self):
        # the generator builds Trees without from_edges; its checks must agree
        for n in range(1, 15):
            for t in all_trees(n):
                assert t == Tree.from_edges(list(t.edges()), n=n)

    def test_enumeration_order_is_pinned(self, capsys):
        assert main(["enumerate", "--n", "12"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == ENUMERATE_12_SHA256

    def test_cayley_orbit_stabilizer(self):
        # each class T stands for n!/|Aut T| labeled trees; Cayley counts n^(n-2)
        for n in range(2, MAX_ORDER + 1):
            labeled = sum(Fraction(factorial(n), automorphism_count(t)) for t in all_trees(n))
            assert labeled == n ** (n - 2), n

    def test_matches_prufer_oracle_class_sets_small(self):
        for n in range(1, 8):
            count, reps = free_trees_by_prufer(n)
            stream_codes = {canonical_code(t) for t in all_trees(n)}
            assert len(stream_codes) == count
            assert {canonical_code(t) for t in reps} == stream_codes


class TestSequenceFilter:
    def test_star_class_is_singleton(self):
        ts = list(trees_with_segment_sequence((1, 1, 1)))
        assert len(ts) == 1 and is_starlike(ts[0])

    def test_spider_class_is_singleton(self):
        assert sum(1 for _ in trees_with_segment_sequence((2, 1, 1))) == 1

    def test_five_unit_segments_class(self):
        ts = list(trees_with_segment_sequence((1, 1, 1, 1, 1)))
        assert len(ts) == 2
        assert sorted(is_starlike(t) for t in ts) == [False, True]

    def test_two_segments_unrealizable(self):
        with pytest.raises(UnrealizableError):
            list(trees_with_segment_sequence((1, 1)))

    def test_filter_members_have_the_sequence(self):
        for t in trees_with_segment_sequence((3, 2, 1, 1, 1)):
            assert segment_sequence(t) == (3, 2, 1, 1, 1)


class TestCountFilter:
    def test_one_segment_is_the_path(self):
        ts = list(trees_with_segment_count(5, 1))
        assert len(ts) == 1
        assert canonical_code(ts[0]) == canonical_code(path_tree(5))

    def test_two_segments_empty(self):
        assert list(trees_with_segment_count(5, 2)) == []

    def test_three_segments_order_six(self):
        ts = list(trees_with_segment_count(6, 3))
        assert len(ts) == 2
        assert {segment_sequence(t) for t in ts} == {(3, 1, 1), (2, 2, 1)}


class TestLevelReader:
    def test_matches_the_built_tree(self):
        # the reader against two routes that do not share it, on every tree
        # of order 2..16: the subtree-size oracle (side sizes compared as
        # multisets) and the segment walks of `segment_decomposition`
        assert _read_levels([0]) == ([], ())
        for n in range(2, MAX_ORDER + 1):
            for level in _level_sequences(n):
                sides, segments = _read_levels(level)
                t = _tree_from_levels(level)
                walked = sorted((s.length for s in segment_decomposition(t)), reverse=True)
                assert segments == tuple(walked), level
                assert sorted(sides) == sorted(edge_side_sizes(t)), level

    def test_level_code_matches_canonical_code(self):
        # the coder over a level sequence's preorder parents against the
        # built tree's code, on every tree of order 1..16, and against the
        # recursive oracle up to order 12
        for n in range(1, MAX_ORDER + 1):
            for level in _level_sequences(n):
                t = _tree_from_levels(level)
                code = _level_code(level)
                assert code == canonical_code(t), level
                if n <= 12:
                    assert code == ahu_code_by_recursion(t), level

    def test_level_code_edge_cases(self):
        assert _level_code([0]) == b"()"
        assert _level_code([0, 1]) == b"(())"
        # the path rooted at its centre; for even n the first subtree is the
        # longer side and vertex 1 the other centre
        for n in range(1, MAX_ORDER + 1):
            level = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
            assert _level_code(level) == canonical_code(path_tree(n)) == ahu_code_by_recursion(path_tree(n))

    def test_filters_match_filtering_all_trees(self):
        for n in range(1, 13):
            trees = list(all_trees(n))
            segments = [segment_sequence(t) if n > 1 else () for t in trees]
            for seq in segment_sequences_of_order(n):
                expected = [t for t, s in zip(trees, segments) if s == seq]
                assert list(trees_with_segment_sequence(seq)) == expected, seq
                assert count_trees(n, seq) == len(expected), seq
            for m in range(n + 1):
                expected = [t for t, s in zip(trees, segments) if len(s) == m]
                assert list(trees_with_segment_count(n, m)) == expected, (n, m)
                assert count_trees(n, num_segments=m) == len(expected), (n, m)
            assert count_trees(n) == len(trees)


class TestBuildsOnlyWhatIsLookedAt:
    @pytest.mark.parametrize(
        "extra",
        [[], ["--num-segments", "5"], ["--segments", "3,2,2,1,1,1,1"]],
        ids=["all", "num-segments", "segments"],
    )
    def test_count_only_builds_no_tree(self, capsys, tree_builds, extra):
        assert main(["enumerate", "--n", "12", "--count-only", *extra]) == 0
        assert int(capsys.readouterr().out) > 0
        assert tree_builds[0] == 0

    @pytest.mark.parametrize(
        "extra",
        [[], ["--num-segments", "5"], ["--segments", "3,2,2,1,1,1,1"]],
        ids=["all", "num-segments", "segments"],
    )
    def test_codes_build_no_tree(self, capsys, tree_builds, extra):
        assert main(["enumerate", "--n", "12", *extra]) == 0
        codes = capsys.readouterr().out.split()
        assert codes and len(set(codes)) == len(codes)
        assert tree_builds[0] == 0

    def test_filters_build_what_they_yield(self, tree_builds):
        yielded = sum(1 for _ in trees_with_segment_sequence((3, 2, 2, 1, 1, 1, 1)))
        assert yielded > 0 and tree_builds[0] == yielded
        tree_builds[0] = 0
        yielded = sum(1 for _ in trees_with_segment_count(12, 5))
        assert yielded > 0 and tree_builds[0] == yielded

    def test_count_trees_guards_and_errors(self):
        with pytest.raises(ValueError):
            count_trees(MAX_ORDER + 1)
        with pytest.raises(UnrealizableError):
            count_trees(3, (1, 1))
        with pytest.raises(ValueError):
            count_trees(5, (1, 1, 1))
        with pytest.raises(ValueError, match="-3"):
            count_trees(6, num_segments=-3)
        assert count_trees(1) == count_trees(1, num_segments=0) == 1
        assert count_trees(1, num_segments=1) == 0


class TestSequenceUniverse:
    def test_partition_property(self):
        # classes with a fixed order partition that order's tree count
        for n in range(2, 10):
            per_class = {seq: 0 for seq in segment_sequences_of_order(n)}
            total = 0
            for t in all_trees(n):
                per_class[segment_sequence(t)] += 1
                total += 1
            assert sum(per_class.values()) == total == FREE_TREE_COUNTS[n]
            assert all(c >= 1 for c in per_class.values())

    def test_sequences_are_realizable_partitions(self):
        for seq in segment_sequences_of_order(9):
            assert sum(seq) == 8
            assert len(seq) == 1 or len(seq) >= 3
            assert list(seq) == sorted(seq, reverse=True)


def test_cli_import_does_not_load_networkx():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import segwiener.cli, sys; assert 'networkx' not in sys.modules"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
