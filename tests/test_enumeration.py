from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from segwiener import enumeration
from segwiener.cli import main
from segwiener.enumeration import (
    MAX_ORDER,
    _facts,
    _level_code,
    _levels,
    _listing,
    _parens,
    _parents,
    _partitions,
    _read_branch,
    _recentre,
    _SHIFT,
    _skeletons,
    _stream,
    _tree_from_levels,
    _tree_reads,
    all_trees,
    count_trees,
    trees_with_segment_count,
    trees_with_segment_sequence,
)
from segwiener.generators import UnrealizableError
from segwiener.steiner import _packed
from segwiener.trees import Tree, _centers, _codes, canonical_code, is_starlike, segment_sequence

from .conftest import double_broom, path_tree
from .oracles import (
    ahu_code_by_recursion,
    automorphism_count,
    automorphisms_of_levels,
    edge_side_sizes,
    free_trees_by_prufer,
    labelled_trees_with_segment_count,
    level_sequences,
    rooted_level_sequence,
    read_levels,
    read_trees,
    segment_count,
    segment_decomposition,
    segment_sequences_of_order,
    skeletons_by_filter,
    wrom_stream,
)

# number of free trees per order (verified against the Prüfer dedup oracle)
FREE_TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}
# OEIS A000055 for the orders above 10 that the stream reaches
A000055_ABOVE_10 = {11: 235, 12: 551, 13: 1301, 14: 3159, 15: 7741, 16: 19320}

# OEIS A000014: trees of order 1..20 with no vertex of degree 2
A000014 = (1, 1, 0, 1, 1, 2, 2, 4, 5, 10, 14, 26, 42, 78, 132, 249, 445, 842, 1561, 2988)

# sha256 of `segwiener enumerate --n 12` stdout: pins the enumeration order,
# which the order-free code-set checks below do not
ENUMERATE_12_SHA256 = "0d4c08c3da03f5c3a3d60ac996db64278e08451510e23644be00a5b5a63cbf79"
# and of `segwiener enumerate --n 16`, the top order: the n = 12 digest
# covers none of the rootings of orders 13 to 16
ENUMERATE_16_SHA256 = "2d6f3e43802c84a847f19c362295984bf95598a4b990a5c89a3489937e0e4374"


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

    def test_top_order_listing_is_pinned(self, capsys):
        assert main(["enumerate", "--n", "16"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == ENUMERATE_16_SHA256

    def test_stream_is_strictly_decreasing(self):
        # the order `enumerate` prints in: a route that yields the same
        # sequences reproduces it by sorting them in descending order
        for n in range(1, MAX_ORDER + 1):
            previous = None
            for level in level_sequences(n):
                assert previous is None or level < previous, (previous, level)
                previous = level

    def test_stream_is_the_wrom_successor(self):
        # the composed stream against the free-tree successor it replaced,
        # triple for triple at every order up to the guard
        for n in range(1, MAX_ORDER + 1):
            composed = _stream(n)
            for level, m, centres in wrom_stream(n):
                assert next(composed) == (bytes(level), m, centres), (n, level)
            assert next(composed, None) is None, n

    def test_stream_composes_one_batch_at_a_time(self):
        # the first tree of the top order comes before most of the order is
        # composed: pulling it peaks well below holding every sequence
        def peak(pull):
            tracemalloc.start()
            try:
                pull()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        first = peak(lambda: next(_stream(MAX_ORDER)))
        whole = peak(lambda: list(_stream(MAX_ORDER)))
        assert first < whole / 4, (first, whole)

    def test_stream_facts_match_independent_routes(self, monkeypatch):
        # the second-child index and centre count the stream hands the coder:
        # up to order 13 against the list's own search and the built tree's
        # centres (the root and, for two, vertex 1); above it, the bicentral
        # flag against the deepest level's absence after the first subtree.
        # The same for the facts `_levels` gives with every segment class and
        # count of order up to 12, and every count of order 17 past the guard
        def check(n, rooted):
            for level, m, centres in rooted:
                assert m == (level.index(1, 2) if 1 in level[2:] else n), level
                if n <= 13:
                    assert _centers(_tree_from_levels(level)) == [0, 1][:centres], level
                else:
                    assert (centres == 2) == (max(level) not in level[m:]), level

        for n in range(1, MAX_ORDER + 1):
            check(n, _stream(n))
        for n in range(1, 13):
            for seq in segment_sequences_of_order(n):
                check(n, _levels(n, seq))
            for m in range(n + 1):
                check(n, _levels(n, num_segments=m))
        monkeypatch.setattr(enumeration, "MAX_ORDER", 17)
        for m in range(18):
            check(17, _levels(17, num_segments=m))

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

    def test_two_segments_empty(self, capsys):
        assert list(trees_with_segment_count(5, 2)) == []
        # an empty listing prints nothing, not a blank line
        assert main(["enumerate", "--n", "5", "--num-segments", "2"]) == 0
        assert capsys.readouterr().out == ""

    def test_three_segments_order_six(self):
        ts = list(trees_with_segment_count(6, 3))
        assert len(ts) == 2
        assert {segment_sequence(t) for t in ts} == {(3, 1, 1), (2, 2, 1)}


class TestLevelReader:
    def test_matches_the_built_tree(self):
        # the reader against two routes that do not share it, on every tree
        # of order 2..16: the subtree-size oracle (side sizes compared as
        # multisets) and the segment walks of `segment_decomposition`
        assert read_levels([0]) == ([], ())
        for n in range(2, MAX_ORDER + 1):
            for level in level_sequences(n):
                sides, segments = read_levels(level)
                t = _tree_from_levels(level)
                walked = sorted((s.length for s in segment_decomposition(t)), reverse=True)
                assert segments == tuple(walked), level
                assert sorted(sides) == sorted(edge_side_sizes(t)), level

    @pytest.mark.parametrize("which", ["k-2", "k-2-6", "every-k"])
    def test_branch_reads_match_whole_tree_reads(self, which):
        # every tree of order 1..16 read branch by branch, each distinct
        # root branch once, against the tree read whole: its segment
        # sequence and the plain sum of the packed row over its side sizes
        for n in range(1, MAX_ORDER + 1):
            ks = {"k-2": (2,), "k-2-6": tuple(range(2, 7)), "every-k": range(1, n + 1)}[which]
            row = _packed(n, ks)[0]
            expected = [(segments, sum(row[a] for a in sides), bytes(level)) for segments, sides, level in read_trees(n)]
            assert list(_tree_reads(n, row)) == expected, n

    def test_branch_reads_of_the_smallest_orders(self):
        # a root with no child, one child and two: at order 3 the two runs
        # through the root join into the one segment of the path
        row = _packed(3, (2, 3))[0]
        assert list(_tree_reads(1, _packed(1, (1,))[0])) == [((), 0, b"\0")]
        assert list(_tree_reads(2, _packed(2, (1, 2))[0])) == [((1,), _packed(2, (1, 2))[0][1], b"\0\1")]
        assert list(_tree_reads(3, row)) == [((2,), 2 * row[1], b"\0\1\1")]
        # a branch is the root's edge to one child with the child's subtree
        assert _read_branch(b"", row) == (row[1], (), 1)
        assert _read_branch(b"\2", row) == (row[2] + row[1], (), 2)
        assert _read_branch(b"\2\3\3", (0, 1, 10, 100, 1000)) == (1000 + 100 + 1 + 1, (1, 1), 2)

    def test_level_code_matches_canonical_code(self):
        # the coder over a level sequence's parentheses against the built
        # tree's code, on every tree of order 1..16, and against the
        # recursive oracle up to order 12
        for n in range(1, MAX_ORDER + 1):
            for level in level_sequences(n):
                t = _tree_from_levels(level)
                code = _level_code(level).encode("ascii")
                assert code == canonical_code(t), level
                if n <= 12:
                    assert code == ahu_code_by_recursion(t), level

    def test_segment_count_matches_the_reader(self):
        assert segment_count([0]) == 0
        for n in range(1, MAX_ORDER + 1):
            for level in level_sequences(n):
                assert segment_count(level) == len(read_levels(level)[1]), level

    def test_parens_match_the_rooted_coder(self):
        # the parentheses of a stream sequence against the sorting coder's
        # code rooted at vertex 0, on every tree of order 1..16
        for n in range(1, MAX_ORDER + 1):
            for level in level_sequences(n):
                assert _parens(bytes(level)) == _codes(_parents(level)[0], range(n))[1].decode() + "\n", level

    def test_level_code_edge_cases(self):
        assert _level_code([0]) == "()"
        assert _level_code([0, 1]) == "(())"
        # the path rooted at its centre; for even n the first subtree is the
        # longer side and vertex 1 the other centre
        for n in range(1, MAX_ORDER + 1):
            level = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
            code = _level_code(level).encode("ascii")
            assert code == canonical_code(path_tree(n)) == ahu_code_by_recursion(path_tree(n))

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

    def test_classes_match_the_bucketed_stream(self):
        # every segment class of order 13..16 from its skeletons against the
        # stream's sequences of that class, in order, and counted over the
        # skeletons' orbits (orders up to 12 are in the filter test above)
        for n in range(13, MAX_ORDER + 1):
            classes = defaultdict(list)
            for segments, _, level in read_trees(n):
                classes[segments].append(list(level))
            assert sorted(classes, reverse=True) == segment_sequences_of_order(n)
            for seq in segment_sequences_of_order(n):
                assert [list(level) for level, _, _ in _levels(n, seq)] == classes[seq], seq
                assert count_trees(n, seq) == len(classes[seq]), seq

    def test_class_counts_sum_to_the_tree_count(self):
        # the skeleton route's class sizes against the stream's count and
        # OEIS A000055
        for n in range(2, MAX_ORDER + 1):
            total = sum(count_trees(n, seq) for seq in segment_sequences_of_order(n))
            assert total == count_trees(n) == {**FREE_TREE_COUNTS, **A000055_ABOVE_10}[n], n

    def test_class_counts_are_the_ordered_class_sizes(self, monkeypatch):
        # a class is counted with no member re-rooted, and the count is the
        # size of the ordered class
        sizes = {(n, seq): len(list(_levels(n, seq))) for n in range(2, 16) for seq in segment_sequences_of_order(n)}

        def unused(level):
            raise AssertionError("a count re-rooted a tree")

        monkeypatch.setattr(enumeration, "_recentre", unused)
        for (n, seq), size in sizes.items():
            assert count_trees(n, seq) == size, seq

    def test_recentre_from_every_root(self):
        # every tree of order 1..11, its canonical sequence rooted at each
        # vertex in turn, re-rooted to the stream's sequence, with the
        # number of centres that the built tree's longest path gives
        for n in range(1, 12):
            for level in level_sequences(n):
                t = _tree_from_levels(level)
                centres = len(_centers(t))
                for root in range(n):
                    rooted = bytes(rooted_level_sequence(t, root))
                    assert _recentre(rooted) == (bytes(level), centres), (level, root)

    def test_shift_table_adds_every_amount(self):
        # a level shift of k adds k and of -k subtracts it, for every k in
        # 1..255, most of which no listing reaches
        for k in range(1, 256):
            assert bytes(range(256 - k)).translate(_SHIFT[k]) == bytes(range(k, 256)), k
            assert bytes(range(k, 256)).translate(_SHIFT[-k]) == bytes(range(256 - k)), k


class TestSkeletons:
    def test_skeletons_are_the_filtered_stream(self):
        # the generated skeletons against the stream's sequences with no
        # vertex of degree 2, in order
        for n in range(1, MAX_ORDER + 1):
            assert _skeletons(n) == skeletons_by_filter(n), n

    def test_skeleton_counts_are_a000014(self):
        # past the order guard too, which the stream cannot reach
        assert [len(_skeletons(n)) for n in range(1, 21)] == list(A000014)

    def test_skeletons_past_the_guard_are_distinct_and_centred(self):
        # where the stream does not reach: no vertex of degree 2, each its
        # tree's stream sequence (rooted at a centre, coded as the built
        # tree), no tree twice, in descending order
        for n in range(MAX_ORDER + 1, 21):
            skeletons = _skeletons(n)
            assert skeletons == sorted(skeletons, reverse=True)
            assert len({_level_code(level) for level in skeletons}) == len(skeletons) == A000014[n - 1]
            for level in skeletons:
                assert 2 not in _parents(level)[1], level
                assert _recentre(level)[0] == level, level
                assert _level_code(level).encode("ascii") == canonical_code(_tree_from_levels(level)), level


def built_codes(rooted) -> str:
    """The listing of the trees of *rooted*, triples as `_levels` yields
    them, by the independent route: each sequence built into a ``Tree``
    and coded by `canonical_code`, a line each."""
    return "".join(canonical_code(_tree_from_levels(level)).decode() + "\n" for level, _, _ in rooted)


def listed(capsys, *argv) -> str:
    assert main(["enumerate", *argv]) == 0
    out, err = capsys.readouterr()
    assert err == "", argv
    return out


class TestListing:
    def test_order_listings_are_the_built_codes(self, capsys):
        # `enumerate --n N` against every stream tree built and coded, for
        # every order 1..16
        for n in range(1, MAX_ORDER + 1):
            assert listed(capsys, "--n", str(n)) == built_codes(_levels(n)), n

    def test_filtered_listings_are_the_built_codes(self, capsys):
        # every segment count of order 1..12 and every segment class of
        # order 1..10, two listings at order 16, and the empty listing
        for n in range(1, 13):
            for m in range(n + 1):
                assert listed(capsys, "--n", str(n), "--num-segments", str(m)) == built_codes(_levels(n, num_segments=m))
            if n <= 10:
                for seq in segment_sequences_of_order(n):
                    text = ",".join(map(str, seq))
                    assert listed(capsys, "--n", str(n), "--segments", text) == built_codes(_levels(n, seq)), seq
        assert listed(capsys, "--n", "16", "--num-segments", "9") == built_codes(_levels(16, num_segments=9))
        seq = (5, 3, 2, 2, 1, 1, 1)
        assert listed(capsys, "--n", "16", "--segments", "5,3,2,2,1,1,1") == built_codes(_levels(16, seq))
        assert listed(capsys, "--n", "1") == "()\n"
        assert listed(capsys, "--n", "5", "--num-segments", "2") == ""

    def test_byte_bound(self):
        # levels are bytes, and the coder takes them up to 127: the path and
        # two brooms (a path with leaves at one end) of orders 254 and 255,
        # centre-rooted at heights up to 127; the path of order 256 has a
        # vertex at level 128
        for n in (254, 255):
            path = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
            trees = [(path, path_tree(n))]
            for length, right in ((n - 3, 2), (200, n - 201)):
                broom = _recentre(bytes([*range(length + 1), *[length + 1] * right]))[0]
                trees.append((broom, double_broom(length, 0, right)))
            for level, t in trees:
                assert _level_code(level).encode("ascii") == canonical_code(t), (n, level)
            assert _listing(_facts(level) for level, _ in trees) == "".join(canonical_code(t).decode() + "\n" for _, t in trees)
        with pytest.raises(ValueError, match="levels up to 127"):
            _level_code(list(range(129)) + list(range(1, 128)))

    def test_nothing_printed_before_a_coding_error(self, capsys, monkeypatch):
        # the order guard's errors are unchanged; a listing whose last tree
        # cannot be coded prints nothing of the trees before it, which fill
        # several chunks; past the guard, the path of order 255 is listed
        # and that of order 256 is not
        for n in ("0", "17"):
            assert main(["enumerate", "--n", n]) == 2
            assert capsys.readouterr() == ("", "error: order must be in 1..16\n")
        path = list(range(129)) + list(range(1, 128))
        monkeypatch.setattr(enumeration, "_levels", lambda *args: [*map(_facts, map(list, level_sequences(14))), _facts(path)])
        assert main(["enumerate", "--n", "14"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "levels up to 127" in err
        monkeypatch.undo()
        monkeypatch.setattr(enumeration, "MAX_ORDER", 256)
        assert listed(capsys, "--n", "255", "--num-segments", "1") == canonical_code(path_tree(255)).decode() + "\n"
        assert main(["enumerate", "--n", "256", "--num-segments", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "levels up to 127" in err


class TestPastTheGuard:
    """Segment-count classes past the stream's order limit, checked without
    the stream: their sizes against A000055, and their labelled trees
    (n!/|Aut T| each) against a Prüfer closed form."""

    def test_automorphisms_off_levels_match_the_built_count(self):
        for n in range(2, 13):
            for level in level_sequences(n):
                assert automorphisms_of_levels(level) == automorphism_count(_tree_from_levels(level)), level

    def test_closed_form_sums_to_cayley(self):
        for n in range(2, 21):
            assert sum(labelled_trees_with_segment_count(n, m) for m in range(n + 1)) == n ** (n - 2), n

    def test_order_17_counts_and_labelled_trees(self, monkeypatch):
        # past the guard, lifted in this process only: the count route's
        # sizes sum to A000055(17); each segment count's listed trees have
        # distinct codes, as many as it counts, and stand for as many
        # labelled trees as have n - 1 - m vertices of degree 2
        monkeypatch.setattr(enumeration, "MAX_ORDER", 17)
        n = 17
        counts = [count_trees(n, num_segments=m) for m in range(n + 1)]
        assert sum(counts) == 48629
        for m in range(n + 1):
            levels = [level for level, _, _ in _levels(n, num_segments=m)]
            assert len({_level_code(level) for level in levels}) == len(levels) == counts[m], m
            labelled = sum(factorial(n) // automorphisms_of_levels(level) for level in levels)
            assert labelled == labelled_trees_with_segment_count(n, m), m

    def test_codes_past_the_guard(self, monkeypatch):
        # the listing of the 3315 trees of order 30 with 5 segments: each
        # code that of the built member, all distinct, as many as counted
        monkeypatch.setattr(enumeration, "MAX_ORDER", 30)
        rooted = list(_levels(30, num_segments=5))
        codes = _listing(rooted).splitlines()
        assert codes == built_codes(rooted).splitlines()
        assert len(set(codes)) == len(codes) == count_trees(30, num_segments=5) == 3315

    def test_segment_counts_past_the_guard(self, monkeypatch):
        # the orbit count's sizes of segment-count classes at orders 30 and
        # 40, where no stream reaches, against the sizes their placements
        # gave one by one; and the counts of every m at order 18 sum to
        # A000055(18)
        monkeypatch.setattr(enumeration, "MAX_ORDER", 40)
        assert [count_trees(30, num_segments=m) for m in range(5, 9)] == [3315, 12152, 85589, 316259]
        assert [count_trees(40, num_segments=m) for m in range(3, 9)] == [127, 441, 11319, 56119, 568409, 2911004]
        assert sum(count_trees(18, num_segments=m) for m in range(18)) == 123867

    def test_order_counts_past_the_guard(self, monkeypatch):
        # Otter's formula against the segment counts' orbit counts summed
        # over m at orders 17 and 18, and against A000055 up to order 20
        monkeypatch.setattr(enumeration, "MAX_ORDER", 20)
        for n in (17, 18):
            assert count_trees(n) == sum(count_trees(n, num_segments=m) for m in range(n)), n
        assert [count_trees(n) for n in range(17, 21)] == [48629, 123867, 317955, 823065]

    def test_segment_classes_past_the_guard(self, monkeypatch):
        # classes of orders 45, 55 and 20, counted over the skeletons'
        # orbits, against the sizes their placements gave one by one
        monkeypatch.setattr(enumeration, "MAX_ORDER", 55)
        assert count_trees(45, range(9, 1, -1)) == 6329
        assert count_trees(55, range(10, 1, -1)) == 89272
        assert count_trees(20, (3, 3, 2, 2, 2, *[1] * 7)) == 23082


class TestCountRoute:
    def test_counts_place_nothing(self, capsys, monkeypatch):
        # a segment class or count of order n is counted with no member
        # placed or re-rooted and no skeleton of order above n built: every
        # count of order n sums to the number of trees, and the classes
        # with m >= 1 parts to the count of m
        order = [0]
        skeletons = enumeration._skeletons

        def bounded(size):
            assert size <= order[0], (size, order[0])
            return skeletons(size)

        def unused(*args):
            raise AssertionError("a count placed or re-rooted a tree")

        monkeypatch.setattr(enumeration, "_skeletons", bounded)
        monkeypatch.setattr(enumeration, "_placements", unused)
        monkeypatch.setattr(enumeration, "_recentre", unused)
        for n in range(1, MAX_ORDER + 1):
            order[0] = n
            counts = [count_trees(n, num_segments=m) for m in range(n + 2)]
            assert counts[n:] == [0, 0] and count_trees(n, num_segments=10**6) == 0
            assert sum(counts) == {**FREE_TREE_COUNTS, **A000055_ABOVE_10}[n], n
            by_parts = defaultdict(int)
            for seq in segment_sequences_of_order(n):
                by_parts[len(seq)] += count_trees(n, seq)
            assert all(by_parts[m] == counts[m] for m in range(1, n)), n
        order[0] = 0
        assert main(["enumerate", "--n", "16", "--num-segments", "1000000", "--count-only"]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_order_count_generates_nothing(self, monkeypatch):
        # a whole order is counted with no stream started, no skeleton
        # built and no tree placed or re-rooted, and the guard still holds
        def unused(*args):
            raise AssertionError("counting an order generated a tree")

        for name in ("_stream", "_compose", "_skeletons", "_placements", "_recentre"):
            monkeypatch.setattr(enumeration, name, unused)
        for n in range(1, MAX_ORDER + 1):
            assert count_trees(n) == {**FREE_TREE_COUNTS, **A000055_ABOVE_10}[n], n
        for n in (0, MAX_ORDER + 1):
            with pytest.raises(ValueError, match=f"order must be in 1..{MAX_ORDER}"):
                count_trees(n)

    def test_count_route_matches_the_stream_filter(self):
        # every order up to the guard and every m from -1 to n + 1: the
        # placements on the skeletons against the stream's sequences with m
        # segments counted off the degrees, counted and in stream order
        for n in range(1, MAX_ORDER + 1):
            by_count = defaultdict(list)
            for level in level_sequences(n):
                by_count[segment_count(level)].append(list(level))
            for m in range(n + 2):
                assert count_trees(n, num_segments=m) == len(by_count[m]), (n, m)
                assert [list(level) for level, _, _ in _levels(n, num_segments=m)] == by_count[m], (n, m)
            with pytest.raises(ValueError, match="-1"):
                count_trees(n, num_segments=-1)
            with pytest.raises(ValueError, match="-1"):
                list(_levels(n, num_segments=-1))

    def test_guards(self):
        for m in (0, 1, 5, MAX_ORDER, MAX_ORDER + 2):
            with pytest.raises(ValueError, match="order must be"):
                count_trees(MAX_ORDER + 1, num_segments=m)
            with pytest.raises(ValueError, match="order must be"):
                list(_levels(MAX_ORDER + 1, num_segments=m))
            with pytest.raises(ValueError, match="order must be"):
                count_trees(0, num_segments=m)
        with pytest.raises(ValueError, match="-4"):
            count_trees(MAX_ORDER + 1, num_segments=-4)

    def test_partitions_are_the_oracle_sequences(self):
        # the package's m-part partitions against the oracle's realizable
        # sequences (which leave out two parts) of each order
        for n in range(2, MAX_ORDER + 1):
            ours = [p for m in range(n) if m != 2 for p in _partitions(n - 1, m, n - 1)]
            assert sorted(ours, reverse=True) == segment_sequences_of_order(n), n
        assert list(_partitions(0, 0, 0)) == [()]
        assert list(_partitions(0, 1, 0)) == list(_partitions(3, 4, 3)) == []

    @pytest.mark.parametrize("extra", [[], ["--count-only"]], ids=["codes", "count-only"])
    def test_count_route_scans_no_stream(self, capsys, monkeypatch, level_reads, stream_starts, extra):
        # the trees with 9 segments come from the skeletons of order 10 and
        # the partitions of 15: no stream starts, no sequence is read, and a
        # count re-roots nothing
        recentred = []
        recentre = enumeration._recentre
        monkeypatch.setattr(enumeration, "_recentre", lambda level: recentred.append(level) or recentre(level))
        assert main(["enumerate", "--n", "16", "--num-segments", "9", *extra]) == 0
        out = capsys.readouterr().out.split()
        if extra:
            assert out == ["2821"]
        else:
            assert len(set(out)) == len(out) == 2821
        assert not stream_starts
        assert level_reads[0] == 0
        assert len(recentred) == (0 if extra else 2821)


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

    def test_sequence_filter_reads_only_matching_counts(self, capsys, level_reads, stream_starts):
        # a segment class reads no tree of its order, not even those with a
        # matching segment count, and starts no stream: its skeletons are
        # generated directly
        expected = count_trees(12, num_segments=7)
        assert expected > 0 and level_reads[0] == 0
        stream_starts.clear()
        assert main(["enumerate", "--n", "12", "--segments", "3,2,2,1,1,1,1", "--count-only"]) == 0
        assert 0 < int(capsys.readouterr().out) < expected
        assert main(["enumerate", "--n", "12", "--segments", "3,2,2,1,1,1,1"]) == 0
        assert capsys.readouterr().out
        assert level_reads[0] == 0
        assert not stream_starts

    @pytest.mark.parametrize("extra", [[], ["--count-only"]], ids=["codes", "count-only"])
    def test_count_filter_reads_no_sequence(self, capsys, level_reads, extra):
        assert main(["enumerate", "--n", "12", "--num-segments", "5", *extra]) == 0
        assert capsys.readouterr().out
        assert level_reads[0] == 0

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
