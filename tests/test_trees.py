from __future__ import annotations

import hashlib
import itertools
import random
import re

import pytest

from segwiener.enumeration import all_trees
from segwiener.generators import quasi_caterpillar, starlike
from segwiener.trees import (
    EmptyDecompositionError,
    InvalidTreeError,
    NotQuasiCaterpillarError,
    Tree,
    all_backbones,
    canonical_code,
    is_quasi_caterpillar,
    is_starlike,
    segment_sequence,
    tree_from_code,
)

from .conftest import path_tree
from .oracles import (
    ahu_code_by_recursion,
    backbone_over_all_candidates,
    centres_by_longest_path,
    path,
    quasi_caterpillar_by_leaf_walks,
    random_labeled_tree,
    relabel,
    segment_decomposition,
)

# sha256 of `TestBackbone.test_golden_backbones`, recorded off the
# package's own canonical backbone, which oriented a candidate by pendant
# lengths; the oracle orients by subtree codes and must reproduce it
GOLDEN_BACKBONES_SHA256 = "0b44563b00b6c391e4e0f9cb602f2567ad9932c0c1f4cc7761d55b666c87fb4d"


class TestConstruction:
    def test_single_vertex_needs_explicit_order(self):
        assert Tree.from_edges([], n=1).n == 1
        with pytest.raises(InvalidTreeError):
            Tree.from_edges([])

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(InvalidTreeError):
            Tree.from_edges([(0, 1)], n=3)

    def test_rejects_cycle(self):
        with pytest.raises(InvalidTreeError):
            Tree.from_edges([(0, 1), (1, 2), (2, 0)], n=3)

    def test_rejects_self_loop_and_duplicates(self):
        with pytest.raises(InvalidTreeError):
            Tree.from_edges([(0, 0)], n=2)
        with pytest.raises(InvalidTreeError):
            Tree.from_edges([(0, 1), (1, 0), (1, 2)], n=3)

    def test_rejects_non_integer_ids(self):
        # a float is not truncated and a string is not parsed into an id
        for edges, named in (
            ([(0, 1.9), (1, 2)], "(0, 1.9)"),
            ([("0", "1")], "('0', '1')"),
            ([(0, 1), (1, 2.0)], "(1, 2.0)"),
        ):
            with pytest.raises(InvalidTreeError, match=re.escape(named)):
                Tree.from_edges(edges)
            with pytest.raises(InvalidTreeError, match=re.escape(named)):
                Tree.from_edges(edges, n=3)

    def test_rejects_disconnected(self):
        with pytest.raises(InvalidTreeError):
            Tree.from_edges([(0, 1), (2, 3), (3, 4), (4, 2)][:2], n=4)

    def test_adjacency_is_sorted_and_symmetric(self):
        t = Tree.from_edges([(2, 0), (1, 2), (2, 3)])
        assert t.adj[2] == (0, 1, 3)
        for u in range(t.n):
            for v in t.adj[u]:
                assert u in t.adj[v]

    def test_path_endpoints(self):
        t = path_tree(6)
        assert path(t, 0, 5) == (0, 1, 2, 3, 4, 5)
        assert path(t, 4, 1) == (4, 3, 2, 1)
        assert path(t, 3, 3) == (3,)
        for u, v in ((-1, 0), (0, -6), (6, 0), (0, 99)):  # a negative id must not alias a vertex
            with pytest.raises(ValueError):
                path(t, u, v)


class TestSegments:
    def test_path_is_one_segment(self):
        segs = segment_decomposition(path_tree(5))
        assert len(segs) == 1 and segs[0].length == 4

    def test_star_three_unit_segments(self, k13):
        segs = segment_decomposition(k13)
        assert sorted(s.length for s in segs) == [1, 1, 1]

    def test_fig1_top_has_nine_segments(self, fig1_top):
        segs = segment_decomposition(fig1_top)
        assert sorted((s.length for s in segs), reverse=True) == [3, 2, 2, 2, 1, 1, 1, 1, 1]

    def test_single_vertex_rejected(self):
        with pytest.raises(EmptyDecompositionError):
            segment_decomposition(Tree.from_edges([], n=1))
        with pytest.raises(EmptyDecompositionError):
            segment_sequence(Tree.from_edges([], n=1))

    def test_sequence_matches_decomposition(self):
        # two routes: lengths-only chain walk vs. the Segment objects
        for n in range(2, 13):
            for t in all_trees(n):
                lengths = sorted((s.length for s in segment_decomposition(t)), reverse=True)
                assert segment_sequence(t) == tuple(lengths)

    def test_decomposition_matches_sequence_on_random_trees(self):
        rng = random.Random(404)
        for _ in range(1500):
            t = random_labeled_tree(rng.randint(2, 40), rng)
            lengths = sorted((s.length for s in segment_decomposition(t)), reverse=True)
            assert segment_sequence(t) == tuple(lengths)

    def test_sequence_examples(self, fig1_top, fig1_bottom):
        assert segment_sequence(path_tree(5)) == (4,)
        assert segment_sequence(fig1_top) == (3, 2, 2, 2, 1, 1, 1, 1, 1)
        assert segment_sequence(fig1_bottom) == (3, 2, 2, 2, 1, 1, 1, 1, 1)
        assert segment_sequence(starlike((2, 1, 1))) == (2, 1, 1)

    def test_partition_property_small_orders(self):
        # every edge in exactly one segment; lengths sum to n-1
        for n in range(2, 9):
            for t in all_trees(n):
                segs = segment_decomposition(t)
                covered = set()
                for s in segs:
                    for a, b in zip(s.vertices, s.vertices[1:]):
                        e = (a, b) if a < b else (b, a)
                        assert e not in covered
                        covered.add(e)
                assert len(covered) == n - 1
                assert sum(s.length for s in segs) == n - 1

    def test_segment_count_is_never_two(self):
        for n in range(2, 11):
            for t in all_trees(n):
                assert len(segment_sequence(t)) != 2


class TestPredicates:
    def test_starlike_examples(self, k13, fig1_bottom):
        assert is_starlike(k13)
        assert not is_starlike(fig1_bottom)
        assert is_starlike(path_tree(4))

    def test_starlike_implies_quasi_caterpillar(self):
        for n in range(2, 11):
            for t in all_trees(n):
                if is_starlike(t):
                    assert is_quasi_caterpillar(t)

    def test_fig1_bottom_is_quasi_caterpillar(self, fig1_bottom):
        assert is_quasi_caterpillar(fig1_bottom)

    def test_quasi_caterpillar_matches_independent_oracle(self):
        for n in range(2, 10):
            for t in all_trees(n):
                assert is_quasi_caterpillar(t) == quasi_caterpillar_by_leaf_walks(t)

    def test_quasi_caterpillar_matches_oracle_on_random_trees(self):
        rng = random.Random(404)
        for _ in range(1500):
            t = random_labeled_tree(rng.randint(2, 40), rng)
            assert is_quasi_caterpillar(t) == quasi_caterpillar_by_leaf_walks(t)

    def test_two_joined_stars_with_mid_branch_decided_by_oracle(self):
        # two degree-3 star centres joined by a length-3 path, with an extra
        # length-2 pendant path hung off an interior path vertex
        edges = [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6), (6, 7), (6, 8), (4, 9), (9, 10)]
        t = Tree.from_edges(edges)
        assert is_quasi_caterpillar(t) == quasi_caterpillar_by_leaf_walks(t)


class TestBackbone:
    def test_fig1_bottom_backbone(self, fig1_bottom):
        view = backbone_over_all_candidates(fig1_bottom)
        assert len(view.path) - 1 == 6
        assert sorted(view.backbone_segment_lengths) == [1, 1, 2, 2]
        assert sorted(view.pendant_segment_lengths) == [1, 1, 1, 2, 3]
        assert len(view.pendant_segment_lengths) == 5

    def test_path_backbone_is_whole_path(self):
        view = backbone_over_all_candidates(path_tree(6))
        assert view.path in ((0, 1, 2, 3, 4, 5), (5, 4, 3, 2, 1, 0))
        assert view.backbone_segment_lengths == (5,)
        assert view.pendant_segment_lengths == ()

    def test_family_caterpillar_pendants_all_unit(self):
        from segwiener.generators import caterpillar_family

        build = caterpillar_family(8, 5, "ii")
        view = backbone_over_all_candidates(build.tree)
        assert set(view.pendant_segment_lengths) == {1}

    def test_backbone_contains_every_branch_vertex(self):
        for n in range(2, 10):
            for t in all_trees(n):
                if not is_quasi_caterpillar(t):
                    continue
                branches = set(t.branch_vertices())
                for cand in all_backbones(t):
                    assert branches <= set(cand)
                view = backbone_over_all_candidates(t)
                assert branches <= set(view.path)
                assert sum(view.backbone_segment_lengths) == len(view.path) - 1

    def test_non_quasi_caterpillar_rejected(self):
        # spider of spiders: three length-2 legs each ending in a 2-leaf fork
        edges = []
        nid = 1
        for _ in range(3):
            edges += [(0, nid), (nid, nid + 1), (nid + 1, nid + 2), (nid + 1, nid + 3)]
            nid += 4
        t = Tree.from_edges(edges)
        assert not is_quasi_caterpillar(t)
        with pytest.raises(NotQuasiCaterpillarError):
            backbone_over_all_candidates(t)

    def test_starlike_backbone_uses_two_longest_legs(self):
        view = backbone_over_all_candidates(starlike((3, 2, 2, 1)))
        assert sorted(view.backbone_segment_lengths) == [2, 3]
        assert sorted(view.pendant_segment_lengths) == [1, 2]

    def test_backbone_read_offs_are_isomorphism_invariant(self):
        rng = random.Random(31)
        for n in range(2, 10):
            for t in all_trees(n):
                if not is_quasi_caterpillar(t):
                    continue
                perm = list(range(n))
                rng.shuffle(perm)
                a, b = backbone_over_all_candidates(t), backbone_over_all_candidates(relabel(t, perm))
                assert a.backbone_segment_lengths == b.backbone_segment_lengths
                assert a.pendant_groups == b.pendant_groups

    def test_golden_backbones(self):
        # sha256 over the full view (oriented path, backbone segments,
        # pendant groups) of every quasi-caterpillar of order <= 12 and of
        # seeded random ones, relabelled: pins which orientation wins a tie
        digest = hashlib.sha256()
        for n in range(1, 13):
            for t in all_trees(n):
                if is_quasi_caterpillar(t):
                    digest.update(f"{backbone_over_all_candidates(t)!r}\n".encode())
        rng = random.Random(10)
        for _ in range(300):
            r = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 6)))
            pend = [(j, rng.randint(1, 3)) for j in range(1, len(r)) for _ in range(rng.randint(1, 3))]
            t = quasi_caterpillar(r, pend)
            perm = list(range(t.n))
            rng.shuffle(perm)
            digest.update(f"{backbone_over_all_candidates(t)!r}\n{backbone_over_all_candidates(relabel(t, perm))!r}\n".encode())
        assert digest.hexdigest() == GOLDEN_BACKBONES_SHA256


class TestCanonicalCode:
    def test_relabelings_of_star_agree(self, k13):
        assert canonical_code(k13) == canonical_code(relabel(k13, [3, 1, 0, 2]))

    def test_path_and_star_differ(self, k13):
        assert canonical_code(path_tree(4)) != canonical_code(k13)

    def test_all_labeled_trees_on_four_vertices_give_two_codes(self):
        codes = set()
        # 16 labeled trees on 4 vertices, via all Prüfer pairs
        from .oracles import prufer_to_adjacency

        for seq in itertools.product(range(4), repeat=2):
            adj = prufer_to_adjacency(seq, 4)
            t = Tree.from_edges([(u, v) for u in range(4) for v in adj[u] if u < v], n=4)
            codes.add(canonical_code(t))
        assert len(codes) == 2

    def test_relabel_invariance_random(self):
        rng = random.Random(2024)
        for _ in range(100):
            n = rng.randint(2, 12)
            t = random_labeled_tree(n, rng)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_code(t) == canonical_code(relabel(t, perm))

    def test_code_equality_iff_isomorphic_small(self):
        # distinct enumerated classes have distinct codes
        for n in range(2, 9):
            codes = [canonical_code(t) for t in all_trees(n)]
            assert len(codes) == len(set(codes))

    def test_code_round_trip(self):
        for n in range(1, 9):
            for t in all_trees(n):
                code = canonical_code(t)
                again = tree_from_code(code)
                assert again.n == t.n
                assert canonical_code(again) == code

    def test_matches_recursive_oracle(self):
        # every tree of order 1..12, then random labelled trees up to order
        # 200 of both kinds (one centre, two centres); each code must also
        # survive a relabelling and rebuild a tree with the same code
        rng = random.Random(8)
        random_trees = [random_labeled_tree(rng.randint(1, 200), rng) for _ in range(500)]
        for t in itertools.chain((t for n in range(1, 13) for t in all_trees(n)), random_trees):
            code = canonical_code(t)
            assert code == ahu_code_by_recursion(t)
            perm = list(range(t.n))
            rng.shuffle(perm)
            assert canonical_code(relabel(t, perm)) == code
            assert canonical_code(tree_from_code(code)) == code
        assert {len(centres_by_longest_path(t)) for t in random_trees} == {1, 2}

    def test_bad_codes_rejected(self):
        for bad in ("", "(", "(()", "()()", "(x)"):
            with pytest.raises(ValueError):
                tree_from_code(bad)
