from __future__ import annotations

import random

import pytest

from segwiener.enumeration import all_trees
from segwiener.exact import CountOverflowError
from segwiener.steiner import (
    EmptySetError,
    steiner_distance,
    sw_k,
    sw_k_bruteforce,
    sw_profile,
    wiener,
)
from segwiener.trees import Tree

from .conftest import path_tree
from .oracles import random_labeled_tree, steiner_by_enumeration, wiener_by_distances


class TestSteinerDistance:
    def test_path_endpoints(self):
        assert steiner_distance(path_tree(5), {0, 4}) == 4

    def test_star_leaves_span_whole_star(self, k13):
        assert steiner_distance(k13, set(k13.leaves())) == 3

    def test_singleton_is_zero(self):
        assert steiner_distance(path_tree(7), {3}) == 0
        assert steiner_distance(Tree.from_edges([], n=1), {0}) == 0

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySetError):
            steiner_distance(path_tree(3), set())

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError):
            steiner_distance(path_tree(3), {5})

    def test_fig1_top_three_longest_tips(self, fig1_top):
        # tips of the legs of lengths 3, 2, 2: the spanning subtree is their union
        legs = {}
        for leaf in fig1_top.leaves():
            length = len(fig1_top.path(0, leaf)) - 1
            legs.setdefault(length, []).append(leaf)
        tips = {legs[3][0], legs[2][0], legs[2][1]}
        assert steiner_distance(fig1_top, tips) == 7
        assert steiner_by_enumeration(fig1_top, tips) == 7

    def test_matches_enumeration_oracle_randomized(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(2, 9)
            t = random_labeled_tree(n, rng)
            k = rng.randint(1, n)
            subset = set(rng.sample(range(n), k))
            assert steiner_distance(t, subset) == steiner_by_enumeration(t, subset)

    def test_monotone_under_adding_a_vertex(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(3, 10)
            t = random_labeled_tree(n, rng)
            subset = set(rng.sample(range(n), rng.randint(1, n - 1)))
            v = rng.choice([x for x in range(n) if x not in subset])
            assert steiner_distance(t, subset) <= steiner_distance(t, subset | {v})


class TestWiener:
    def test_examples(self, k13):
        assert wiener(path_tree(4)) == 10
        assert wiener(k13) == 9
        assert wiener(Tree.from_edges([], n=1)) == 0

    def test_matches_distance_sum_oracle(self):
        for n in range(1, 9):
            for t in all_trees(n):
                assert wiener(t) == wiener_by_distances(t)


class TestSWk:
    def test_p3_pairs(self):
        assert sw_k(path_tree(3), 2) == 4

    def test_k13_triples(self, k13):
        assert sw_k(k13, 3) == 9
        assert sw_k_bruteforce(k13, 3) == 9

    def test_extreme_k_values(self):
        for n in range(1, 10):
            for t in all_trees(n):
                assert sw_k(t, 1) == 0
                assert sw_k(t, n) == n - 1

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            sw_k(path_tree(4), 0)
        with pytest.raises(ValueError):
            sw_k(path_tree(4), 5)
        with pytest.raises(ValueError):
            sw_k_bruteforce(path_tree(4), 0)

    def test_brute_force_guard(self):
        big = path_tree(21)
        with pytest.raises(ValueError):
            sw_k_bruteforce(big, 2)

    def test_matches_brute_force_small(self):
        for n in range(1, 8):
            for t in all_trees(n):
                for k in range(1, n + 1):
                    assert sw_k(t, k) == sw_k_bruteforce(t, k)

    def test_large_orders_limited_only_by_i128(self):
        # SW_2 of a path is its Wiener index C(n + 1, 3)
        assert sw_k(path_tree(129), 2) == 357760
        with pytest.raises(CountOverflowError):
            sw_k(path_tree(200), 100)


class TestProfile:
    def test_examples(self, k13):
        assert sw_profile(path_tree(3)) == (0, 4, 2)
        assert sw_profile(k13) == (0, 9, 9, 3)
        assert sw_profile(path_tree(2)) == (0, 1)
        assert sw_profile(Tree.from_edges([], n=1)) == (0,)

    def test_profile_agrees_with_sw_k(self):
        for n in range(2, 9):
            for t in all_trees(n):
                profile = sw_profile(t)
                assert profile[1] == wiener(t)
                for k in range(1, n + 1):
                    assert profile[k - 1] == sw_k(t, k)

    def test_sw3_identity_spot(self, fig1_top, fig1_bottom):
        for t in (fig1_top, fig1_bottom):
            assert 2 * sw_k(t, 3) == (t.n - 2) * wiener(t)
