from __future__ import annotations

import hashlib
import random

import pytest

from segwiener.enumeration import all_trees, read_trees
from segwiener.exact import CountOverflowError
from segwiener.steiner import _class_sums, _index_sums, sw_k, sw_profile, wiener
from segwiener.trees import Tree

from .conftest import double_broom, path_tree
from .oracles import (
    EmptySetError,
    edge_side_sizes,
    index_sums_per_k,
    random_labeled_tree,
    steiner_by_enumeration,
    steiner_distance,
    sw_k_bruteforce,
    wiener_by_distances,
)


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

    def test_golden_index_values(self):
        # sha256 of (profile, Wiener index) over every tree of order <= 13
        # and 300 seeded random labelled trees of order 14..100; on the
        # random trees the profile also agrees with sw_k for every k and is
        # unchanged by a seeded relabelling
        digest = hashlib.sha256()

        def record(t):
            profile = sw_profile(t)
            digest.update(f"{t.n} {profile} {wiener(t)}\n".encode())
            return profile

        for n in range(1, 14):
            for t in all_trees(n):
                record(t)
        rng, relabel_rng = random.Random(20), random.Random(21)
        for _ in range(300):
            n = rng.randint(14, 100)
            t = random_labeled_tree(n, rng)
            profile = record(t)
            assert all(profile[k - 1] == sw_k(t, k) for k in range(1, n + 1))
            perm = list(range(n))
            relabel_rng.shuffle(perm)
            assert sw_profile(t.relabel(perm)) == profile
        assert digest.hexdigest() == "b0c38bcede6a3ff24867cace647bfd72a2471cb16095e30b8197a9c47a24ff57"


def star_tree(n: int) -> Tree:
    return Tree.from_edges([(0, i) for i in range(1, n)], n=n)


def outcome(fn, *args):
    """*fn*'s value, or the message of the CountOverflowError it raises."""
    try:
        return fn(*args)
    except CountOverflowError as error:
        return ("raises", str(error))


class TestPackedSums:
    """All requested k are summed at once over one packed row; the oracle
    sums one weight row per k."""

    def test_every_small_tree_matches_the_per_k_oracle(self):
        # every tree of order <= 12 at k = 1..n, at an unsorted k list and
        # at each single k, tree by tree and as the columns of its class
        for n in range(1, 13):
            side_lists = [sides for _, sides, _ in read_trees(n)]
            every_k = range(1, n + 1)
            unsorted = (*range(n, 0, -2), *range(n - 1, 0, -2)[::-1])
            for ks in (every_k, unsorted, *((k,) for k in every_k)):
                expected = [index_sums_per_k(n, sides, ks) for sides in side_lists]
                assert [_index_sums(n, sides, ks) for sides in side_lists] == expected, (n, ks)
                assert _class_sums(n, side_lists, ks) == [list(column) for column in zip(*expected)], (n, ks)

    def test_random_trees_match_the_per_k_oracle(self):
        # seeded random trees of order 13..130, at every k and at a random
        # k list; from order 124 or so some SW_k leave i128, and both routes
        # raise at the same k with the same message
        rng = random.Random(22)
        raised = 0
        for _ in range(80):
            n = rng.randint(13, 130)
            sides = edge_side_sizes(random_labeled_tree(n, rng))
            for ks in (range(1, n + 1), tuple(rng.sample(range(1, n + 1), rng.randint(1, 8)))):
                expected = outcome(index_sums_per_k, n, sides, ks)
                assert outcome(_index_sums, n, sides, ks) == expected, (n, ks)
                columns = expected if expected[0] == "raises" else [[value] for value in expected]
                assert outcome(_class_sums, n, [sides], ks) == columns, (n, ks)
                raised += expected[0] == "raises"
        assert raised > 0

    def test_path_and_star_at_every_k(self):
        # the path and the star fill their fields the most: every order
        # <= 130 at every k, alone and as one class of two trees, which
        # raises wherever one of them does
        for n in range(1, 131):
            side_lists = [edge_side_sizes(path_tree(n)), edge_side_sizes(star_tree(n))]
            ks = range(1, n + 1)
            expected = [outcome(index_sums_per_k, n, sides, ks) for sides in side_lists]
            assert [outcome(_index_sums, n, sides, ks) for sides in side_lists] == expected, n
            if any(values[0] == "raises" for values in expected):
                with pytest.raises(CountOverflowError):
                    _class_sums(n, side_lists, ks)
            else:
                assert _class_sums(n, side_lists, ks) == [list(column) for column in zip(*expected)], n

    @pytest.mark.parametrize("n", range(128, 141))
    def test_profile_overflows_where_the_oracle_does(self, n):
        # from order 124 or so some SW_k leaves i128, and from order 131 on
        # so does the weight row of k = n // 2: the profile, and the sums at k
        # lists that reach such a k before or after one that fits, raise at
        # the first such k in list order, with the oracle's message
        for t in (path_tree(n), star_tree(n), double_broom(n - 7, 3, 3)):
            assert t.n == n
            sides = edge_side_sizes(t)
            assert outcome(sw_profile, t) == outcome(index_sums_per_k, n, sides, range(1, n + 1))
            for ks in (range(n, 0, -1), (2, n // 2), (n // 2, 2)):
                expected = outcome(index_sums_per_k, n, sides, ks)
                assert expected[0] == "raises"
                assert outcome(_index_sums, n, sides, ks) == expected, ks
                assert outcome(_class_sums, n, [sides], ks) == expected, ks
            if n > 130:
                assert outcome(_index_sums, n, sides, (2, n // 2))[1] == f"C({n},{n // 2}) exceeds the signed 128-bit range"
