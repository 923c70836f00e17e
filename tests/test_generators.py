from __future__ import annotations

import hashlib
import random

import pytest

from segwiener.generators import (
    FAMILY_LABELS,
    InvalidIndexError,
    JointWithoutPendantError,
    ParityMismatchError,
    UnrealizableError,
    balanced_starlike,
    caterpillar_family,
    quasi_caterpillar,
    starlike,
)
from segwiener.io import format_edge_list
from segwiener.trees import (
    canonical_code,
    is_quasi_caterpillar,
    is_starlike,
    segment_sequence,
)

from .conftest import path_tree
from .oracles import backbone_over_all_candidates, segment_sequences_of_order


class TestStarlike:
    def test_fig1_top(self, fig1_top):
        assert fig1_top.n == 15
        assert is_starlike(fig1_top)
        assert segment_sequence(fig1_top) == (3, 2, 2, 2, 1, 1, 1, 1, 1)

    def test_star(self, k13):
        assert canonical_code(starlike((1, 1, 1))) == canonical_code(k13)

    def test_single_segment_is_path(self):
        assert canonical_code(starlike((4,))) == canonical_code(path_tree(5))

    def test_two_segments_unrealizable(self):
        with pytest.raises(UnrealizableError):
            starlike((2, 2))

    def test_nonpositive_lengths_rejected(self):
        with pytest.raises(UnrealizableError):
            starlike((2, 0, 1))

    def test_round_trip_all_sequences_up_to_sum_twelve(self):
        for n in range(2, 14):
            for seq in segment_sequences_of_order(n):
                assert segment_sequence(starlike(seq)) == seq


class TestBalancedStarlike:
    def test_examples(self):
        assert segment_sequence(balanced_starlike(8, 3)) == (3, 2, 2)
        assert segment_sequence(balanced_starlike(7, 3)) == (2, 2, 2)
        assert segment_sequence(balanced_starlike(10, 9)) == (1,) * 9

    def test_m_one_is_path(self):
        assert canonical_code(balanced_starlike(6, 1)) == canonical_code(path_tree(6))

    def test_unrealizable(self):
        with pytest.raises(UnrealizableError):
            balanced_starlike(8, 2)
        with pytest.raises(UnrealizableError):
            balanced_starlike(5, 5)

    def test_legs_differ_by_at_most_one(self):
        for n in range(2, 13):
            for m in [1] + list(range(3, n)):
                seq = segment_sequence(balanced_starlike(n, m))
                assert len(seq) == m
                assert sum(seq) == n - 1
                assert seq[0] - seq[-1] <= 1


class TestQuasiCaterpillar:
    def test_fig1_bottom(self, fig1_bottom):
        assert fig1_bottom.n == 15
        assert is_quasi_caterpillar(fig1_bottom)
        assert segment_sequence(fig1_bottom) == (3, 2, 2, 2, 1, 1, 1, 1, 1)
        assert len(fig1_bottom.branch_vertices()) == 3

    def test_minimal_spider(self):
        t = quasi_caterpillar((1, 1), [(1, 1)])
        assert segment_sequence(t) == (1, 1, 1)

    def test_bare_backbone_is_path(self):
        assert canonical_code(quasi_caterpillar((5,), [])) == canonical_code(path_tree(6))

    def test_joint_without_pendant_rejected(self):
        with pytest.raises(JointWithoutPendantError):
            quasi_caterpillar((1, 2, 1), [(1, 1)])

    def test_invalid_joint_index_rejected(self):
        with pytest.raises(InvalidIndexError):
            quasi_caterpillar((1, 1), [(2, 1)])
        with pytest.raises(InvalidIndexError):
            quasi_caterpillar((1, 1), [(0, 1)])

    def test_redecomposition_matches_request(self):
        cases = [
            ((2, 3, 2), [(1, 1), (2, 4)]),
            ((1, 1, 1, 1), [(1, 2), (2, 2), (3, 2), (2, 1)]),
            ((4, 4), [(1, 1), (1, 1), (1, 1)]),
        ]
        for r, pend in cases:
            t = quasi_caterpillar(r, pend)
            wanted = tuple(sorted(list(r) + [length for _, length in pend], reverse=True))
            assert segment_sequence(t) == wanted
            assert is_quasi_caterpillar(t)


class TestCaterpillarFamily:
    def test_family_ii_example(self):
        build = caterpillar_family(8, 5, "ii")
        t = build.tree
        assert t.n == 8
        assert len(segment_sequence(t)) == 5
        view = backbone_over_all_candidates(t)
        assert view.pendant_segment_lengths == (1, 1)
        assert build.t_used == 5
        assert build.params.t == 6
        assert build.t_adjusted
        assert "t=6" in build.note and "t=5" in build.note

    def test_family_ii_m1_is_path(self):
        build = caterpillar_family(9, 1, "ii")
        assert canonical_code(build.tree) == canonical_code(path_tree(9))

    def test_family_iii_example(self):
        build = caterpillar_family(10, 8, "iii")
        assert build.tree.n == 10
        assert len(segment_sequence(build.tree)) == 8

    def test_parity_errors(self):
        with pytest.raises(ParityMismatchError):
            caterpillar_family(10, 6, "ii")
        with pytest.raises(ParityMismatchError):
            caterpillar_family(12, 5, "i")  # m >= 7 needed
        with pytest.raises(ParityMismatchError):
            caterpillar_family(12, 6, "iii")
        with pytest.raises(ParityMismatchError):
            caterpillar_family(12, 8, "iv")

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            caterpillar_family(8, 5, "v")

    def test_unrealizable_segment_count(self):
        with pytest.raises(UnrealizableError):
            caterpillar_family(6, 7, "ii")
        with pytest.raises(UnrealizableError):
            caterpillar_family(6, 2, "ii")

    def test_family_invariants_exhaustive(self):
        # every feasible (n, m, which) with n <= 12 builds an order-n
        # m-segment caterpillar: unit pendants, max degree 4, degree-4 only
        # next to the backbone ends
        built = 0
        for n in range(2, 13):
            for m in range(1, n):
                if m == 2:
                    continue
                for which in FAMILY_LABELS:
                    try:
                        build = caterpillar_family(n, m, which)
                    except (ParityMismatchError, UnrealizableError):
                        continue
                    t = build.tree
                    built += 1
                    assert t.n == n
                    seq = segment_sequence(t)
                    assert len(seq) == m
                    assert is_quasi_caterpillar(t)
                    degrees = [t.degree(v) for v in range(t.n)]
                    assert max(degrees) <= 4
                    if m > 1:
                        view = backbone_over_all_candidates(t)
                        assert set(view.pendant_segment_lengths) <= {1}
                        deg4 = [v for v in range(t.n) if t.degree(v) == 4]
                        ends = {
                            view.path[view.branch_indices[0]],
                            view.path[view.branch_indices[-1]],
                        }
                        assert all(v in ends for v in deg4)
                    pendant_edges = sum(d - 2 for d in build.params.degree_pattern)
                    assert build.t_used + 1 + pendant_edges == n
                    assert build.params.t - build.t_used == 1
        assert built > 40


def _outcome(build, *args) -> str:
    """The edge list of the built tree (plus the family metadata for a
    FamilyBuild), or the type and message of the error it raised."""
    try:
        out = build(*args)
    except ValueError as exc:
        return f"{args!r} {type(exc).__name__}: {exc}\n"
    if hasattr(out, "params"):
        meta = f"{out.params!r} {out.t_used} {out.t_adjusted} {out.note!r}"
        return f"{args!r} {meta}\n{format_edge_list(out.tree)}"
    return f"{args!r}\n{format_edge_list(out)}"


def test_golden_constructions():
    # sha256 over every construction below; any change to a tree or its
    # labels, to the family metadata or to an error message shows up here
    digest = hashlib.sha256()
    for n in range(2, 15):
        for seq in segment_sequences_of_order(n):
            digest.update(_outcome(starlike, seq).encode())
    for seq in [(), (2, 2), (2, 0, 1), (-1,), (3, 1, 2)]:
        digest.update(_outcome(starlike, seq).encode())
    for n in range(0, 15):
        for m in range(-1, n + 2):
            digest.update(_outcome(balanced_starlike, n, m).encode())
    rng = random.Random(5)
    for _ in range(1500):  # every joint carries one or two pendants
        r = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 5)))
        pend = [(j, rng.randint(1, 3)) for j in range(1, len(r)) for _ in range(rng.randint(1, 2))]
        rng.shuffle(pend)
        digest.update(_outcome(quasi_caterpillar, r, pend).encode())
    for _ in range(500):  # mostly invalid
        r = tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 4)))
        pend = [(rng.randint(0, len(r)), rng.randint(0, 3)) for _ in range(rng.randint(0, 5))]
        digest.update(_outcome(quasi_caterpillar, r, pend).encode())
    for n in range(0, 31):
        for m in range(-1, n + 2):
            for which in FAMILY_LABELS + ("v",):
                digest.update(_outcome(caterpillar_family, n, m, which).encode())
    assert digest.hexdigest() == "18898cc4f6563e6924eef562235dc40cdcc49130489fb9e6d7d827899d2d89f6"
