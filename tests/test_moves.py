from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter, defaultdict
from typing import Iterator

import pytest

from segwiener.enumeration import all_trees
from segwiener.exact import CountOverflowError
from segwiener.generators import caterpillar_family, quasi_caterpillar, starlike
import segwiener.moves as moves
from segwiener.moves import (
    ClosedFormMismatchError,
    InvalidDescriptorError,
    Reattach,
    _rewire,
    Slide,
    Switch,
    apply_reattach,
    apply_slide,
    apply_switch,
    hill_climb,
    neighbors,
    slide_move,
)
from segwiener.steiner import _weights, sw_k
from segwiener.trees import (
    InvalidTreeError,
    Tree,
    _read_built,
    canonical_code,
    is_quasi_caterpillar,
    segment_sequence,
)
from segwiener.verify import random_switch_instance

from .conftest import double_broom, every_move, moves_of_kind, path_tree, ranked
from .oracles import (
    built_by_kind,
    delta_by_kind,
    delta_over_relocations,
    path,
    random_labeled_tree,
    reattach_descriptors,
    relabel,
    segment_decomposition,
    side_reader,
    slide_descriptor_count,
    slide_moves_per_anchor,
    sw_k_bruteforce,
    switch_descriptors,
)


def hanging_size(t: Tree, root: int, at: int) -> int:
    """The vertex count of the component hanging at *at* through *root*."""
    seen, stack = {at, root}, [root]
    while stack:
        for w in t.adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) - 1


class TestSwitch:
    def test_strict_instance_increases(self):
        rng = random.Random(5)
        for _ in range(20):
            tree, move = random_switch_instance(rng, relation="strict")
            for k in (2, 3, 4):
                assert apply_switch(tree, move, k).delta > 0

    def test_mirrored_instance_decreases(self):
        rng = random.Random(6)
        for _ in range(20):
            tree, move = random_switch_instance(rng, relation="mirrored")
            for k in (2, 3, 4):
                assert apply_switch(tree, move, k).delta < 0

    def test_isomorphic_components_give_zero(self):
        rng = random.Random(7)
        for _ in range(20):
            tree, move = random_switch_instance(rng, relation="equal")
            out = apply_switch(tree, move, 3)
            assert out.delta == 0
            assert canonical_code(out.tree) == canonical_code(tree)

    def test_delta_matches_brute_force(self):
        rng = random.Random(8)
        found = 0
        while found < 10:
            tree, move = random_switch_instance(rng)
            if tree.n > 14:
                continue
            found += 1
            out = apply_switch(tree, move, 3)
            assert out.delta == sw_k_bruteforce(out.tree, 3) - sw_k_bruteforce(tree, 3)

    def test_closed_form_on_seeded_instances(self):
        # Lemma 3.1's strict instances at every k: the closed form equals
        # the rebuilt tree's delta, and for k >= 2 it is 0 exactly when
        # k > n - 1 - |Y| - |B| (= x + |A| + s) and positive below; SW_1 is
        # 0 on every tree
        rng = random.Random(31)
        zeros = 0
        for _ in range(300):
            tree, move = random_switch_instance(rng)
            segment = path(tree, move.w0, move.ws)
            size_b = hanging_size(tree, move.b_root, move.ws)
            size_y = sum(hanging_size(tree, v, move.ws) for v in tree.adj[move.ws] if v not in (move.b_root, segment[-2]))
            for k in range(1, tree.n + 1):
                closed = {m: d for m, _, d in ranked(tree, k)}[move]
                assert closed == apply_switch(tree, move, k).delta
                if k >= 2:
                    assert (closed == 0) == (k > tree.n - 1 - size_y - size_b)
                    assert closed >= 0
                    zeros += closed == 0
        assert zeros > 0

    def test_rejects_non_branch_endpoint(self):
        t = path_tree(6)
        with pytest.raises(InvalidDescriptorError):
            apply_switch(t, Switch(w0=0, ws=5, a_root=1, b_root=4), 2)

    def test_rejects_path_through_a_branch_vertex(self):
        # the path 0..4 exists but passes the branch vertex 2, so it is two
        # segments, not one
        t = Tree.from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (0, 6), (2, 7), (2, 8), (4, 9), (4, 10)])
        apply_switch(t, Switch(w0=0, ws=2, a_root=5, b_root=7), 2)
        apply_reattach(t, Reattach(u1=0, u2=2, moved=(5, 6)), 2)
        with pytest.raises(InvalidDescriptorError):
            apply_switch(t, Switch(w0=0, ws=4, a_root=5, b_root=9), 2)
        with pytest.raises(InvalidDescriptorError):
            apply_reattach(t, Reattach(u1=0, u2=4, moved=(5, 6)), 2)

    def test_rejects_segment_neighbour_as_root(self, fig1_bottom):
        move = moves_of_kind(fig1_bottom, Switch)[0]
        segment = path(fig1_bottom, move.w0, move.ws)
        bad = Switch(w0=move.w0, ws=move.ws, a_root=segment[1], b_root=move.b_root)
        with pytest.raises(InvalidDescriptorError):
            apply_switch(fig1_bottom, bad, 2)


class TestSlide:
    def test_symmetric_slide_is_identity(self):
        # pendant hanging exactly in the middle: mirror equals source
        t = quasi_caterpillar((2, 2), [(1, 3)])
        move = slide_move(t, path(t, 0, 4))
        out = apply_slide(t, move, 2)
        assert out.delta == 0 and out.tree is t

    def test_composite_theorem2_configuration(self):
        # anchored path with a branch anchor, X and Y hanging inside, p < p';
        # sliding then switching strictly increases the index
        edges = [(i, i + 1) for i in range(4)]
        edges += [(0, 5), (0, 6)]  # branch anchor
        edges += [(1, 7), (7, 8), (7, 9)]  # X at distance 1
        edges += [(2, 10), (10, 11)]  # Y at distance 2
        t = Tree.from_edges(edges, n=12)
        move = slide_move(t, tuple(range(5)))
        for k in (2, 3, 4):
            slid = apply_slide(t, move, k)
            assert slid.delta >= 0
            switched = apply_switch(slid.tree, Switch(w0=2, ws=3, a_root=7, b_root=10), k)
            assert switched.delta > 0
            assert slid.delta + switched.delta > 0
            assert segment_sequence(switched.tree) == segment_sequence(t)

    def test_pendant_slide_toward_light_side_increases(self):
        # backbone (1,3,1,1) with a heavy right side; sliding the middle
        # pendant toward the light side increases the index
        t = quasi_caterpillar((1, 3, 1, 1), [(1, 1), (2, 1), (3, 4)])
        move = slide_move(t, path(t, 1, 5))
        for k in (2, 3, 4):
            assert apply_slide(t, move, k).delta > 0

    def test_slide_rejects_degree_two_anchor(self):
        t = quasi_caterpillar((2, 2), [(1, 1)])
        with pytest.raises(InvalidDescriptorError):
            apply_slide(t, slide_move(t, path(t, 1, 4)), 2)

    def test_slide_rejects_bare_path(self):
        t = path_tree(5)
        with pytest.raises(InvalidDescriptorError):
            slide_move(t, path(t, 0, 4))

    def test_slide_rejects_short_and_revisiting_paths(self):
        with pytest.raises(InvalidDescriptorError, match="needs interior vertices"):
            slide_move(path_tree(2), (0, 1))
        with pytest.raises(InvalidDescriptorError, match="revisits a vertex"):
            slide_move(path_tree(3), (0, 1, 0))

    def test_slide_rejects_mismatched_endpoints(self):
        t = quasi_caterpillar((1, 3), [(1, 2)])
        move = slide_move(t, path(t, 0, 4))
        bad = Slide(path=move.path, source=move.source, dest=move.source)
        with pytest.raises(InvalidDescriptorError):
            apply_slide(t, bad, 2)


class TestReattach:
    def test_always_negative_on_samples(self):
        rng = random.Random(9)
        for _ in range(20):
            tree, move = random_switch_instance(rng)
            for u1, u2 in ((move.w0, move.ws), (move.ws, move.w0)):
                seg_next = path(tree, u1, u2)[1]
                moved = tuple(sorted(w for w in tree.adj[u1] if w != seg_next))
                for k in (2, 3, 4):
                    out = apply_reattach(tree, Reattach(u1=u1, u2=u2, moved=moved), k)
                    assert out.delta < 0

    def test_never_raises_the_index(self):
        # a reattach brings the moved components closer to the far end's
        # components by the segment's length and leaves their distances to
        # the segment as they were, so no k-set spans more: every reattach
        # on every tree of order <= 10, at every k, recomputed, lowers SW_k
        # or keeps it, and so no reattach leaves i128 where its source fits
        reattaches = 0
        for n in range(4, 11):
            for t in all_trees(n):
                for k in range(1, n + 1):
                    for out in neighbors(t, k):
                        if isinstance(out.move, Reattach):
                            reattaches += 1
                            assert out.delta <= 0, (t, out.move, k)
        assert reattaches > 1000

    def test_fig1_bottom_collapse(self, fig1_bottom):
        move = moves_of_kind(fig1_bottom, Reattach)[0]
        out = apply_reattach(fig1_bottom, move, 2)
        assert out.delta < 0
        assert segment_sequence(out.tree) == segment_sequence(fig1_bottom)

    def test_rejects_leaf_target(self, k13):
        with pytest.raises(InvalidDescriptorError):
            apply_reattach(k13, Reattach(u1=0, u2=1, moved=(2, 3)), 2)

    def test_rejects_partial_move_set(self, fig1_bottom):
        move = moves_of_kind(fig1_bottom, Reattach)[0]
        bad = Reattach(u1=move.u1, u2=move.u2, moved=move.moved[:-1])
        with pytest.raises(InvalidDescriptorError):
            apply_reattach(fig1_bottom, bad, 2)


def branch_segments(t: Tree) -> list[tuple[int, ...]]:
    """The segments of `segment_decomposition` with two branch endpoints."""
    if t.n < 2:
        return []
    return [s.vertices for s in segment_decomposition(t) if min(map(t.degree, s.endpoints)) >= 3]


def listed_trees() -> Iterator[Tree]:
    """Every tree of order up to 11, four random labelled trees of each
    order 12..60, short paths and starlike trees, each also under a random
    relabelling, since anchors and segments are listed in vertex-id
    order."""
    rng = random.Random(17)
    trees = [t for n in range(1, 12) for t in all_trees(n)]
    trees += [random_labeled_tree(n, rng) for n in range(12, 61) for _ in range(4)]
    trees += [path_tree(n) for n in range(1, 9)]
    trees += [starlike((1,) * m) for m in range(3, 9)]
    trees += [starlike(legs) for legs in ((2, 1, 1), (3, 2, 2), (2, 2, 2, 2), (5, 3, 1, 1, 1), (4, 4, 4))]
    for t in trees:
        yield t
        yield relabel(t, rng.sample(range(t.n), t.n))


class TestValidationMatchesEnumeration:
    def test_switch_accepted_iff_enumerated(self):
        rejected = 0
        for n in range(1, 9):
            for t in all_trees(n):
                enumerated, accepted = set(moves_of_kind(t, Switch)), set()
                for seg in branch_segments(t):
                    w0, ws = seg[0], seg[-1]
                    for a, b in itertools.product(t.adj[w0], t.adj[ws]):
                        move = Switch(w0=w0, ws=ws, a_root=a, b_root=b)
                        try:
                            accepted.add(apply_switch(t, move, 2).move)
                        except InvalidDescriptorError:
                            rejected += 1
                assert accepted == enumerated
        assert rejected > 0

    def test_reattach_needs_the_full_off_segment_set(self):
        for n in range(1, 9):
            for t in all_trees(n):
                enumerated = set(moves_of_kind(t, Reattach))
                for seg in branch_segments(t):
                    for u1, u2 in ((seg[0], seg[-1]), (seg[-1], seg[0])):
                        full = tuple(w for w in t.adj[u1] if w not in seg)
                        move = Reattach(u1=u1, u2=u2, moved=full)
                        assert move in enumerated
                        out = apply_reattach(t, move, 2)
                        for size in range(len(full)):
                            for part in itertools.combinations(full, size):
                                with pytest.raises(InvalidDescriptorError):
                                    apply_reattach(t, Reattach(u1=u1, u2=u2, moved=part), 2)
                        # the caller's descriptor comes back as given
                        unsorted = Reattach(u1=u1, u2=u2, moved=full[::-1])
                        back = apply_reattach(t, unsorted, 2)
                        assert (back.move, back.tree, back.delta) == (unsorted, out.tree, out.delta)


class TestNeighbors:
    def test_path_has_none(self):
        assert neighbors(path_tree(7), 2) == []

    def test_star_has_none(self, k13):
        assert neighbors(k13, 2) == []

    def test_k_validated_without_an_evaluation(self, k13):
        # a tree without moves and an identity slide evaluate nothing
        t = quasi_caterpillar((2, 2), [(1, 3)])
        identity = slide_move(t, path(t, 0, 4))
        for k in (0, -7, 99):
            with pytest.raises(ValueError):
                neighbors(k13, k)
            with pytest.raises(ValueError):
                apply_slide(t, identity, k)

    def test_bad_k_raises_before_the_tree_is_read(self, fig1_bottom, monkeypatch):
        # on a tree with moves, a bad k must fail before `_rank` reads and
        # prices the tree, not when the first outcome is evaluated
        calls = []
        for name in ("_rank", "_read_built"):
            fn = getattr(moves, name)
            monkeypatch.setattr(moves, name, lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a))
        assert neighbors(fig1_bottom, 2)
        assert calls
        calls.clear()
        for k in (0, fig1_bottom.n + 1):
            with pytest.raises(ValueError):
                neighbors(fig1_bottom, k)
        assert calls == []

    def test_fig1_bottom_counts_match_naive_enumerators(self, fig1_bottom):
        outs = neighbors(fig1_bottom, 2)
        assert len(outs) > 0
        by_kind = defaultdict(int)
        for o in outs:
            by_kind[type(o.move).__name__] += 1
        assert by_kind["Switch"] == len(switch_descriptors(fig1_bottom))
        assert by_kind["Slide"] == slide_descriptor_count(fig1_bottom)
        assert by_kind["Reattach"] == len(reattach_descriptors(fig1_bottom))

    def test_descriptor_counts_match_naive_exhaustive(self):
        for n in range(2, 9):
            for t in all_trees(n):
                assert len(moves_of_kind(t, Switch)) == len(switch_descriptors(t))
                assert len(moves_of_kind(t, Slide)) == slide_descriptor_count(t)
                assert len(moves_of_kind(t, Reattach)) == len(reattach_descriptors(t))

    def test_random_neighbourhoods_match_oracles(self):
        # each neighbour is a valid tree in the source's class, and the
        # slide scan finds exactly the slides of the pairwise oracle
        rng = random.Random(40)
        for _ in range(200):
            n = rng.randint(2, 30)
            t = random_labeled_tree(n, rng)
            assert len(moves_of_kind(t, Slide)) == slide_descriptor_count(t)
            k = rng.randint(1, n)
            seq = segment_sequence(t)
            for o in neighbors(t, k):
                assert o.tree == Tree.from_edges(list(o.tree.edges()), n=n)
                assert segment_sequence(o.tree) == seq
                assert o.delta == sw_k(o.tree, k) - sw_k(t, k)

    def test_slides_match_the_per_anchor_search(self):
        # the list must match order included
        for labelled in listed_trees():
            assert moves_of_kind(labelled, Slide) == list(slide_moves_per_anchor(labelled))

    def test_switches_and_reattaches_match_the_pairwise_scan(self):
        # ties in a climb go to the first move in move order, so the order
        # of these two kinds is pinned too, not only their sets
        listed = Counter()
        for labelled in listed_trees():
            switches, reattaches = moves_of_kind(labelled, Switch), moves_of_kind(labelled, Reattach)
            assert switches == switch_descriptors(labelled)
            assert reattaches == reattach_descriptors(labelled)
            listed.update(map(type, switches + reattaches))
        assert min(listed[Switch], listed[Reattach]) > 1000

    def test_relocations_match_the_per_kind_routes(self):
        # the one builder reads `_relocations` and the closed form the
        # prefix sums; each move kind's own builder and formula are the
        # second route, and the builder's read of its result is that of
        # the result read afresh
        rng = random.Random(15)
        trees = [t for n in range(1, 10) for t in all_trees(n)]
        trees += [random_labeled_tree(rng.randint(1, 30), rng) for _ in range(200)]
        kinds = Counter()
        for t in trees:
            side = side_reader(t)
            for record, where, _ in every_move(t, 1):
                path = moves._path(record, where)
                move = moves._descriptor(t, record, path)
                result, *read = moves._built(t, move, path)
                assert result == built_by_kind(t, move)
                assert tuple(read) == _read_built(result)
                kinds[type(move)] += 1
            for k in range(1, min(4, t.n) + 1):
                w = _weights(t.n, k)
                for move, path, delta in ranked(t, k):
                    assert delta == delta_by_kind(w, side, path, move)
        assert min(kinds[kind] for kind in (Switch, Slide, Reattach)) > 1000

    def test_ranked_deltas_on_long_segments(self):
        # long segments and long anchored paths, at every k: the prefix-sum
        # deltas against the relocation list stepped edge by edge, the
        # per-kind formulas and the neighbours rebuilt and recomputed, each
        # tree also under a random relabelling
        rng = random.Random(21)
        trees = [starlike(legs) for legs in ((5, 5, 6), (9, 7, 5), (12, 10, 8, 6, 5), (20, 15, 10, 7, 5))]
        trees += [starlike(legs) for legs in ((7, 5, 3, 2, 1, 1), (4, 3, 3, 3, 3, 2, 1, 1), (2,) * 9 + (1,) * 9)]
        trees += [starlike((handle,) + (1,) * bristles) for handle, bristles in ((8, 3), (30, 12), (45, 14))]
        trees += [double_broom(length, 3, 4) for length in (5, 20, 50)]
        trees += [caterpillar_family(n, m, which).tree for n, m, which in ((30, 7, "i"), (45, 9, "ii"), (60, 8, "iii"), (60, 10, "iv"))]
        trees += [quasi_caterpillar((6, 9, 5, 7), [(1, 5), (1, 8), (2, 6), (3, 5), (3, 1)])]
        assert max(t.n for t in trees) == 60
        kinds = Counter()
        for t in trees:
            for labelled in (t, relabel(t, rng.sample(range(t.n), t.n))):
                side = side_reader(labelled)
                for k in range(1, labelled.n + 1):
                    w = _weights(labelled.n, k)
                    closed = []
                    for move, path, delta in ranked(labelled, k):
                        assert delta == delta_over_relocations(w, side, path, moves._relocations(labelled, move, path))
                        assert delta == delta_by_kind(w, side, path, move)
                        closed.append((move, delta))
                        kinds[type(move)] += 1
                    assert closed == [(o.move, o.delta) for o in neighbors(labelled, k)]
        assert min(kinds[kind] for kind in (Switch, Slide, Reattach)) > 100

    def test_ranking_overflows_as_the_neighbours_do(self):
        # at order 131 the weight row leaves i128 at k = 63..68 (C(131, 65)
        # among them) and SW_k at more k around them: at every k the ranking
        # raises exactly where the neighbourhood does, with its message, and
        # agrees elsewhere
        def run(route):
            """What *route* returns, or the message of its CountOverflowError."""
            try:
                return route(), None
            except CountOverflowError as error:
                return None, str(error)

        t = double_broom(124, 3, 3)
        assert t.n == 131
        raised = {}
        for k in range(1, t.n + 1):
            closed = run(lambda: [(move, delta) for move, _, delta in ranked(t, k)])
            recomputed = run(lambda: [(o.move, o.delta) for o in neighbors(t, k)])
            assert closed == recomputed, k
            if closed[1] is not None:
                raised[k] = closed[1]
        assert raised[65] == "C(131,65) exceeds the signed 128-bit range"
        assert set(range(63, 69)) < set(raised)
        assert any(not message.startswith("C(") for message in raised.values())
        # SW_40 of this tree fits, and that of one of its neighbours does not
        t = quasi_caterpillar((18, 1, 71), [(1, 33), (2, 21), (2, 1)])
        assert sw_k(t, 40) > 0
        _, message = run(lambda: list(ranked(t, 40)))
        assert message is not None and not message.startswith("C(")
        assert message == run(lambda: neighbors(t, 40))[1]

    def test_a_switch_overflows_first(self):
        # SW_40 of this quasi-caterpillar of order 146 fits, and the first
        # move in `_rank` order whose result leaves i128 is a switch (some
        # later slides leave it too): the ranking raises at that switch, with
        # the message of building it, and so does `neighbors`
        t = quasi_caterpillar((5, 1, 121, 5), [(1, 6), (2, 6), (3, 1)])
        assert t.n == 146 and sw_k(t, 40) > 0
        expected = None
        for move in moves_of_kind(t, Switch):
            try:
                apply_switch(t, move, 40)
            except CountOverflowError as error:
                expected = str(error)
                break
        assert expected is not None and not expected.startswith("C(")
        for route in (lambda: list(ranked(t, 40)), lambda: neighbors(t, 40)):
            with pytest.raises(CountOverflowError) as raised:
                route()
            assert str(raised.value) == expected

    def test_rewire_refuses_non_trees(self):
        t = path_tree(5)  # 0-1-2-3-4
        assert _rewire(t, drop=[(0, 1)], add=[(0, 4)])[0] == Tree.from_edges([(1, 2), (2, 3), (3, 4), (4, 0)])
        with pytest.raises(InvalidDescriptorError):
            _rewire(t, drop=[(0, 2)], add=[(0, 2)])
        for drop, add in (
            ([(0, 1)], [(2, 4)]),  # n - 1 edges, but 0 is cut off and 2-3-4 is a cycle
            ([(0, 1)], [(1, 2)]),  # the added edge is already there
            ([(0, 1)], [(1, 1)]),  # a self-loop
            ([(0, 1)], []),  # too few edges
            ([], [(0, 4)]),  # too many edges
            ([(0, 1), (3, 4)], [(0, 4), (0, 4)]),  # one edge added twice
        ):
            with pytest.raises(ValueError):
                _rewire(t, drop, add)

    def test_out_of_range_vertex_ids_are_invalid_descriptors(self):
        t = Tree.from_edges([(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6)])
        # the valid moves these are bent from
        apply_switch(t, Switch(w0=0, ws=4, a_root=1, b_root=5), 2)
        apply_reattach(t, Reattach(u1=0, u2=4, moved=(1, 2)), 2)
        apply_slide(t, slide_move(t, (1, 0, 3, 4, 5)), 2)
        for bad in (t.n, 99, -t.n):  # -n would alias vertex 0
            with pytest.raises(InvalidDescriptorError):
                apply_switch(t, Switch(w0=bad, ws=4, a_root=1, b_root=5), 2)
            with pytest.raises(InvalidDescriptorError):
                apply_switch(t, Switch(w0=0, ws=bad, a_root=1, b_root=5), 2)
            with pytest.raises(InvalidDescriptorError):
                apply_reattach(t, Reattach(u1=bad, u2=4, moved=(1, 2)), 2)
            with pytest.raises(InvalidDescriptorError):
                apply_reattach(t, Reattach(u1=0, u2=bad, moved=(1, 2)), 2)
            with pytest.raises(InvalidDescriptorError):
                slide_move(t, (bad, 1, 0, 3, 4, 5))
            with pytest.raises(InvalidDescriptorError):
                apply_slide(t, Slide(path=(bad, 1, 0, 3, 4, 5), source=0, dest=1), 2)
            with pytest.raises(InvalidDescriptorError):
                apply_slide(t, Slide(path=(1, 0, 3, 4, 5, bad), source=0, dest=0), 2)

    def test_closure_small(self):
        for n in range(2, 8):
            for t in all_trees(n):
                seq = segment_sequence(t)
                for o in neighbors(t, 2):
                    assert o.tree.n == n
                    assert segment_sequence(o.tree) == seq


class TestMergedBuild:
    """A rewired tree is checked and read off one breadth-first search."""

    def test_rewire_keeps_its_messages(self):
        t = path_tree(5)  # 0-1-2-3-4
        for drop, add, message in (
            ([(0, 1)], [(2, 4)], "rewiring disconnects the tree"),
            ([(0, 1)], [], "rewiring leaves 3 edges for 5 vertices"),
            ([], [(0, 4)], "rewiring leaves 5 edges for 5 vertices"),
            ([(0, 1)], [(1, 2)], "added edge (1, 2) is a self-loop or already present"),
        ):
            with pytest.raises(InvalidTreeError) as error:
                _rewire(t, drop, add)
            assert str(error.value) == message
        with pytest.raises(InvalidDescriptorError, match=r"^edge \(0, 2\) not present$"):
            _rewire(t, [(0, 2)], [(0, 2)])

    def test_a_disconnecting_build_raises(self, monkeypatch):
        # each built move drops the first edge of its path, of at least four
        # vertices here, and joins path[1] to path[3] instead: n - 1 edges,
        # but path[0] is cut off and path[1..3] closes a cycle
        t = double_broom(3, 2, 2)
        monkeypatch.setattr(moves, "_relocations", lambda t, move, path: [(path[1], 0, 3)])
        with pytest.raises(InvalidTreeError, match="^rewiring disconnects the tree$"):
            hill_climb(t, 2, "minimize")
        with pytest.raises(InvalidTreeError, match="^rewiring disconnects the tree$"):
            neighbors(t, 2)

    def test_a_changed_segment_sequence_raises(self, fig1_bottom, monkeypatch):
        # each component lands one vertex short of its place: the result is
        # a tree of another segment class, which its read shows
        relocations = moves._relocations
        monkeypatch.setattr(
            moves, "_relocations", lambda t, move, path: [(root, i, j - 1 if j > i else j + 1) for root, i, j in relocations(t, move, path)]
        )
        for k, direction in ((2, "maximize"), (3, "minimize")):
            with pytest.raises(InvalidDescriptorError, match="^move would change the segment sequence$"):
                hill_climb(fig1_bottom, k, direction)
        with pytest.raises(InvalidDescriptorError, match="^move would change the segment sequence$"):
            neighbors(fig1_bottom, 2)


class TestHillClimb:
    def test_starlike_is_a_minimize_fixed_point(self, fig1_top):
        res = hill_climb(fig1_top, 3, "minimize")
        assert res.steps == ()
        assert res.tree is fig1_top

    def test_minimize_reaches_the_starlike_tree_exhaustively(self):
        for n in range(2, 11):
            for t in all_trees(n):
                star_code = canonical_code(starlike(segment_sequence(t)))
                for k in (2, 3, 4):
                    if k > n:
                        continue
                    res = hill_climb(t, k, "minimize")
                    assert canonical_code(res.tree) == star_code

    def test_maximize_from_starlike_ends_at_quasi_caterpillar(self):
        for n in range(4, 11):
            for seq in [(n - 1,), (n - 3, 1, 1), (1,) * (n - 1)]:
                res = hill_climb(starlike(seq), 3, "maximize")
                assert is_quasi_caterpillar(res.tree)

    def test_deltas_strictly_monotone(self, fig1_bottom):
        res = hill_climb(fig1_bottom, 2, "maximize")
        assert all(o.delta > 0 for o in res.steps)
        res = hill_climb(fig1_bottom, 2, "minimize")
        assert all(o.delta < 0 for o in res.steps)

    def test_golden_climbs(self):
        # sha256 over seeded climbs in both directions, k = 2..4, n <= 20:
        # the final tree, and each step's descriptor, delta and tree;
        # recorded before the neighbourhood evaluated its source once
        digest = hashlib.sha256()
        rng = random.Random(70)
        for _ in range(40):
            t = random_labeled_tree(rng.randint(4, 20), rng)
            for k in (2, 3, 4):
                for direction in ("minimize", "maximize"):
                    res = hill_climb(t, k, direction)
                    digest.update(f"{t.n} {k} {direction} {list(res.tree.edges())}\n".encode())
                    for o in res.steps:
                        digest.update(f"{o.move!r} {o.delta} {list(o.tree.edges())}\n".encode())
        assert digest.hexdigest() == "a2d32eb6aba7f21102f658580b39359dbe6a2452f2cd42285de0cccc5f561ec3"

    def test_direction_validated(self, k13):
        with pytest.raises(ValueError):
            hill_climb(k13, 2, "sideways")

    def test_k_validated(self, k13, fig1_bottom):
        # a path and a star have no move: k is checked before any is sought
        for t in (path_tree(4), k13, fig1_bottom):
            for k in (0, t.n + 1):
                with pytest.raises(ValueError):
                    hill_climb(t, k)

    def test_builds_only_the_ties_on_the_best_gain(self, fig1_bottom, monkeypatch):
        # each step rewires exactly the moves that tie on its best gain
        rewired = []
        rewire = moves._rewire
        monkeypatch.setattr(moves, "_rewire", lambda t, drop, add: rewired.append(t) or rewire(t, drop, add))
        for k, direction in ((2, "maximize"), (3, "minimize")):
            rewired.clear()
            res = hill_climb(fig1_bottom, k, direction)
            sign = 1 if direction == "maximize" else -1
            expected, moves_seen = [], 0
            for source in (fig1_bottom, *(o.tree for o in res.steps[:-1])):
                gains = [sign * delta for _, _, delta in every_move(source, k)]
                expected += [source] * gains.count(max(gains))
                moves_seen += len(gains)
            assert res.steps and rewired == expected
            assert len(rewired) < moves_seen

    def test_describes_only_the_ties_on_the_best_gain(self, fig1_bottom, monkeypatch):
        # the ranking builds no descriptor; each step builds one per move
        # tied on its best gain
        described = []
        for kind in (Switch, Slide, Reattach):
            init = kind.__init__
            monkeypatch.setattr(kind, "__init__", lambda self, *a, _init=init, **kw: described.append(self) or _init(self, *a, **kw))
        for k, direction in ((2, "maximize"), (3, "minimize"), (4, "maximize")):
            res = hill_climb(fig1_bottom, k, direction)
            built = described[:]
            described.clear()
            sign = 1 if direction == "maximize" else -1
            tied = moves_seen = 0
            for source in (fig1_bottom, *(o.tree for o in res.steps)):
                gains = [sign * delta for _, _, delta in every_move(source, k)]
                tied += gains.count(max(gains)) if max(gains) > 0 else 0
                moves_seen += len(gains)
            assert described == []
            assert res.steps and len(built) == tied < moves_seen
            assert all(o.move in built for o in res.steps)

    def test_builds_slide_paths_only_for_the_tied_slides(self, monkeypatch):
        # the ranking reads each slide off its locator; each step builds the
        # path of exactly the slides tied on its best gain, once each
        built = []
        slide_path = moves._slide_path
        monkeypatch.setattr(moves, "_slide_path", lambda *where: built.append(where) or slide_path(*where))
        rng = random.Random(24)
        tied = slides = 0
        for t in [random_labeled_tree(rng.randint(12, 32), rng) for _ in range(20)]:
            for k, direction in ((2, "maximize"), (3, "minimize")):
                built.clear()
                res = hill_climb(t, k, direction)
                during = built[:]
                sign = 1 if direction == "maximize" else -1
                expected = []
                for source in (t, *(o.tree for o in res.steps)):
                    ranking = every_move(source, k)
                    gain = max((sign * delta for _, _, delta in ranking), default=0)
                    expected += [where for record, where, delta in ranking if record[0] is Slide and sign * delta == gain > 0]
                    slides += sum(record[0] is Slide for record, _, _ in ranking)
                assert built == during == expected
                tied += len(expected)
        assert 0 < tied < slides

    def test_reads_each_step_source_once(self, fig1_bottom, monkeypatch):
        # one read (`trees._read_built`) of the start, when it has a move,
        # to rank it, and one (`trees._read`, off the search that checks the
        # rewired tree) per neighbour tied on its best gain, to recompute
        # it; each later step ranks its source off the read of the tie that
        # became it, and the ties' outcomes take the source's segments and
        # SW_k off the ranking's read
        rng = random.Random(25)
        trees = [path_tree(6), fig1_bottom, *(random_labeled_tree(rng.randint(12, 32), rng) for _ in range(12))]
        cases = [(t, k, direction) for t in trees for k in (2, 3) for direction in ("minimize", "maximize")]
        expected, tied = [], 0
        for t, k, direction in cases:
            res = hill_climb(t, k, direction)
            sign = 1 if direction == "maximize" else -1
            ties = 0
            for source in (t, *(o.tree for o in res.steps)):
                gains = [sign * delta for _, _, delta in every_move(source, k)]
                if gains:
                    step = gains.count(max(gains)) if max(gains) > 0 else 0
                    ties += step
                    tied += step > 1
            expected.append((len(every_move(t, k)) > 0, ties))
        seen = {"source": [], "tie": []}
        for name, label in (("_read_built", "source"), ("_read", "tie")):
            read = getattr(moves, name)
            monkeypatch.setattr(moves, name, lambda *a, _read=read, _label=label: seen[_label].append(a) or _read(*a))
        for (t, k, direction), reads in zip(cases, expected):
            seen["source"].clear()
            seen["tie"].clear()
            hill_climb(t, k, direction)
            assert (len(seen["source"]), len(seen["tie"])) == reads, (t, k, direction)
        assert expected[0] == (False, 0) and tied > 0

    def test_closed_form_mismatch_raises(self, fig1_bottom, monkeypatch):
        # a ranked delta one off from the rebuilt neighbour's is caught
        rank = moves._rank

        def off_by_one(t, k, sign, read):
            gain, ties, source = rank(t, k, sign, read)
            return gain, [(record, where, delta + 1) for record, where, delta in ties], source

        monkeypatch.setattr(moves, "_rank", off_by_one)
        with pytest.raises(ClosedFormMismatchError):
            hill_climb(fig1_bottom, 2, "maximize")

    def test_twin_keys_hold_isomorphic_results(self):
        # moves that share a `_twin` key have one canonical code, so coding
        # the first of them decides the tie-break; over every move of these
        # trees, not only the tied ones
        rng = random.Random(30)
        trees = [t for n in range(1, 10) for t in all_trees(n)]
        trees += [random_labeled_tree(rng.randint(5, 30), rng) for _ in range(300)]
        shared = Counter()
        for t in trees:
            codes = {}
            for record, where, _ in every_move(t, 1):
                path = moves._path(record, where)
                result = moves._built(t, moves._descriptor(t, record, path), path)
                code = canonical_code(result[0])
                key = moves._twin(t, record, path)
                if key in codes:
                    assert codes[key] == code, (t, record)
                    shared[record[0]] += 1
                codes[key] = code
        assert min(shared[kind] for kind in (Switch, Slide, Reattach)) > 100

    def test_reach_fraction_reported(self):
        # how often steepest ascent lands on the global maximum is measured,
        # not asserted: the moves are not claimed to connect each class
        reached = total = 0
        for n in range(4, 9):
            per = defaultdict(list)
            for t in all_trees(n):
                per[segment_sequence(t)].append(t)
            for seq, ts in per.items():
                best = max(sw_k(t, 2) for t in ts)
                for t in ts:
                    res = hill_climb(t, 2, "maximize")
                    reached += sw_k(res.tree, 2) == best
                    total += 1
        fraction = reached / total
        print(f"\nmaximize reaches the global optimum from {reached}/{total} starts ({fraction:.3f})")
        assert 0.0 < fraction <= 1.0
