"""Property tests on random labelled trees up to order 200: the index, the
segment sequence and the canonical code do not depend on the labels; the
one read of a tree agrees with the reference routes; the one shape read
answers the quasi-caterpillar test and the structure predicates as the
reference routes do; paths are paths; every move keeps the segment
sequence; the hill climber's closed-form move deltas equal the recomputed
ones of `neighbors`; and, on rooted trees up to order 60 (past the
enumerator's cap), a canonical level sequence written as parentheses is
the sorting coder's rooted code."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from segwiener.enumeration import _parens
from segwiener.exact import CountOverflowError
from segwiener.generators import quasi_caterpillar, starlike
from segwiener.moves import neighbors
from segwiener.steiner import sw_k
from segwiener.trees import Tree, _bfs, _codes, _read, canonical_code, is_quasi_caterpillar, segment_sequence

from .conftest import ranked
from .oracles import (
    edge_side_sizes,
    path,
    prufer_to_adjacency,
    quasi_caterpillar_by_leaf_walks,
    relabel,
    segment_decomposition,
    structure_assessment,
    structure_assessment_over_all_backbones,
)

MAX_N = 200


@st.composite
def labelled_trees(draw) -> Tree:
    """A tree from a Prüfer sequence (uniform over labelled trees once the
    order is drawn)."""
    n = draw(st.integers(1, MAX_N))
    if n <= 2:
        return Tree.from_edges([(0, 1)] if n == 2 else [], n=n)
    adj = prufer_to_adjacency(tuple(draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))), n)
    return Tree.from_edges([(u, v) for u in range(n) for v in adj[u] if u < v], n=n)


def ks(n: int) -> st.SearchStrategy[int]:
    """A k in 1..n: small (SW_k fits in i128 for every order up to 200) or
    near n in half the draws, anywhere in 1..n otherwise, where C(n, k) may
    overflow."""
    small = min(n, 12)
    return st.one_of(st.integers(1, small), st.integers(n - small + 1, n), st.integers(1, n))


@st.composite
def relabelled(draw) -> tuple[Tree, Tree, int]:
    """A tree, a relabelled copy and a k from `ks`."""
    t = draw(labelled_trees())
    perm = draw(st.permutations(range(t.n)))
    return t, relabel(t, perm), draw(ks(t.n))


@st.composite
def tree_and_k(draw) -> tuple[Tree, int]:
    t = draw(labelled_trees())
    return t, draw(ks(t.n))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(relabelled())
def test_relabel_invariance(case):
    t, u, k = case
    assert canonical_code(u) == canonical_code(t)
    if t.n >= 2:
        assert segment_sequence(u) == segment_sequence(t)
    try:
        value = sw_k(t, k)
    except CountOverflowError:
        try:
            sw_k(u, k)
        except CountOverflowError:
            return
        raise AssertionError(f"SW_{k} overflows on one labelling of an order-{t.n} tree only")
    assert sw_k(u, k) == value


def _walked_lengths(t: Tree) -> tuple[int, ...]:
    """The segment lengths found by `segment_decomposition`'s walks."""
    return tuple(sorted((s.length for s in segment_decomposition(t)), reverse=True))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(labelled_trees())
def test_one_read_matches_the_reference_routes(t):
    sides, segments = _read(*_bfs(t.adj, 0), [len(a) for a in t.adj])
    assert sorted(sides) == sorted(edge_side_sizes(t))
    if t.n >= 2:
        assert segment_sequence(t) == segments == _walked_lengths(t)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(labelled_trees())
def test_quasi_caterpillar_matches_leaf_walks(t):
    assert is_quasi_caterpillar(t) == quasi_caterpillar_by_leaf_walks(t)


@st.composite
def relabelled_quasi_caterpillars(draw) -> Tree:
    """A relabelled quasi-caterpillar of order at most 193: either a
    `generators.quasi_caterpillar` with up to six backbone segments and up
    to three pendants at each joint, or a starlike tree whose two to four
    longest legs tie.  At most four legs tie at each end of a backbone, and
    at most eight at a starlike tree's centre, so the all-candidates oracles
    read at most 28 candidates."""
    if draw(st.booleans()):
        top = draw(st.integers(1, 20))
        tied = draw(st.integers(2, 4))
        legs = [top] * tied + draw(st.lists(st.integers(1, top), min_size=max(0, 3 - tied), max_size=4))
        t = starlike(legs)
    else:
        r = draw(st.lists(st.integers(1, 12), min_size=1, max_size=6))
        pendants = [
            (j, length)
            for j in range(1, len(r))
            for length in draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
        ]
        t = quasi_caterpillar(r, pendants)
    return relabel(t, draw(st.permutations(range(t.n))))


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(relabelled_quasi_caterpillars())
def test_one_shape_read_answers_as_every_backbone_candidate(t):
    assert structure_assessment(t) == structure_assessment_over_all_backbones(t)


@st.composite
def tree_and_two_vertices(draw) -> tuple[Tree, int, int]:
    t = draw(labelled_trees())
    return t, draw(st.integers(0, t.n - 1)), draw(st.integers(0, t.n - 1))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(tree_and_two_vertices())
def test_path_is_a_path(case):
    t, u, v = case
    walk = path(t, u, v)
    assert walk[0] == u and walk[-1] == v
    assert len(set(walk)) == len(walk)
    assert all(b in t.adj[a] for a, b in zip(walk, walk[1:]))


# a neighbourhood at order 200 has a few thousand moves, about 3 s to build
# and check on a 2-core machine, so this draws fewer trees than the tests
# above (every tree of order <= 7 is checked in test_moves.py)
@settings(derandomize=True, deadline=None, database=None, max_examples=10)
@given(labelled_trees(), st.integers(1, 4))
def test_moves_keep_the_segment_sequence(t, k):
    lengths = _walked_lengths(t) if t.n >= 2 else ()
    for outcome in neighbors(t, min(k, t.n)):
        assert _walked_lengths(outcome.tree) == lengths


# every move of `neighbors`, in its order, by both routes; k may overflow,
# and then both routes must raise
@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(tree_and_k())
def test_closed_form_deltas_match_neighbors(case):
    t, k = case
    try:
        recomputed = [(o.move, o.delta) for o in neighbors(t, k)]
    except CountOverflowError:
        recomputed = None
    try:
        closed = [(move, delta) for move, _, delta in ranked(t, k)]
    except CountOverflowError:
        closed = None
    assert closed == recomputed


@st.composite
def rooted_trees(draw) -> tuple[list[int], list[int]]:
    """A tree of order 1..60 from a Prüfer sequence, rooted at a drawn
    vertex: its breadth-first parents and order (`trees._bfs`)."""
    n = draw(st.integers(1, 60))
    if n <= 2:
        adj = [[1], [0]] if n == 2 else [[]]
    else:
        adj = prufer_to_adjacency(tuple(draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))), n)
    return _bfs(adj, draw(st.integers(0, n - 1)))


def _canonical_levels(parent: list[int], order: list[int]) -> list[int]:
    """The canonical level sequence of the tree rooted at order[0]: each
    vertex, then its children's sequences one level deeper, taken in
    non-increasing order."""
    below: dict[int, list[list[int]]] = {v: [] for v in order}

    def sequence(v: int) -> list[int]:
        out = [0]
        for kid in sorted(below[v], reverse=True):
            out += [x + 1 for x in kid]
        return out

    for v in order[:0:-1]:
        below[parent[v]].append(sequence(v))
    return sequence(order[0])


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(rooted_trees())
def test_parens_of_canonical_levels_are_the_rooted_code(case):
    parent, order = case
    assert _parens(bytes(_canonical_levels(parent, order))) == _codes(parent, order)[1].decode() + "\n"


@settings(derandomize=True, deadline=None, database=None, max_examples=50)
@given(st.lists(rooted_trees(), min_size=1, max_size=20))
def test_parens_of_a_mixed_batch_are_each_rooted_code(cases):
    # trees of mixed orders 1..60, each rooted at a drawn vertex, coded in
    # one call
    levels = b"".join(bytes(_canonical_levels(parent, order)) for parent, order in cases)
    assert _parens(levels) == "".join(_codes(parent, order)[1].decode() + "\n" for parent, order in cases)
