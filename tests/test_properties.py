"""Property tests on random labelled trees up to order 200: the index, the
segment sequence and the canonical code do not depend on the labels."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from segwiener.exact import CountOverflowError
from segwiener.steiner import sw_k
from segwiener.trees import Tree, canonical_code, segment_sequence

from .oracles import prufer_to_adjacency

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


@st.composite
def relabelled(draw) -> tuple[Tree, Tree, int]:
    """A tree, a relabelled copy and a k; k is small (SW_k fits in i128 for
    every order up to 200) or near n in half the draws, anywhere in 1..n
    otherwise, where C(n, k) may overflow."""
    t = draw(labelled_trees())
    perm = draw(st.permutations(range(t.n)))
    small = min(t.n, 12)
    k = draw(st.one_of(st.integers(1, small), st.integers(t.n - small + 1, t.n), st.integers(1, t.n)))
    return t, t.relabel(perm), k


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
