"""Exhaustive generation of free trees up to isomorphism, with segment filters.

The generator is the free-tree successor of Wright, Richmond, Odlyzko &
McKay (1986, "Constant time generation of free trees", SIAM J. Comput. 15),
which walks centre-rooted level sequences with the rooted-tree successor of
Beyer & Hedetniemi (1980, "Constant time generation of rooted trees", SIAM
J. Comput. 9).  It emits each isomorphism class exactly once, in a
deterministic order (that of networkx's ``nonisomorphic_trees``, with
vertices labelled by preorder index).

Building a ``Tree`` costs more than generating its level sequence, so a tree
is built only where a caller keeps it.  The reader that evaluates a built
tree (``trees._read``) takes the segment sequence and the edge side sizes
straight off the level sequence's preorder parents; the segment filters
test what it reads and build only the trees they yield, ``count_trees``
builds none, and ``read_trees`` hands the verifier what it reads plus the
level sequence to build a tree from later.  The independent
Prüfer-plus-canonical-dedup oracle and the Cayley-formula check live in the
test suite.  Streams are lazy so filters compose without materializing a
whole order class.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .generators import UnrealizableError, normalize_segment_lengths
from .trees import Tree, _read

MAX_ORDER = 16


def _level_sequences(n: int) -> Iterator[list[int]]:
    """The canonical centre-rooted preorder level sequence of every free
    tree of order *n*.  Every step rewrites the one list it yields: copy it
    to keep it."""
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}")
    if n == 1:
        yield [0]
        return
    # the first candidate is the path, rooted at its centre
    level = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while True:
        _next_free(level)
        yield level
        if not _next_rooted(level):
            return


def all_trees(n: int) -> Iterator[Tree]:
    """Every free tree of order *n*, one representative per isomorphism
    class, each built from its level sequence (vertex v is the v-th vertex
    in preorder from the centre)."""
    for level in _level_sequences(n):
        yield _tree_from_levels(level)


def read_trees(n: int) -> Iterator[tuple[tuple[int, ...], list[int], list[int]]]:
    """Every free tree of order *n*, in `all_trees` order, read without
    building it: (segment sequence, edge side sizes, level sequence).  The
    level sequence is rewritten by the next step; keep a copy to build the
    tree from with `_tree_from_levels`."""
    for level in _level_sequences(n):
        sides, segments = _read_levels(level)
        yield segments, sides, level


def _read_levels(level: list[int]) -> tuple[list[int], tuple[int, ...]]:
    """The vertex count on the child side of every edge, and the segment
    sequence (empty for a single vertex), of the tree of a level sequence:
    one forward pass finds each vertex's parent and degree, and the reader
    (`trees._read`) takes both off the preorder, which lists every parent
    before its children."""
    n = len(level)
    parent = [0] * n
    degree = [1] * n
    degree[0] = 0
    latest = [0] * n
    for v in range(1, n):
        depth = level[v]
        u = latest[depth - 1]
        parent[v] = u
        degree[u] += 1
        latest[depth] = v
    return _read(parent, range(n), degree)


def _tree_from_levels(level: list[int]) -> Tree:
    """The tree of a preorder level sequence: vertex v's parent is the latest
    vertex before it one level up, so ``adj[v] = (parent, *children)`` comes
    out sorted and the result is a tree by construction."""
    n = len(level)
    adj: list[list[int]] = [[] for _ in range(n)]
    latest = [0] * n
    for v in range(1, n):
        depth = level[v]
        u = latest[depth - 1]
        adj[u].append(v)
        adj[v].append(u)
        latest[depth] = v
    return Tree(n, tuple(map(tuple, adj)))


def _next_rooted(level: list[int], p: int | None = None) -> bool:
    """Beyer–Hedetniemi step in place: the next rooted level sequence, found
    by repeating the subtree above position *p* (default: the last vertex
    deeper than level 1).  False when *level* was the last one."""
    n = len(level)
    if p is None:
        p = n - 1
        while level[p] == 1:
            p -= 1
        if p == 0:
            return False
    q = p - 1
    while level[q] != level[p] - 1:
        q -= 1
    for i in range(p, n):
        level[i] = level[i - p + q]
    return True


def _first_subtree_end(level: list[int]) -> int:
    """Index of the root's second child (n if it has only one)."""
    for i in range(2, len(level)):
        if level[i] == 1:
            return i
    return len(level)


def _next_free(level: list[int]) -> None:
    """WROM step in place: keep *level* if it is the canonical centre-rooted
    sequence of a free tree (the root's first subtree is no higher than the
    rest; at equal height no larger; at equal size not lexicographically
    later), else jump to the next candidate."""
    n = len(level)
    m = _first_subtree_end(level)
    left = [x - 1 for x in level[1:m]]
    rest = [0] + level[m:]
    left_height, rest_height = max(left), max(rest)
    if rest_height > left_height or (
        rest_height == left_height and (len(left), left) <= (len(rest), rest)
    ):
        return
    p = m - 1
    deep = level[p] > 2
    _next_rooted(level, p)
    if deep:
        height = max(level[1 : _first_subtree_end(level)])
        level[n - height :] = range(1, height + 1)


def trees_with_segment_sequence(lengths: Iterable[int]) -> Iterator[Tree]:
    """All trees whose segment sequence equals *lengths* (up to isomorphism)."""
    for level in _levels_with_segment_sequence(lengths):
        yield _tree_from_levels(level)


def trees_with_segment_count(n: int, m: int) -> Iterator[Tree]:
    """All trees of order *n* with exactly *m* segments (possibly none)."""
    for level in _levels_with_segment_count(n, m):
        yield _tree_from_levels(level)


def count_trees(n: int, segments: Iterable[int] | None = None, num_segments: int | None = None) -> int:
    """How many trees `trees_with_segment_sequence(segments)`,
    `trees_with_segment_count(n, num_segments)` or `all_trees(n)` yields,
    the first whose argument is given; the level sequences are counted and
    no tree is built.  *segments* must sum to n - 1."""
    if segments is not None:
        segments = list(segments)
        if 1 + sum(segments) != n:
            raise ValueError(f"segments summing to {sum(segments)} give order {1 + sum(segments)}, not {n}")
        levels = _levels_with_segment_sequence(segments)
    elif num_segments is not None:
        levels = _levels_with_segment_count(n, num_segments)
    else:
        levels = _level_sequences(n)
    return sum(1 for _ in levels)


def _levels_with_segment_sequence(lengths: Iterable[int]) -> Iterator[list[int]]:
    target = normalize_segment_lengths(lengths)
    if len(target) == 2:
        raise UnrealizableError("no tree has exactly two segments")
    for segments, _, level in read_trees(1 + sum(target)):
        if segments == target:
            yield level


def _levels_with_segment_count(n: int, m: int) -> Iterator[list[int]]:
    for segments, _, level in read_trees(n):
        if len(segments) == m:
            yield level


def segment_sequences_of_order(n: int) -> list[tuple[int, ...]]:
    """Every realizable segment sequence of order *n*: partitions of n - 1
    into one part or at least three, in descending lexicographic order."""
    if n < 2:
        return []
    out = [p for p in _partitions(n - 1) if len(p) != 2]
    out.sort(reverse=True)
    return out


def _partitions(total: int, largest: int | None = None) -> list[tuple[int, ...]]:
    if total == 0:
        return [()]
    if largest is None:
        largest = total
    out = []
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, first):
            out.append((first,) + rest)
    return out
