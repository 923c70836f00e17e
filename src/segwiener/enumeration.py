"""Exhaustive generation of free trees up to isomorphism, with segment filters.

The generator is the free-tree successor of Wright, Richmond, Odlyzko &
McKay (1986, "Constant time generation of free trees", SIAM J. Comput. 15),
which walks centre-rooted level sequences with the rooted-tree successor of
Beyer & Hedetniemi (1980, "Constant time generation of rooted trees", SIAM
J. Comput. 9).  It emits each isomorphism class exactly once, in a
deterministic order (that of networkx's ``nonisomorphic_trees``, with
vertices labelled by preorder index).

A tree is read, coded and filtered straight off its level sequence, and a
``Tree`` is built only where a caller keeps one.  One selector, `_levels`,
picks the level stream (every tree of an order, one segment sequence or one
segment count) for ``count_trees``, the ``Tree`` streams and the codes
``segwiener enumerate`` prints, and reads each sequence only as far as its
filter needs: a segment count off the degrees alone (`_segment_count`), the
segment sequence (`_read_levels`) only where the count matches.  One pass,
`_parents`, gives the preorder parents and degrees that the count, the
reader (``trees._read``) and `_tree_from_levels` share.  Every sequence the
stream emits is canonical, each vertex's children in non-increasing order,
so a tree's code is its sequence written as parentheses (`_parens`), with
no sorting.  The Prüfer-plus-canonical-dedup oracle and the Cayley-formula
check live in the test suite.
"""

from __future__ import annotations

from bisect import insort
from typing import Iterable, Iterator

from .generators import UnrealizableError, normalize_segment_lengths
from .trees import Tree, _read

MAX_ORDER = 16


def _level_sequences(n: int) -> Iterator[list[int]]:
    """The canonical centre-rooted preorder level sequence of every free
    tree of order *n*, in strictly decreasing lexicographic order.  Every
    step rewrites the one list it yields: copy it to keep it."""
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
    for level in _levels(n):
        yield _tree_from_levels(level)


def read_trees(n: int) -> Iterator[tuple[tuple[int, ...], list[int], list[int]]]:
    """Every free tree of order *n*, in `all_trees` order, read without
    building it: (segment sequence, edge side sizes, level sequence).  The
    level sequence is rewritten by the next step; keep a copy to build the
    tree from with `_tree_from_levels`."""
    for level in _level_sequences(n):
        sides, segments = _read_levels(level)
        yield segments, sides, level


def _parents(level: list[int]) -> tuple[list[int], list[int]]:
    """Each vertex's parent (the root is its own) and degree in the tree of
    a preorder level sequence: vertex v's parent is the latest vertex before
    it one level up."""
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
    return parent, degree


def _read_levels(level: list[int]) -> tuple[list[int], tuple[int, ...]]:
    """The vertex count on the child side of every edge, and the segment
    sequence (empty for a single vertex), of the tree of a level sequence,
    read (`trees._read`) off its preorder parents."""
    parent, degree = _parents(level)
    return _read(parent, range(len(level)), degree)


def _segment_count(level: list[int]) -> int:
    """The number of segments of the tree of a level sequence (0 for a
    single vertex): one fewer than its vertices of degree other than 2."""
    return len(level) - 1 - _parents(level)[1].count(2)


def _parens(level: list[int]) -> bytes:
    """The AHU code of the tree of a canonical rooted level sequence (its
    first entry the root's level, each vertex's children in non-increasing
    sequence order): one ``(`` per vertex, and after each vertex one ``)``
    per level closed before the next vertex (after the last, back above the
    root).

    Of two different sequences the lexicographically larger writes the
    smaller string, since where they first differ it opens a vertex where
    the other closes one; so canonical children come in non-decreasing
    code order, which is the order the AHU code sorts them into."""
    return b"(" + b"(".join([b")" * (a - b + 1) for a, b in zip(level, [*level[1:], level[0]])])


def _level_code(level: list[int]) -> bytes:
    """The canonical code of the tree of a canonical centre-rooted level
    sequence: its parentheses (`_parens`).  The root is a centre; the tree
    is bicentral exactly when the root's first subtree is higher than the
    rest, and then vertex 1 is the other centre, and the code is the smaller
    of the two rooted at the centres (at vertex 1, the root's side is one
    more child, put in code order)."""
    code = _parens(level)
    m = _first_subtree_end(level)
    if max(level[1:m], default=0) <= max(level[m:], default=0):
        return code
    starts = [i for i in range(2, m) if level[i] == 2]
    kids = [_parens(level[i:j]) for i, j in zip(starts, [*starts[1:], m])]
    insort(kids, _parens([0, *level[m:]]))
    return min(code, b"(" + b"".join(kids) + b")")


def _tree_from_levels(level: list[int]) -> Tree:
    """The tree of a preorder level sequence, valid by construction:
    ``adj[v] = (parent, *children)`` comes out sorted."""
    parent = _parents(level)[0]
    adj = [[p] for p in parent]
    adj[0] = []
    for v in range(1, len(level)):
        adj[parent[v]].append(v)
    return Tree(len(level), tuple(map(tuple, adj)))


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
    try:
        return level.index(1, 2)
    except ValueError:
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
    lengths = normalize_segment_lengths(lengths)
    for level in _levels(1 + sum(lengths), lengths):
        yield _tree_from_levels(level)


def trees_with_segment_count(n: int, m: int) -> Iterator[Tree]:
    """All trees of order *n* with exactly *m* segments (possibly none)."""
    for level in _levels(n, num_segments=m):
        yield _tree_from_levels(level)


def count_trees(n: int, segments: Iterable[int] | None = None, num_segments: int | None = None) -> int:
    """How many trees `trees_with_segment_sequence(segments)`,
    `trees_with_segment_count(n, num_segments)` or `all_trees(n)` yields,
    the first whose argument is given; the level sequences are counted and
    no tree is built.  *segments* must sum to n - 1."""
    return sum(1 for _ in _levels(n, segments, num_segments))


def _levels(n: int, segments: Iterable[int] | None = None, num_segments: int | None = None) -> Iterator[list[int]]:
    """The level sequence of every tree of order *n*, or of those with
    segment sequence *segments* (which must sum to n - 1) or with
    *num_segments* segments (not negative), the first whose argument is
    given.  Both filters first count the segments off the degrees
    (`_segment_count`); the sequence filter reads the segment sequence
    (`_read_levels`) only of the trees whose count matches."""
    if segments is not None:
        target = normalize_segment_lengths(segments)
        if len(target) == 2:
            raise UnrealizableError("no tree has exactly two segments")
        if 1 + sum(target) != n:
            raise ValueError(f"segments summing to {sum(target)} give order {1 + sum(target)}, not {n}")
        parts = len(target)
        yield from (
            level
            for level in _level_sequences(n)
            if _segment_count(level) == parts and _read_levels(level)[1] == target
        )
    elif num_segments is not None:
        if num_segments < 0:
            raise ValueError(f"segment count {num_segments} is negative")
        yield from (level for level in _level_sequences(n) if _segment_count(level) == num_segments)
    else:
        yield from _level_sequences(n)


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
