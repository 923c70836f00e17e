"""Exhaustive generation of free trees up to isomorphism, with segment filters.

One composition, `_compose`, gives every free tree of an order, each as
its canonical centre-rooted preorder level sequence (bytes), in strictly
decreasing order, in batches, up to two per first child of the root: it
pools the rooted trees by height and joins them into forests, so a whole
order and its skeletons, the trees with no vertex of degree 2, come from
the same pool.  It emits each isomorphism class exactly once, in a
deterministic order (that of networkx's ``nonisomorphic_trees``, with
vertices labelled by preorder index), each batch as (list of level
sequences, index of the root's second child, number of centres), the
facts the coder roots a whole batch by; the stream (`_stream`) is that
composition behind the order guard.

A tree is read, coded and filtered straight off its level sequence, and a
``Tree`` is built only where a caller keeps one.  One selector, `_levels`,
gives every tree of an order, one segment sequence or one segment count,
in stream order, in the stream's batches: the ``Tree`` streams and the
reader loop over each batch's list, and the listing ``segwiener
enumerate`` prints takes each batch whole.  A segment class or count
is not filtered out of its order but placed on its skeletons, the trees
with one edge per segment, composed directly (`_skeletons`, `_compose`
keeping only the pooled trees with no child or at least two): the
segment lengths, or each partition of n - 1 into that many parts
(`_partitions`), go on their edges once per orbit of the skeleton's
automorphisms, and `_segment_class` re-roots each member at its centre
(`_recentre`, which also gives its number of centres), sorts the
sequences into stream order and cuts them into runs of one second-child
index and number of centres.  One
skeleton walk (`_Orbits`, each vertex's placements a polynomial in the
parts they consume, memoised by subtree shape) both lists and counts: the
listing (`_placements`) runs it with the placements themselves as
coefficients (`_Listed`), and ``count_trees`` with their numbers, so it
lists nothing; a whole order it counts by Otter's formula
(`_otter_count`).  One pass, `_parents`, gives the preorder parents and
degrees that the reader (``trees._read``) and `_tree_from_levels` share.

The verifiers read an order's trees for their segment sequences and
packed index sums (`_tree_reads`) branch by branch, not tree by tree: a
root branch, the root's edge to one child with that child's subtree,
holds its edges' side sizes and all its segments but the one through a
root of degree 2, and an order has far fewer distinct branches than trees
(82 against 551 at order 12, 1230 against 19320 at order 16).  One walk
of the stream splits each sequence at the root's children, reads each
distinct branch once (`_read_branch`, with ``trees._read``), and sums and
joins the reads per tree.  Every sequence emitted
is canonical, so a listing is coded in one pass (`_listing`), batch by
batch, with no sorting: each tree rooted at the centre its code is
rooted at, a unicentral batch on its own level bytes and a bicentral
batch rooted at vertex 1 too, by one translate each way of its joined
bytes sliced per tree, then the parentheses of about 2048 trees from one
integer difference (`_parens`), read a window of fields, the bytes of
one native unsigned int, at a time through one memo of each window's
text (`_Windows`).
The Prüfer-plus-canonical-dedup oracle, the free-tree successor of
Wright, Richmond, Odlyzko & McKay the stream and the skeletons are
checked against, the stream filters the counts are checked against, and
the Cayley check are in the tests.
"""

from __future__ import annotations

import struct
import sys
from itertools import combinations_with_replacement, groupby, repeat
from math import comb
from typing import Any, Iterable, Iterator, Sequence

from .generators import normalize_segment_lengths
from .steiner import _packed_sum
from .trees import Tree, _read

MAX_ORDER = 16


def _stream(n: int) -> Iterator[tuple[list[bytes], int, int]]:
    """The canonical centre-rooted preorder level sequence, as bytes, of
    every free tree of order *n*, in strictly decreasing lexicographic
    order, in batches that share the index of the root's second child (n
    if it has only one) and the number of centres: `_compose` behind the
    order guard."""
    _check_order(n)
    return _compose(n)


def _compose(order: int, reduced: bool = False) -> Iterator[tuple[list[bytes], int, int]]:
    """The stream's batches of every free tree of *order* vertices, or with
    *reduced* of every one with no vertex of degree 2 (the series-reduced
    trees, OEIS A000014), with no order guard: each a list of the trees'
    canonical centre-rooted level sequences as bytes, in strictly
    decreasing order, with the index of the root's second child (*order*
    if it has only one) and the number of centres that all of them share.

    Rooted trees are pooled one level down, as children, in ascending
    order, which puts the lower first (a canonical sequence opens with the
    path down to its deepest vertex).  One of height h >= 1 is a child of
    height h - 1 followed by a forest of pooled trees no larger, with as
    many vertices as are left; the forests of each (vertices, largest pool
    index) are memoised (`_Forests`), their trees concatenated in
    descending order.  The trees come in one batch per first child x, x
    descending, each batch sorted: first the unicentral trees, whose
    root's second child is of x's height h too, then the bicentral ones,
    vertex 1's half x and the root's half led by a child of height h - 1,
    so of height h as well, and as `_centres` orders them: vertex 1's half
    no larger, or at equal size not lexicographically later.  Each comes
    out as the list it is sorted in, the unicentral and bicentral ones as
    two batches, none empty, and only one batch is held at a time: a
    batch's trees all hang from the root's first child x, so their second
    child is at 1 + len(x).  With *reduced*, every pooled tree has no
    children or at least two, and the root at least three, two of them in
    the root's half of a bicentral tree."""
    if order <= 2:
        yield [b"\0\1"[:order]], order, order  # a vertex (unicentral) or an edge (bicentral)
        return
    pool = [b"\1"]
    ends = [0, 1]  # pool[ends[h] : ends[h + 1]]: the pooled trees of height h
    groups = [[(1, 0)]]  # groups[h]: (size, pool index) of each of height h, by size
    forests = _Forests(pool, groups, ends)

    def joined(head: bytes, group: list[tuple[int, int]], vertices: int, largest: int) -> list[bytes]:
        # head + y + f for each y of *group* up to pool index *largest* and each
        # forest f no larger, *vertices* in all, f not empty if *reduced*
        found = []
        for size, j in group:
            if size + reduced > vertices:
                break
            if j <= largest:
                lead = head + pool[j]
                found += map(lead.__add__, forests[vertices - size, j])
        return found

    for h in range(1, (order - 2) // 2 + 1):
        limit = max(order - 2 - h, order // 2)  # the largest first child of this height
        grown = []
        for vertices in range(h, limit):  # below the root: a child of height h - 1, then a forest
            grown += joined(b"\0", groups[h - 1], vertices, len(pool))
        grown = sorted(map(bytes.translate, grown, repeat(_DOWN)))
        groups.append(sorted(zip(map(len, grown), range(len(pool), len(pool) + len(grown)))))
        pool += grown
        ends.append(len(pool))
    for h in range(len(groups) - 1, -1, -1):
        for i in range(ends[h + 1] - 1, ends[h] - 1, -1):
            x = pool[i]
            m = 1 + len(x)
            head = b"\0" + x
            if order - m > h:
                found = sorted(joined(head, groups[h], order - m, i), reverse=True)
                if found:
                    yield found, m, 1
            if h and 2 * len(x) <= order:
                found = sorted(joined(head, groups[h - 1], order - m, i), reverse=True)
                if 2 * len(x) == order:  # halves of equal size: vertex 1's no later
                    found = [level for level in found if x.translate(_UP) <= b"\0" + level[m:]]
                if found:
                    yield found, m, 2


class _Forests(dict):
    """The forests of `_compose`'s pooled rooted trees, memoised by
    (vertices in all, largest pool index), each its trees concatenated in
    descending order.  The pool is ascending, its trees of height h at
    ``pool[ends[h] : ends[h + 1]]`` and in ``groups[h]`` as (size, pool
    index) pairs by size.  A forest's trees are looked up here, not in a
    closure that calls itself, so nothing holds the memo once its
    composition ends."""

    def __init__(self, pool: list[bytes], groups: list[list[tuple[int, int]]], ends: list[int]) -> None:
        self.pool, self.groups, self.ends = pool, groups, ends

    def __missing__(self, key: tuple[int, int]) -> list[bytes]:
        vertices, largest = key
        found = self[key] = [] if vertices else [b""]
        for h, group in enumerate(self.groups):
            if self.ends[h] > largest:
                break
            for size, i in group:
                if size > vertices:
                    break
                if i <= largest:
                    found += map(self.pool[i].__add__, self[vertices - size, i])
        return found


def _check_order(n: int) -> None:
    """The enumerator's order guard, shared by every route."""
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}")


def all_trees(n: int) -> Iterator[Tree]:
    """Every free tree of order *n*, one representative per isomorphism
    class, each built from its level sequence (vertex v is the v-th vertex
    in preorder from the centre)."""
    for levels, _, _ in _levels(n):
        yield from map(_tree_from_levels, levels)


def _tree_reads(n: int, row: Sequence[int]) -> Iterator[tuple[tuple[int, ...], int, bytes]]:
    """Every free tree of order *n*, in `all_trees` order, read without
    building it: (segment sequence, packed total, level sequence as
    bytes), the packed total being the sum of *row* over the tree's edge
    side sizes (``steiner._packed(n, ks)[0]`` sums every SW_k of ks at
    once).

    A root branch, the edge from the root to one child with the child's
    subtree, holds the side sizes of its edges and every segment but the
    one through a root of degree 2.  So the trees are read branch by
    branch: each level sequence is split at the root's children, each
    distinct branch is read once in this call (`_read_branch`), and a
    tree's total is its branches' totals, its segment sequence their
    lengths with the two runs through a root of degree 2 joined into one."""
    reads: dict[bytes, tuple[int, tuple[int, ...], int]] = {}
    for levels, _, _ in _stream(n):
        for level in levels:
            total = 0
            lengths: list[int] = []
            runs = []
            for branch in level[2:].split(b"\1") if n > 1 else ():
                read = reads.get(branch)
                if read is None:
                    read = reads[branch] = _read_branch(branch, row)
                total += read[0]
                lengths += read[1]
                runs.append(read[2])
            if len(runs) == 2:
                lengths.append(runs[0] + runs[1])
            else:
                lengths += runs
            lengths.sort(reverse=True)
            yield tuple(lengths), total, level


def _read_branch(branch: bytes, row: Sequence[int]) -> tuple[int, tuple[int, ...], int]:
    """The root branch whose levels below the root's child are *branch*,
    read (`trees._read`) as the tree of the root and that branch alone: the
    sum of *row* over its side sizes, the lengths of its segments but the
    one through the root's edge, and that one's length, the run down from
    the root while each vertex has one child."""
    level = b"\0\1" + branch
    parent, degree = _parents(level)
    sides, segments = _read(parent, range(len(level)), degree)
    run = 1
    while degree[run] == 2:
        run += 1
    lengths = list(segments)
    lengths.remove(run)
    return _packed_sum(row, sides), tuple(lengths), run


def _parents(level: Sequence[int]) -> tuple[list[int], list[int]]:
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


def _listing(batches: Iterable[tuple[list[bytes], int, int]]) -> str:
    """The canonical codes, a line each, of the trees of the batches
    `_levels` yields (stream sequences sharing a second-child index and a
    number of centres; `_facts` makes the batch of one sequence from
    elsewhere), all made before any is returned: each batch rooted where
    its codes are (`_rooted`), then `_parens` writes about 2048 trees at a
    time, never splitting a batch."""
    codes = []
    rooted: list[bytes] = []
    for batch in batches:
        rooted += _rooted(*batch)
        if len(rooted) >= 2048:
            codes.append(_parens(b"".join(rooted)))
            rooted = []
    codes.append(_parens(b"".join(rooted)))
    return "".join(codes)


def _level_code(level: Sequence[int]) -> str:
    """The code `_listing` writes for one stream sequence, by its rooting
    and coder, without its line end."""
    return _parens(_rooted(*_facts(level))[0])[:-1]


def _rooted(levels: list[bytes], m: int, centres: int) -> list[bytes]:
    """The canonical sequences of the trees of a batch of stream sequences
    rooted where their codes are, given the root's second child at index
    *m* and the number of *centres* they share.  A unicentral tree's is its
    own; a bicentral tree's other centre is vertex 1, and of the two
    sequences, rooted at the centres, the larger writes the smaller code.

    Rooted at vertex 1 it needs no sort: the root's side (``level[m:]``
    one level deeper under the root) is as high as vertex 1's half, the
    halves of a bicentral tree being of equal height, so it is strictly
    higher than, and in canonical order comes before, each of vertex 1's
    own children (``level[2:m]`` one level higher), which are in canonical
    order already.  So a bicentral batch is rooted at vertex 1 whole, by
    one translate each way of its joined sequences, sliced per tree."""
    if centres == 1:
        return levels
    joined = b"".join(levels)
    n = len(levels[0])
    down, up = joined.translate(_DOWN), joined.translate(_UP)
    turned = [b"\0\1" + down[s + m : s + n] + up[s + 2 : s + m] for s in range(0, len(joined), n)]
    return [a if a > b else b for a, b in zip(levels, turned)]  # the larger of each pair; faster than map(max)


def _facts(level: Sequence[int]) -> tuple[list[bytes], int, int]:
    """A stream sequence as a batch of one, with the index of the root's
    second child and its number of centres, as `_stream` yields it."""
    level = bytes(level)
    m = _first_subtree_end(level)
    return [level], m, _centres(level, m)


def _parens(levels: bytes) -> str:
    """The AHU code, a line each, of the trees of concatenated canonical
    rooted level sequences: a ``(`` per vertex, then a ``)`` per level
    closed before the next vertex or, after a tree's last, above its root
    (the only level 0).  The larger of two sequences writes the smaller
    code, opening a vertex where the other first closes one, so canonical
    children come in AHU order.  As little-endian integers, byte v of
    levels + 0x80...80 (each level plus 128, one translate) - (`_NEXT` of
    levels >> 8) is level[v] + 1 -
    level[v + 1] <= 127 before a non-root, and level[v] + 128 before a root
    or the end, with no borrow while levels stay at most 127, as in
    centre-rooted trees of order up to 255.

    The field bytes are read a window at a time, each window the bytes of
    one native unsigned int (four on common platforms), through a
    ``memoryview`` cast to ``"I"``, and each window's text is looked up in
    `_WINDOWS`; the bytes are padded with zeros, which write a ``(`` each,
    to whole windows, and the padding's text is trimmed off."""
    if not levels.isascii():
        raise ValueError("the coder takes levels up to 127, so centre-rooted trees of order up to 255")
    size = len(levels)
    pad = -size % _WINDOW
    fields = int.from_bytes(levels.translate(_SHIFT[128]), "little")
    fields -= int.from_bytes(levels.translate(_NEXT), "little") >> 8
    windows = memoryview(fields.to_bytes(size + pad, "little")).cast("I")
    text = "".join(map(_WINDOWS.__getitem__, windows))
    return text[: len(text) - pad]


def _tree_from_levels(level: Sequence[int]) -> Tree:
    """The tree of a preorder level sequence, valid by construction:
    ``adj[v] = (parent, *children)`` comes out sorted."""
    parent = _parents(level)[0]
    adj = [[p] for p in parent]
    adj[0] = []
    for v in range(1, len(level)):
        adj[parent[v]].append(v)
    return Tree(len(level), tuple(map(tuple, adj)))


def _first_subtree_end(level: Sequence[int]) -> int:
    """Index of the root's second child (n if it has only one)."""
    try:
        return level.index(1, 2)
    except ValueError:
        return len(level)


def _centres(level: Sequence[int], m: int) -> int:
    """The centre rule: the number of centres of the tree of a canonical
    rooted level sequence, the root's second child at index *m*, if it is
    the stream's sequence of its tree, else 0.  It is when the root's first
    subtree, the highest of its children, is no higher than the rest (root
    included); at equal height (the tree is bicentral, vertex 1 the other
    centre) no larger; at equal size not lexicographically later."""
    n = len(level)
    left_height = max(level) - 1
    rest_height = max(level[m:]) if m < n else 0
    if left_height != rest_height:
        return 1 if left_height < rest_height else 0
    if 2 * m != n + 2:
        return 2 if 2 * m < n + 2 else 0
    return 2 if [x - 1 for x in level[1:m]] <= [0, *level[m:]] else 0


def trees_with_segment_sequence(lengths: Iterable[int]) -> Iterator[Tree]:
    """All trees whose segment sequence equals *lengths* (up to isomorphism)."""
    lengths = normalize_segment_lengths(lengths)
    for levels, _, _ in _levels(1 + sum(lengths), lengths):
        yield from map(_tree_from_levels, levels)


def trees_with_segment_count(n: int, m: int) -> Iterator[Tree]:
    """All trees of order *n* with exactly *m* segments (possibly none)."""
    for levels, _, _ in _levels(n, num_segments=m):
        yield from map(_tree_from_levels, levels)


def count_trees(n: int, segments: Iterable[int] | None = None, num_segments: int | None = None) -> int:
    """How many trees `trees_with_segment_sequence(segments)`,
    `trees_with_segment_count(n, num_segments)` or `all_trees(n)` yields,
    the first whose argument is given; no tree is listed.  A segment class
    or count is counted by the walk that lists it (`_Orbits`), over its
    skeletons' orbits with the numbers of placements as coefficients, so
    no member is placed; a whole order by Otter's formula (`_otter_count`).
    *segments* must sum to n - 1."""
    if segments is not None:
        lengths = _class_lengths(n, segments)
        caps, parts = _class_parts(lengths)
        return sum(_Orbits(caps, dict.fromkeys(parts.values(), 1)).placed(_skeletons(len(lengths) + 1)))
    if num_segments is not None:
        _check_count(n, num_segments)
        if num_segments > n - 1:
            return 0
        return sum(_Orbits((n - 1,), {(x,): 1 for x in range(1, n)}).placed(_skeletons(num_segments + 1)))
    _check_order(n)
    return _otter_count(n)


def _otter_count(n: int) -> int:
    """The number of free trees of order *n* (OEIS A000055), from the
    numbers r(i) of rooted trees of order i (OEIS A000081) by Otter's
    dissimilarity theorem (R. Otter, "The number of trees", Ann. of Math.
    49, 1948): r(n) less the unordered pairs of two different rooted trees
    whose orders sum to n, (sum_{i=1..n-1} r(i) r(n - i) - [n even]
    r(n / 2)) / 2.  The r(i) come from the Euler transform r(i + 1) =
    (1 / i) sum_{k=1..i} (sum_{d | k} d r(d)) r(i - k + 1), in exact
    integers."""
    rooted = [0, 1]
    weight = [0]  # weight[k]: the sum of d r(d) over the divisors d of k
    for i in range(1, n):
        weight.append(sum(d * rooted[d] for d in range(1, i + 1) if i % d == 0))
        rooted.append(sum(weight[k] * rooted[i - k + 1] for k in range(1, i + 1)) // i)
    pairs = sum(rooted[i] * rooted[n - i] for i in range(1, n))
    if n % 2 == 0:
        pairs -= rooted[n // 2]
    return rooted[n] - pairs // 2


def _levels(
    n: int, segments: Iterable[int] | None = None, num_segments: int | None = None
) -> Iterator[tuple[list[bytes], int, int]]:
    """Every tree of order *n*, or those with segment sequence *segments*
    (which must sum to n - 1) or with *num_segments* segments (not
    negative), the first whose argument is given, in stream order, in
    batches as `_stream` yields them: a whole order's are the stream's
    own, and a segment class's, or a segment count's as the classes of its
    partitions of n - 1, are built from its skeletons (`_segment_class`)."""
    if segments is not None:
        return _segment_class([_class_lengths(n, segments)])
    if num_segments is not None:
        _check_count(n, num_segments)
        return _segment_class(_partitions(n - 1, num_segments, n - 1))
    return _stream(n)


def _class_lengths(n: int, segments: Iterable[int]) -> tuple[int, ...]:
    """*segments* in non-increasing order, checked to be the segment
    sequence of some tree of order *n* within the order guard."""
    lengths = normalize_segment_lengths(segments)
    if 1 + sum(lengths) != n:
        raise ValueError(f"segments summing to {sum(lengths)} give order {1 + sum(lengths)}, not {n}")
    _check_order(n)
    return lengths


def _check_count(n: int, m: int) -> None:
    """A segment count's checks: *m* not negative, then the order guard."""
    if m < 0:
        raise ValueError(f"segment count {m} is negative")
    _check_order(n)


def _partitions(total: int, parts: int, largest: int) -> Iterator[tuple[int, ...]]:
    """Every way to write *total* as a sum of *parts* positive parts, none
    above *largest*, as a non-increasing tuple."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(largest, total - parts + 1), 0, -1):
        if first * parts < total:
            return
        for rest in _partitions(total - first, parts - 1, first):
            yield (first, *rest)


def _segment_class(classes: Iterable[tuple[int, ...]]) -> Iterator[tuple[list[bytes], int, int]]:
    """Every tree whose segment sequence is one of *classes*
    (non-increasing, of one order n and one number of parts m), in stream
    order, in batches as `_stream` yields them: level sequences, as bytes,
    sharing the root's second-child index and number of centres.

    A tree's vertices of degree other than 2, joined along its segments,
    form its skeleton: a tree with m edges and no vertex of degree 2
    (`_skeletons`), of which the tree is a subdivision with the parts as
    edge lengths.  A skeleton's placements of the parts up to its
    automorphisms (`_placements`) are distinct trees, since a tree has one
    skeleton.  The skeletons are built once, for the first class; each
    member is re-rooted at its centre (`_recentre`, which knows its number
    of centres), and the sequences, all distinct, are sorted into the
    stream's descending order and cut into runs of one second-child index
    and number of centres."""
    found: list[tuple[bytes, int]] = []
    skeletons = None
    for lengths in classes:
        if skeletons is None:
            skeletons = _skeletons(len(lengths) + 1)
        found += map(_recentre, _placements(skeletons, lengths))
    found.sort(reverse=True)
    for (m, centres), run in groupby(found, lambda member: (_first_subtree_end(member[0]), member[1])):
        yield [level for level, _ in run], m, centres


def _skeletons(order: int) -> list[bytes]:
    """The stream's level sequence, as bytes, of every tree of *order*
    vertices with no vertex of degree 2 (the series-reduced trees, OEIS
    A000014), in stream order, composed directly (`_compose`), with no
    order guard."""
    return [level for levels, _, _ in _compose(order, True) for level in levels]


# ``level.translate(_SHIFT[k])`` adds k to every level of a bytes sequence,
# mod 256, so ``_SHIFT[-k]`` subtracts k
_SHIFT = [r[k:] + r[:k] for r in [bytes(range(256))] for k in range(256)]
_DOWN, _UP = _SHIFT[1], _SHIFT[-1]  # a level one deeper, one higher
_NEXT = b"\0" + bytes(range(128, 256)) + bytes(127)  # a root as 0, a level b >= 1 as b + 127
_FIELDS = [")" * d for d in range(128)] + [")" * (d - 127) + "\n" for d in range(128, 256)]
_WINDOW = struct.calcsize("I")  # bytes per item of a memoryview cast to "I"


class _Windows(dict):
    """The text `_parens` writes for a window of field bytes, memoised by
    the window's value as the native unsigned int a ``memoryview`` cast
    reads: a ``(`` and the field's `_FIELDS` text for each byte, in memory
    order.  One memo serves every listing in the process, as windows
    repeat across listings; it holds only the windows met: 646 after
    listing every order up to 16, with 4-byte windows."""

    def __missing__(self, window: int) -> str:
        text = self[window] = "".join(["(" + _FIELDS[b] for b in window.to_bytes(_WINDOW, sys.byteorder)])
        return text


_WINDOWS = _Windows()


def _placements(skeletons: list[bytes], lengths: tuple[int, ...]) -> Iterator[bytes]:
    """For each placement of *lengths* on the edges of one of *skeletons*
    (stream sequences of one order, so each rooted at a centre), up to the
    skeleton's automorphisms, a canonical level sequence (as bytes) of the
    tree it makes: the walk with the placements themselves as coefficients
    (`_Listed`).  The pair {a, b} of a bicentral skeleton's halves is
    rooted at a, b hung by the central part among a's branches."""
    caps, parts = _class_parts(lengths)
    for placed in _Listed(caps, {amounts: _Placed([(x,)]) for x, amounts in parts.items()}).placed(skeletons):
        for tree in placed:
            if len(tree) == 1:
                yield tree[0]
            else:
                length, a, b = tree
                branches = [b"\1" + kid for kid in a[1:].split(b"\1")[1:]]
                yield b"\0" + b"".join(sorted([*branches, _hung(length, b)], reverse=True))


def _hung(length: int, below: bytes) -> bytes:
    """The branch, from level 1, of a subtree (a level sequence from 0)
    hung by a path of *length* edges."""
    return _SHIFT[0][1:length] + below.translate(_SHIFT[length])


def _class_parts(lengths: tuple[int, ...]) -> tuple[tuple[int, ...], dict[int, tuple[int, ...]]]:
    """The caps of one segment class, an amount per distinct length capped
    at how often it occurs, and the amounts each length consumes: one of
    its own."""
    values = sorted(set(lengths))
    return tuple(map(lengths.count, values)), {x: tuple(int(x == y) for y in values) for x in values}


class _Orbits(dict):
    """The placements of edge parts on skeletons, one per orbit of each
    skeleton's automorphisms, counted.  *parts* maps the amounts each edge
    part consumes to its coefficient; one part hangs a child's subtree by
    one edge, and a vertex's placements are a polynomial in what they
    consume: a dict from the consumption (packed into one int, a field per
    amount, each a bit wider than its cap in *caps*, so that a guard bit
    shows a sum over its cap) to a coefficient, memoised by the subtree's
    shape (its root at level 0).  `_Listed` walks the same way with the
    placements themselves as coefficients.

    Every automorphism fixes the centre, so it only permutes children of
    one shape (equal level slices, adjacent in a canonical sequence) and,
    when the central edge joins two halves of one shape, swaps those.  A
    child's branches are its edge parts times its own placements; a run of
    r children of one shape takes a multiset of r branches, the t^r
    coefficient of the product over consumptions d of the branches of d
    taken i at a time (`take`), which for b_d branches is
    (1 - t y^d)^(-b_d): C(b_d + i - 1, i) ways to take i.  The two halves
    of a bicentral skeleton of one shape are such a multiset of two around
    the central edge's part.  Shapes are looked up here, not in a closure
    that calls itself, so nothing holds the memo once its walk ends."""

    one, zero = 1, 0

    def __init__(self, caps: tuple[int, ...], parts: dict[tuple[int, ...], Any]) -> None:
        bit = self.target = self.offset = self.guard = 0
        fields = []
        for cap in caps:
            width = cap.bit_length() + 1
            fields.append(bit)
            self.target += cap << bit
            self.offset += ((1 << width - 1) - 1 - cap) << bit
            self.guard |= 1 << bit + width - 1
            bit += width
        self.edge = {sum(map(int.__lshift__, amounts, fields)): x for amounts, x in parts.items()}

    @staticmethod
    def take(branches: int, i: int) -> int:
        return comb(branches + i - 1, i)

    @staticmethod
    def join(poly: dict[int, int]) -> dict[int, int]:
        return poly

    def __missing__(self, shape: bytes) -> dict[int, Any]:
        poly = {0: self.one}
        for kid, run in groupby(shape[1:].translate(_UP).split(b"\0")[1:]):
            poly = self.times(poly, self.multisets(self.times(self.edge, self[b"\0" + kid]), len(list(run))))
        found = self[shape] = self.join(poly)
        return found

    def placed(self, skeletons: Iterable[bytes]) -> Iterator:
        """The coefficient of every cap consumed exactly, on each of
        *skeletons* (stream sequences of one order)."""
        for skeleton in skeletons:
            m = _first_subtree_end(skeleton)
            if skeleton[1:m].translate(_UP) == b"\0" + skeleton[m:]:
                yield self.times(self.edge, self.multisets(self[b"\0" + skeleton[m:]], 2)).get(self.target, self.zero)
            else:
                yield self[skeleton].get(self.target, self.zero)

    def times(self, p: dict[int, Any], q: dict[int, Any]) -> dict[int, Any]:
        offset, guard, zero = self.offset, self.guard, self.zero
        out = {}
        for a, x in p.items():
            for b, y in q.items():
                if not (a + b + offset) & guard:
                    out[a + b] = out.get(a + b, zero) + x * y
        return out

    def multisets(self, branches: dict[int, Any], r: int) -> dict[int, Any]:
        # layers[j]: the multisets of j branches of the consumptions seen so
        # far; a run of one child takes any one branch
        if r == 1:
            return branches
        offset, guard, zero, take = self.offset, self.guard, self.zero, self.take
        layers = [{0: self.one}] + [{} for _ in range(r)]
        for d, b in branches.items():
            for j in range(r, 0, -1):
                layer = layers[j]
                for i in range(1, j + 1):
                    if (i * d + offset) & guard:
                        break
                    ways = take(b, i)
                    for a, x in layers[j - i].items():
                        if not (a + i * d + offset) & guard:
                            layer[a + i * d] = layer.get(a + i * d, zero) + x * ways
        return layers[r]


class _Placed(list):
    """Placements as coefficients: each a tuple, of edge lengths each
    followed by the canonical sequence (bytes) of the subtree below it, or,
    once joined at a vertex, of the vertex's own sequence alone.  A sum
    concatenates; a product joins every pair."""

    def __add__(self, other: list[tuple]) -> _Placed:
        return _Placed([*self, *other])

    def __mul__(self, other: list[tuple]) -> _Placed:
        return _Placed([a + b for a in self for b in other])


class _Listed(_Orbits):
    """`_Orbits` with the placements as coefficients (`_Placed`)."""

    one, zero = _Placed([()]), _Placed()

    @staticmethod
    def take(branches: _Placed, i: int) -> _Placed:
        return _Placed([sum(chosen, ()) for chosen in combinations_with_replacement(branches, i)])

    @staticmethod
    def join(poly: dict[int, _Placed]) -> dict[int, _Placed]:
        # each placement's branches, its edges' paths above their subtrees,
        # sorted into the vertex's canonical sequence
        return {
            used: _Placed((b"\0" + b"".join(sorted(map(_hung, t[::2], t[1::2]), reverse=True)),) for t in placed)
            for used, placed in poly.items()
        }


def _recentre(level: bytes) -> tuple[bytes, int]:
    """The stream's level sequence of the tree of *level*, a canonical
    level sequence (as bytes) rooted at any vertex, and the tree's number
    of centres.

    The first path 0, 1, ..., height runs from the root to a vertex as far
    from it as any, which ends a longest path; so the centres lie on the
    first path, at depth c = height - (diameter + 1) // 2, and at c + 1 too
    when the diameter is odd.  Walking down to c, the part above each path
    vertex becomes one more of its children, put in order; of two centres
    the root is the one `_centres` accepts."""
    n = len(level)
    height = max(level)
    # end[j]: where the subtree of the path vertex at depth j ends
    end = [n] * (height + 2)
    end[height] = i = height + 1
    for j in range(height - 1, 0, -1):
        while i < n and level[i] > j:
            i += 1
        end[j] = i
    diameter = max(height - 2 * j + max(level[end[j + 1] : end[j]], default=j) for j in range(height + 1))
    c = height - (diameter + 1) // 2
    if diameter % 2 == 0:
        if c == 0:
            return level, 1
        end[c + 1] = c + 1  # the centre keeps every child
    up = b"\0" + level[end[1] :]
    for j in range(1, c + 1):
        kids = [b"\1" + kid for kid in level[end[j + 1] : end[j]].translate(_SHIFT[-j]).split(b"\1")[1:]]
        kids.append(up.translate(_DOWN))
        kids.sort(reverse=True)
        up = b"\0" + b"".join(kids)
    if diameter % 2 == 0:
        return up, 1
    half = level[c + 1 : end[c + 1]].translate(_SHIFT[-c - 1])
    rooted = b"\0" + half.translate(_DOWN) + up[1:]
    return rooted if _centres(rooted, len(half) + 1) else b"\0" + up.translate(_DOWN) + half[1:], 2

