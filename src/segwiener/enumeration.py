"""Exhaustive generation of free trees up to isomorphism, with segment filters.

One composition, `_compose`, gives every free tree of an order, each as
its canonical centre-rooted preorder level sequence (bytes), in strictly
decreasing order, one batch per first child of the root: it pools the
rooted trees by height and joins them into forests, so a whole order and
its skeletons, the trees with no vertex of degree 2, come from the same
pool.  It emits each isomorphism class exactly once, in a deterministic
order (that of networkx's ``nonisomorphic_trees``, with vertices labelled
by preorder index), with the index of the root's second child and the
number of centres, the facts the coder roots it by; the stream
(`_stream`) is that composition behind the order guard.

A tree is read, coded and filtered straight off its level sequence, and a
``Tree`` is built only where a caller keeps one.  One selector, `_levels`,
gives every tree of an order, one segment sequence or one segment count,
in stream order, as the stream's triple (level sequence, second-child
index, number of centres): the ``Tree`` streams unpack it and the listing
``segwiener enumerate`` prints takes it whole.  A segment class or count
is not filtered out of its order but placed on its skeletons, the trees
with one edge per segment, composed directly (`_skeletons`, `_compose`
keeping only the pooled trees with no child or at least two): the
segment lengths, or each partition of n - 1 into that many parts
(`_partitions`), go on their edges once per orbit of the skeleton's
automorphisms, and `_segment_class` re-roots each member at its centre
(`_recentre`, which also gives its number of centres), sorts the
sequences into stream order and gives each its second-child index.
``count_trees`` lists nothing: it counts a class or count over
the same orbits (`_orbit_count`, each vertex's placements a polynomial in
the parts they consume, memoised by subtree shape), and a whole order by
Otter's formula (`_otter_count`).  One pass, `_parents`, gives the
preorder parents and degrees that the placements, the reader
(``trees._read``) and `_tree_from_levels` share.

The verifiers read an order's trees for their segment sequences and
packed index sums (`_tree_reads`) branch by branch, not tree by tree: a
root branch, the root's edge to one child with that child's subtree,
holds its edges' side sizes and all its segments but the one through a
root of degree 2, and an order has far fewer distinct branches than trees
(82 against 551 at order 12, 1230 against 19320 at order 16).  One walk
of the stream splits each sequence at the root's children, reads each
distinct branch once (`_read_branch`, with ``trees._read``), and sums and
joins the reads per tree.  Every sequence emitted
is canonical, so a listing is coded in one pass (`_listing`), with no
sorting: each tree rooted at the centre its code is rooted at, on its
level bytes (`_rooting`: a unicentral tree's own sequence, and only for a
bicentral tree the rooting at vertex 1 too, two slices of its sequence
joined), then the parentheses of many trees from one integer difference
(`_parens`).
The Prüfer-plus-canonical-dedup oracle, the free-tree successor of
Wright, Richmond, Odlyzko & McKay the stream and the skeletons are
checked against, the stream filters the counts are checked against, and
the Cayley check are in the tests.
"""

from __future__ import annotations

from itertools import groupby, islice, repeat, starmap
from math import comb
from typing import Iterable, Iterator, Sequence

from .generators import normalize_segment_lengths
from .steiner import _packed_sum
from .trees import Tree, _read

MAX_ORDER = 16


def _stream(n: int) -> Iterator[tuple[bytes, int, int]]:
    """The canonical centre-rooted preorder level sequence, as bytes, of
    every free tree of order *n*, in strictly decreasing lexicographic
    order, with the index of the root's second child (n if it has only
    one) and the number of centres: `_compose` behind the order guard."""
    _check_order(n)
    return _compose(n)


def _compose(order: int, reduced: bool = False) -> Iterator[tuple[bytes, int, int]]:
    """The stream's triples of every free tree of *order* vertices, or with
    *reduced* of every one with no vertex of degree 2 (the series-reduced
    trees, OEIS A000014), with no order guard: the tree's canonical
    centre-rooted level sequence as bytes, in strictly decreasing order,
    the index of the root's second child (*order* if it has only one) and
    the number of centres.

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
    no larger, or at equal size not lexicographically later.  Only one
    batch is held at a time.  With *reduced*, every pooled tree has no
    children or at least two, and the root at least three, two of them in
    the root's half of a bicentral tree."""
    if order <= 2:
        yield b"\0\1"[:order], order, order  # a vertex (unicentral) or an edge (bicentral)
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
                yield from [(level, m, 1) for level in sorted(joined(head, groups[h], order - m, i), reverse=True)]
            if h and 2 * len(x) <= order:
                found = sorted(joined(head, groups[h - 1], order - m, i), reverse=True)
                if 2 * len(x) == order:  # halves of equal size: vertex 1's no later
                    found = [level for level in found if x.translate(_UP) <= b"\0" + level[m:]]
                yield from [(level, m, 2) for level in found]


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
    for level, _, _ in _levels(n):
        yield _tree_from_levels(level)


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
    for level, _, _ in _stream(n):
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


def _listing(rooted: Iterable[tuple[Sequence[int], int, int]]) -> str:
    """The canonical codes, a line each, of the trees of the triples
    `_levels` yields (a stream sequence, its second-child index and its
    number of centres; `_facts` makes the triple of a sequence from
    elsewhere), all made before any is returned; `_parens` writes 2048 at
    a time."""
    rooted = starmap(_rooting, rooted)
    return "".join(map(_parens, iter(lambda: b"".join(islice(rooted, 2048)), b"")))


def _level_code(level: Sequence[int]) -> str:
    """`_listing` of one stream sequence, without its line end."""
    return _parens(_rooting(*_facts(level)))[:-1]


def _facts(level: Sequence[int]) -> tuple[Sequence[int], int, int]:
    """A stream sequence with the index of the root's second child and its
    number of centres, as `_stream` yields it."""
    m = _first_subtree_end(level)
    return level, m, _centres(level, m)


def _rooting(level: Sequence[int], m: int, centres: int) -> bytes:
    """The canonical sequence, as bytes, of the tree of a stream sequence
    rooted where its code is, given the root's second child at index *m*
    and the number of *centres*.  A unicentral tree's is its own; a
    bicentral tree's other centre is vertex 1, and of the two sequences,
    rooted at the centres, the larger writes the smaller code.

    Rooted at vertex 1 it needs no sort: the root's side (``level[m:]``
    one level deeper under the root) is as high as vertex 1's half, the
    halves of a bicentral tree being of equal height, so it is strictly
    higher than, and in canonical order comes before, each of vertex 1's
    own children (``level[2:m]`` one level higher), which are in canonical
    order already."""
    level = bytes(level)
    if centres == 1:
        return level
    return max(level, b"\0\1" + level[m:].translate(_DOWN) + level[2:m].translate(_UP))


def _parens(levels: bytes) -> str:
    """The AHU code, a line each, of the trees of concatenated canonical
    rooted level sequences: a ``(`` per vertex, then a ``)`` per level
    closed before the next vertex or, after a tree's last, above its root
    (the only level 0).  The larger of two sequences writes the smaller
    code, opening a vertex where the other first closes one, so canonical
    children come in AHU order.  As little-endian integers, byte v of
    levels + 0x80...80 - (`_NEXT` of levels >> 8) is level[v] + 1 -
    level[v + 1] <= 127 before a non-root, and level[v] + 128 before a root
    or the end, with no borrow while levels stay at most 127, as in
    centre-rooted trees of order up to 255: `_FIELDS` writes each."""
    if not levels.isascii():
        raise ValueError("the coder takes levels up to 127, so centre-rooted trees of order up to 255")
    size = len(levels)
    fields = int.from_bytes(levels, "little") + int.from_bytes(b"\x80" * size, "little")
    fields -= int.from_bytes(levels.translate(_NEXT), "little") >> 8
    return "(" + "(".join(map(_FIELDS.__getitem__, fields.to_bytes(size, "little")))


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
    for level, _, _ in _levels(1 + sum(lengths), lengths):
        yield _tree_from_levels(level)


def trees_with_segment_count(n: int, m: int) -> Iterator[Tree]:
    """All trees of order *n* with exactly *m* segments (possibly none)."""
    for level, _, _ in _levels(n, num_segments=m):
        yield _tree_from_levels(level)


def count_trees(n: int, segments: Iterable[int] | None = None, num_segments: int | None = None) -> int:
    """How many trees `trees_with_segment_sequence(segments)`,
    `trees_with_segment_count(n, num_segments)` or `all_trees(n)` yields,
    the first whose argument is given; no tree is listed.  A segment class
    or count is counted over its skeletons' orbits (`_orbit_count`), with
    no member placed; a whole order by Otter's formula (`_otter_count`).
    *segments* must sum to n - 1."""
    if segments is not None:
        lengths = _class_lengths(n, segments)
        caps = tuple(lengths.count(x) for x in sorted(set(lengths)))
        units = [tuple(int(i == j) for j in range(len(caps))) for i in range(len(caps))]
        return _orbit_count(_skeletons(len(lengths) + 1), caps, units)
    if num_segments is not None:
        _check_count(n, num_segments)
        if num_segments > n - 1:
            return 0
        return _orbit_count(_skeletons(num_segments + 1), (n - 1,), [(length,) for length in range(1, n)])
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
) -> Iterator[tuple[Sequence[int], int, int]]:
    """Every tree of order *n*, or those with segment sequence *segments*
    (which must sum to n - 1) or with *num_segments* segments (not
    negative), the first whose argument is given, in stream order, as the
    triples `_stream` yields: a whole order's are the stream's own, and a
    segment class's, or a segment count's as the classes of its partitions
    of n - 1, are built from its skeletons (`_segment_class`)."""
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


def _segment_class(classes: Iterable[tuple[int, ...]]) -> Iterator[tuple[bytes, int, int]]:
    """Every tree whose segment sequence is one of *classes*
    (non-increasing, of one order n and one number of parts m), in stream
    order, as `_stream` yields it: its level sequence, as bytes, with the
    root's second-child index and number of centres.

    A tree's vertices of degree other than 2, joined along its segments,
    form its skeleton: a tree with m edges and no vertex of degree 2
    (`_skeletons`), of which the tree is a subdivision with the parts as
    edge lengths.  A skeleton's placements of the parts up to its
    automorphisms (`_placements`) are distinct trees, since a tree has one
    skeleton.  The skeletons are built once, for the first class; each
    member is re-rooted at its centre (`_recentre`, which knows its number
    of centres), and the sequences, all distinct, are sorted into the
    stream's descending order, each then given its second-child index."""
    found: list[tuple[bytes, int]] = []
    skeletons = None
    for lengths in classes:
        if skeletons is None:
            skeletons = _skeletons(len(lengths) + 1)
        for skeleton in skeletons:
            found += map(_recentre, _placements(skeleton, lengths))
    found.sort(reverse=True)
    for level, centres in found:
        yield level, _first_subtree_end(level), centres


def _skeletons(order: int) -> list[bytes]:
    """The stream's level sequence, as bytes, of every tree of *order*
    vertices with no vertex of degree 2 (the series-reduced trees, OEIS
    A000014), in stream order, composed directly (`_compose`), with no
    order guard."""
    return [level for level, _, _ in _compose(order, True)]


# ``level.translate(_SHIFT[k])`` adds k to every level of a bytes sequence,
# mod 256, so ``_SHIFT[-k]`` subtracts k
_SHIFT = [r[k:] + r[:k] for r in [bytes(range(256))] for k in range(256)]
_DOWN, _UP = _SHIFT[1], _SHIFT[-1]  # a level one deeper, one higher
_NEXT = b"\0" + bytes(range(128, 256)) + bytes(127)  # a root as 0, a level b >= 1 as b + 127
_FIELDS = [")" * d for d in range(128)] + [")" * (d - 127) + "\n" for d in range(128, 256)]


def _placements(skeleton: bytes, lengths: tuple[int, ...]) -> Iterator[bytes]:
    """For each placement of *lengths* on the edges of *skeleton* (a stream
    sequence, so rooted at a centre), up to the skeleton's automorphisms,
    the canonical level sequence (as bytes) of the tree it makes, rooted at
    the skeleton's root.

    Every automorphism fixes the centre, so it only permutes children of one
    shape (equal level slices, adjacent in a canonical sequence) and, when
    the central edge joins two halves of one shape, swaps those.  A
    vertex's placement is the canonical sequence of its subtree in the
    tree, built from its children's; children of one shape take their
    (part, placement) pairs in non-decreasing order, and the root's half
    takes a placement no later than vertex 1's."""
    size = len(skeleton)
    values = sorted(set(lengths))
    counts = tuple(lengths.count(x) for x in values)
    chains = [bytes(range(1, length)) for length in range(max(lengths, default=0) + 1)]
    parent = _parents(skeleton)[0]
    end = list(range(1, size + 1))
    for v in range(size - 1, 0, -1):
        end[parent[v]] = max(end[parent[v]], end[v])
    shape = [skeleton[v : end[v]] for v in range(size)]
    # each vertex's children as (child, is a leaf, has the previous child's shape)
    kids: list[list[tuple[int, bool, bool]]] = [[] for _ in range(size)]
    for v in range(1, size):
        siblings = kids[parent[v]]
        siblings.append((v, len(shape[v]) == 1, bool(siblings) and shape[siblings[-1][0]] == shape[v]))

    def grow(v: int, left: tuple[int, ...]) -> Iterator[tuple[bytes, tuple[int, ...]]]:
        # (placement of v's subtree, counts of the parts left) per placement
        for branches, rest in hang(kids[v], 0, left, 0, b"", ()):
            yield b"\0" + b"".join(sorted(branches, reverse=True)), rest

    def hang(children, i, left, low, floor, branches):
        # the branches of children[i:] added to *branches*; the first, if of
        # the previous child's shape, no lower than (values[low], floor)
        if i == len(children):
            yield branches, left
            return
        c, leaf, same = children[i]
        if not same:
            low, floor = 0, b""
        for x in range(low, len(values)):
            if not left[x]:
                continue
            rest = (*left[:x], left[x] - 1, *left[x + 1 :])
            length = values[x]
            for below, after in ((b"\0", rest),) if leaf else grow(c, rest):
                if x > low or below >= floor:
                    branch = chains[length] + below.translate(_SHIFT[length])
                    yield from hang(children, i + 1, after, x, below, (*branches, branch))

    m = _first_subtree_end(skeleton)
    if skeleton[1:m].translate(_UP) != b"\0" + skeleton[m:]:
        for level, _ in grow(0, counts):
            yield level
        return
    for x in range(len(values)):
        length = values[x]
        for far, rest in grow(1, (*counts[:x], counts[x] - 1, *counts[x + 1 :])):
            central = chains[length] + far.translate(_SHIFT[length])
            for branches, _ in hang(kids[0][1:], 0, rest, 0, b"", ()):
                if b"\0" + b"".join(sorted(branches, reverse=True)) <= far:
                    yield b"\0" + b"".join(sorted((*branches, central), reverse=True))


def _orbit_count(skeletons: list[bytes], caps: tuple[int, ...], parts: list[tuple[int, ...]]) -> int:
    """How many trees the *skeletons* (stream sequences of one order) make
    with an edge part on every edge, where each of *parts* consumes a
    vector of amounts and the parts placed consume exactly *caps* in all;
    counted once per orbit of each skeleton's automorphisms, as
    `_placements` places them, with no tree placed.  A segment count
    consumes the one total length n - 1, in parts of any length 1 or more;
    a segment class consumes each part length as often as it occurs.

    A vertex's placements are counted as a polynomial in what they consume,
    a dict from the consumption (packed into one int, a field per amount,
    each a bit wider than its cap, so that a guard bit shows a sum over its
    cap) to the number of placements, memoised by the vertex's subtree
    shape.  A child's branches are its edge part times its own placements;
    a run of r children of one shape takes a multiset of r branches, which
    is the t^r coefficient of the product over consumptions d of
    (1 - t y^d)^(-b_d), b_d the branches consuming d: C(b_d + j - 1, j)
    ways to take j of them.  The two halves of a bicentral skeleton of one
    shape are such a multiset of two around the central edge's part."""
    bit = target = offset = guard = 0
    fields = []
    for cap in caps:
        width = cap.bit_length() + 1
        fields.append(bit)
        target += cap << bit
        offset += ((1 << width - 1) - 1 - cap) << bit
        guard |= 1 << bit + width - 1
        bit += width
    edge = {sum(amount << field for amount, field in zip(part, fields)): 1 for part in parts}
    grown: dict[bytes, dict[int, int]] = {}

    def times(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for a, x in p.items():
            for b, y in q.items():
                if not (a + b + offset) & guard:
                    out[a + b] = out.get(a + b, 0) + x * y
        return out

    def multisets(branches: dict[int, int], r: int) -> dict[int, int]:
        # layers[j]: the multisets of j branches of the consumptions seen so far
        layers = [{0: 1}] + [{} for _ in range(r)]
        for d, b in branches.items():
            for j in range(r, 0, -1):
                layer = layers[j]
                for i in range(1, j + 1):
                    if (i * d + offset) & guard:
                        break
                    ways = comb(b + i - 1, i)
                    for a, x in layers[j - i].items():
                        if not (a + i * d + offset) & guard:
                            layer[a + i * d] = layer.get(a + i * d, 0) + x * ways
        return layers[r]

    def grow(shape: bytes) -> dict[int, int]:
        # the placements of a subtree, its root at level 0
        if shape not in grown:
            poly = {0: 1}
            for kid, run in groupby(shape[1:].translate(_UP).split(b"\0")[1:]):
                poly = times(poly, multisets(times(edge, grow(b"\0" + kid)), len(list(run))))
            grown[shape] = poly
        return grown[shape]

    total = 0
    for skeleton in skeletons:
        m = _first_subtree_end(skeleton)
        if skeleton[1:m].translate(_UP) == b"\0" + skeleton[m:]:
            poly = times(edge, multisets(grow(b"\0" + skeleton[m:]), 2))
        else:
            poly = grow(skeleton)
        total += poly.get(target, 0)
    return total


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

