"""Independent reference implementations used to compute expected values.

Nothing here shares an algorithm with the package: distances are summed from
BFS, edge side sizes are subtree sizes summed over the package's `_bfs` in
a pass of their own (the package reads them together with the segment
sequence), SW_k is summed literally over all k-subsets (`sw_k_bruteforce`)
of Steiner distances found by pruning leaves (`steiner_distance`), which in
turn are checked against enumerating connected supersets, the sums of the
weight rows are taken one k at a time (`index_sums_per_k`) instead of over
one packed row for every k, segments are
walked one by one from their ends (`segment_decomposition`), tree
enumeration walks all Prüfer sequences, decodes each straight to
degrees and neighbour sums and keys the tree while peeling its leaves,
automorphism counts come from nested-tuple AHU codes, canonical codes from
recursive string encodings at the middle of a longest path, the
quasi-caterpillar test re-derives pendant removal from leaf walks, the
structure predicates are read over every backbone candidate instead of
one, each by walking the candidate path and the pendant segments off it
into a `BackboneView` (`backbone_view`) instead of reading the
series-reduced tree, the valley test runs a greedy state machine over the
groups (`groups_admit_valley_greedy`) instead of checking where they turn,
the canonical backbone, which the package does not compute, is the
orientation of a candidate with the smallest sorted subtree codes of the
components hanging at its vertices (`_orientation_key`,
`backbone_over_all_candidates`), each move kind is built and given a
closed-form delta by a routine of its own instead of from one relocation
list, a move's delta is also stepped edge by edge over its relocation list
(`delta_over_relocations`) instead of read off prefix sums, slides are
listed by a search from every anchor instead of one per branch vertex,
reports are written by the stdlib ``json`` encoder, the realizable
segment sequences of an order are listed as the partitions of n - 1 into
one part or at least three (`segment_sequences_of_order`) instead of read
off the keys of the enumerator's buckets, and the trees with a given
number of segments are filtered out of the package's whole level stream
of their order, counting segments off the degrees (`segment_count`),
instead of built from skeletons and partitions.  The package composes
each order's level sequences from pooled rooted trees, and its skeletons
(no vertex of degree 2) the same way; here they come from the free-tree
successor of Wright, Richmond, Odlyzko & McKay instead (`wrom_stream`),
which the package's stream is checked against triple for triple, and
the skeletons are filtered out of it (`skeletons_by_filter`).  Three
helpers the package does not need live here too: `path` reads the path
between two vertices off the BFS parents, `relabel` permutes a tree's
vertex ids, and `level_sequences` gives the package's level stream of an
order without the facts it hands the coder.  The
verifiers read an order's trees branch by branch, each distinct root
branch once; `read_trees` reads each tree of the stream whole instead
(`read_levels`), and is the route the branch reads are checked against.

The judges the verifiers read off level sequences are checked against the
routes they replaced, which read a built ``Tree``: `structure_assessment`
along `backbone_view`'s walk of the first candidate of
``trees.all_backbones`` (with this module's greedy valley test),
`is_unit_pendant_caterpillar` off adjacency lists, and `attains_by_code`,
a construction attaining the extremum when its canonical code is among the
extremal trees' codes, where the verifier compares its SW_k, summed as one
more row of its class, with the column's extremum.  |Aut T| is also read
off a level sequence (`automorphisms_of_levels`, by slices of the
sequence) and against that the number of labelled trees with a given
segment count comes from Prüfer sequences in closed form (`labelled_trees_with_segment_count`), so that
segment-count classes past the stream's order limit have a second route.
The Prüfer class-key sweep can be split over worker processes
(`prufer_class_keys_in_parts`), its keys de-interned
(`deinterned_class_key`) so that keys from different processes compare.
"""

from __future__ import annotations

import itertools
import json
import math
import multiprocessing
import random
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from segwiener import enumeration
from segwiener.enumeration import _centres as _centre_rule
from segwiener.enumeration import _first_subtree_end, _parents
from segwiener.exact import checked
from segwiener.moves import MoveDescriptor, Reattach, Relocation, Slide, Switch, _rewire
from segwiener.steiner import _weights
from segwiener.trees import (
    EmptyDecompositionError,
    NotQuasiCaterpillarError,
    Tree,
    _bfs,
    _codes,
    _read,
    all_backbones,
    canonical_code,
    is_quasi_caterpillar,
)
from segwiener.verify import CONFIRMED, VIOLATED, StructurePredicateSet, VerificationReport, is_unimodal


BRUTE_FORCE_MAX_N = 20


class EmptySetError(ValueError):
    """Steiner distance of the empty set is undefined."""


def steiner_distance(t: Tree, subset: Iterable[int]) -> int:
    """Edge count of the minimal subtree of *t* spanning *subset*.

    Computed by iteratively pruning leaves that are not in the set; what
    remains is exactly the spanning subtree.  A singleton has distance 0.
    """
    wanted = set(subset)
    if not wanted:
        raise EmptySetError("steiner distance needs at least one vertex")
    for v in wanted:
        if not (0 <= v < t.n):
            raise ValueError(f"vertex {v} out of range")
    deg = [t.degree(v) for v in range(t.n)]
    alive = t.n
    stack = [v for v in range(t.n) if deg[v] == 1 and v not in wanted]
    while stack:
        v = stack.pop()
        deg[v] = 0
        alive -= 1
        for w in t.adj[v]:
            if deg[w] > 0:
                deg[w] -= 1
                if deg[w] == 1 and w not in wanted:
                    stack.append(w)
    return alive - 1


def sw_k_bruteforce(t: Tree, k: int) -> int:
    """Literal sum of Steiner distances over all k-subsets, guarded to
    orders up to `BRUTE_FORCE_MAX_N`."""
    if not 1 <= k <= t.n:
        raise ValueError(f"k={k} out of range 1..{t.n}")
    if t.n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force is guarded to n <= {BRUTE_FORCE_MAX_N}")
    return checked(sum(steiner_distance(t, s) for s in itertools.combinations(range(t.n), k)))


def index_sums_per_k(n: int, sides: Sequence[int], ks: Iterable[int]) -> tuple[int, ...]:
    """SW_k for each k in *ks* of the tree of order *n* with these edge side
    sizes: one generator sum over the `_weights(n, k)` row per k, each
    checked, in k order."""
    rows = (_weights(n, k) for k in ks)
    return tuple(checked(sum(w[a] for a in sides)) for w in rows)


def wiener_by_distances(t: Tree) -> int:
    """Sum of pairwise distances from n BFS runs."""
    total = 0
    for source in range(t.n):
        dist = {source: 0}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for w in t.adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        total += sum(dist.values())
    return total // 2


def steiner_by_enumeration(t: Tree, subset: set[int]) -> int:
    """Minimum edge count over all connected vertex sets containing *subset*."""
    rest = [v for v in range(t.n) if v not in subset]
    best = None
    for r in range(len(rest) + 1):
        if best is not None:
            break
        for extra in itertools.combinations(rest, r):
            vertices = subset | set(extra)
            if _induces_connected(t, vertices):
                best = len(vertices) - 1
                break
    assert best is not None
    return best


def _induces_connected(t: Tree, vertices: set[int]) -> bool:
    start = next(iter(vertices))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in t.adj[v]:
            if w in vertices and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vertices)


def prufer_to_adjacency(seq: tuple[int, ...], n: int) -> list[list[int]]:
    """Decode a Prüfer sequence over labels 0..n-1."""
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    adj: list[list[int]] = [[] for _ in range(n)]
    ptr = 0
    leaf = -1
    for v in seq:
        if leaf < 0:
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
        adj[leaf].append(v)
        adj[v].append(leaf)
        deg[leaf] -= 1
        deg[v] -= 1
        if deg[v] == 1 and v < ptr:
            leaf = v
        else:
            leaf = -1
    u = -1
    for i in range(n):
        if deg[i] == 1:
            if u < 0:
                u = i
            else:
                adj[u].append(i)
                adj[i].append(u)
                break
    return adj


def prufer_degrees_and_sums(seq: tuple[int, ...], n: int) -> tuple[list[int], list[int]]:
    """Decode a Prüfer sequence over labels 0..n-1 into each vertex's degree
    and the sum of its neighbours, without building adjacency lists."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    deg = degree[:]
    total = [0] * n
    ptr = 0
    leaf = -1
    for v in seq:
        if leaf < 0:
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
        total[leaf] += v
        total[v] += leaf
        deg[leaf] -= 1
        deg[v] -= 1
        leaf = v if deg[v] == 1 and v < ptr else -1
    u = deg.index(1)
    w = deg.index(1, u + 1)
    total[u] += w
    total[w] += u
    return degree, total


def _subtree_sizes(t: Tree) -> tuple[list[int], list[int], list[int]]:
    """The parents and order of the breadth-first search of *t* from vertex
    0, and the vertex count of every vertex's subtree in that search."""
    parent, order = _bfs(t.adj, 0)
    size = [1] * t.n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    return parent, order, size


def edge_side_sizes(t: Tree) -> list[int]:
    """For every edge, the vertex count of one fixed side (the child side
    when rooted at vertex 0)."""
    _, order, size = _subtree_sizes(t)
    return [size[v] for v in order[1:]]


Side = Callable[[int, int], int]


def side_reader(t: Tree) -> Side:
    """side(u, v), the vertex count on v's side of the edge u-v of *t*, off
    the subtree sizes of its search from vertex 0."""
    parent, _, size = _subtree_sizes(t)
    n = t.n

    def side(u: int, v: int) -> int:
        return size[v] if parent[v] == u else n - size[u]

    return side


def path(t: Tree, u: int, v: int) -> tuple[int, ...]:
    """The unique path from u to v in *t*, inclusive: v's ancestors in the
    breadth-first search from u."""
    for x in (u, v):
        if not 0 <= x < t.n:
            raise ValueError(f"vertex {x} out of range 0..{t.n - 1}")
    parent = _bfs(t.adj, u)[0]
    out = [v]
    while out[-1] != u:
        out.append(parent[out[-1]])
    out.reverse()
    return tuple(out)


def relabel(t: Tree, mapping: Iterable[int]) -> Tree:
    """*t* with the permutation ``mapping[old] = new`` applied to its vertex
    ids."""
    perm = list(mapping)
    if sorted(perm) != list(range(t.n)):
        raise ValueError("mapping must be a permutation of the vertex ids")
    return Tree.from_edges([(perm[u], perm[v]) for u, v in t.edges()], n=t.n)


def random_labeled_tree(n: int, rng: random.Random) -> Tree:
    if n == 1:
        return Tree.from_edges([], n=1)
    if n == 2:
        return Tree.from_edges([(0, 1)], n=2)
    seq = tuple(rng.randrange(n) for _ in range(n - 2))
    adj = prufer_to_adjacency(seq, n)
    return Tree.from_edges([(u, v) for u in range(n) for v in adj[u] if u < v], n=n)


def _centres(adj, n: int) -> list[int]:
    """The one or two central vertices of a tree with n >= 2, by leaf
    peeling (``trees._centers`` sweeps for a longest path)."""
    degc = [len(a) for a in adj]
    layer = [i for i in range(n) if degc[i] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            degc[v] = 0
            for w in adj[v]:
                if degc[w] > 0:
                    degc[w] -= 1
                    if degc[w] == 1:
                        nxt.append(w)
        layer = nxt
    return sorted(layer)


def _interned_class_key(adj: list[list[int]], n: int, intern: dict) -> tuple:
    """`_peeled_class_key` of the tree with adjacency lists *adj*."""
    return _peeled_class_key([len(a) for a in adj], [sum(a) for a in adj], n, intern)


def _peeled_class_key(degc: list[int], rest: list[int], n: int, intern: dict) -> tuple:
    """Isomorphism class key of a tree with n >= 2, given each vertex's
    degree and neighbour sum (both consumed): the interned bottom-up
    encoding rooted at the centre(s), built while the leaves are peeled.

    A vertex is coded when it is peeled, from the codes its already-peeled
    neighbours (its children) handed it, and hands its own code to the one
    neighbour it has left: the sum of its neighbours not yet peeled.  The
    one or two centres are coded last; a bicentral tree's key is its two
    halves in order."""
    kids: list[list[int]] = [[] for _ in range(n)]
    layer = [v for v in range(n) if degc[v] == 1]
    remaining = n
    while True:
        cids = []
        for v in layer:
            key = kids[v]
            key.sort()
            key = tuple(key)
            cid = intern.get(key)
            if cid is None:
                cid = intern[key] = len(intern)
            cids.append(cid)
        if remaining <= 2:
            break
        remaining -= len(layer)
        nxt = []
        for v, cid in zip(layer, cids):
            p = rest[v]
            rest[p] -= v
            kids[p].append(cid)
            degc[p] -= 1
            if degc[p] == 1:
                nxt.append(p)
        layer = nxt
    cids.sort()
    return ("c", cids[0]) if len(cids) == 1 else ("b", tuple(cids))


def automorphism_count(t: Tree) -> int:
    """|Aut T| for n >= 2, from tuple AHU codes rooted at the centre: every
    vertex contributes the factorials of the multiplicities of equal child
    codes; a bicentral tree multiplies its two halves, and doubles when the
    halves are equal (the central edge can be flipped)."""
    centers = _centres(t.adj, t.n)
    if len(centers) == 1:
        return _rooted_automorphisms(t, centers[0], -1)[1]
    c1, c2 = centers
    code1, aut1 = _rooted_automorphisms(t, c1, c2)
    code2, aut2 = _rooted_automorphisms(t, c2, c1)
    return aut1 * aut2 * (2 if code1 == code2 else 1)


def _rooted_automorphisms(t: Tree, root: int, rootparent: int) -> tuple[tuple, int]:
    """(code, |Aut|) of the subtree at *root* away from *rootparent*."""
    order = [root]
    parent = {root: rootparent}
    for v in order:
        for w in t.adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    code: dict[int, tuple] = {}
    aut: dict[int, int] = {}
    for v in reversed(order):
        kids = [w for w in t.adj[v] if w != parent[v]]
        codes = sorted(code[w] for w in kids)
        count = math.prod(aut[w] for w in kids)
        for _, equal in itertools.groupby(codes):
            count *= math.factorial(len(list(equal)))
        code[v] = tuple(codes)
        aut[v] = count
    return code[root], aut[root]


def _farthest(t: Tree, source: int) -> tuple[int, dict[int, int]]:
    """A vertex farthest from *source* and the depth-first parent map."""
    parent = {source: source}
    depth = {source: 0}
    stack = [source]
    while stack:
        v = stack.pop()
        for w in t.adj[v]:
            if w not in parent:
                parent[w] = v
                depth[w] = depth[v] + 1
                stack.append(w)
    return max(depth, key=lambda v: (depth[v], -v)), parent


def centres_by_longest_path(t: Tree) -> list[int]:
    """The one or two middle vertices of a longest path, found by two
    farthest-vertex sweeps (not by leaf peeling)."""
    u, _ = _farthest(t, 0)
    v, parent = _farthest(t, u)
    diameter = [v]
    while diameter[-1] != u:
        diameter.append(parent[diameter[-1]])
    mid = (len(diameter) - 1) // 2
    return diameter[mid : mid + 1] if len(diameter) % 2 else diameter[mid : mid + 2]


def ahu_code_by_recursion(t: Tree) -> bytes:
    """Canonical code as the least recursive string AHU encoding over the
    centres of `centres_by_longest_path`."""

    def encode(x: int, up: int) -> str:
        return "(" + "".join(sorted(encode(w, x) for w in t.adj[x] if w != up)) + ")"

    return min(encode(c, -1) for c in centres_by_longest_path(t)).encode("ascii")


def rooted_level_sequence(t: Tree, root: int) -> list[int]:
    """The canonical preorder level sequence of *t* rooted at *root*: each
    vertex's children in non-increasing order of their own sequences, by
    recursion over the adjacency lists."""

    def levels(x: int, up: int, depth: int) -> list[int]:
        kids = sorted((levels(w, x, depth + 1) for w in t.adj[x] if w != up), reverse=True)
        return [depth, *(level for kid in kids for level in kid)]

    return levels(root, -1, 0)


def free_trees_by_prufer(n: int) -> tuple[int, list[Tree]]:
    """Count the isomorphism classes among all n^(n-2) labeled trees and
    return one representative per class (in discovery order)."""
    if n in (1, 2):
        return 1, [Tree.from_edges([(0, 1)], n=2) if n == 2 else Tree.from_edges([], n=1)]
    intern: dict = {}
    classes: dict[tuple, list[list[int]]] = {}
    for seq in itertools.product(range(n), repeat=n - 2):
        adj = prufer_to_adjacency(seq, n)
        key = _interned_class_key(adj, n, intern)
        if key not in classes:
            classes[key] = adj
    reps = [
        Tree.from_edges([(u, v) for u in range(n) for v in adj[u] if u < v], n=n)
        for adj in classes.values()
    ]
    return len(classes), reps


def deinterned_class_key(key: tuple, intern: dict) -> tuple:
    """*key*, an `_interned_class_key` interned in *intern*, with every
    intern id replaced by the nested tuple it stands for, children in sorted
    order: equal for isomorphic trees whatever process interned them."""
    children = {cid: kids for kids, cid in intern.items()}

    def nested(cid: int) -> tuple:
        return tuple(sorted(nested(c) for c in children[cid]))

    kind, ids = key
    return (kind, nested(ids)) if kind == "c" else (kind, tuple(sorted(map(nested, ids))))


def _prufer_part_keys(n: int, first: int) -> set[tuple]:
    """The `_interned_class_key` of every isomorphism class among the
    labeled trees on n >= 3 vertices whose Prüfer sequence starts with
    *first*, de-interned."""
    intern: dict = {}
    keys = {
        _peeled_class_key(*prufer_degrees_and_sums((first, *rest), n), n, intern)
        for rest in itertools.product(range(n), repeat=n - 3)
    }
    return {deinterned_class_key(key, intern) for key in keys}


def prufer_class_keys_in_parts(orders: Iterable[int], workers: int) -> dict[int, set[tuple]]:
    """The de-interned `_interned_class_key` of every isomorphism class among
    all n^(n-2) labeled trees, for every order n in *orders* (each at least
    3): the Prüfer sequences of each order are split by their first symbol,
    the parts run on at most *workers* processes, and the key sets of the
    parts are merged.  When no worker process can start, the parts
    run in this process."""
    parts = [(n, first) for n in orders for first in range(n)]
    keys: dict[int, set[tuple]] = {n: set() for n, _ in parts}
    spawn = multiprocessing.get_context("spawn")
    try:
        with ProcessPoolExecutor(max_workers=max(1, workers), mp_context=spawn) as pool:
            found = list(pool.map(_prufer_part_keys, *zip(*parts)))
    except (OSError, RuntimeError):  # no worker could start, or one died
        found = [_prufer_part_keys(n, first) for n, first in parts]
    for (n, _), part in zip(parts, found):
        keys[n] |= part
    return keys


def automorphisms_of_levels(level: Sequence[int]) -> int:
    """|Aut T| of the tree of a canonical level sequence rooted at a centre
    (the stream's), read off the sequence alone: every vertex contributes
    the factorials of the multiplicities of its equal child subtrees (equal
    slices of a canonical sequence), and a bicentral tree (the root's first
    subtree one level higher than the rest) doubles when its two halves, at
    vertex 1 and at the root, are equal."""
    n = len(level)
    end = [n] * n  # end[v]: where the slice of v's subtree ends
    kids: list[list[int]] = [[] for _ in range(n)]
    stack: list[int] = []
    for u, depth in enumerate(level):
        while stack and level[stack[-1]] >= depth:
            end[stack.pop()] = u
        if stack:
            kids[stack[-1]].append(u)
        stack.append(u)
    count = 1
    for v in range(n):
        slices = sorted(tuple(level[w : end[w]]) for w in kids[v])
        for _, equal in itertools.groupby(slices):
            count *= math.factorial(len(list(equal)))
    if n > 1:
        first, rest = level[1 : end[1]], level[end[1] :]
        if max(first) == max(rest, default=0) + 1 and [x - 1 for x in first] == [0, *rest]:
            count *= 2
    return count


def _words_without_singletons(length: int, letters: int) -> int:
    """The words of *length* over *letters* letters in which no letter occurs
    exactly once: length! [x^length] (e^x - x)^letters, letter by letter."""
    words = [1] + [0] * length  # over no letters: only the empty word
    for _ in range(letters):
        words = [
            sum(math.comb(r, c) * words[r - c] for c in range(r + 1) if c != 1)
            for r in range(length + 1)
        ]
    return words[length]


def labelled_trees_with_segment_count(n: int, m: int) -> int:
    """The labelled trees on n >= 2 vertices with m segments, that is with
    exactly j = n - 1 - m vertices of degree 2, counted over Prüfer
    sequences: a vertex has degree 2 when it occurs exactly once.  Choose
    those j symbols, place them at distinct positions (in order), and fill
    the other r = n - 2 - j positions with the other n - j symbols, none
    of them exactly once."""
    j = n - 1 - m
    r = n - 2 - j
    if j < 0 or r < 0:
        return 0
    placed = math.comb(n, j) * math.factorial(n - 2) // math.factorial(r)
    return placed * _words_without_singletons(r, n - j)


def segment_sequences_of_order(n: int) -> list[tuple[int, ...]]:
    """Every realizable segment sequence of order *n*: partitions of n - 1
    into one part or at least three, in descending lexicographic order."""
    if n < 2:
        return []
    return [p for p in _partitions(n - 1) if len(p) != 2]


def segment_count(level: list[int]) -> int:
    """The number of segments of the tree of a level sequence (0 for a
    single vertex): one fewer than its vertices of degree other than 2,
    read off the degrees alone."""
    return len(level) - 1 - _parents(level)[1].count(2)


def wrom_stream(n: int) -> Iterator[tuple[list[int], int, int]]:
    """The canonical centre-rooted preorder level sequence of every free
    tree of order *n*, in strictly decreasing lexicographic order, with the
    index of the root's second child (n if it has only one) and the number
    of centres, as the package's centre rule (``enumeration._centres``)
    finds them: the free-tree successor of Wright, Richmond, Odlyzko &
    McKay (1986, "Constant time generation of free trees", SIAM J. Comput.
    15), which walks centre-rooted level sequences with the rooted-tree
    successor of Beyer & Hedetniemi (1980, "Constant time generation of
    rooted trees", SIAM J. Comput. 9).  Every step rewrites the one list
    it yields: copy it to keep it.

    Each candidate, a canonical rooted sequence, is judged once by the
    centre rule.  A kept one is yielded and followed by the next rooted
    sequence (Beyer–Hedetniemi: repeat the subtree above the last vertex
    deeper than level 1); a rejected one jumps past the rooted sequences
    whose first subtree is too high, by repeating the subtree above that
    subtree's last vertex and, if that vertex was deeper than level 2,
    ending on a path from the root as deep as the new first subtree
    (WROM)."""
    # the first candidate is the path, rooted at its centre
    level = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while True:
        m = _first_subtree_end(level)
        centres = _centre_rule(level, m)
        if centres:
            yield level, m, centres
            p = n - 1
            while level[p] == 1:
                p -= 1
            if not p:
                return
            deep = False
        else:
            p = m - 1
            deep = level[p] > 2
        q = p - 1
        while level[q] != level[p] - 1:
            q -= 1
        for i in range(p, n):
            level[i] = level[i - p + q]
        if deep:
            height = max(level)  # every copy is below level 1: the first subtree runs to the end
            level[n - height :] = range(1, height + 1)


def level_sequences(n: int) -> Iterator[bytes]:
    """The level sequences of the package's stream of order *n*
    (``enumeration._stream``, looked up on each call), without the facts
    it hands the coder."""
    for level, _, _ in enumeration._stream(n):
        yield level


def read_levels(level: Sequence[int]) -> tuple[list[int], tuple[int, ...]]:
    """The vertex count on the child side of every edge, and the segment
    sequence (empty for a single vertex), of the tree of a level sequence,
    read whole by the package's one reader (``trees._read``) off its
    preorder parents, where the package reads each distinct root branch of
    an order once (``enumeration._tree_reads``)."""
    parent, degree = _parents(level)
    return _read(parent, range(len(level)), degree)


def read_trees(n: int) -> Iterator[tuple[tuple[int, ...], list[int], bytes]]:
    """Every tree of the package's stream of order *n*, each read whole
    (`read_levels`): (segment sequence, edge side sizes, level sequence)."""
    for level in level_sequences(n):
        sides, segments = read_levels(level)
        yield segments, sides, level


def skeletons_by_filter(n: int) -> list[bytes]:
    """The stream's level sequences of order *n* with no vertex of degree 2,
    as bytes, filtered out of the whole WROM stream of that order
    (`wrom_stream`), in its order."""
    return [bytes(level) for level, _, _ in wrom_stream(n) if 2 not in _parents(level)[1]]


def _partitions(total: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """The partitions of *total* into parts of at most *largest*, in
    descending lexicographic order."""
    if total == 0:
        return [()]
    if largest is None:
        largest = total
    out = []
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, first):
            out.append((first,) + rest)
    return out


@dataclass(frozen=True)
class Segment:
    """A maximal path whose interior vertices all have degree 2 in the host."""

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def endpoints(self) -> tuple[int, int]:
        return (self.vertices[0], self.vertices[-1])


def _segment_walk(t: Tree, u: int, w: int) -> tuple[int, ...]:
    """The vertices from *u* through its neighbour *w* up to the first
    vertex whose degree is not 2."""
    verts = [u, w]
    while t.degree(verts[-1]) == 2:
        verts.append(next(x for x in t.adj[verts[-1]] if x != verts[-2]))
    return tuple(verts)


def segment_decomposition(t: Tree) -> list[Segment]:
    """Partition the edges of *t* into segments, each walked from its
    smaller-id end: ends scanned in ascending order, neighbours in
    adjacency order."""
    if t.n < 2:
        raise EmptyDecompositionError("a single-vertex tree has no segments")
    return [
        Segment(verts)
        for u in range(t.n)
        if t.degree(u) != 2
        for verts in (_segment_walk(t, u, w) for w in t.adj[u])
        if u < verts[-1]
    ]


@dataclass(frozen=True)
class BackboneView:
    """A quasi-caterpillar read along one oriented backbone.

    ``pendant_groups[i]`` holds the pendant segment lengths at the i-th
    branch vertex (non-increasing within the group); the flat
    ``pendant_segment_lengths`` is their concatenation in backbone order.
    """

    path: tuple[int, ...]
    branch_indices: tuple[int, ...]
    backbone_segment_lengths: tuple[int, ...]
    pendant_groups: tuple[tuple[int, ...], ...]
    pendant_segment_lengths: tuple[int, ...]


def backbone_view(t: Tree, path: tuple[int, ...]) -> BackboneView:
    """Read off the segment structure of a quasi-caterpillar along *path*
    by walking the path and every pendant segment off it."""
    branch_idx = [i for i, v in enumerate(path) if t.degree(v) >= 3]
    stops = [0] + branch_idx + [len(path) - 1]
    r = tuple(stops[i + 1] - stops[i] for i in range(len(stops) - 1) if stops[i + 1] > stops[i])
    groups = []
    for i in branch_idx:
        v = path[i]
        lengths = []
        for w in t.adj[v]:
            if (i > 0 and w == path[i - 1]) or (i + 1 < len(path) and w == path[i + 1]):
                continue
            leg = _segment_walk(t, v, w)
            if t.degree(leg[-1]) != 1:
                raise NotQuasiCaterpillarError(f"component hanging at {v} is not a pendant path")
            lengths.append(len(leg) - 1)
        groups.append(tuple(sorted(lengths, reverse=True)))
    return BackboneView(
        path=path,
        branch_indices=tuple(branch_idx),
        backbone_segment_lengths=r,
        pendant_groups=tuple(groups),
        pendant_segment_lengths=tuple(x for g in groups for x in g),
    )


def quasi_caterpillar_by_leaf_walks(t: Tree) -> bool:
    """Re-derivation of the quasi-caterpillar test: walk inward from every
    leaf to the first branch vertex, delete what was walked, and check the
    survivors form a path (at most two HAVE degree <= 1, none >= 3, one
    component)."""
    if t.n <= 2:
        return True
    drop: set[int] = set()
    for leaf in t.leaves():
        walk = [leaf]
        prev, cur = -1, leaf
        while t.degree(cur) < 3:
            nxt = [w for w in t.adj[cur] if w != prev]
            if not nxt:
                break  # the whole tree is a path
            prev, cur = cur, nxt[0]
            walk.append(cur)
        drop.update(walk[:-1])
    rest = [v for v in range(t.n) if v not in drop]
    if len(rest) <= 1:
        return True
    rset = set(rest)
    deg = [sum(1 for w in t.adj[v] if w in rset) for v in rest]
    if max(deg) > 2:
        return False
    seen = {rest[0]}
    stack = [rest[0]]
    while stack:
        v = stack.pop()
        for w in t.adj[v]:
            if w in rset and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(rest)


def groups_admit_valley_greedy(groups: Sequence[Sequence[int]]) -> bool:
    """Can the group values be ordered, freely within each group, into a
    weakly falling then weakly rising sequence?

    Greedy state machine over groups: in the falling phase a larger last
    value is strictly more permissive, in the rising phase a smaller one is,
    so one best state per phase suffices.
    """
    INF = float("inf")
    best_down: float | None = INF  # largest achievable last value, still falling
    best_up: float | None = None  # smallest achievable last value, already rising
    for group in groups:
        if not group:
            continue
        desc = sorted(group, reverse=True)
        hi, lo = desc[0], desc[-1]
        new_down = lo if (best_down is not None and hi <= best_down) else None
        up_candidates = []
        if best_down is not None:
            up_candidates.append(lo if hi <= best_down else hi)
        if best_up is not None and lo >= best_up:
            up_candidates.append(hi)
        new_up = min(up_candidates) if up_candidates else None
        best_down, best_up = new_down, new_up
        if best_down is None and best_up is None:
            return False
    return True


def structure_assessment(t: Tree) -> tuple[StructurePredicateSet, bool]:
    """Per-predicate outcomes, read along the first candidate of
    ``trees.all_backbones`` (which raises for a tree that is not a
    quasi-caterpillar) by `backbone_view`'s walk, plus whether all of them
    hold at once: the route the verifier took before it read the level
    sequence."""
    le4 = max((t.degree(v) for v in range(t.n)), default=0) <= 4
    try:
        view = backbone_view(t, all_backbones(t)[0])
    except NotQuasiCaterpillarError:
        return StructurePredicateSet(False, le4, False, False, False), False
    ends = {view.path[i] for i in view.branch_indices[:1] + view.branch_indices[-1:]}
    d4 = all(t.degree(v) != 4 or v in ends for v in range(t.n))
    uni = is_unimodal(view.backbone_segment_lengths)
    valley = groups_admit_valley_greedy(view.pendant_groups)
    return StructurePredicateSet(True, le4, d4, uni, valley), le4 and d4 and uni and valley


def is_unit_pendant_caterpillar(t: Tree) -> bool:
    """Caterpillar: no vertex has more than two non-leaf neighbours."""
    adj = t.adj
    return all(sum(len(adj[w]) > 1 for w in adj[v]) <= 2 for v in range(t.n))


def attains_by_code(construction: Tree, arg_trees: Iterable[str]) -> str:
    """The verdict that *construction* is among the extremal trees, by its
    canonical code."""
    return CONFIRMED if canonical_code(construction).decode("ascii") in arg_trees else VIOLATED


def _predicates_for_path(t: Tree, path: tuple[int, ...]) -> tuple[bool, bool, bool]:
    view = backbone_view(t, path)
    degree4 = [v for v in range(t.n) if t.degree(v) == 4]
    if view.branch_indices:
        allowed = {path[view.branch_indices[0]], path[view.branch_indices[-1]]}
    else:
        allowed = set()
    d4_ends = all(v in allowed for v in degree4)
    return (
        d4_ends,
        is_unimodal(view.backbone_segment_lengths),
        groups_admit_valley_greedy(view.pendant_groups),
    )


def structure_assessment_over_all_backbones(t: Tree) -> tuple[StructurePredicateSet, bool]:
    """The structure predicates, each an 'exists a backbone' check over
    every candidate of `all_backbones`, plus whether one candidate
    satisfies all of them at once."""
    qc = is_quasi_caterpillar(t)
    max_deg = max((t.degree(v) for v in range(t.n)), default=0)
    le4 = max_deg <= 4
    if not qc:
        preds = StructurePredicateSet(False, le4, False, False, False)
        return preds, False
    any_d4 = any_uni = any_valley = all_at_once = False
    for cand in all_backbones(t):
        d4, uni, valley = _predicates_for_path(t, cand)
        any_d4 = any_d4 or d4
        any_uni = any_uni or uni
        any_valley = any_valley or valley
        all_at_once = all_at_once or (d4 and uni and valley)
    preds = StructurePredicateSet(True, le4, any_d4, any_uni, any_valley)
    return preds, le4 and all_at_once


def _orientation_key(t: Tree, path: tuple[int, ...]) -> tuple:
    """Label-invariant encoding of the tree as read along an oriented path:
    the codes of the components hanging at each path vertex.

    A hanging component's code does not depend on which path vertex roots
    the search, so the reversed path's key is this key reversed."""
    code = _codes(*_bfs(t.adj, path[0]))[0]
    on_path = set(path)
    return tuple(tuple(sorted(code[w] for w in t.adj[v] if w not in on_path)) for v in path)


def backbone_over_all_candidates(t: Tree) -> BackboneView:
    """The canonical backbone as the smallest `_orientation_key` over both
    orientations of every candidate, the first one on a tie, each key
    computed from scratch."""
    best_path = None
    best_key = None
    for cand in all_backbones(t):
        for oriented in (cand, tuple(reversed(cand))):
            key = _orientation_key(t, oriented)
            if best_key is None or key < best_key:
                best_key = key
                best_path = oriented
    assert best_path is not None
    return backbone_view(t, best_path)


def _slide_span(move: Slide) -> tuple[int, int, int]:
    """Positions i <= j of the first and last interior attachments on the
    path, and the shift that carries i onto the mirror of j."""
    last = len(move.path) - 1
    i, j = move.path.index(move.source), last - move.path.index(move.dest)
    return i, j, (last - j) - i


def _switched(t: Tree, move: Switch) -> Tree:
    w0, ws, a, b = move.w0, move.ws, move.a_root, move.b_root
    return _rewire(t, drop=[(w0, a), (ws, b)], add=[(ws, a), (w0, b)])[0]


def _slide_rewired(t: Tree, move: Slide) -> Tree:
    """The slid tree; *t* itself when the slide mirrors onto itself."""
    path = move.path
    i, j, shift = _slide_span(move)
    if shift == 0:
        return t
    drop: list[tuple[int, int]] = []
    add: list[tuple[int, int]] = []
    for x in range(i, j + 1):
        v = path[x]
        for w in t.adj[v]:
            if w == path[x - 1] or w == path[x + 1]:
                continue
            drop.append((v, w))
            add.append((path[x + shift], w))
    return _rewire(t, drop, add)[0]


def _reattached(t: Tree, move: Reattach) -> Tree:
    return _rewire(t, drop=[(move.u1, w) for w in move.moved], add=[(move.u2, w) for w in move.moved])[0]


def built_by_kind(t: Tree, move: MoveDescriptor) -> Tree:
    """The result of a move valid on *t*, by one builder per move kind."""
    return {Switch: _switched, Slide: _slide_rewired, Reattach: _reattached}[type(move)](t, move)


def _switch_delta(w, side: Side, path: tuple[int, ...], move: Switch) -> int:
    """The w0 side of the i-th segment edge, L + i, loses A and gains B."""
    low = side(path[1], path[0])
    high = low - side(move.w0, move.a_root) + side(move.ws, move.b_root)
    return sum(w[high + i] - w[low + i] for i in range(len(path) - 1))


def _slide_delta(w, side: Side, path: tuple[int, ...], move: Slide) -> int:
    """With S(t) the path[0] side of the t-th path edge, the mass hanging at
    interior position x is S(x + 1) - S(x) - 1.  The slide carries each mass
    in [i, j] from x to x + shift; S'(1) = S(1) and the rest follow."""
    i, j, shift = _slide_span(move)
    before = [side(path[t], path[t - 1]) for t in range(1, len(path))]
    mass = [0] * len(path)
    for x in range(i, j + 1):
        mass[x + shift] = before[x] - before[x - 1] - 1
    after = [before[0]]
    for x in range(1, len(path) - 1):
        after.append(after[-1] + 1 + mass[x])
    return sum(w[a] - w[b] for a, b in zip(after, before))


def _reattach_delta(w, side: Side, path: tuple[int, ...], move: Reattach) -> int:
    """u1 keeps only the segment, so its side of the i-th segment edge
    drops from L + i to 1 + i."""
    low = side(path[1], path[0])
    return sum(w[1 + i] - w[low + i] for i in range(len(path) - 1))


def delta_by_kind(w, side: Side, path: tuple[int, ...], move: MoveDescriptor) -> int:
    """The closed-form delta of a move, by one formula per move kind, off
    the source's `_weights(n, k)` row *w* and side(u, v), with the move's
    segment (from u1 for a reattach) or anchored path."""
    return {Switch: _switch_delta, Slide: _slide_delta, Reattach: _reattach_delta}[type(move)](w, side, path, move)


def delta_over_relocations(w, side: Side, path: tuple[int, ...], moved: list[Relocation]) -> int:
    """The delta of the relocations *moved* (``moves._relocations``) along
    *path*, off the source's `_weights(n, k)` row *w* and side(u, v).
    Components move whole, so only the path's edges change side sizes.  The
    path[0] side of edge e, which joins path[e - 1] and path[e], counts the
    components at path[0..e-1]: a component of mass m moved from i to j
    takes m off the edges after i and puts m on the edges after j."""
    change = [0] * (len(path) + 1)
    for root, i, j in moved:
        m = side(path[i], root)
        change[i + 1] -= m
        change[j + 1] += m
    delta = shift = 0
    for e in range(1, len(path)):
        shift += change[e]
        if shift:
            before = side(path[e], path[e - 1])
            delta += w[before + shift] - w[before]
    return delta


def _switchable_segments(t: Tree) -> list[tuple[int, ...]]:
    """The segments whose two ends are branch vertices, found by scanning
    all vertex pairs directly, each walked from its smaller end: ordered by
    that end ascending, then by that end's first edge in adjacency order."""
    found = []
    for w0 in range(t.n):
        if t.degree(w0) < 3:
            continue
        for ws in range(w0 + 1, t.n):
            if t.degree(ws) < 3:
                continue
            segment = path(t, w0, ws)
            if all(t.degree(x) == 2 for x in segment[1:-1]):
                found.append(segment)
    return sorted(found, key=lambda s: (s[0], t.adj[s[0]].index(s[1])))


def switch_descriptors(t: Tree) -> list[Switch]:
    """Every valid switch, by segment (`_switchable_segments`), then a_root
    at its smaller end and b_root at the other, each in adjacency order."""
    return [
        Switch(w0=s[0], ws=s[-1], a_root=a, b_root=b)
        for s in _switchable_segments(t)
        for a in t.adj[s[0]]
        if a != s[1]
        for b in t.adj[s[-1]]
        if b != s[-2]
    ]


def reattach_descriptors(t: Tree) -> list[Reattach]:
    """Every valid reattach, by segment (`_switchable_segments`), from its
    smaller end first, each moving every off-segment neighbour of u1."""
    return [
        Reattach(u1=u[0], u2=u[-1], moved=tuple(sorted(w for w in t.adj[u[0]] if w != u[1])))
        for s in _switchable_segments(t)
        for u in (s, s[::-1])
    ]


def slide_descriptor_count(t: Tree) -> int:
    """Count non-trivial slides by scanning all vertex pairs directly."""
    count = 0
    for x in range(t.n):
        if t.degree(x) == 2:
            continue
        for y in range(x + 1, t.n):
            if t.degree(y) == 2:
                continue
            anchored = path(t, x, y)
            inner = [i for i in range(1, len(anchored) - 1) if t.degree(anchored[i]) >= 3]
            if not inner:
                continue
            if inner[0] != len(anchored) - 1 - inner[-1]:
                count += 1
    return count


def slide_moves_per_anchor(t: Tree) -> Iterator[Slide]:
    """Non-trivial slides only: the mirrored position must differ.  One
    search from each anchor gives its paths to all later anchors, and the
    depths of the first and last interior attachment on each (0 for none);
    a path is built only for a slide it yields."""
    adj = t.adj
    anchors = [v for v in range(t.n) if len(adj[v]) != 2]
    for idx, x in enumerate(anchors):
        parent, order = _bfs(adj, x)
        depth, first, last = [0] * t.n, [0] * t.n, [0] * t.n
        for v in order[1:]:
            p = parent[v]
            depth[v] = depth[p] + 1
            if p != x and len(adj[p]) >= 3:
                first[v], last[v] = first[p] or depth[p], depth[p]
            else:
                first[v], last[v] = first[p], last[p]
        for y in anchors[idx + 1 :]:
            i, mirror = first[y], depth[y] - last[y]
            if i and i != mirror:
                path = [y]
                while y != x:
                    y = parent[y]
                    path.append(y)
                path.reverse()
                yield Slide(path=tuple(path), source=path[i], dest=path[mirror])


def report_to_dict(r: VerificationReport) -> dict:
    return {
        "theorem": r.theorem,
        "instance": r.instance,
        "extremal_value": None if r.extremal_value is None else str(r.extremal_value),
        "arg_trees": list(r.arg_trees),
        "predicate_outcomes": r.predicate_outcomes,
        "verdict": r.verdict,
        "notes": r.notes,
    }


def reports_to_json_by_stdlib(reports: list[VerificationReport]) -> str:
    """The report schema written by ``json.dumps(indent=2)``."""
    return json.dumps([report_to_dict(r) for r in reports], indent=2) + "\n"
