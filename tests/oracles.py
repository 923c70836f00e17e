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
structure predicates and the canonical backbone are read over every
backbone candidate instead of one, each by walking the candidate path and
the pendant segments off it (`backbone_view`) instead of reading the
series-reduced tree, the valley test runs a greedy state machine over the
groups (`groups_admit_valley_greedy`) instead of checking where they turn,
a backbone is oriented by the sorted subtree codes of the components
hanging at its vertices (`_orientation_key`) instead of by pendant
lengths, each move kind is built and given a closed-form delta
by a routine of its own instead of from one relocation list, a move's
delta is also stepped edge by edge over its relocation list
(`delta_over_relocations`) instead of read off prefix sums, slides are
listed by a search from every anchor instead of one per branch vertex, and
reports are written by the stdlib ``json`` encoder.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from segwiener.exact import checked
from segwiener.moves import MoveDescriptor, Reattach, Relocation, Side, Slide, Switch, _rewire
from segwiener.steiner import _weights
from segwiener.trees import (
    BackboneView,
    EmptyDecompositionError,
    NotQuasiCaterpillarError,
    Tree,
    _bfs,
    _codes,
    all_backbones,
    is_quasi_caterpillar,
)
from segwiener.verify import StructurePredicateSet, VerificationReport, is_unimodal


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


def edge_side_sizes(t: Tree) -> list[int]:
    """For every edge, the vertex count of one fixed side (the child side
    when rooted at vertex 0)."""
    parent, order = _bfs(t.adj, 0)
    size = [1] * t.n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    return [size[v] for v in order[1:]]


def random_labeled_tree(n: int, rng: random.Random) -> Tree:
    if n == 1:
        return Tree.from_edges([], n=1)
    if n == 2:
        return Tree.from_edges([(0, 1)], n=2)
    seq = tuple(rng.randrange(n) for _ in range(n - 2))
    adj = prufer_to_adjacency(seq, n)
    return Tree.from_edges([(u, v) for u in range(n) for v in adj[u] if u < v], n=n)


def _centres(adj, n: int) -> list[int]:
    """The one or two central vertices of a tree with n >= 2, by leaf peeling."""
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


def prufer_class_keys(n: int, intern: dict) -> set[tuple]:
    """The `_interned_class_key` of every isomorphism class among all
    n^(n-2) labeled trees (n >= 2), interned in *intern* so that they
    compare with keys of other trees interned there."""
    return {
        _peeled_class_key(*prufer_degrees_and_sums(seq, n), n, intern)
        for seq in itertools.product(range(n), repeat=n - 2)
    }


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
    return _rewire(t, drop=[(w0, a), (ws, b)], add=[(ws, a), (w0, b)])


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
    return _rewire(t, drop, add)


def _reattached(t: Tree, move: Reattach) -> Tree:
    return _rewire(t, drop=[(move.u1, w) for w in move.moved], add=[(move.u2, w) for w in move.moved])


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


def switch_descriptor_count(t: Tree) -> int:
    """Count valid switches by scanning all vertex pairs directly."""
    count = 0
    for w0 in range(t.n):
        if t.degree(w0) < 3:
            continue
        for ws in range(w0 + 1, t.n):
            if t.degree(ws) < 3:
                continue
            path = t.path(w0, ws)
            if any(t.degree(x) != 2 for x in path[1:-1]):
                continue
            count += (t.degree(w0) - 1) * (t.degree(ws) - 1)
    return count


def reattach_descriptor_count(t: Tree) -> int:
    count = 0
    for w0 in range(t.n):
        if t.degree(w0) < 3:
            continue
        for ws in range(w0 + 1, t.n):
            if t.degree(ws) < 3:
                continue
            path = t.path(w0, ws)
            if any(t.degree(x) != 2 for x in path[1:-1]):
                continue
            count += 2
    return count


def slide_descriptor_count(t: Tree) -> int:
    """Count non-trivial slides by scanning all vertex pairs directly."""
    count = 0
    for x in range(t.n):
        if t.degree(x) == 2:
            continue
        for y in range(x + 1, t.n):
            if t.degree(y) == 2:
                continue
            path = t.path(x, y)
            inner = [i for i in range(1, len(path) - 1) if t.degree(path[i]) >= 3]
            if not inner:
                continue
            if inner[0] != len(path) - 1 - inner[-1]:
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
