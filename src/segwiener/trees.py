"""Free trees on dense 0-based vertex ids.

Trees are immutable and valid from construction on (``from_edges``
validates outside input), so they can be shared freely across parallel
workers; every function in this module is pure.

Both shapes the extremal results name are read off the segments at each
vertex (a segment is a maximal path whose interior vertices have degree 2):

* a *quasi-caterpillar* is a tree in which no vertex has more than two
  segments that do not end in a leaf, so removing every pendant segment
  (keeping its non-leaf end) leaves a path;
* a *caterpillar* is a tree in which no vertex has more than two non-leaf
  neighbours, so removing the leaves leaves a path (Harary & Schwenk 1973);
  ``verify.is_unit_pendant_caterpillar`` is this test.

Conventions for degenerate cases (the literature does not pin these down):

* a path, and any starlike tree, counts as a quasi-caterpillar;
* a path tree is a single segment whose two ends are both leaves, and that
  segment counts as pendant;
* segment operations reject single-vertex trees outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


class InvalidTreeError(ValueError):
    """The input does not describe a free tree."""


class EmptyDecompositionError(ValueError):
    """Segment operations are undefined for a single-vertex tree."""


class NotQuasiCaterpillarError(ValueError):
    """A backbone was requested for a tree that is not a quasi-caterpillar."""


@dataclass(frozen=True)
class Tree:
    """Immutable free tree; ``adj[v]`` is the sorted tuple of neighbours of v.

    Trees from outside input go through ``from_edges``, which validates
    them.  The enumerator builds trees that are valid by construction (one
    parent per vertex, sorted adjacency) and calls the constructor directly.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_edges(edges: Iterable[tuple[int, int]], n: int | None = None) -> "Tree":
        """Build and validate a tree from an undirected edge list.

        The vertex count defaults to ``1 + max id``; pass ``n=1`` explicitly
        for the single-vertex tree (empty edge list).
        """
        edge_list = [(int(u), int(v)) for u, v in edges]
        if n is None:
            if not edge_list:
                raise InvalidTreeError("empty edge list needs an explicit vertex count")
            n = 1 + max(max(u, v) for u, v in edge_list)
        if n < 1:
            raise InvalidTreeError("a tree has at least one vertex")
        if len(edge_list) != n - 1:
            raise InvalidTreeError(f"{len(edge_list)} edges for {n} vertices, expected {n - 1}")
        nbrs: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for u, v in edge_list:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidTreeError(f"vertex id out of range in edge ({u}, {v})")
            if u == v:
                raise InvalidTreeError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise InvalidTreeError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            nbrs[u].append(v)
            nbrs[v].append(u)
        tree = Tree(n, tuple(tuple(sorted(a)) for a in nbrs))
        # n-1 edges + connected <=> tree
        reached = 1
        visited = bytearray(n)
        visited[0] = 1
        stack = [0]
        while stack:
            v = stack.pop()
            for w in tree.adj[v]:
                if not visited[w]:
                    visited[w] = 1
                    reached += 1
                    stack.append(w)
        if reached != n:
            raise InvalidTreeError("edge list is not connected")
        return tree

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Undirected edges as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if len(self.adj[v]) == 1)

    def branch_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if len(self.adj[v]) >= 3)

    def path(self, u: int, v: int) -> tuple[int, ...]:
        """The unique path from u to v, inclusive."""
        if u == v:
            return (u,)
        parent = [-1] * self.n
        parent[u] = u
        stack = [u]
        while stack:
            x = stack.pop()
            if x == v:
                break
            for w in self.adj[x]:
                if parent[w] < 0:
                    parent[w] = x
                    stack.append(w)
        out = [v]
        while out[-1] != u:
            out.append(parent[out[-1]])
        out.reverse()
        return tuple(out)

    def relabel(self, mapping: Iterable[int]) -> "Tree":
        """Apply a permutation ``mapping[old] = new`` to the vertex ids."""
        perm = list(mapping)
        if sorted(perm) != list(range(self.n)):
            raise ValueError("mapping must be a permutation of the vertex ids")
        return Tree.from_edges([(perm[u], perm[v]) for u, v in self.edges()], n=self.n)


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


def _walk(adj: tuple[tuple[int, ...], ...], u: int, w: int) -> tuple[int, ...]:
    """The vertices of the segment that leaves *u* through its neighbour *w*,
    from *u* to the first vertex whose degree is not 2."""
    verts = [u, w]
    while len(adj[w]) == 2:
        a, b = adj[w]
        w = b if a == verts[-2] else a
        verts.append(w)
    return tuple(verts)


def _inner_segments(adj: tuple[tuple[int, ...], ...], u: int) -> int:
    """How many segments at *u* end at a branch vertex rather than a leaf."""
    return sum(len(adj[_walk(adj, u, w)[-1]]) > 1 for w in adj[u])


def segment_decomposition(t: Tree) -> list[Segment]:
    """Partition the edges of *t* into segments.

    Deterministic: each segment is walked from its smaller-id end, ends
    scanned in ascending order and neighbours in adjacency order.
    """
    if t.n < 2:
        raise EmptyDecompositionError("a single-vertex tree has no segments")
    adj = t.adj
    return [
        Segment(verts)
        for u in range(t.n)
        if len(adj[u]) != 2
        for verts in (_walk(adj, u, w) for w in adj[u])
        if u < verts[-1]
    ]


def segment_sequence(t: Tree) -> tuple[int, ...]:
    """Segment lengths in non-increasing order.

    Walks the degree-2 chain behind every edge at a vertex of degree != 2;
    each segment is walked from both ends and kept from its smaller-id end.
    """
    if t.n < 2:
        raise EmptyDecompositionError("a single-vertex tree has no segments")
    adj = t.adj
    lengths = []
    for u in range(t.n):
        if len(adj[u]) == 2:
            continue
        for w in adj[u]:
            prev, cur, length = u, w, 1
            while len(adj[cur]) == 2:
                a, b = adj[cur]
                prev, cur = cur, (b if a == prev else a)
                length += 1
            if u < cur:
                lengths.append(length)
    lengths.sort(reverse=True)
    return tuple(lengths)


def is_starlike(t: Tree) -> bool:
    """True iff *t* has at most one branch vertex (paths count)."""
    return len(t.branch_vertices()) <= 1


def is_quasi_caterpillar(t: Tree) -> bool:
    """True iff no branch vertex has more than two segments that do not end
    in a leaf, i.e. removing every pendant segment (keeping its non-leaf
    end) leaves a path, a single vertex, or nothing."""
    return all(_inner_segments(t.adj, v) <= 2 for v in t.branch_vertices())


def _pendant_path(t: Tree, start: int, first: int) -> tuple[int, ...]:
    """Walk from *start* through neighbour *first* to the far end of the
    hanging path.  The component must be a bare path (caller guarantees)."""
    out = _walk(t.adj, start, first)[1:]
    if t.degree(out[-1]) != 1:
        raise NotQuasiCaterpillarError(f"component hanging at {start} is not a pendant path")
    return out


def all_backbones(t: Tree) -> list[tuple[int, ...]]:
    """Every longest path containing all branch vertices, one orientation each.

    For a quasi-caterpillar the candidates differ only in which pendant
    segments extend the two ends of the spine of branch vertices: every
    pair of legs, one at each end (two distinct legs when the spine is a
    single vertex), whose total length is largest.
    """
    if t.n == 1:
        return [(0,)]
    if not is_quasi_caterpillar(t):
        raise NotQuasiCaterpillarError("backbone is only defined for quasi-caterpillars")
    adj = t.adj
    branch = t.branch_vertices()
    if not branch:
        leaf = t.leaves()[0]
        return [_walk(adj, leaf, adj[leaf][0])]
    # the spine ends: branch vertices with at most one segment leading to
    # another branch vertex (a starlike tree's spine is its centre alone)
    ends = [v for v in branch if _inner_segments(adj, v) <= 1]
    b1, b2 = ends[0], ends[-1]
    spine = t.path(b1, b2)
    on_spine = set(spine)
    left = [_pendant_path(t, b1, w) for w in adj[b1] if w not in on_spine]
    right = [_pendant_path(t, b2, w) for w in adj[b2] if w not in on_spine]
    pairs = [(p, q) for i, p in enumerate(left) for j, q in enumerate(right) if b1 != b2 or i < j]
    best = max(len(p) + len(q) for p, q in pairs)
    return [tuple(reversed(p)) + spine + q for p, q in pairs if len(p) + len(q) == best]


def _orientation_key(t: Tree, path: tuple[int, ...]) -> tuple:
    """Label-invariant encoding of the tree as read along an oriented path."""
    on_path = set(path)
    key = []
    for i, v in enumerate(path):
        hanging = []
        for w in t.adj[v]:
            if w in on_path and (
                (i > 0 and w == path[i - 1]) or (i + 1 < len(path) and w == path[i + 1])
            ):
                continue
            hanging.append(_rooted_code(t, w, v))
        key.append(tuple(sorted(hanging)))
    return tuple(key)


def backbone_view(t: Tree, path: tuple[int, ...]) -> BackboneView:
    """Read off the segment structure of a quasi-caterpillar along *path*."""
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
            lengths.append(len(_pendant_path(t, v, w)))
        groups.append(tuple(sorted(lengths, reverse=True)))
    flat = tuple(x for g in groups for x in g)
    return BackboneView(
        path=path,
        branch_indices=tuple(branch_idx),
        backbone_segment_lengths=r,
        pendant_groups=tuple(groups),
        pendant_segment_lengths=flat,
    )


def backbone(t: Tree) -> BackboneView:
    """The canonical backbone: ties between equal-length candidates are broken
    by the smallest oriented encoding."""
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


def _rooted_code(t: Tree, root: int, parent: int = -1) -> bytes:
    """AHU code of the component containing *root* when the edge to *parent*
    is ignored."""
    order = [root]
    par = [-2] * t.n
    par[root] = parent
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for w in t.adj[v]:
            if w != par[v]:
                par[w] = v
                order.append(w)
    code: dict[int, bytes] = {}
    for v in reversed(order):
        kids = sorted(code[w] for w in t.adj[v] if w != par[v])
        code[v] = b"(" + b"".join(kids) + b")"
    return code[root]


def _centers(t: Tree) -> list[int]:
    """The one or two central vertices, by iterated leaf removal."""
    if t.n <= 2:
        return list(range(t.n))
    deg = [t.degree(v) for v in range(t.n)]
    layer = [v for v in range(t.n) if deg[v] == 1]
    remaining = t.n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            deg[v] = 0
            for w in t.adj[v]:
                if deg[w] > 0:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    return sorted(layer)


def canonical_code(t: Tree) -> bytes:
    """Canonical encoding; two trees get equal codes iff they are isomorphic.

    The code is the AHU encoding rooted at the centre, taking the smaller of
    the two rooted encodings for bicentral trees.
    """
    return min(_rooted_code(t, c) for c in _centers(t))


def is_isomorphic(a: Tree, b: Tree) -> bool:
    return a.n == b.n and canonical_code(a) == canonical_code(b)


def tree_from_code(code: bytes | str) -> Tree:
    """Rebuild a tree from a canonical (or any well-formed AHU) encoding."""
    text = code.decode("ascii") if isinstance(code, bytes) else code
    if not text:
        raise ValueError("empty code")
    edges: list[tuple[int, int]] = []
    stack: list[int] = []
    count = 0
    for i, ch in enumerate(text):
        if ch == "(":
            node = count
            count += 1
            if stack:
                edges.append((stack[-1], node))
            elif i > 0:
                raise ValueError("code has more than one root")
            stack.append(node)
        elif ch == ")":
            if not stack:
                raise ValueError("unbalanced code")
            stack.pop()
        else:
            raise ValueError(f"unexpected character {ch!r} in code")
    if stack:
        raise ValueError("unbalanced code")
    return Tree.from_edges(edges, n=count)
