"""Free trees on dense 0-based vertex ids.

Trees are immutable and valid from construction on (``from_edges``
validates outside input), so they can be shared freely across parallel
workers; every function in this module is pure.

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


def segment_decomposition(t: Tree) -> list[Segment]:
    """Partition the edges of *t* into segments.

    Deterministic: segments are discovered from the smallest-id endpoint of
    each, endpoints scanned in ascending order.
    """
    if t.n < 2:
        raise EmptyDecompositionError("a single-vertex tree has no segments")
    stops = [v for v in range(t.n) if t.degree(v) != 2]
    seen: set[tuple[int, int]] = set()
    segments: list[Segment] = []
    for u in stops:
        for w in t.adj[u]:
            key = (u, w) if u < w else (w, u)
            if key in seen:
                continue
            seen.add(key)
            verts = [u, w]
            prev, cur = u, w
            while t.degree(cur) == 2:
                nxt = t.adj[cur][0] if t.adj[cur][0] != prev else t.adj[cur][1]
                seen.add((cur, nxt) if cur < nxt else (nxt, cur))
                verts.append(nxt)
                prev, cur = cur, nxt
            segments.append(Segment(tuple(verts)))
    return segments


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


def pendant_segments(t: Tree) -> list[Segment]:
    """Segments with at least one leaf endpoint."""
    return [s for s in segment_decomposition(t) if t.degree(s.vertices[0]) == 1 or t.degree(s.vertices[-1]) == 1]


def is_quasi_caterpillar(t: Tree) -> bool:
    """True iff removing every pendant segment (keeping its non-leaf end)
    leaves a path, a single vertex, or nothing."""
    if t.n == 1:
        return True
    removed: set[int] = set()
    for seg in pendant_segments(t):
        a, b = seg.endpoints
        keep = a if t.degree(a) > 1 else (b if t.degree(b) > 1 else None)
        removed.update(v for v in seg.vertices if v != keep)
    rest = [v for v in range(t.n) if v not in removed]
    if len(rest) <= 1:
        return True
    rset = set(rest)
    deg = {v: sum(1 for w in t.adj[v] if w in rset) for v in rest}
    if any(d > 2 for d in deg.values()):
        return False
    # induced subgraph of a tree is acyclic; connected + max degree 2 = path
    start = rest[0]
    stack = [start]
    reached = {start}
    while stack:
        v = stack.pop()
        for w in t.adj[v]:
            if w in rset and w not in reached:
                reached.add(w)
                stack.append(w)
    return len(reached) == len(rest)


def _pendant_path(t: Tree, start: int, first: int) -> tuple[int, ...]:
    """Walk from *start* through neighbour *first* to the far end of the
    hanging path.  The component must be a bare path (caller guarantees)."""
    out = [first]
    prev, cur = start, first
    while t.degree(cur) == 2:
        nxt = t.adj[cur][0] if t.adj[cur][0] != prev else t.adj[cur][1]
        out.append(nxt)
        prev, cur = cur, nxt
    if t.degree(cur) != 1:
        raise NotQuasiCaterpillarError(f"component hanging at {start} is not a pendant path")
    return tuple(out)


def all_backbones(t: Tree) -> list[tuple[int, ...]]:
    """Every longest path containing all branch vertices, one orientation each.

    For a quasi-caterpillar the candidates differ only in which maximal
    pendant segment extends each end of the spine of branch vertices.
    """
    if t.n == 1:
        return [(0,)]
    if not is_quasi_caterpillar(t):
        raise NotQuasiCaterpillarError("backbone is only defined for quasi-caterpillars")
    branch = t.branch_vertices()
    if not branch:
        a, b = t.leaves()
        return [t.path(a, b)]
    if len(branch) == 1:
        c = branch[0]
        legs = [_pendant_path(t, c, w) for w in t.adj[c]]
        # two longest distinct legs; enumerate every pair attaining the max sum
        lengths = sorted((len(p) for p in legs), reverse=True)
        target = lengths[0] + lengths[1]
        out = []
        for i in range(len(legs)):
            for j in range(i + 1, len(legs)):
                if len(legs[i]) + len(legs[j]) == target:
                    out.append(tuple(reversed(legs[i])) + (c,) + legs[j])
        return out
    # spine between the two extreme branch vertices
    dist = _bfs_distances(t, branch[0])
    b1 = min((v for v in branch), key=lambda v: (-dist[v], v))
    dist = _bfs_distances(t, b1)
    b2 = min((v for v in branch), key=lambda v: (-dist[v], v))
    spine = t.path(b1, b2)
    on_spine = set(spine)
    if any(v not in on_spine for v in branch):
        raise NotQuasiCaterpillarError("branch vertices do not lie on a common path")
    left = [_pendant_path(t, b1, w) for w in t.adj[b1] if w != spine[1]]
    right = [_pendant_path(t, b2, w) for w in t.adj[b2] if w != spine[-2]]
    lmax = max(len(p) for p in left)
    rmax = max(len(p) for p in right)
    out = []
    for p in left:
        if len(p) != lmax:
            continue
        for q in right:
            if len(q) != rmax:
                continue
            out.append(tuple(reversed(p)) + spine + q)
    return out


def _bfs_distances(t: Tree, source: int) -> list[int]:
    dist = [-1] * t.n
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for v in frontier:
            for w in t.adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


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
    on_path = set(path)
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
