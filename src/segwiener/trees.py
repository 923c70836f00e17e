"""Free trees on dense 0-based vertex ids.

Trees are immutable and valid from construction on (``from_edges``
validates outside input), so they can be shared freely across parallel
workers; every function in this module is pure.

A tree's two evaluated objects, its segment sequence and the side sizes of
its edges (which SW_k sums weights over), come out of one reader, `_read`:
one reverse pass over a rooted order, either a breadth-first search of a
``Tree`` (`_read_built`, from vertex 0) or an enumerator's level
sequence.  Canonical codes come out of one coder, `_codes`, over the same
two sources.  Paths and orientation keys walk the breadth-first search
`_bfs`, `_centers` peels leaves, and `_walk` follows one segment for
``segment_decomposition`` (the independent route), the quasi-caterpillar
and backbone tests, and the moves.

A quasi-caterpillar is read along a backbone, a longest path through every
branch vertex.  `all_backbones` lists every candidate, but they differ
only in which of several equal-length legs they take, so they all read
the same: `backbone` and ``verify.structure_assessment`` read the first.

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
from typing import Iterable, Iterator, Sequence


class InvalidTreeError(ValueError):
    """The input does not describe a free tree."""


class EmptyDecompositionError(ValueError):
    """Segment operations are undefined for a single-vertex tree."""


class NotQuasiCaterpillarError(ValueError):
    """A backbone was requested for a tree that is not a quasi-caterpillar."""


def _bfs(adj, root: int) -> tuple[list[int], list[int]]:
    """Breadth-first search of the graph *adj* from *root*: the parent of
    each reached vertex (*root* is its own, unreached vertices have -1) and
    the reached vertices in visiting order."""
    parent = [-1] * len(adj)
    parent[root] = root
    order = [root]
    for v in order:
        for w in adj[v]:
            if parent[w] < 0:
                parent[w] = v
                order.append(w)
    return parent, order


def _read(parent: Sequence[int], order: Sequence[int], degree: Sequence[int]) -> tuple[list[int], tuple[int, ...]]:
    """The vertex count on the child side of every non-root vertex's edge to
    its parent (indexed by vertex, from 1) and the segment sequence (empty
    for a single vertex), in one reverse pass over *order*, which is rooted
    at vertex 0 and lists every parent before its children.

    The run of v is the length of the segment piece from v's parent down
    through v.  A run ends a segment at a parent whose degree is not 2 and
    otherwise moves up to the parent; the two runs at a root of degree 2
    join into one.
    """
    size = [1] * len(order)
    run = [1] * len(order)
    lengths = []
    through_root = 0
    for v in order[:0:-1]:
        p = parent[v]
        size[p] += size[v]
        if degree[p] != 2:
            lengths.append(run[v])
        elif p:
            run[p] = run[v] + 1
        else:
            through_root += run[v]
    if through_root:
        lengths.append(through_root)
    lengths.sort(reverse=True)
    return size[1:], tuple(lengths)


def _read_built(t: Tree) -> tuple[list[int], list[int], tuple[int, ...]]:
    """The parents in the breadth-first search of the built tree *t* from
    vertex 0, and the side sizes and segment sequence that `_read` takes off
    that search."""
    parent, order = _bfs(t.adj, 0)
    return (parent, *_read(parent, order, [len(a) for a in t.adj]))


def _codes(parent: Sequence[int], order: Sequence[int], other: int = -1) -> tuple[list[bytes], bytes]:
    """The AHU code of every vertex's subtree, built from the parent links
    in one reverse pass over *order* (rooted at order[0], every parent
    before its children), and the tree's code: the root's, or, when the
    root's child *other* is a second centre, the smaller of the encodings
    rooted at the two (the root's side becomes a child of *other*)."""
    below: list[list[bytes]] = [[] for _ in order]
    code = [b""] * len(order)
    for v in order[:0:-1]:
        kids = below[v]
        kids.sort()
        code[v] = c = b"(" + b"".join(kids) + b")"
        below[parent[v]].append(c)
    root = order[0]
    kids = below[root]
    kids.sort()
    code[root] = b"(" + b"".join(kids) + b")"
    if other < 0:
        return code, code[root]
    kids.remove(code[other])
    at_other = sorted([b"(" + b"".join(kids) + b")", *below[other]])
    return code, min(code[root], b"(" + b"".join(at_other) + b")")


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
        if len(_bfs(tree.adj, 0)[1]) != n:
            raise InvalidTreeError("edge list is not connected")
        return tree

    def degree(self, v: int) -> int:
        return len(self.adj[v])

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
        """The unique path from u to v, inclusive: v's ancestors in the
        breadth-first search from u."""
        for x in (u, v):
            if not 0 <= x < self.n:
                raise ValueError(f"vertex {x} out of range 0..{self.n - 1}")
        parent = _bfs(self.adj, u)[0]
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
    """Segment lengths in non-increasing order, off one read of *t*
    (`_read_built`)."""
    if t.n < 2:
        raise EmptyDecompositionError("a single-vertex tree has no segments")
    return _read_built(t)[2]


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
    adj = t.adj
    branch = t.branch_vertices()
    if not branch:
        leaf = t.leaves()[0]
        return [_walk(adj, leaf, adj[leaf][0])]
    # one walk per branch vertex both tests the tree (`is_quasi_caterpillar`)
    # and finds the spine ends: branch vertices with at most one segment
    # leading to another branch vertex (a starlike tree's spine is its
    # centre alone)
    inner = [_inner_segments(adj, v) for v in branch]
    if max(inner) > 2:
        raise NotQuasiCaterpillarError("backbone is only defined for quasi-caterpillars")
    ends = [v for v, count in zip(branch, inner) if count <= 1]
    b1, b2 = ends[0], ends[-1]
    spine = t.path(b1, b2)
    on_spine = set(spine)
    left = [_pendant_path(t, b1, w) for w in adj[b1] if w not in on_spine]
    right = [_pendant_path(t, b2, w) for w in adj[b2] if w not in on_spine]
    pairs = [(p, q) for i, p in enumerate(left) for j, q in enumerate(right) if b1 != b2 or i < j]
    best = max(len(p) + len(q) for p, q in pairs)
    return [tuple(reversed(p)) + spine + q for p, q in pairs if len(p) + len(q) == best]


def _orientation_key(t: Tree, path: tuple[int, ...]) -> tuple:
    """Label-invariant encoding of the tree as read along an oriented path:
    the codes of the components hanging at each path vertex.

    A hanging component's code does not depend on which path vertex roots
    the search, so the reversed path's key is this key reversed."""
    code = _codes(*_bfs(t.adj, path[0]))[0]
    on_path = set(path)
    return tuple(tuple(sorted(code[w] for w in t.adj[v] if w not in on_path)) for v in path)


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
    """The canonical backbone: the first candidate of `all_backbones` in the
    orientation with the smaller `_orientation_key`, forward on a tie.

    One candidate suffices: every candidate is the spine between the two
    end branch vertices plus a longest leg at each end (a starlike tree's
    two longest legs at its centre), and legs of equal length have equal
    codes, so all candidates have the same keys up to orientation."""
    path = all_backbones(t)[0]
    key = _orientation_key(t, path)
    return backbone_view(t, path[::-1] if key[::-1] < key else path)


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
    the two rooted encodings for bicentral trees (`_codes` over the
    breadth-first search from the first centre)."""
    centres = _centers(t)
    return _codes(*_bfs(t.adj, centres[0]), centres[-1] if len(centres) == 2 else -1)[1]


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
