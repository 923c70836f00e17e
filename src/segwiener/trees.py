"""Free trees on dense 0-based vertex ids.

Trees are immutable and valid from construction on (``from_edges``
validates outside input), so they can be shared freely across parallel
workers; every function in this module is pure.

A tree's two evaluated objects, its segment sequence and the side sizes of
its edges (which SW_k sums weights over), come out of one reader, `_read`:
one reverse pass over a rooted order, either a breadth-first search of a
``Tree`` (`_read_built`, from vertex 0) or one root branch of an
enumerator's level sequence (``enumeration._read_branch``).  A built
tree's canonical code comes out of one coder, `_codes`, which sorts the
child codes at every vertex of a breadth-first search; an
enumerator's level sequences are canonical already, and a listing's codes
are their parentheses, written in one pass (``enumeration._listing``).  `_bfs`
is the one breadth-first search: `_centers` takes the middle of a longest
path off two of its sweeps, and every other read of a built tree starts
from one.  `_walk` follows one segment for `all_backbones` and the moves.
The path between two vertices and a relabelling are test oracles, not
``Tree`` methods: nothing in the package asks for them.

Every quasi-caterpillar question is answered by one read, `_spine`, of the
series-reduced tree H: the vertices of degree other than 2, joined by the
segments (a segment is a maximal path whose interior vertices have degree
2).  It takes the segments as (end, end, length) off parent links and
degrees, in one reverse pass over a rooted order as `_read` does, sorts them
into legs (ending in a leaf) and inner segments, and walks H's spine.  A
tree is a quasi-caterpillar exactly when H is a caterpillar; then every
branch vertex lies on H's spine, and a backbone, a longest path through
every branch vertex, is the spine plus a longest leg at each end.  Every
component hanging off a backbone is a pendant path, so the segment lengths
answer each question.  The verifiers judge a tied tree off its level
sequence's parents with this read alone, no ``Tree`` built, and
`is_quasi_caterpillar` runs it over a built tree's breadth-first search.
`all_backbones` lists every backbone candidate off the same read, walking
only the segments that join the spine and the legs at its two ends; the
candidates differ only in which of several equal-length legs they take.

Both shapes the extremal results name are read off the segments at each
vertex:

* a *quasi-caterpillar* is a tree in which no vertex has more than two
  segments that do not end in a leaf, so removing every pendant segment
  (keeping its non-leaf end) leaves a path;
* a *caterpillar* is a tree in which no vertex has more than two non-leaf
  neighbours, so removing the leaves leaves a path (Harary & Schwenk 1973);
  ``verify._unit_pendant_caterpillar`` counts them off parents and degrees.

Conventions for degenerate cases (the literature does not pin these down):

* a path, and any starlike tree, counts as a quasi-caterpillar;
* a path tree is a single segment whose two ends are both leaves, and that
  segment counts as pendant;
* segment operations reject single-vertex trees outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
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
        edge_list = []
        for u, v in edges:
            try:
                edge_list.append((index(u), index(v)))
            except TypeError:
                raise InvalidTreeError(f"vertex ids must be integers, got edge ({u!r}, {v!r})") from None
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


def _walk(adj: tuple[tuple[int, ...], ...], u: int, w: int) -> tuple[int, ...]:
    """The vertices of the segment that leaves *u* through its neighbour *w*,
    from *u* to the first vertex whose degree is not 2."""
    verts = [u, w]
    while len(adj[w]) == 2:
        a, b = adj[w]
        w = b if a == verts[-2] else a
        verts.append(w)
    return tuple(verts)


def segment_sequence(t: Tree) -> tuple[int, ...]:
    """Segment lengths in non-increasing order, off one read of *t*
    (`_read_built`)."""
    if t.n < 2:
        raise EmptyDecompositionError("a single-vertex tree has no segments")
    return _read_built(t)[2]


def is_starlike(t: Tree) -> bool:
    """True iff *t* has at most one branch vertex (paths count)."""
    return len(t.branch_vertices()) <= 1


_Segment = tuple[int, int, int]  # (end a, end b, length), leaving a through its parent


def _spine(
    parent: Sequence[int], order: Sequence[int], degree: Sequence[int]
) -> tuple[list[int], list[_Segment], list[list[_Segment]]] | None:
    """The series-reduced tree H of the tree with these parent links and
    degrees, off one reverse pass over *order* (rooted at vertex 0, every
    parent before its children), as the pass of `_read` takes the segments:
    None when H is not a caterpillar (some branch vertex has more than two
    segments that end at another branch vertex), else H's spine of branch
    vertices from the first, by id, with at most one such segment (empty
    without a branch vertex), the segments joining consecutive spine
    vertices and the legs (segments ending in a leaf) at each spine vertex.

    A segment is (a, b, length) with ends a and b, leaving a through
    parent[a]: every piece of a segment is read from its lower end up, and
    the two pieces that meet at a root of degree 2 join into one."""
    low = list(range(len(degree)))  # the lower end of the segment piece through v
    run = [1] * len(degree)
    inner: dict[int, list[_Segment]] = {v: [] for v, d in enumerate(degree) if d > 2}
    legs: dict[int, list[_Segment]] = {v: [] for v in inner}
    through: _Segment | None = None
    for v in order[:0:-1]:
        p = parent[v]
        if degree[p] != 2:
            seg = (low[v], p, run[v])
        elif p:
            low[p] = low[v]
            run[p] = run[v] + 1
            continue
        elif through is None:
            through = (low[v], p, run[v])
            continue
        else:
            seg = (through[0], low[v], through[2] + run[v])
        a, b, _ = seg
        if degree[a] > 2 and degree[b] > 2:
            inner[a].append(seg)
            inner[b].append(seg)
        elif degree[b] > 2:
            legs[b].append(seg)
        elif degree[a] > 2:
            legs[a].append(seg)
    if any(len(segs) > 2 for segs in inner.values()):
        return None
    if not inner:
        return [], [], []
    # every branch vertex lies on the spine, which starts at an end: a
    # branch vertex with at most one inner segment (a starlike tree's spine
    # is its centre alone)
    v = next(v for v, segs in inner.items() if len(segs) <= 1)
    spine, joins, back = [v], [], -1
    while len(spine) < len(inner):
        seg = inner[v][0]
        if back in seg[:2]:
            seg = inner[v][1]
        joins.append(seg)
        back, v = v, seg[0] + seg[1] - v
        spine.append(v)
    return spine, joins, [legs[v] for v in spine]


def is_quasi_caterpillar(t: Tree) -> bool:
    """True iff no branch vertex has more than two segments that do not end
    in a leaf, i.e. removing every pendant segment (keeping its non-leaf
    end) leaves a path, a single vertex, or nothing: `_spine` of *t* off its
    breadth-first search from vertex 0 finds H a caterpillar."""
    parent, order = _bfs(t.adj, 0)
    return _spine(parent, order, [len(a) for a in t.adj]) is not None


def all_backbones(t: Tree) -> list[tuple[int, ...]]:
    """Every longest path containing all branch vertices, one orientation
    each: H's spine (`_spine` of *t* off its breadth-first search from
    vertex 0), with its joining segments walked from the spine vertex
    before each, plus each pair of legs, one at each end of the spine (two
    distinct ones at a lone spine vertex), whose total length is largest,
    the legs at an end walked from it in adjacency order.  A tree without a
    branch vertex is one path from its smaller-id leaf."""
    adj = t.adj
    parent, order = _bfs(adj, 0)
    read = _spine(parent, order, [len(a) for a in adj])
    if read is None:
        raise NotQuasiCaterpillarError("backbone is only defined for quasi-caterpillars")
    spine, joins, _ = read
    if not spine:
        if t.n == 1:
            return [(0,)]
        leaf = t.leaves()[0]
        return [_walk(adj, leaf, adj[leaf][0])]
    middle = (spine[0],)
    for (a, _, _), v in zip(joins, spine):
        verts = _walk(adj, a, parent[a])
        middle += verts[1:] if a == v else verts[-2::-1]
    lone = len(spine) == 1
    left = [_walk(adj, middle[0], w) for w in adj[middle[0]] if lone or w != middle[1]]
    right = left if lone else [_walk(adj, middle[-1], w) for w in adj[middle[-1]] if w != middle[-2]]
    pairs = [(p, q) for i, p in enumerate(left) for j, q in enumerate(right) if not lone or i < j]
    best = max(len(p) + len(q) for p, q in pairs)
    return [p[:0:-1] + middle + q[1:] for p, q in pairs if len(p) + len(q) == best]


def _centers(t: Tree) -> list[int]:
    """The one or two middle vertices of a longest path, in id order: the
    path from the last vertex *u* that a breadth-first search from vertex 0
    reaches to the last vertex that one from *u* reaches."""
    u = _bfs(t.adj, 0)[1][-1]
    parent, order = _bfs(t.adj, u)
    path = [order[-1]]
    while path[-1] != u:
        path.append(parent[path[-1]])
    mid = (len(path) - 1) // 2
    return sorted(path[mid : len(path) - mid])


def canonical_code(t: Tree) -> bytes:
    """Canonical encoding; two trees get equal codes iff they are isomorphic.

    The code is the AHU encoding rooted at the centre, taking the smaller of
    the two rooted encodings for bicentral trees (`_codes` over the
    breadth-first search from the first centre)."""
    centres = _centers(t)
    return _codes(*_bfs(t.adj, centres[0]), centres[-1] if len(centres) == 2 else -1)[1]


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
