"""Segment-preserving tree moves and a hill-climbing optimizer over them.

Three moves are supported, each exchanging or relocating whole hanging
components so that the segment-length multiset never changes:

* switch  — swap one component hanging at each end of a segment whose two
            endpoints are both branch vertices;
* slide   — mirror the block of components hanging between the interior
            attachment points of an anchored path, so the two flanking path
            lengths swap;
* reattach — move every off-segment component of one branch endpoint of a
            segment to the other endpoint, turning the segment pendant.

Deltas are always full recomputations of the index, never incremental sums:
each neighbour's SW_k is evaluated from scratch, over the side sizes of the
one read (`trees._read`) that also checks its segment sequence.  Within one
neighbourhood the unchanged source tree's segment sequence and SW_k are
evaluated once and shared by every neighbour.  Moves rewire the source's
adjacency directly; a result that is not a tree raises InvalidTreeError.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Union

from .steiner import _index_sums, sw_k
from .trees import InvalidTreeError, Tree, _bfs, _read, canonical_code, segment_decomposition, segment_sequence


class InvalidDescriptorError(ValueError):
    """The move descriptor does not match the tree."""


@dataclass(frozen=True)
class Switch:
    """Exchange component A (hanging at w0 via a_root) with component B
    (hanging at ws via b_root) across the segment w0..ws."""

    w0: int
    ws: int
    a_root: int
    b_root: int


@dataclass(frozen=True)
class Slide:
    """Mirror the interior attachments of the anchored path; *source* is the
    first attachment vertex, *dest* the path vertex it lands on."""

    path: tuple[int, ...]
    source: int
    dest: int


@dataclass(frozen=True)
class Reattach:
    """Re-root all off-segment components of branch vertex u1 onto u2, the
    opposite branch endpoint of their shared segment."""

    u1: int
    u2: int
    moved: tuple[int, ...]


MoveDescriptor = Union[Switch, Slide, Reattach]


@dataclass(frozen=True)
class MoveOutcome:
    move: MoveDescriptor
    tree: Tree
    delta: int


def _segment_path(t: Tree, u: int, v: int) -> tuple[int, ...]:
    """Path from u to v, validated to be a segment with branch endpoints."""
    if u == v:
        raise InvalidDescriptorError("segment endpoints must differ")
    for x in (u, v):
        if not 0 <= x < t.n:
            raise InvalidDescriptorError(f"vertex {x} out of range 0..{t.n - 1}")
    path = t.path(u, v)
    if t.degree(u) < 3 or t.degree(v) < 3:
        raise InvalidDescriptorError(f"segment endpoints {u}, {v} must both be branch vertices")
    for x in path[1:-1]:
        if t.degree(x) != 2:
            raise InvalidDescriptorError(f"path {u}..{v} is not a segment (vertex {x} has degree != 2)")
    return path


def _rewire(t: Tree, drop: list[tuple[int, int]], add: list[tuple[int, int]]) -> Tree:
    """*t* with the edges *drop* removed, then the edges *add* inserted.
    Raises InvalidTreeError unless the result is again a tree."""
    adj: list = list(t.adj)
    touched: set[int] = set()

    def nbrs(v: int) -> list[int]:
        if v not in touched:
            touched.add(v)
            adj[v] = list(adj[v])
        return adj[v]

    for u, v in drop:
        if v not in nbrs(u):
            raise InvalidDescriptorError(f"edge ({u}, {v}) not present")
        nbrs(u).remove(v)
        nbrs(v).remove(u)
    for u, v in add:
        if u == v or v in nbrs(u):
            raise InvalidTreeError(f"added edge ({u}, {v}) is a self-loop or already present")
        nbrs(u).append(v)
        nbrs(v).append(u)
    for v in touched:
        adj[v] = tuple(sorted(adj[v]))
    # n - 1 edges + connected <=> tree
    if len(add) != len(drop):
        raise InvalidTreeError(f"rewiring leaves {t.n - 1 - len(drop) + len(add)} edges for {t.n} vertices")
    if len(_bfs(adj, 0)[1]) != t.n:
        raise InvalidTreeError("rewiring disconnects the tree")
    return Tree(t.n, tuple(adj))


def _outcomes(t: Tree, k: int, results: Iterable[tuple[MoveDescriptor, Tree]]) -> list[MoveOutcome]:
    """The outcome of each (move, result tree) on the source *t*.  The
    source's segment sequence and SW_k are evaluated once, when first
    needed, so a tree without moves (a path, a star, one vertex) is never
    evaluated; a result that is *t* itself is the identity move.  Each
    result is read once (`_read`): the read gives its segment sequence and
    the side sizes its SW_k is summed over."""
    seq = value = None
    out = []
    for move, result in results:
        if result is t:
            out.append(MoveOutcome(move=move, tree=t, delta=0))
            continue
        if seq is None:
            seq = segment_sequence(t)
        sides, segments = _read(*_bfs(result.adj, 0), [len(a) for a in result.adj])
        if segments != seq:
            raise InvalidDescriptorError("move would change the segment sequence")
        if value is None:
            value = sw_k(t, k)
        out.append(MoveOutcome(move=move, tree=result, delta=_index_sums(t.n, sides, (k,))[0] - value))
    return out


def _switched(t: Tree, move: Switch) -> Tree:
    path = _segment_path(t, move.w0, move.ws)
    if move.a_root not in t.adj[move.w0] or move.a_root == path[1]:
        raise InvalidDescriptorError(f"{move.a_root} is not an off-segment neighbour of {move.w0}")
    if move.b_root not in t.adj[move.ws] or move.b_root == path[-2]:
        raise InvalidDescriptorError(f"{move.b_root} is not an off-segment neighbour of {move.ws}")
    return _rewire(
        t,
        drop=[(move.w0, move.a_root), (move.ws, move.b_root)],
        add=[(move.ws, move.a_root), (move.w0, move.b_root)],
    )


def apply_switch(t: Tree, move: Switch, k: int) -> MoveOutcome:
    return _outcomes(t, k, [(move, _switched(t, move))])[0]


def _slide_on(t: Tree, path: tuple[int, ...]) -> Slide | None:
    """The slide on an anchored path: its first interior attachment lands on
    the mirror of its last one.  None when nothing is attached in between."""
    attachments = [i for i in range(1, len(path) - 1) if t.degree(path[i]) >= 3]
    if not attachments:
        return None
    return Slide(path=tuple(path), source=path[attachments[0]], dest=path[len(path) - 1 - attachments[-1]])


def slide_move(t: Tree, path: tuple[int, ...]) -> Slide:
    """Build the slide descriptor for an anchored path."""
    if len(path) < 3:
        raise InvalidDescriptorError("slide path needs interior vertices")
    # the adjacency checks below cover every later vertex
    if not 0 <= path[0] < t.n:
        raise InvalidDescriptorError(f"vertex {path[0]} out of range 0..{t.n - 1}")
    for a, b in zip(path, path[1:]):
        if b not in t.adj[a]:
            raise InvalidDescriptorError(f"{a} and {b} are not adjacent")
    if len(set(path)) != len(path):
        raise InvalidDescriptorError("slide path revisits a vertex")
    for endpoint in (path[0], path[-1]):
        if t.degree(endpoint) == 2:
            raise InvalidDescriptorError(f"anchor {endpoint} must be a leaf or a branch vertex")
    move = _slide_on(t, path)
    if move is None:
        raise InvalidDescriptorError("slide path has nothing attached between its anchors")
    return move


def _slid(t: Tree, move: Slide) -> Tree:
    """The slid tree, after validating *move* against *t*."""
    expected = slide_move(t, move.path)
    if (move.source, move.dest) != (expected.source, expected.dest):
        raise InvalidDescriptorError("slide source/destination do not match the path attachments")
    return _slide_rewired(t, move)


def _slide_rewired(t: Tree, move: Slide) -> Tree:
    """The slid tree for a descriptor that matches *t* (from `slide_move` or
    `slide_moves`); *t* itself when the slide mirrors onto itself."""
    path = move.path
    last = len(path) - 1
    i, j = path.index(move.source), last - path.index(move.dest)
    shift = (last - j) - i
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


def apply_slide(t: Tree, move: Slide, k: int) -> MoveOutcome:
    return _outcomes(t, k, [(move, _slid(t, move))])[0]


def _reattached(t: Tree, move: Reattach) -> Tree:
    path = _segment_path(t, move.u1, move.u2)
    expected = tuple(sorted(w for w in t.adj[move.u1] if w != path[1]))
    if tuple(sorted(move.moved)) != expected:
        raise InvalidDescriptorError(
            f"reattach must move every off-segment neighbour of {move.u1}: {expected}"
        )
    return _rewire(
        t,
        drop=[(move.u1, w) for w in expected],
        add=[(move.u2, w) for w in expected],
    )


def apply_reattach(t: Tree, move: Reattach, k: int) -> MoveOutcome:
    return _outcomes(t, k, [(move, _reattached(t, move))])[0]


def _branch_segments(t: Tree) -> Iterator[tuple[int, ...]]:
    """Segments whose two endpoints are both branch vertices, as paths with
    smaller endpoint first."""
    if t.n < 2:
        return
    for seg in segment_decomposition(t):
        a, b = seg.endpoints
        if t.degree(a) >= 3 and t.degree(b) >= 3:
            yield seg.vertices if a < b else tuple(reversed(seg.vertices))


def switch_moves(t: Tree) -> Iterator[Switch]:
    for path in _branch_segments(t):
        w0, ws = path[0], path[-1]
        for a in t.adj[w0]:
            if a == path[1]:
                continue
            for b in t.adj[ws]:
                if b == path[-2]:
                    continue
                yield Switch(w0=w0, ws=ws, a_root=a, b_root=b)


def reattach_moves(t: Tree) -> Iterator[Reattach]:
    for path in _branch_segments(t):
        w0, ws = path[0], path[-1]
        yield Reattach(u1=w0, u2=ws, moved=tuple(sorted(w for w in t.adj[w0] if w != path[1])))
        yield Reattach(u1=ws, u2=w0, moved=tuple(sorted(w for w in t.adj[ws] if w != path[-2])))


def slide_moves(t: Tree) -> Iterator[Slide]:
    """Non-trivial slides only: the mirrored position must differ.  One
    search from each anchor gives its paths to all later anchors."""
    anchors = [v for v in range(t.n) if t.degree(v) != 2]
    for idx, x in enumerate(anchors):
        parent = _bfs(t.adj, x)[0]
        for y in anchors[idx + 1 :]:
            path = [y]
            while y != x:
                y = parent[y]
                path.append(y)
            path.reverse()
            move = _slide_on(t, tuple(path))
            if move is not None and move.source != move.dest:
                yield move


def neighbors(t: Tree, k: int) -> list[MoveOutcome]:
    """Every valid switch, slide and reattach on *t*, each applied.  The
    slides come from `slide_moves`, which builds them valid, so they are
    rewired without a second validation."""
    results = chain(
        ((sw, _switched(t, sw)) for sw in switch_moves(t)),
        ((sl, _slide_rewired(t, sl)) for sl in slide_moves(t)),
        ((re_, _reattached(t, re_)) for re_ in reattach_moves(t)),
    )
    return _outcomes(t, k, results)


@dataclass(frozen=True)
class ClimbResult:
    tree: Tree
    steps: tuple[MoveOutcome, ...]


def hill_climb(t: Tree, k: int, direction: str = "minimize") -> ClimbResult:
    """Steepest ascent/descent over the move neighbourhood.

    Applies the best strictly improving neighbour until none exists; ties
    are broken deterministically by (delta, canonical code of the result),
    and codes are computed only among the neighbours that tie on the best
    delta.  The endpoint is a local optimum within the segment-sequence
    class.
    """
    if direction not in ("minimize", "maximize"):
        raise ValueError("direction must be 'minimize' or 'maximize'")
    sign = -1 if direction == "minimize" else 1
    current = t
    steps: list[MoveOutcome] = []
    while True:
        outcomes = neighbors(current, k)
        gain = max((sign * o.delta for o in outcomes), default=0)
        if gain <= 0:
            return ClimbResult(tree=current, steps=tuple(steps))
        ties = [o for o in outcomes if sign * o.delta == gain]
        best = ties[0] if len(ties) == 1 else min(ties, key=lambda o: canonical_code(o.tree))
        steps.append(best)
        current = best.tree
