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

Deltas are always full recomputations of the index, never incremental sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from .steiner import sw_k
from .trees import Tree, canonical_code, segment_decomposition, segment_sequence


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
    path = t.path(u, v)
    if t.degree(u) < 3 or t.degree(v) < 3:
        raise InvalidDescriptorError(f"segment endpoints {u}, {v} must both be branch vertices")
    for x in path[1:-1]:
        if t.degree(x) != 2:
            raise InvalidDescriptorError(f"path {u}..{v} is not a segment (vertex {x} has degree != 2)")
    return path


def _rewire(t: Tree, drop: list[tuple[int, int]], add: list[tuple[int, int]]) -> Tree:
    edges = {(u, v) if u < v else (v, u) for u, v in t.edges()}
    for u, v in drop:
        key = (u, v) if u < v else (v, u)
        if key not in edges:
            raise InvalidDescriptorError(f"edge ({u}, {v}) not present")
        edges.remove(key)
    for u, v in add:
        edges.add((u, v) if u < v else (v, u))
    return Tree.from_edges(sorted(edges), n=t.n)


def _outcome(t: Tree, move: MoveDescriptor, result: Tree, k: int) -> MoveOutcome:
    if segment_sequence(result) != segment_sequence(t):
        raise InvalidDescriptorError("move would change the segment sequence")
    return MoveOutcome(move=move, tree=result, delta=sw_k(result, k) - sw_k(t, k))


def apply_switch(t: Tree, move: Switch, k: int) -> MoveOutcome:
    path = _segment_path(t, move.w0, move.ws)
    if move.a_root not in t.adj[move.w0] or move.a_root == path[1]:
        raise InvalidDescriptorError(f"{move.a_root} is not an off-segment neighbour of {move.w0}")
    if move.b_root not in t.adj[move.ws] or move.b_root == path[-2]:
        raise InvalidDescriptorError(f"{move.b_root} is not an off-segment neighbour of {move.ws}")
    result = _rewire(
        t,
        drop=[(move.w0, move.a_root), (move.ws, move.b_root)],
        add=[(move.ws, move.a_root), (move.w0, move.b_root)],
    )
    return _outcome(t, move, result, k)


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


def apply_slide(t: Tree, move: Slide, k: int) -> MoveOutcome:
    path = move.path
    expected = slide_move(t, path)
    if (move.source, move.dest) != (expected.source, expected.dest):
        raise InvalidDescriptorError("slide source/destination do not match the path attachments")
    last = len(path) - 1
    i, j = path.index(move.source), last - path.index(move.dest)
    shift = (last - j) - i
    if shift == 0:
        return MoveOutcome(move=move, tree=t, delta=0)
    drop: list[tuple[int, int]] = []
    add: list[tuple[int, int]] = []
    for x in range(i, j + 1):
        v = path[x]
        for w in t.adj[v]:
            if w == path[x - 1] or w == path[x + 1]:
                continue
            drop.append((v, w))
            add.append((path[x + shift], w))
    result = _rewire(t, drop, add)
    return _outcome(t, move, result, k)


def apply_reattach(t: Tree, move: Reattach, k: int) -> MoveOutcome:
    path = _segment_path(t, move.u1, move.u2)
    expected = tuple(sorted(w for w in t.adj[move.u1] if w != path[1]))
    if tuple(sorted(move.moved)) != expected:
        raise InvalidDescriptorError(
            f"reattach must move every off-segment neighbour of {move.u1}: {expected}"
        )
    result = _rewire(
        t,
        drop=[(move.u1, w) for w in expected],
        add=[(move.u2, w) for w in expected],
    )
    return _outcome(t, move, result, k)


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
    """Non-trivial slides only: the mirrored position must differ."""
    anchors = [v for v in range(t.n) if t.degree(v) != 2]
    for idx, x in enumerate(anchors):
        for y in anchors[idx + 1 :]:
            move = _slide_on(t, t.path(x, y))
            if move is not None and move.source != move.dest:
                yield move


def neighbors(t: Tree, k: int) -> list[MoveOutcome]:
    """Every valid switch, slide and reattach on *t*, each applied."""
    out: list[MoveOutcome] = []
    for sw in switch_moves(t):
        out.append(apply_switch(t, sw, k))
    for sl in slide_moves(t):
        out.append(apply_slide(t, sl, k))
    for re_ in reattach_moves(t):
        out.append(apply_reattach(t, re_, k))
    return out


@dataclass(frozen=True)
class ClimbResult:
    tree: Tree
    steps: tuple[MoveOutcome, ...]


def hill_climb(t: Tree, k: int, direction: str = "minimize") -> ClimbResult:
    """Steepest ascent/descent over the move neighbourhood.

    Applies the best strictly improving neighbour until none exists; ties
    are broken deterministically by (delta, canonical code of the result).
    The endpoint is a local optimum within the segment-sequence class.
    """
    if direction not in ("minimize", "maximize"):
        raise ValueError("direction must be 'minimize' or 'maximize'")
    sign = -1 if direction == "minimize" else 1
    current = t
    steps: list[MoveOutcome] = []
    while True:
        improving = [o for o in neighbors(current, k) if sign * o.delta > 0]
        if not improving:
            return ClimbResult(tree=current, steps=tuple(steps))
        best = min(improving, key=lambda o: (-sign * o.delta, canonical_code(o.tree)))
        steps.append(best)
        current = best.tree
