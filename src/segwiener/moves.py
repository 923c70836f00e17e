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

One lister, `_rank`, gives a tree's neighbourhood in its one order, each
move as a light record (`Record`) with its closed-form delta and its
segment, or a slide's locator in the search that found it, off which
`_path` builds the anchored path; there is no lister per kind.  It walks
the tree's skeleton (`_skeleton`): its anchors, the vertices of degree
other than 2, and the segments between them, each with the side size at
its ends off one read of the tree; and it searches the skeleton from one
branch vertex at a time (`_search`).  An `apply_*` function accepts
exactly the switches or reattaches that `_rank` lists across the same
segment, or the slide that `slide_move` gives for the same path.
`_descriptor` turns a record and its path into its descriptor.  What a
built move does is written once, in `_relocations`: a list of (root, i, j)
along its path, the component hanging at path[i] through root moving to
path[j].  `_built` rewires the source's adjacency by that list, and one
breadth-first search of the result checks it is a tree (else
InvalidTreeError) and reads its side sizes and segment sequence
(`trees._read`).  `neighbors` builds every move `_rank` lists, and it and
the `apply_*` functions recompute each result's SW_k from scratch off that
read and check its segment sequence against the source's.

`hill_climb` ranks the moves by their closed-form deltas (`_rank`), off
the one skeleton of the source, in plain loops over its segments and
anchor pairs that keep only the best gain and its ties, with no record,
path, descriptor or side-size closure built per move: the moved components
change side sizes only on the edges of the path, and along degree-2
vertices those sizes are consecutive, so a switch's or a reattach's delta
is two prefix sums of the `_weights(n, k)` row plus a term taken once per
segment, and a slide's adds a term per segment of the block it moves, read
off the search from its branch vertex.  Only the moves tied on the best
gain get a path and a descriptor and are built, their outcomes taken
against the ranking's read of the source, and a built step whose
recomputed delta differs from its closed form raises
ClosedFormMismatchError.  The tie-break codes one result per `_twin` key,
and the next step ranks the result it takes off the read that built it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Union

from .exact import I128_MAX, checked
from .steiner import _check_k, _index_sums, _weights
from .trees import InvalidTreeError, Tree, _bfs, _read, _read_built, _walk, canonical_code


class InvalidDescriptorError(ValueError):
    """The move descriptor does not match the tree."""


class ClosedFormMismatchError(RuntimeError):
    """A built step's recomputed delta differs from its closed form."""


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

# A move as `_rank`, the one lister, gives it, read along its path: (Switch,
# a_root, b_root), (Slide, source index, dest index) or (Reattach, u1, u2);
# `_descriptor` builds its descriptor.
Record = tuple[type, int, int]


# A tree's read, as `_read_built` gives it: the parents of its breadth-first
# search from vertex 0, its side sizes and its segment sequence; and a
# rewired tree with its read (`_rewire`).
Read = tuple[list[int], list[int], tuple[int, ...]]
Built = tuple[Tree, list[int], list[int], tuple[int, ...]]


@dataclass(frozen=True)
class MoveOutcome:
    move: MoveDescriptor
    tree: Tree
    delta: int


def _segment_path(t: Tree, u: int, v: int) -> tuple[int, ...]:
    """Path from u to v, validated to be a segment with branch endpoints."""
    for x in (u, v):
        if not 0 <= x < t.n:
            raise InvalidDescriptorError(f"vertex {x} out of range 0..{t.n - 1}")
    # a walk stops at the first vertex whose degree is not 2, so the walk
    # that ends at v is the segment
    if t.degree(u) >= 3 and t.degree(v) >= 3:
        for w in t.adj[u]:
            path = _walk(t.adj, u, w)
            if path[-1] == v:
                return path
    raise InvalidDescriptorError(f"{u} and {v} are not the branch endpoints of one segment")


def _rewire(t: Tree, drop: list[tuple[int, int]], add: list[tuple[int, int]]) -> Built:
    """*t* with the edges *drop* removed, then the edges *add* inserted,
    with its read: the one breadth-first search (from vertex 0) that checks
    the result is connected, and the side sizes and segment sequence that
    `_read` takes off it.  Raises InvalidTreeError unless the result is
    again a tree."""
    adj: list = list(t.adj)
    touched = {v for edge in (*drop, *add) for v in edge}
    for v in touched:
        adj[v] = list(adj[v])
    for u, v in drop:
        if v not in adj[u]:
            raise InvalidDescriptorError(f"edge ({u}, {v}) not present")
        adj[u].remove(v)
        adj[v].remove(u)
    for u, v in add:
        if u == v or v in adj[u]:
            raise InvalidTreeError(f"added edge ({u}, {v}) is a self-loop or already present")
        adj[u].append(v)
        adj[v].append(u)
    for v in touched:
        adj[v] = tuple(sorted(adj[v]))
    # n - 1 edges + connected <=> tree
    if len(add) != len(drop):
        raise InvalidTreeError(f"rewiring leaves {t.n - 1 - len(drop) + len(add)} edges for {t.n} vertices")
    parent, order = _bfs(adj, 0)
    if len(order) != t.n:
        raise InvalidTreeError("rewiring disconnects the tree")
    return Tree(t.n, tuple(adj)), parent, *_read(parent, order, [len(a) for a in adj])


def _outcomes(
    t: Tree, k: int, results: Iterable[tuple[MoveDescriptor, Built | None]], source: tuple[tuple[int, ...], int] | None = None
) -> list[MoveOutcome]:
    """The outcome of each (move, built result) on the source *t*, after
    checking k; a result of None is the identity move.  *source* is the
    (segment sequence, SW_k) of *t* when the caller has read it already;
    else the source is evaluated once, off one read (`_read_built`), when
    first needed, so a tree without moves (a path, a star, one vertex) is
    never evaluated.  Each result's SW_k is summed over the side sizes of
    the search that built it, whose segment sequence must be the source's."""
    _check_k(t, k)
    out = []
    for move, result in results:
        if result is None:
            out.append(MoveOutcome(move=move, tree=t, delta=0))
            continue
        if source is None:
            _, sides, segments = _read_built(t)
            source = segments, _index_sums(t.n, sides, (k,))[0]
        tree, _, sides, segments = result
        if segments != source[0]:
            raise InvalidDescriptorError("move would change the segment sequence")
        out.append(MoveOutcome(move=move, tree=tree, delta=_index_sums(t.n, sides, (k,))[0] - source[1]))
    return out


def _descriptor(t: Tree, record: Record, path: tuple[int, ...]) -> MoveDescriptor:
    """The descriptor of the move *record* on *t* along *path*."""
    kind, x, y = record
    if kind is Switch:
        return Switch(w0=path[0], ws=path[-1], a_root=x, b_root=y)
    if kind is Slide:
        return Slide(path=path, source=path[x], dest=path[y])
    return Reattach(u1=x, u2=y, moved=tuple(sorted(w for w in t.adj[x] if w != path[1])))


# (root, i, j): the component hanging at path[i] through root moves to path[j]
Relocation = tuple[int, int, int]


def _relocations(t: Tree, move: MoveDescriptor, path: tuple[int, ...]) -> list[Relocation]:
    """What *move* does along *path*, its segment (from u1 for a reattach)
    or anchored path.  A slide carries every component hanging between its
    first and last interior attachment, i and j, by the shift that lands i
    on the mirror of j; a shift of 0 relocates nothing."""
    last = len(path) - 1
    if isinstance(move, Switch):
        return [(move.a_root, 0, last), (move.b_root, last, 0)]
    if isinstance(move, Reattach):
        return [(w, 0, last) for w in move.moved]
    i, j = path.index(move.source), last - path.index(move.dest)
    shift = (last - j) - i
    if not shift:
        return []
    return [(w, x, x + shift) for x in range(i, j + 1) for w in t.adj[path[x]] if w != path[x - 1] and w != path[x + 1]]


def _built(t: Tree, move: MoveDescriptor, path: tuple[int, ...]) -> Built | None:
    """The result of *move*, valid on *t*, with its path as in
    `_relocations`, and its read (`_rewire`); None when it relocates
    nothing."""
    moved = _relocations(t, move, path)
    if not moved:
        return None
    return _rewire(t, [(path[i], root) for root, i, _ in moved], [(path[j], root) for root, _, j in moved])


def apply_switch(t: Tree, move: Switch, k: int) -> MoveOutcome:
    """A switch is valid iff its roots are off-segment neighbours of its two
    ends, the pairs `_rank` lists across its segment."""
    path = _segment_path(t, move.w0, move.ws)
    if not (move.a_root in t.adj[path[0]] and move.a_root != path[1] and move.b_root in t.adj[path[-1]] and move.b_root != path[-2]):
        raise InvalidDescriptorError(f"{move} does not exchange off-segment neighbours of {move.w0} and {move.ws}")
    return _outcomes(t, k, [(move, _built(t, move, path))])[0]


def slide_move(t: Tree, path: tuple[int, ...]) -> Slide:
    """Build the slide descriptor for an anchored path: its first interior
    attachment lands on the mirror of its last one."""
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
    attachments = [i for i in range(1, len(path) - 1) if t.degree(path[i]) >= 3]
    if not attachments:
        raise InvalidDescriptorError("slide path has nothing attached between its anchors")
    return Slide(path=tuple(path), source=path[attachments[0]], dest=path[len(path) - 1 - attachments[-1]])


def apply_slide(t: Tree, move: Slide, k: int) -> MoveOutcome:
    """A slide is valid iff `slide_move` on its path gives it."""
    if slide_move(t, move.path) != move:
        raise InvalidDescriptorError("slide source/destination do not match the path attachments")
    return _outcomes(t, k, [(move, _built(t, move, move.path))])[0]


def apply_reattach(t: Tree, move: Reattach, k: int) -> MoveOutcome:
    """A reattach is valid iff its sorted *moved* is that of the move
    `_rank` lists from u1; the outcome keeps *move* as given."""
    path = _segment_path(t, move.u1, move.u2)
    expected = _descriptor(t, (Reattach, move.u1, move.u2), path)
    if tuple(sorted(move.moved)) != expected.moved:
        raise InvalidDescriptorError(f"reattach must move every off-segment neighbour of {move.u1}: {expected.moved}")
    return _outcomes(t, k, [(move, _built(t, expected, path))])[0]


# The series-reduced tree of a tree that has a move, annotated off one read
# of it (`_read_built`): its anchors (the vertices of degree other than 2),
# ascending; by anchor v, each segment that leaves v, walked (`_walk`) from
# v through a neighbour in adjacency order, with the vertex count on v's
# side of its first edge (None at a vertex of degree 2); and the read.
Skeleton = tuple[list[int], list, Read]


def _skeleton(t: Tree, read: Read | None = None) -> Skeleton | None:
    """The `Skeleton` of *t*, off *read* when the caller has read *t*
    already, or None when *t* has no move, which is not read: when it has
    no branch vertex, or one whose legs all have one length.  Two branch
    vertices are joined by a segment between branch vertices, which has
    switches; a lone branch vertex with legs of two lengths has a slide
    from the leaf of the one to the leaf of the other."""
    adj, n = t.adj, t.n
    anchors = [v for v in range(n) if len(adj[v]) != 2]
    branch = [v for v in anchors if len(adj[v]) >= 3]
    if not branch or (len(branch) == 1 and len({len(_walk(adj, branch[0], w)) for w in adj[branch[0]]}) == 1):
        return None
    read = parent, sides, _ = read or _read_built(t)
    size = [n, *sides]
    hang: list = [None] * n
    for v in anchors:
        hang[v] = [(_walk(adj, v, w), n - size[w] if parent[w] == v else size[v]) for w in adj[v]]
    return anchors, hang, read


def _branch_segments(t: Tree, hang: list) -> list[tuple[tuple[int, ...], int]]:
    """The segments of the skeleton whose two endpoints are both branch
    vertices, as walked from the smaller endpoint, in ascending order of
    it, each with its side size there."""
    adj = t.adj
    return [s for u in range(t.n) if len(adj[u]) >= 3 for s in hang[u] if u < s[0][-1] and len(adj[s[0][-1]]) >= 3]


# One search from a branch vertex b (`_search`) over the skeleton, as lists
# by anchor y: the anchor before y on the path from b, which is the last
# interior attachment (a vertex of degree at least 3 strictly between b
# and y) or b for none, the segment from that anchor to y, y's depth, the
# depth of the first interior attachment (0 for none), the segment's
# length, which is where the mirror of the last one lies on the path, and
# the vertex count on b's side of the edge that enters y.
Search = tuple[list[int], list[tuple[int, ...]], list[int], list[int], list[int], list[int]]

# A slide as `_rank` locates it: the leg from its first anchor to the
# branch vertex b of the search, its last anchor and b's search.
SlideAt = tuple[tuple[int, ...], int, Search]


def _search(hang: list, b: int) -> Search:
    """The `Search` from *b*: one breadth-first search over the anchors.
    The side sizes along a segment grow by one per edge from the size at
    its first, so each is read off the skeleton."""
    n = len(hang)
    up, seg, depth, first, mirror, side = [-1] * n, [()] * n, [0] * n, [0] * n, [0] * n, [0] * n
    order = [b]
    for p in order:
        at = first[p] or depth[p] if p != b else 0
        for path, near in hang[p]:
            y = path[-1]
            if y != up[p]:
                m = len(path) - 1
                up[y], seg[y], depth[y], first[y], mirror[y], side[y] = p, path, depth[p] + m, at, m, near + m - 1
                if len(hang[y]) > 1:
                    order.append(y)
    return up, seg, depth, first, mirror, side


def _slide_path(leg: tuple[int, ...], y: int, search: Search) -> tuple[int, ...]:
    """The anchored path of the slide at (*leg*, *y*, *search*): the leg,
    then the search's segments from its root to y."""
    up, seg, b, parts = search[0], search[1], leg[-1], []
    while y != b:
        parts.append(seg[y])
        y = up[y]
    return leg + tuple(v for part in reversed(parts) for v in part[1:])


def _path(record: Record, where: tuple) -> tuple[int, ...]:
    """The segment or anchored path of a move as `_rank` lists it."""
    return _slide_path(*where) if record[0] is Slide else where


# A ranked move: its record, its segment or slide locator, and its delta.
Ranked = tuple[Record, tuple, int]


def _rank(t: Tree, k: int, sign: int, read: Read | None = None) -> tuple[int, list[Ranked], tuple[tuple[int, ...], int] | None]:
    """The one lister of the moves on *t*: those whose gain, *sign* times
    the closed-form delta, is largest and at least 0, in move order, with
    that gain and the (segment sequence, SW_k) of *t*.  With *sign* 0 every
    move ties, so every move is listed; `neighbors` builds that list.  One
    read of *t* and the `_weights(n, k)` row w with its prefix sums
    (prefix[x] = w[0] + ... + w[x - 1]) price every move in plain loops
    that keep only the best gain and its ties: no path, descriptor or
    neighbour is built.  A tree without moves is not read, and its rank is
    (0, [], None).

    Move order is switches, slides, reattaches.  The switches go by the
    segments with two branch ends (`_branch_segments`), then a_root at the
    smaller end and b_root at the other, each in adjacency order; the
    reattaches go by the same segments, from the smaller end first.  The
    slides are the non-trivial ones, whose mirrored position differs, by
    anchor pair (x, y), x < y, in ascending order of x, then of y.  One
    `_search` per branch vertex b, made when first needed, serves b and
    every leaf whose leg ends at b, ℓ edges away.  Such a leaf's path to an
    anchor y ≠ b is its leg, then b's path to y: the first interior
    attachment is b, at ℓ, and the last is the anchor before y, so its
    mirror lies at b's mirror of y either way.  The pair (x, b) has no
    interior attachment.

    Components move whole, so only the L edges of the move's path change
    side sizes.  Write b_e for the path[0] side of edge e, which joins
    path[e - 1] and path[e]: along degree-2 vertices the b_e are
    consecutive, so the weights of such a run are one difference of prefix
    sums.  On a segment b_1, ..., b_L run from b_1 up, and

    * a switch shifts them all by the mass it brings to path[0] less the
      mass it takes from it, two side sizes off the read's parents;
    * a reattach leaves path[0] only the segment, so they run from 1.

    b_1 and the term of the run from it are taken once per segment.  A
    slide carries every component from its first interior attachment i to
    its last, j, by s = m - i, where m = L - j is the mirror of j.  The run
    before the block, which ends at b_i, then ends at b_i + s; b_{i+1},
    ..., b_j shift by s each, a run per segment of the search from path[j]
    up to path[i]; and from edge j + 1 on the sizes, which ran from
    b_{j+1} = b_L - m + 1, start at b_{j+1} + s and end where they did.
    The leg's sizes are 1, ..., ℓ and b's own side is 0, so b_i is ℓ plus
    the side of path[i] either way.

    As in `neighbors`, a source or neighbour whose SW_k leaves i128 raises
    CountOverflowError.  Every SW_k is >= 0, so a neighbour leaves i128
    exactly when its delta exceeds the source's headroom, I128_MAX - SW_k,
    and only such a delta is checked.  A reattach brings the moved
    components closer to the far end's and keeps their distances to the
    segment, so no k-set spans more: its delta is never positive."""
    skeleton = _skeleton(t, read)
    if skeleton is None:
        return 0, [], None
    anchors, hang, (_, sides, segments) = skeleton
    n, adj = t.n, t.adj
    value = _index_sums(n, sides, (k,))[0]
    headroom = I128_MAX - value
    prefix = list(accumulate(_weights(n, k), initial=0))
    gain, ties, runs = 0, [], []
    for path, first in _branch_segments(t, hang):
        u, c, ws, back, length = path[0], path[1], path[-1], path[-2], len(path) - 1
        run = prefix[first] - prefix[first + length]
        runs.append((path, first, length, run))
        ends = [(far[1], near) for far, near in hang[ws] if far[1] != back]
        for near_path, near in hang[u]:
            a = near_path[1]
            if a != c:
                top = first + near
                for b, far in ends:
                    start = top - far
                    delta = prefix[start + length] - prefix[start] + run
                    if delta > headroom:
                        checked(value + delta)
                    if sign * delta > gain:
                        gain, ties = sign * delta, [((Switch, a, b), path, delta)]
                    elif sign * delta == gain:
                        ties.append(((Switch, a, b), path, delta))
    searches: dict[int, Search] = {}
    for idx, x in enumerate(anchors[:-1]):
        leg = hang[x][0][0] if len(adj[x]) == 1 else (x,)
        b, ell = leg[-1], len(leg) - 1
        search = searches.get(b)
        if search is None:
            search = searches[b] = _search(hang, b)
        up, _, depth, first, mirror, side = search
        for y in anchors[idx + 1 :]:
            if y == b:
                continue
            i, m = ell or first[y], mirror[y]
            if not i or i == m:
                continue
            s = m - i
            tail = side[y] - m + 1
            delta = prefix[tail] - prefix[tail + s]
            v, stop = up[y], i - ell
            while depth[v] > stop:
                hi = side[v] + 1
                lo = hi - mirror[v]
                delta += prefix[hi + s] - prefix[lo + s] - prefix[hi] + prefix[lo]
                v = up[v]
            head = ell + side[v] + 1
            delta += prefix[head + s] - prefix[head]
            if delta > headroom:
                checked(value + delta)
            if sign * delta > gain:
                gain, ties = sign * delta, [((Slide, i, m), (leg, y, search), delta)]
            elif sign * delta == gain:
                ties.append(((Slide, i, m), (leg, y, search), delta))
    for path, first, length, run in runs:
        # from the far end the first side is n less the near end's last one
        reach, back = prefix[length + 1] - prefix[1], n - first - length + 1
        for delta, u1 in ((reach + run, 0), (reach + prefix[back] - prefix[back + length], -1)):
            if sign * delta >= gain:
                tie = ((Reattach, path[u1], path[-1 - u1]), path[::-1] if u1 else path, delta)
                if sign * delta > gain:
                    gain, ties = sign * delta, [tie]
                else:
                    ties.append(tie)
    return gain, ties, (segments, value)


def neighbors(t: Tree, k: int) -> list[MoveOutcome]:
    """Every valid switch, slide and reattach on *t*, in the order `_rank`
    lists them: the switches, then the non-trivial slides, then the
    reattaches.  Each is built and its SW_k recomputed from scratch off the
    read of the result, not taken from its closed form, against the
    (segment sequence, SW_k) of `_rank`'s read of *t*.  Raises ValueError
    unless 1 <= k <= n, also on a tree without moves."""
    _check_k(t, k)
    _, ranking, source = _rank(t, k, 0)
    paths = ((record, _path(record, where)) for record, where, _ in ranking)
    described = ((_descriptor(t, record, path), path) for record, path in paths)
    return _outcomes(t, k, ((move, _built(t, move, path)) for move, path in described), source)


def _leg(adj, v: int, w: int) -> int | tuple[int, int]:
    """The segment that leaves *v* through *w* as (its end that is not a
    leaf, its length) when it is a leg, one end a leaf; else *w*."""
    path = _walk(adj, v, w)
    if len(adj[path[-1]]) == 1:
        return v, len(path)
    if len(adj[v]) == 1:
        return path[-1], len(path)
    return w


def _twin(t: Tree, record: Record, path: tuple[int, ...]) -> tuple:
    """A key under which moves of *t* have isomorphic results, so their
    canonical codes are equal.

    Two legs of one length at one vertex are exchanged by an automorphism
    of *t*, which carries a move through one leg to the same move through
    the other.  So a switch is keyed by its segment and the two components
    it exchanges, and a slide, which is fixed by the two ends of its path,
    by those ends, each a leg taken as (its vertex, its length) (`_leg`).
    The two reattaches across one segment are keyed alike: either leaves
    every off-segment component of both ends at one end, with the segment
    hanging from it, and reversing the segment maps the one result onto
    the other."""
    kind, x, y = record
    if kind is Reattach:
        return kind, frozenset((x, y))
    adj = t.adj
    if kind is Switch:
        return kind, path[0], path[-1], _leg(adj, path[0], x), _leg(adj, path[-1], y)
    ends = ((path[0], path[1]), (path[-1], path[-2]))
    return kind, frozenset(_leg(adj, v, w) if len(adj[v]) == 1 else v for v, w in ends)


@dataclass(frozen=True)
class ClimbResult:
    tree: Tree
    steps: tuple[MoveOutcome, ...]


def hill_climb(t: Tree, k: int, direction: str = "minimize") -> ClimbResult:
    """Steepest ascent/descent over the move neighbourhood.

    Each step ranks every move of `neighbors`, as its record, by its
    closed-form delta (`_rank`), off one read of the current tree, and
    builds the path and the descriptor of only the moves that tie on the
    best strictly improving gain.  Each of those goes through
    `_relocations` and the one builder of `neighbors`, whose one search
    checks the result is a tree and reads its side sizes and segment
    sequence: its SW_k is recomputed from scratch off those sides, its
    segment sequence and SW_k compared with those of the ranking's read of
    the current tree, and a recomputed delta that differs from its closed
    form raises ClosedFormMismatchError.  Every tree the climb visits is
    read once: the start by its first ranking, every later one by the
    build that made it, whose read its ranking takes.

    Ties are broken deterministically by the canonical code of the result,
    the first in move order among equal codes.  Moves with one `_twin` key
    have isomorphic results, so only the first tie of each key is coded,
    and none when one key holds every tie.  The climb stops when no move
    improves; the endpoint is a local optimum within the segment-sequence
    class.  Raises ValueError unless 1 <= k <= n.
    """
    if direction not in ("minimize", "maximize"):
        raise ValueError("direction must be 'minimize' or 'maximize'")
    _check_k(t, k)
    sign = -1 if direction == "minimize" else 1
    current, read = t, None
    steps: list[MoveOutcome] = []
    while True:
        gain, ties, source = _rank(current, k, sign, read)
        if not gain:
            return ClimbResult(tree=current, steps=tuple(steps))
        paths = [(record, _path(record, where), delta) for record, where, delta in ties]
        described = [(_descriptor(current, record, path), path, delta) for record, path, delta in paths]
        results = [_built(current, move, path) for move, path, _ in described]
        outcomes = _outcomes(current, k, [(move, result) for (move, _, _), result in zip(described, results)], source)
        for (move, _, delta), outcome in zip(described, outcomes):
            if outcome.delta != delta:
                raise ClosedFormMismatchError(f"{move!r}: closed form {delta}, recomputed {outcome.delta}")
        best = 0
        if len(paths) > 1:
            # the first tie of each key, in move order, is coded for them all
            firsts: dict[tuple, int] = {}
            for i, (record, path, _) in enumerate(paths):
                firsts.setdefault(_twin(current, record, path), i)
            if len(firsts) > 1:
                best = min(firsts.values(), key=lambda i: canonical_code(outcomes[i].tree))
        steps.append(outcomes[best])
        current, read = outcomes[best].tree, results[best][1:]
