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

One stream, `_moves`, yields a tree's neighbourhood in its one order, each
move as a light record (`Record`) with its segment, or with a slide's
locator in the search that found it, off which `_path` builds the anchored
path; there is no lister per kind.  Validity is defined per segment or
path: an `apply_*` function accepts exactly the descriptors that
`_switches_on`, `_reattaches_on` or `slide_move` gives over the same
segment or path.  `_descriptor` turns a record and its path into its
descriptor.  What a built move does
is written once, in `_relocations`: a list of (root, i, j) along its path,
the component hanging at path[i] through root moving to path[j].  `_built`
rewires the source's adjacency by that list (a result that is not a tree
raises InvalidTreeError), and `neighbors` and the `apply_*` functions
recompute each result's SW_k from scratch, off the one read
(`trees._read`) that also checks its segment sequence; the source is read
once per neighbourhood.

`hill_climb` ranks the records by their closed-form deltas
(`_move_deltas`), off one read of the source, with no path, descriptor or
side-size closure built per move: the moved components change side sizes
only on the edges of the path, and along degree-2 vertices those sizes are
consecutive, so a switch's or a reattach's delta is two prefix sums of the
`_weights(n, k)` row plus a term taken once per segment, and a slide's
adds one term per edge of the block it moves, read off the one search
(`_search`) from its branch vertex that found it.  Only the moves tied on
the best gain get a path and a descriptor and are built, their outcomes
taken against the ranking's read of the source, and a built step whose
recomputed delta differs from its closed form raises
ClosedFormMismatchError.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Generator, Iterable, Iterator, Union

from .exact import I128_MAX, checked
from .steiner import _check_k, _index_sums, _weights
from .trees import InvalidTreeError, Tree, _bfs, _read_built, _walk, canonical_code


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

# A move as the stream yields it, read along its path: (Switch, a_root,
# b_root), (Slide, source index, dest index) or (Reattach, u1, u2);
# `_descriptor` builds its descriptor.
Record = tuple[type, int, int]


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


def _evaluate(t: Tree, k: int) -> tuple[tuple[int, ...], int]:
    """The segment sequence and SW_k of *t*, off one read (`_read_built`)."""
    _, sides, segments = _read_built(t)
    return segments, _index_sums(t.n, sides, (k,))[0]


def _outcomes(
    t: Tree, k: int, results: Iterable[tuple[MoveDescriptor, Tree]], source: tuple[tuple[int, ...], int] | None = None
) -> list[MoveOutcome]:
    """The outcome of each (move, result tree) on the source *t*, after
    checking k.  *source* is the (segment sequence, SW_k) of *t* when the
    caller has read it already; else the source is evaluated once, when
    first needed, so a tree without moves (a path, a star, one vertex) is
    never evaluated.  A result that is *t* itself is the identity move.
    Each result is evaluated off one read, which also checks its segment
    sequence."""
    _check_k(t, k)
    out = []
    for move, result in results:
        if result is t:
            out.append(MoveOutcome(move=move, tree=t, delta=0))
            continue
        if source is None:
            source = _evaluate(t, k)
        segments, value = _evaluate(result, k)
        if segments != source[0]:
            raise InvalidDescriptorError("move would change the segment sequence")
        out.append(MoveOutcome(move=move, tree=result, delta=value - source[1]))
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


def _built(t: Tree, move: MoveDescriptor, path: tuple[int, ...]) -> Tree:
    """The result of *move*, valid on *t*, with its path as in
    `_relocations`; *t* itself when it relocates nothing."""
    moved = _relocations(t, move, path)
    if not moved:
        return t
    return _rewire(t, [(path[i], root) for root, i, _ in moved], [(path[j], root) for root, _, j in moved])


def apply_switch(t: Tree, move: Switch, k: int) -> MoveOutcome:
    """A switch is valid iff `_switches_on` its segment yields its record."""
    path = _segment_path(t, move.w0, move.ws)
    if (Switch, move.a_root, move.b_root) not in _switches_on(t, path):
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
    """A reattach is valid iff its sorted *moved* is that of the
    `_reattaches_on` move from u1; the outcome keeps *move* as given."""
    record, path = next(_reattaches_on(_segment_path(t, move.u1, move.u2)))
    expected = _descriptor(t, record, path)
    if tuple(sorted(move.moved)) != expected.moved:
        raise InvalidDescriptorError(f"reattach must move every off-segment neighbour of {move.u1}: {expected.moved}")
    return _outcomes(t, k, [(move, _built(t, expected, path))])[0]


def _branch_segments(t: Tree) -> Iterator[tuple[int, ...]]:
    """Segments whose two endpoints are both branch vertices, as paths
    walked (`_walk`) from the smaller endpoint, in ascending order of it."""
    adj = t.adj
    for u in t.branch_vertices():
        for w in adj[u]:
            path = _walk(adj, u, w)
            if u < path[-1] and len(adj[path[-1]]) >= 3:
                yield path


def _switches_on(t: Tree, path: tuple[int, ...]) -> Iterator[Record]:
    """The switches across the segment *path*."""
    ws = path[-1]
    for a in t.adj[path[0]]:
        if a != path[1]:
            for b in t.adj[ws]:
                if b != path[-2]:
                    yield Switch, a, b


def _reattaches_on(path: tuple[int, ...]) -> Iterator[tuple[Record, tuple[int, ...]]]:
    """The two reattaches across the segment *path*, each with the path
    oriented from u1 to u2."""
    for p in (path, path[::-1]):
        yield (Reattach, p[0], p[-1]), p


# One search from a branch vertex b (`_search`), as lists by vertex v: the
# parent toward b, the depth, the depth of the first interior attachment
# (a vertex of degree at least 3 strictly between b and v) on the path
# from b, 0 for none, the last one (b for none), v's depth less that of
# the last one, which is where that one's mirror lies on the path, and the
# vertex count on b's side of the edge from v to its parent.
Search = tuple[list[int], list[int], list[int], list[int], list[int], list[int]]

# A slide as `_moves` locates it: the leg from its first anchor to the
# branch vertex b of the search, its last anchor and b's search.
SlideAt = tuple[tuple[int, ...], int, Search]


def _search(adj, b: int) -> Search:
    """The `Search` from *b*: one breadth-first search, then one reverse
    pass over its order for the side sizes."""
    n = len(adj)
    parent, order = _bfs(adj, b)
    depth, first, last, mirror, size = [0] * n, [0] * n, [b] * n, [0] * n, [1] * n
    for v in order[1:]:
        p = parent[v]
        depth[v] = depth[p] + 1
        if p != b and len(adj[p]) >= 3:
            first[v], last[v], mirror[v] = first[p] or depth[p], p, 1
        else:
            first[v], last[v], mirror[v] = first[p], last[p], mirror[p] + 1
    for v in order[:0:-1]:
        size[parent[v]] += size[v]
    return parent, depth, first, last, mirror, [n - s for s in size]


def _slides(t: Tree) -> Iterator[tuple[Record, SlideAt]]:
    """Non-trivial slides only: the mirrored position must differ.  Anchor
    pairs (x, y), x < y, come in ascending order of x, then of y.  One
    `_search` per branch vertex b, made when first needed, serves b and
    every leaf whose leg (`_walk`) ends at b, ℓ edges away.  Such a leaf's
    path to an anchor y ≠ b is its leg, then b's path to y: the first
    interior attachment is b, at depth ℓ, and the last is b's last shifted
    by ℓ, or b when b's path has none, so either way the last one's mirror
    is at b's mirror of y.  The pair (x, b) has no interior attachment.  A
    leg that ends at a leaf spans a path, which has no slides.  Each slide
    comes as its locator; `_slide_path` builds its path."""
    adj = t.adj
    anchors = [v for v in range(t.n) if len(adj[v]) != 2]
    searches: dict[int, Search] = {}
    for idx, x in enumerate(anchors[:-1]):
        leg = _walk(adj, x, adj[x][0]) if len(adj[x]) == 1 else (x,)
        b, ell = leg[-1], len(leg) - 1
        if len(adj[b]) == 1:
            return
        if b not in searches:
            searches[b] = _search(adj, b)
        search = searches[b]
        first, mirror = search[2], search[4]
        for y in anchors[idx + 1 :]:
            i, m = ell or first[y], mirror[y]
            if i and i != m and y != b:
                yield (Slide, i, m), (leg, y, search)


def _slide_path(leg: tuple[int, ...], y: int, search: Search) -> tuple[int, ...]:
    """The anchored path of the slide at (*leg*, *y*, *search*): the leg,
    then the search's path from its root to y."""
    parent, b, tail = search[0], leg[-1], []
    while y != b:
        tail.append(y)
        y = parent[y]
    return leg + tuple(reversed(tail))


def _path(record: Record, where: tuple) -> tuple[int, ...]:
    """The segment or anchored path of a move as `_moves` yields it."""
    return _slide_path(*where) if record[0] is Slide else where


def _moves(t: Tree) -> Iterator[tuple[Record, tuple]]:
    """Every move on *t* in neighbourhood order (switches, slides,
    reattaches) as a record, with its segment (from u1 for a reattach; one
    tuple for every switch across it) or a slide's locator (`SlideAt`), off
    which `_path` reads the path.  The branch segments are walked once."""
    segments = list(_branch_segments(t))
    for path in segments:
        for record in _switches_on(t, path):
            yield record, path
    yield from _slides(t)
    for path in segments:
        yield from _reattaches_on(path)


def neighbors(t: Tree, k: int) -> list[MoveOutcome]:
    """Every valid switch, slide and reattach on *t*, each applied and
    evaluated from scratch."""
    paths = ((record, _path(record, where)) for record, where in _moves(t))
    described = ((_descriptor(t, record, path), path) for record, path in paths)
    return _outcomes(t, k, ((move, _built(t, move, path)) for move, path in described))


def _move_deltas(t: Tree, k: int) -> Generator[tuple[Record, tuple, int], None, tuple[tuple[int, ...], int] | None]:
    """Every move of `_moves(t)`, as it comes, with its delta, off one read
    of *t* and the `_weights(n, k)` row w with its prefix sums (prefix[x] =
    w[0] + ... + w[x - 1]): no path, descriptor or neighbour is built.  It
    returns what that read gave, the (segment sequence, SW_k) of *t*, or
    None for a tree without moves, which is not read.

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
    ..., b_j shift by s each, read off the search's sides from path[j] up
    to path[i]; and from edge j + 1 on the sizes, which ran from b_{j+1} =
    b_L - m + 1, start at b_{j+1} + s and end where they did.  The leg's
    sizes are 1, ..., ℓ and b's own side is 0, so b_i is ℓ plus the side
    of path[i] either way.

    As in `neighbors`, the source is evaluated only once it has a move, and
    a source or neighbour whose SW_k leaves i128 raises CountOverflowError.
    Every SW_k is >= 0, so a neighbour leaves i128 exactly when its delta
    exceeds the source's headroom, I128_MAX - SW_k, and only such a delta
    is checked."""
    n, prefix, segment = t.n, None, None
    for record, where in _moves(t):
        if prefix is None:
            parent, sides, segments = _read_built(t)
            value = _index_sums(n, sides, (k,))[0]
            headroom, size = I128_MAX - value, [n, *sides]
            w = _weights(n, k)
            prefix = list(accumulate(w, initial=0))
        kind, x, y = record
        if kind is Slide:
            leg, z, (up, depth, _, last, _, side) = where
            shift, ell, v = y - x, len(leg) - 1, last[z]
            tail = side[z] - y + 1
            delta = prefix[tail] - prefix[tail + shift]
            for _ in range(ell + depth[z] - y - x):
                a = side[v]
                delta += w[a + shift] - w[a]
                v = up[v]
            head = ell + side[v] + 1
            delta += prefix[head + shift] - prefix[head]
        else:
            if where is not segment:
                segment, length, u, ws = where, len(where) - 1, where[0], where[-1]
                first = size[u] if parent[u] == where[1] else n - size[where[1]]
                run = prefix[first] - prefix[first + length]
            if kind is Switch:
                start = first + (size[y] if parent[y] == ws else n - size[ws]) - (size[x] if parent[x] == u else n - size[u])
            else:
                start = 1
            delta = prefix[start + length] - prefix[start] + run
        if delta > headroom:
            checked(value + delta)
        yield record, where, delta
    return None if prefix is None else (segments, value)


@dataclass(frozen=True)
class ClimbResult:
    tree: Tree
    steps: tuple[MoveOutcome, ...]


def hill_climb(t: Tree, k: int, direction: str = "minimize") -> ClimbResult:
    """Steepest ascent/descent over the move neighbourhood.

    Each step ranks every move of `neighbors`, as its record, by its
    closed-form delta (`_move_deltas`), off one read of the current tree,
    and builds the path and the descriptor of only the moves that tie on
    the best strictly improving gain.  Each of those goes through
    `_relocations`, the one builder and the one read of `neighbors` (tree
    check, segment-sequence check and SW_k recomputed from scratch),
    compared with the segment sequence and SW_k of the ranking's read, so
    the current tree is read once per step; and a
    recomputed delta that differs from its closed form raises
    ClosedFormMismatchError.  Ties are broken deterministically by (delta,
    canonical code of the result), the first in move order among equal
    codes.  The climb stops when no move improves; the endpoint is a local
    optimum within the segment-sequence class.  Raises ValueError unless
    1 <= k <= n.
    """
    if direction not in ("minimize", "maximize"):
        raise ValueError("direction must be 'minimize' or 'maximize'")
    _check_k(t, k)
    sign = -1 if direction == "minimize" else 1
    current = t
    steps: list[MoveOutcome] = []
    while True:
        gain, ties, ranking = 0, [], _move_deltas(current, k)
        while True:  # the ranking returns its read of the source, which the ties reuse
            try:
                record, where, delta = next(ranking)
            except StopIteration as end:
                source = end.value
                break
            if sign * delta > gain:
                gain, ties = sign * delta, [(record, where, delta)]
            elif sign * delta == gain and gain:
                ties.append((record, where, delta))
        if not ties:
            return ClimbResult(tree=current, steps=tuple(steps))
        paths = [(record, _path(record, where), delta) for record, where, delta in ties]
        described = [(_descriptor(current, record, path), path, delta) for record, path, delta in paths]
        built = _outcomes(current, k, [(move, _built(current, move, path)) for move, path, _ in described], source)
        for (move, _, delta), outcome in zip(described, built):
            if outcome.delta != delta:
                raise ClosedFormMismatchError(f"{move!r}: closed form {delta}, recomputed {outcome.delta}")
        best = built[0] if len(built) == 1 else min(built, key=lambda o: canonical_code(o.tree))
        steps.append(best)
        current = best.tree
