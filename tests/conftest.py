from __future__ import annotations

import sys
from collections import Counter
from typing import Iterable, Iterator

import pytest

from segwiener import enumeration, moves
from segwiener.generators import quasi_caterpillar, starlike
from segwiener.moves import MoveDescriptor
from segwiener.trees import Tree
from segwiener.verify import VIOLATED, VerificationReport


def path_tree(n: int) -> Tree:
    if n == 1:
        return Tree.from_edges([], n=1)
    return Tree.from_edges([(i, i + 1) for i in range(n - 1)], n=n)


def double_broom(length: int, left: int, right: int) -> Tree:
    """The path 0..length with *left* leaves at 0 and *right* at its end."""
    edges = [(i, i + 1) for i in range(length)]
    edges += [(0, length + 1 + i) for i in range(left)]
    edges += [(length, length + 1 + left + i) for i in range(right)]
    return Tree.from_edges(edges)


def moves_of_kind(t: Tree, kind: type) -> list[MoveDescriptor]:
    """The descriptors of the moves of one kind (`Switch`, `Slide` or
    `Reattach`) on *t*, in the order of `moves._rank`, the one lister that
    `neighbors` and `hill_climb` read (`every_move`; with sign 0 the list
    does not depend on k)."""
    return [moves._descriptor(t, record, moves._path(record, where)) for record, where, _ in every_move(t, 1) if record[0] is kind]


def every_move(t: Tree, k: int) -> list[tuple[moves.Record, tuple, int]]:
    """Every move that `hill_climb` ranks on *t*, in its order, as its
    record, its segment or slide locator and its closed-form delta: the
    ranking `moves._rank` with sign 0, under which every move ties."""
    return moves._rank(t, k, 0)[1]


def ranked(t: Tree, k: int) -> Iterator[tuple[MoveDescriptor, tuple[int, ...], int]]:
    """Every move that `hill_climb` ranks on *t* (`every_move`), in its
    order, as its descriptor, its path and its closed-form delta."""
    for record, where, delta in every_move(t, k):
        path = moves._path(record, where)
        yield moves._descriptor(t, record, path), path, delta


def any_violated(reports: Iterable[VerificationReport]) -> bool:
    return any(r.verdict == VIOLATED for r in reports)


@pytest.fixture
def fig1_top() -> Tree:
    """The order-15 starlike tree with segment sequence (3,2,2,2,1,1,1,1,1)."""
    return starlike((3, 2, 2, 2, 1, 1, 1, 1, 1))


@pytest.fixture
def fig1_bottom() -> Tree:
    """The order-15 quasi-caterpillar with the same segment sequence:
    backbone segments (1,2,1,2), pendants of lengths 1 | 2,3 | 1,1 at its
    three branch vertices."""
    return quasi_caterpillar((1, 2, 1, 2), [(1, 1), (2, 2), (2, 3), (3, 1), (3, 1)])


@pytest.fixture
def k13() -> Tree:
    return starlike((1, 1, 1))


@pytest.fixture
def tree_builds(monkeypatch) -> list[int]:
    """Counts the trees built from level sequences, in a one-item list: the
    builder is replaced in every loaded segwiener module that binds it."""
    count = [0]
    build = enumeration._tree_from_levels

    def counting(level):
        count[0] += 1
        return build(level)

    for name, module in list(sys.modules.items()):
        if name.startswith("segwiener") and getattr(module, "_tree_from_levels", None) is build:
            monkeypatch.setattr(module, "_tree_from_levels", counting)
    return count


@pytest.fixture
def level_reads(monkeypatch) -> list[int]:
    """Counts the root branches read for their segment lengths and side
    sizes (`enumeration._read_branch`, through which every tree of a
    stream is read), in a one-item list."""
    count = [0]
    read = enumeration._read_branch

    def counting(branch, row):
        count[0] += 1
        return read(branch, row)

    monkeypatch.setattr(enumeration, "_read_branch", counting)
    return count


@pytest.fixture
def stream_starts(monkeypatch) -> Counter:
    """Counts the whole-order level streams started (`enumeration._stream`
    calls, which every route to a whole order makes; skeletons are composed
    without one), per order."""
    starts: Counter = Counter()
    stream = enumeration._stream

    def counting(n):
        starts[n] += 1
        return stream(n)

    monkeypatch.setattr(enumeration, "_stream", counting)
    return starts
