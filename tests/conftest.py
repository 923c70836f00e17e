from __future__ import annotations

import sys
from collections import Counter

import pytest

from segwiener import enumeration
from segwiener.generators import quasi_caterpillar, starlike
from segwiener.trees import Tree


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
    """Counts the level sequences read for their segment sequence and side
    sizes (`enumeration._read_levels`), in a one-item list."""
    count = [0]
    read = enumeration._read_levels

    def counting(level):
        count[0] += 1
        return read(level)

    monkeypatch.setattr(enumeration, "_read_levels", counting)
    return count


@pytest.fixture
def stream_starts(monkeypatch) -> Counter:
    """Counts the level streams started (`enumeration._level_sequences`
    calls), per order."""
    starts: Counter = Counter()
    stream = enumeration._level_sequences

    def counting(n):
        starts[n] += 1
        return stream(n)

    monkeypatch.setattr(enumeration, "_level_sequences", counting)
    return starts
