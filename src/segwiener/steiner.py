"""The Steiner k-Wiener index by edge contribution.

`sw_k`, `sw_profile` and `wiener` are one route; the independent one, the
literal sum of Steiner distances over all k-subsets, is kept with the test
oracles as their cross-check.  An edge lies in the minimal subtree spanning
a set S exactly when S meets both sides of the edge, so with side sizes a
and n-a the edge is counted by w_{n,k}[a] = C(n,k) - C(a,k) - C(n-a,k)
sets, and SW_k is the sum of these weights over the edges; the side sizes
come from the same one-pass reader (``trees._read``) that gives the segment
sequence.  The weights depend only on (n, k): each row w_{n,k}[0..n] is
computed once and kept in a cache of at most 1024 rows, so the cache holds
at most 1024 * (n + 1) integers of at most 128 bits for the largest order n
evaluated.

Every requested k of a tree is summed at once, over one packed row: for
the k list ks, P[a] = sum over i of w_{n,ks[i]}[a] << (width * i), so one
sum of P over the side sizes holds SW_{ks[i]} in its i-th field of *width*
bits.  A tree has n - 1 edges and every weight is >= 0, so a field's sum
is at most n * max(w) over the rows, and *width* is that bound's bit
length: a field never carries into the next.  The packed rows are cached
per (n, ks) in a cache of at most 128 entries; each is n + 1 integers of
at most len(ks) * (128 + n.bit_length()) bits.

A packed sum is a sum over edges, so the packed total of a tree is the sum
of the totals of any split of its edges: the verifiers take each tree's as
the sum of its root branches' (``enumeration._tree_reads`` reads each
distinct branch of an order once), sum each construction's over its side
sizes with the same row (`_packed_sum`), and split a whole class's totals
into one checked column per k (`_class_sums`); no tree is summed over its
own side list there.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .exact import CountOverflowError, binomial, checked
from .trees import Tree, _read_built


@lru_cache(maxsize=1024)
def _weights(n: int, k: int) -> tuple[int, ...]:
    """w[a] = C(n,k) - C(a,k) - C(n-a,k) for a = 0..n.  C(a,k) <= C(n,k),
    so a row raises CountOverflowError exactly when C(n,k) leaves i128."""
    total = binomial(n, k)
    low = [binomial(a, k) for a in range(n + 1)]
    return tuple(total - low[a] - low[n - a] for a in range(n + 1))


@lru_cache(maxsize=128)
def _packed(n: int, ks: Sequence[int]) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """The packed row of the weight rows of *ks* (a tuple or range), its
    field mask and the shift of each field.  Rows are packed in k order up
    to the first that raises CountOverflowError: a k list with such a row
    gets fewer shifts than k values."""
    rows = []
    for k in ks:
        try:
            rows.append(_weights(n, k))
        except CountOverflowError:
            break
    width = (n * max(map(max, rows), default=0)).bit_length()
    packed = [0] * (n + 1)
    for w in reversed(rows):
        packed = [(p << width) + x for p, x in zip(packed, w)]
    return tuple(packed), (1 << width) - 1, tuple(width * i for i in range(len(rows)))


def _packed_sum(row: Sequence[int], sides: Sequence[int]) -> int:
    """The sum of *row* (a packed row) over the side sizes *sides*: the
    packed total of a tree, or of a part of one, that `_class_sums` splits."""
    total = 0  # a plain loop adds faster than sum() over a map or a generator
    for a in sides:
        total += row[a]
    return total


def _index_sums(n: int, sides: Sequence[int], ks: Sequence[int]) -> tuple[int, ...]:
    """SW_k for each k in *ks* (a tuple or range, 1 <= k <= n) of the tree
    of order *n* with these edge side sizes, off one sum of the packed row.
    The first k, in *ks* order, whose row or sum leaves i128 raises."""
    row, mask, shifts = _packed(n, ks)
    total = _packed_sum(row, sides)
    values = tuple([checked(total >> s & mask) for s in shifts])
    if len(shifts) < len(ks):
        _weights(n, ks[len(shifts)])  # the first row left unpacked raises
    return values


def _class_sums(n: int, totals: Sequence[int], ks: Sequence[int]) -> list[list[int]]:
    """One column per k in *ks* (as in `_index_sums`): column i holds
    SW_{ks[i]} of each tree of order *n* given by its packed total, the
    sum of the packed row of (n, ks) over its edge side sizes
    (`_packed_sum`).  Every value is >= 0, so a column is checked at its
    maximum: the first column, in *ks* order, that leaves i128 raises with
    that maximum, and a row that leaves it as in `_index_sums`."""
    _, mask, shifts = _packed(n, ks)
    columns = []
    for s in shifts:
        column = [total >> s & mask for total in totals]
        checked(max(column, default=0))
        columns.append(column)
    if len(shifts) < len(ks):
        _weights(n, ks[len(shifts)])
    return columns


def _tree_sums(t: Tree, ks: Sequence[int]) -> tuple[int, ...]:
    """`_index_sums` of *t*, over the side sizes of one read of it
    (`trees._read_built`)."""
    return _index_sums(t.n, _read_built(t)[1], ks)


def wiener(t: Tree) -> int:
    """Sum of pairwise distances: SW_2, whose weights are a * (n - a)."""
    return _tree_sums(t, (2,))[0]


def _check_k(t: Tree, k: int) -> None:
    if not 1 <= k <= t.n:
        raise ValueError(f"k={k} out of range 1..{t.n}")


def sw_k(t: Tree, k: int) -> int:
    """Steiner k-Wiener index by edge contribution."""
    _check_k(t, k)
    return _tree_sums(t, (k,))[0]


def sw_profile(t: Tree) -> tuple[int, ...]:
    """(SW_1, ..., SW_n) in one pass over the edge side sizes."""
    return _tree_sums(t, range(1, t.n + 1))
