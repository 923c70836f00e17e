"""Exact Steiner distances and the Steiner k-Wiener index.

Two independent routes are kept on purpose: the edge-contribution formula
(`sw_k`, `sw_profile` and `wiener`) and literal summation over all k-subsets
(`sw_k_bruteforce`, the cross-check, guarded to small orders).  An edge lies
in the minimal subtree spanning a set S exactly when S meets both sides of
the edge, so with side sizes a and n-a the edge is counted by
w_{n,k}[a] = C(n,k) - C(a,k) - C(n-a,k) sets, and SW_k is the sum of these
weights over the edges; the side sizes come from the same one-pass reader
(``trees._read``) that gives the segment sequence.  The weights depend only
on (n, k): each row w_{n,k}[0..n] is computed once and kept in a cache of
at most 1024 rows, so the cache holds at most 1024 * (n + 1) integers of at
most 128 bits for the largest order n evaluated.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .exact import binomial, checked
from .trees import Tree, _read_built

BRUTE_FORCE_MAX_N = 20


class EmptySetError(ValueError):
    """Steiner distance of the empty set is undefined."""


def steiner_distance(t: Tree, subset: Iterable[int]) -> int:
    """Edge count of the minimal subtree of *t* spanning *subset*.

    Computed by iteratively pruning leaves that are not in the set; what
    remains is exactly the spanning subtree.  A singleton has distance 0.
    """
    wanted = set(subset)
    if not wanted:
        raise EmptySetError("steiner distance needs at least one vertex")
    for v in wanted:
        if not (0 <= v < t.n):
            raise ValueError(f"vertex {v} out of range")
    deg = [t.degree(v) for v in range(t.n)]
    alive = t.n
    stack = [v for v in range(t.n) if deg[v] == 1 and v not in wanted]
    while stack:
        v = stack.pop()
        deg[v] = 0
        alive -= 1
        for w in t.adj[v]:
            if deg[w] > 0:
                deg[w] -= 1
                if deg[w] == 1 and w not in wanted:
                    stack.append(w)
    return alive - 1


@lru_cache(maxsize=1024)
def _weights(n: int, k: int) -> tuple[int, ...]:
    """w[a] = C(n,k) - C(a,k) - C(n-a,k) for a = 0..n.  C(a,k) <= C(n,k),
    so a row raises CountOverflowError exactly when C(n,k) leaves i128."""
    total = binomial(n, k)
    low = [binomial(a, k) for a in range(n + 1)]
    return tuple(total - low[a] - low[n - a] for a in range(n + 1))


def _index_sums(n: int, sides: Sequence[int], ks: Iterable[int]) -> tuple[int, ...]:
    """SW_k for each k in *ks* (unchecked, 1 <= k <= n) of the tree of order
    *n* with these edge side sizes: one weight row summed over them per k."""
    rows = (_weights(n, k) for k in ks)
    return tuple(checked(sum(w[a] for a in sides)) for w in rows)


def _tree_sums(t: Tree, ks: Iterable[int]) -> tuple[int, ...]:
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


def sw_k_bruteforce(t: Tree, k: int) -> int:
    """Literal sum of Steiner distances over all k-subsets (test oracle)."""
    _check_k(t, k)
    if t.n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force is guarded to n <= {BRUTE_FORCE_MAX_N}")
    return checked(sum(steiner_distance(t, s) for s in combinations(range(t.n), k)))


def sw_profile(t: Tree) -> tuple[int, ...]:
    """(SW_1, ..., SW_n) in one pass over the edge side sizes."""
    return _tree_sums(t, range(1, t.n + 1))
