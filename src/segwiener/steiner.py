"""Exact Steiner distances and the Steiner k-Wiener index.

Two independent routes are kept on purpose: the edge-contribution formula
(`sw_k`, the default) and literal summation over all k-subsets
(`sw_k_bruteforce`, the cross-check, guarded to small orders).  An edge lies
in the minimal subtree spanning a set S exactly when S meets both sides of
the edge, so with side sizes a and n-a the edge is counted by
C(n,k) - C(a,k) - C(n-a,k) sets.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .exact import binomial, checked
from .trees import Tree

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


def _edge_side_sizes(t: Tree) -> list[int]:
    """For every edge, the vertex count of one fixed side (the child side
    when rooted at vertex 0)."""
    if t.n == 1:
        return []
    parent = [-1] * t.n
    parent[0] = 0
    order = [0]
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for w in t.adj[v]:
            if parent[w] < 0:
                parent[w] = v
                order.append(w)
    size = [1] * t.n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    return [size[v] for v in order[1:]]


def wiener(t: Tree) -> int:
    """Sum of pairwise distances, via edge contributions a * (n - a)."""
    n = t.n
    return checked(sum(a * (n - a) for a in _edge_side_sizes(t)))


def _check_k(t: Tree, k: int) -> None:
    if not 1 <= k <= t.n:
        raise ValueError(f"k={k} out of range 1..{t.n}")


def _edge_contributions(n: int, sides: list[int], k: int) -> int:
    """Sum over edges with side sizes a, n - a of C(n,k) - C(a,k) - C(n-a,k)."""
    total_sets = binomial(n, k)
    total = 0
    for a in sides:
        total += total_sets - binomial(a, k) - binomial(n - a, k)
    return checked(total)


def sw_k(t: Tree, k: int) -> int:
    """Steiner k-Wiener index by edge contribution."""
    _check_k(t, k)
    return _edge_contributions(t.n, _edge_side_sizes(t), k)


def sw_k_bruteforce(t: Tree, k: int) -> int:
    """Literal sum of Steiner distances over all k-subsets (test oracle)."""
    _check_k(t, k)
    if t.n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force is guarded to n <= {BRUTE_FORCE_MAX_N}")
    return checked(sum(steiner_distance(t, s) for s in combinations(range(t.n), k)))


def sw_profile(t: Tree) -> tuple[int, ...]:
    """(SW_1, ..., SW_n) in one pass over the edge side sizes."""
    sides = _edge_side_sizes(t)
    return tuple(_edge_contributions(t.n, sides, k) for k in range(1, t.n + 1))
