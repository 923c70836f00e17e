"""Constructors for the extremal tree families.

The caterpillar families i..iv come with a published backbone-length formula
that disagrees with the order accounting n = (t + 1) + #pendant edges by one
(consistently, for every family).  The constructor trusts the accounting,
builds an order-n tree, and records both values in the result metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .trees import Tree, segment_sequence


class UnrealizableError(ValueError):
    """No tree exists with the requested segment data."""


class JointWithoutPendantError(ValueError):
    """An interior backbone joint without a pendant would merge segments."""


class InvalidIndexError(ValueError):
    """A pendant was requested at a non-joint position."""


class ParityMismatchError(ValueError):
    """Segment count has the wrong parity (or is too small) for the family."""


class InconsistentOrderError(ValueError):
    """No caterpillar of this order realizes the family's degree pattern."""


def normalize_segment_lengths(lengths: Iterable[int]) -> tuple[int, ...]:
    out = tuple(sorted((int(x) for x in lengths), reverse=True))
    if not out:
        raise UnrealizableError("segment sequence must be non-empty")
    if out[-1] < 1:
        raise UnrealizableError("segment lengths must be positive")
    return out


def starlike(lengths: Iterable[int]) -> Tree:
    """The unique starlike tree with the given segment lengths.

    One centre of degree m carries pendant paths of the given lengths; m = 1
    yields the path.  m = 2 is unrealizable (the two segments would merge).
    """
    lens = normalize_segment_lengths(lengths)
    m = len(lens)
    if m == 2:
        raise UnrealizableError("no tree has exactly two segments")
    edges = []
    nxt = 1
    for length in lens:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Tree.from_edges(edges, n=nxt)


def balanced_starlike(n: int, m: int) -> Tree:
    """Starlike tree of order n whose m segment lengths differ by at most 1."""
    if n < 2:
        raise UnrealizableError("order must be at least 2")
    if m == 2 or m < 1 or m > n - 1:
        raise UnrealizableError(f"no tree of order {n} has {m} segments")
    long_legs = (n - 1) % m
    base = (n - 1) // m
    return starlike([base + 1] * long_legs + [base] * (m - long_legs))


def quasi_caterpillar(
    backbone_lengths: Sequence[int],
    pendants: Iterable[tuple[int, int]],
) -> Tree:
    """Quasi-caterpillar with backbone segment lengths r_1..r_k and pendant
    segments given as (joint index, length) pairs, joints numbered 1..k-1.

    Every interior joint needs at least one pendant, otherwise it would have
    degree 2 and the adjacent backbone segments would merge.
    """
    r = [int(x) for x in backbone_lengths]
    if not r or min(r) < 1:
        raise UnrealizableError("backbone segment lengths must be positive")
    k = len(r)
    pend = [(int(i), int(length)) for i, length in pendants]
    for i, length in pend:
        if not 1 <= i <= k - 1:
            raise InvalidIndexError(f"joint index {i} not in 1..{k - 1}")
        if length < 1:
            raise UnrealizableError("pendant lengths must be positive")
    joints_used = {i for i, _ in pend}
    missing = [i for i in range(1, k) if i not in joints_used]
    if missing:
        raise JointWithoutPendantError(f"joints {missing} have no pendant segment")
    total = sum(r)
    edges = [(i, i + 1) for i in range(total)]
    cum = [0]
    for x in r:
        cum.append(cum[-1] + x)
    nxt = total + 1
    for i, length in pend:
        prev = cum[i]
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    tree = Tree.from_edges(edges, n=nxt)
    wanted = tuple(sorted(r + [length for _, length in pend], reverse=True))
    if segment_sequence(tree) != wanted:
        raise UnrealizableError("constructed tree does not re-decompose to the requested segments")
    return tree


FAMILY_LABELS = ("i", "ii", "iii", "iv")


@dataclass(frozen=True)
class CaterpillarFamilyParams:
    """Construction data for one of the caterpillar families i..iv."""

    n: int
    m: int
    which: str
    t: int  # backbone edge count from the published formula
    degree_pattern: tuple[int, ...]  # intended degrees of v_1 .. v_{t_used - 1}


@dataclass(frozen=True)
class FamilyBuild:
    tree: Tree
    params: CaterpillarFamilyParams
    t_used: int
    t_adjusted: bool

    @property
    def note(self) -> str:
        if not self.t_adjusted:
            return ""
        return (
            f"family {self.params.which}: published backbone formula gives "
            f"t={self.params.t}, order accounting gives t={self.t_used}"
        )


def _family_blocks(m: int, which: str) -> tuple[int, int, int]:
    """(pendant edge count, prefix degree-3 run, suffix degree-3 run)."""
    if which == "i":
        if m % 2 == 0 or m < 7:
            raise ParityMismatchError("family i needs an odd segment count m >= 7")
        a, b = (m - 7) // 4, (m - 7 + 3) // 4
        return 4 + a + b, a, b
    if which == "ii":
        if m % 2 == 0:
            raise ParityMismatchError("family ii needs an odd segment count")
        a, b = (m - 1) // 4, (m - 1 + 3) // 4
        return a + b, a, b
    if which == "iii":
        if m % 4 != 0 or m < 8:
            raise ParityMismatchError("family iii needs m = 0 (mod 4), m >= 8")
        a, b = m // 4 - 2, m // 4
        return 2 + a + b, a, b
    if which == "iv":
        if m % 4 != 2 or m < 6:
            raise ParityMismatchError("family iv needs m = 2 (mod 4), m >= 6")
        a, b = (m - 6) // 4, (m - 2) // 4
        return 2 + a + b, a, b
    raise ValueError(f"unknown family {which!r}; expected one of {FAMILY_LABELS}")


def caterpillar_family(n: int, m: int, which: str) -> FamilyBuild:
    """Caterpillar of order n with m segments following family *which*.

    Degree assignments along the internal path: family i puts degree 4 at
    v_1 and v_{t-1} with balanced degree-3 blocks next to them; family ii is
    all degree 3 in two balanced end blocks; families iii/iv put a single
    degree 4 at v_1.  All pendant segments have length 1.
    """
    if which not in FAMILY_LABELS:
        raise ValueError(f"unknown family {which!r}; expected one of {FAMILY_LABELS}")
    if m < 1 or m == 2 or m > n - 1:
        raise UnrealizableError(f"no tree of order {n} has {m} segments")
    pendant_edges, pre3, suf3 = _family_blocks(m, which)
    t_used = n - 1 - pendant_edges
    t_paper = {
        "i": (2 * n - m - 1) // 2,
        "ii": (2 * n - m + 1) // 2,
        "iii": (2 * n - m) // 2,
        "iv": (2 * n - m) // 2,
    }[which]

    # degree map over internal positions 1..t_used-1
    degree_at: dict[int, int] = {}

    def put(pos: int, deg: int) -> None:
        if not 1 <= pos <= t_used - 1 or pos in degree_at:
            raise InconsistentOrderError(
                f"family {which} with n={n}, m={m} does not fit a backbone of {t_used} edges"
            )
        degree_at[pos] = deg

    if t_used < 1 or (pendant_edges > 0 and t_used < 2):
        raise InconsistentOrderError(f"family {which} with n={n}, m={m} leaves no room for a backbone")
    if which == "i":
        put(1, 4)
        put(t_used - 1, 4)
        for idx in range(pre3):
            put(2 + idx, 3)
        for idx in range(suf3):
            put(t_used - 2 - idx, 3)
    elif which == "ii":
        for idx in range(pre3):
            put(1 + idx, 3)
        for idx in range(suf3):
            put(t_used - 1 - idx, 3)
    else:
        put(1, 4)
        for idx in range(pre3):
            put(2 + idx, 3)
        for idx in range(suf3):
            put(t_used - 1 - idx, 3)

    edges = [(i, i + 1) for i in range(t_used)]
    nxt = t_used + 1
    for pos in sorted(degree_at):
        for _ in range(degree_at[pos] - 2):
            edges.append((pos, nxt))
            nxt += 1
    tree = Tree.from_edges(edges, n=nxt)
    if tree.n != n:
        raise InconsistentOrderError(f"family {which} construction yields order {tree.n}, wanted {n}")
    seq = segment_sequence(tree) if n >= 2 else ()
    if len(seq) != m:
        raise InconsistentOrderError(
            f"family {which} construction yields {len(seq)} segments, wanted {m}"
        )
    pattern = tuple(degree_at.get(pos, 2) for pos in range(1, t_used))
    params = CaterpillarFamilyParams(n=n, m=m, which=which, t=t_paper, degree_pattern=pattern)
    return FamilyBuild(tree=tree, params=params, t_used=t_used, t_adjusted=t_used != t_paper)
