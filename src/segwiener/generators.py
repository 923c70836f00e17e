"""Constructors for the extremal tree families.

Every construction is a spine 0..t with pendant paths hung at chosen spine
vertices.  A caterpillar family i..iv hangs unit pendants so that the
internal spine vertices v_1 .. v_{t-1} get the degrees head + (2,)*gap +
tail, where the degree runs depend only on the segment count m:

    family  m               head                    tail
    i       odd, >= 7       (4,) + (3,)*((m-7)//4)  (3,)*((m-4)//4) + (4,)
    ii      odd             (3,)*((m-1)//4)         (3,)*((m+2)//4)
    iii     = 0 mod 4, >= 8 (4,) + (3,)*(m//4-2)    (3,)*(m//4)
    iv      = 2 mod 4, >= 6 (4,) + (3,)*((m-6)//4)  (3,)*((m-2)//4)

The order then fixes t = n - 1 - sum(d - 2) and the gap of degree-2
vertices.  The published backbone-length formula disagrees with this order
accounting by one (consistently, for every family).  The constructor trusts
the accounting, builds an order-n tree, and records both values in the
result metadata.  `verify` sums a family tree as one more row of its (n, m)
class and matches it by value; the tests keep the lookup of its canonical
code among the tied trees as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

from .trees import Tree


class UnrealizableError(ValueError):
    """No tree exists with the requested segment data."""


class JointWithoutPendantError(ValueError):
    """An interior backbone joint without a pendant would merge segments."""


class InvalidIndexError(ValueError):
    """A pendant was requested at a non-joint position."""


class ParityMismatchError(ValueError):
    """Segment count has the wrong parity (or is too small) for the family."""


def normalize_segment_lengths(lengths: Iterable[int]) -> tuple[int, ...]:
    """*lengths* in non-increasing order, checked to be the segment sequence
    of some tree: non-empty, positive, and not of exactly two parts."""
    out = tuple(sorted((int(x) for x in lengths), reverse=True))
    if not out:
        raise UnrealizableError("segment sequence must be non-empty")
    if out[-1] < 1:
        raise UnrealizableError("segment lengths must be positive")
    if len(out) == 2:
        raise UnrealizableError("no tree has exactly two segments")
    return out


def _hang(spine: int, pendants: Iterable[tuple[int, int]]) -> Tree:
    """The path 0..spine with a pendant path of each (spine vertex, length)
    hung in turn; new vertices are numbered in order from spine + 1."""
    edges = [(i, i + 1) for i in range(spine)]
    nxt = spine + 1
    for prev, length in pendants:
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Tree.from_edges(edges, n=nxt)


def starlike(lengths: Iterable[int]) -> Tree:
    """The unique starlike tree with the given segment lengths.

    One centre of degree m carries pendant paths of the given lengths; m = 1
    yields the path.  m = 2 is unrealizable (the two segments would merge).
    """
    return _hang(0, ((0, length) for length in normalize_segment_lengths(lengths)))


def _balanced_legs(n: int, m: int) -> list[int]:
    """The m segment lengths, non-increasing and differing by at most 1, of
    the balanced starlike tree of order n."""
    if n < 2:
        raise UnrealizableError("order must be at least 2")
    if m == 2 or m < 1 or m > n - 1:
        raise UnrealizableError(f"no tree of order {n} has {m} segments")
    long_legs = (n - 1) % m
    base = (n - 1) // m
    return [base + 1] * long_legs + [base] * (m - long_legs)


def balanced_starlike(n: int, m: int) -> Tree:
    """Starlike tree of order n whose m segment lengths differ by at most 1
    (`_balanced_legs`)."""
    return starlike(_balanced_legs(n, m))


def quasi_caterpillar(
    backbone_lengths: Sequence[int],
    pendants: Iterable[tuple[int, int]],
) -> Tree:
    """Quasi-caterpillar with backbone segment lengths r_1..r_k and pendant
    segments given as (joint index, length) pairs, joints numbered 1..k-1.

    Every interior joint needs at least one pendant, otherwise it would have
    degree 2 and the adjacent backbone segments would merge; with one at
    each, the tree decomposes into exactly the requested lengths.
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
    cum = list(accumulate(r, initial=0))
    return _hang(cum[-1], ((cum[i], length) for i, length in pend))


FAMILY_LABELS = ("i", "ii", "iii", "iv")
# the published backbone edge count is t = (2n - m + offset) // 2
_T_FORMULA_OFFSET = {"i": -1, "ii": 1, "iii": 0, "iv": 0}


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
        return (
            f"family {self.params.which}: published backbone formula gives "
            f"t={self.params.t}, order accounting gives t={self.t_used}"
        )


def _degree_runs(m: int, which: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Degrees of the internal spine vertices from v_1 on (head) and up to
    v_{t-1} (tail) for family *which* with m segments."""
    if which == "i":
        if m % 2 == 0 or m < 7:
            raise ParityMismatchError("family i needs an odd segment count m >= 7")
        return (4,) + (3,) * ((m - 7) // 4), (3,) * ((m - 4) // 4) + (4,)
    if which == "ii":
        if m % 2 == 0:
            raise ParityMismatchError("family ii needs an odd segment count")
        return (3,) * ((m - 1) // 4), (3,) * ((m + 2) // 4)
    if which == "iii":
        if m % 4 != 0 or m < 8:
            raise ParityMismatchError("family iii needs m = 0 (mod 4), m >= 8")
        return (4,) + (3,) * (m // 4 - 2), (3,) * (m // 4)
    if m % 4 != 2 or m < 6:
        raise ParityMismatchError("family iv needs m = 2 (mod 4), m >= 6")
    return (4,) + (3,) * ((m - 6) // 4), (3,) * ((m - 2) // 4)


def caterpillar_family(n: int, m: int, which: str) -> FamilyBuild:
    """Caterpillar of order n with m segments following family *which*:
    unit pendants hung so that v_1 .. v_{t-1} have the degrees
    head + (2,)*gap + tail of the family's degree runs.  Their B branch
    vertices carry P unit pendants with B + 1 + P = m, so gap = n - m - 1
    >= 0 and the tree has exactly m segments."""
    if which not in FAMILY_LABELS:
        raise ValueError(f"unknown family {which!r}; expected one of {FAMILY_LABELS}")
    if m < 1 or m == 2 or m > n - 1:
        raise UnrealizableError(f"no tree of order {n} has {m} segments")
    head, tail = _degree_runs(m, which)
    t_used = n - 1 - sum(d - 2 for d in head + tail)
    t_paper = (2 * n - m + _T_FORMULA_OFFSET[which]) // 2
    pattern = head + (2,) * (n - m - 1) + tail
    tree = _hang(t_used, ((pos, 1) for pos, d in enumerate(pattern, 1) for _ in range(d - 2)))
    params = CaterpillarFamilyParams(n=n, m=m, which=which, t=t_paper, degree_pattern=pattern)
    return FamilyBuild(tree=tree, params=params, t_used=t_used, t_adjusted=t_used != t_paper)
