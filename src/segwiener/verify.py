"""Exhaustive desk-scale verification of the extremal claims.

Every verifier enumerates a full instance class (all trees with a given
segment sequence, or with a given order and segment count), computes the
exact index for each tree, and compares the true extremum with the claimed
extremal construction.  Results are reproducible bit for bit: enumeration
order, tie-breaks and report ordering are all deterministic.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Sequence

from .enumeration import MAX_ORDER, all_trees, segment_sequences_of_order
from .generators import (
    FAMILY_LABELS,
    ParityMismatchError,
    InconsistentOrderError,
    UnrealizableError,
    balanced_starlike,
    caterpillar_family,
    starlike,
)
from .moves import Switch, apply_switch
from .steiner import sw_profile
from .trees import (
    Tree,
    all_backbones,
    backbone_view,
    canonical_code,
    is_quasi_caterpillar,
    segment_sequence,
)

CONFIRMED = "confirmed"
CONFIRMED_WITH_NOTES = "confirmed-with-notes"
VIOLATED = "violated"


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    instance: dict
    extremal_value: int | None
    arg_trees: tuple[str, ...]
    predicate_outcomes: dict[str, dict[str, bool]] | None
    verdict: str
    notes: str


def report_to_dict(r: VerificationReport) -> dict:
    return {
        "theorem": r.theorem,
        "instance": r.instance,
        "extremal_value": None if r.extremal_value is None else str(r.extremal_value),
        "arg_trees": list(r.arg_trees),
        "predicate_outcomes": r.predicate_outcomes,
        "verdict": r.verdict,
        "notes": r.notes,
    }


def reports_to_json(reports: Iterable[VerificationReport]) -> str:
    return json.dumps([report_to_dict(r) for r in reports], indent=2) + "\n"


def any_violated(reports: Iterable[VerificationReport]) -> bool:
    return any(r.verdict == VIOLATED for r in reports)


# ---------------------------------------------------------------------------
# structure predicates (quasi-caterpillar shape of a maximizer)

@dataclass(frozen=True)
class StructurePredicateSet:
    is_quasi_caterpillar: bool
    max_degree_le4: bool
    degree4_only_at_ends: bool
    backbone_unimodal: bool
    pendants_anti_unimodal: bool

    def as_dict(self) -> dict[str, bool]:
        return asdict(self)


def is_unimodal(seq: Sequence[int]) -> bool:
    """Weakly rises, then weakly falls."""
    falling = False
    for a, b in zip(seq, seq[1:]):
        if b < a:
            falling = True
        elif b > a and falling:
            return False
    return True


def groups_admit_valley(groups: Sequence[Sequence[int]]) -> bool:
    """Can the group values be ordered, freely within each group, into a
    weakly falling then weakly rising sequence?

    Greedy state machine over groups: in the falling phase a larger last
    value is strictly more permissive, in the rising phase a smaller one is,
    so one best state per phase suffices.
    """
    INF = float("inf")
    best_down: float | None = INF  # largest achievable last value, still falling
    best_up: float | None = None  # smallest achievable last value, already rising
    for group in groups:
        if not group:
            continue
        desc = sorted(group, reverse=True)
        hi, lo = desc[0], desc[-1]
        new_down = lo if (best_down is not None and hi <= best_down) else None
        up_candidates = []
        if best_down is not None:
            up_candidates.append(lo if hi <= best_down else hi)
        if best_up is not None and lo >= best_up:
            up_candidates.append(hi)
        new_up = min(up_candidates) if up_candidates else None
        best_down, best_up = new_down, new_up
        if best_down is None and best_up is None:
            return False
    return True


def _predicates_for_path(t: Tree, path: tuple[int, ...]) -> tuple[bool, bool, bool]:
    view = backbone_view(t, path)
    degree4 = [v for v in range(t.n) if t.degree(v) == 4]
    if view.branch_indices:
        allowed = {path[view.branch_indices[0]], path[view.branch_indices[-1]]}
    else:
        allowed = set()
    d4_ends = all(v in allowed for v in degree4)
    return (
        d4_ends,
        is_unimodal(view.backbone_segment_lengths),
        groups_admit_valley(view.pendant_groups),
    )


def structure_assessment(t: Tree) -> tuple[StructurePredicateSet, bool]:
    """Per-predicate outcomes (each an 'exists a backbone' check) plus
    whether a single backbone satisfies all of them at once."""
    qc = is_quasi_caterpillar(t)
    max_deg = max((t.degree(v) for v in range(t.n)), default=0)
    le4 = max_deg <= 4
    if not qc:
        preds = StructurePredicateSet(False, le4, False, False, False)
        return preds, False
    any_d4 = any_uni = any_valley = all_at_once = False
    for cand in all_backbones(t):
        d4, uni, valley = _predicates_for_path(t, cand)
        any_d4 = any_d4 or d4
        any_uni = any_uni or uni
        any_valley = any_valley or valley
        all_at_once = all_at_once or (d4 and uni and valley)
    preds = StructurePredicateSet(True, le4, any_d4, any_uni, any_valley)
    return preds, le4 and all_at_once


def is_unit_pendant_caterpillar(t: Tree) -> bool:
    """Caterpillar: no vertex has more than two non-leaf neighbours.

    Equivalently, a quasi-caterpillar whose off-backbone segments all have
    length 1."""
    adj = t.adj
    return all(sum(len(adj[w]) > 1 for w in adj[v]) <= 2 for v in range(t.n))


# ---------------------------------------------------------------------------
# exhaustive instance classes

Entry = tuple[str, Tree]
# per-k check of one class: argmin/argmax entries -> (predicate outcomes,
# verdict, notes after the class size)
Check = Callable[[list[Entry]], tuple[dict | None, str, list[str]]]


def _ks_for(n: int, k_set: Sequence[int]) -> list[int]:
    return [k for k in sorted(set(k_set)) if 1 <= k <= n]


def _code(t: Tree) -> str:
    return canonical_code(t).decode("ascii")


def _classes(n: int, by_count: bool) -> list[tuple[dict, list[Tree]]]:
    """Instance classes of order *n* with their instance fields: one per
    segment sequence (in `segment_sequences_of_order` order) or one per
    segment count (ascending).  Trees are in enumeration order."""
    buckets: dict[object, list[Tree]] = {}
    for t in all_trees(n):
        seq = segment_sequence(t)
        buckets.setdefault(len(seq) if by_count else seq, []).append(t)
    if by_count:
        return [({"n": n, "m": m}, buckets[m]) for m in sorted(buckets)]
    return [({"n": n, "segments": list(seq)}, buckets[seq]) for seq in segment_sequences_of_order(n)]


def _verify(
    theorem: str,
    max_n: int,
    k_set: Sequence[int],
    by_count: bool,
    want_max: bool,
    judge: Callable[[dict], Check],
) -> list[VerificationReport]:
    """Enumerate every class of order 2..max_n, evaluate the index profile
    of each tree once, and let *judge*'s check rule, for each k, on the
    extremal trees sorted by canonical code.

    A run that yields no instance checked nothing and raises ValueError."""
    if max_n > MAX_ORDER:
        raise ValueError(f"verification is guarded to max_n <= {MAX_ORDER}")
    pick = max if want_max else min
    reports = []
    for n in range(2, max_n + 1):
        ks = _ks_for(n, k_set)
        if not ks:
            continue
        for fields, trees in _classes(n, by_count):
            check = judge(fields)
            profiles = [sw_profile(t) for t in trees]
            for k in ks:
                best = pick(p[k - 1] for p in profiles)
                arg = [(_code(t), t) for t, p in zip(trees, profiles) if p[k - 1] == best]
                arg.sort(key=lambda e: e[0])
                outcomes, verdict, notes = check(arg)
                reports.append(
                    VerificationReport(
                        theorem=theorem,
                        instance={**fields, "k": k},
                        extremal_value=best,
                        arg_trees=tuple(code for code, _ in arg),
                        predicate_outcomes=outcomes,
                        verdict=verdict,
                        notes="; ".join([f"class size {len(trees)}", *notes]),
                    )
                )
    if not reports:
        raise ValueError(f"verify {theorem}: no instance with 2 <= n <= {max_n} and k in {sorted(set(k_set))}")
    return reports


def _attains(t: Tree) -> Check:
    """Check: *t* is among the extremal trees."""
    code = _code(t)
    return lambda arg: (None, CONFIRMED if any(c == code for c, _ in arg) else VIOLATED, [])


def _quasi_caterpillar_check(arg: list[Entry]) -> tuple[dict, str, list[str]]:
    outcomes = {code: {"is_quasi_caterpillar": is_quasi_caterpillar(tree)} for code, tree in arg}
    flags = [v["is_quasi_caterpillar"] for v in outcomes.values()]
    return outcomes, CONFIRMED if any(flags) else VIOLATED, [f"all_argmax_quasi_caterpillar={all(flags)}"]


def _structure_check(arg: list[Entry]) -> tuple[dict | None, str, list[str]]:
    outcomes = {}
    ok = True
    for code, tree in arg:
        if not is_quasi_caterpillar(tree):
            continue
        preds, all_at_once = structure_assessment(tree)
        outcomes[code] = preds.as_dict()
        ok = ok and all_at_once
    notes = [] if outcomes else ["no quasi-caterpillar maximizer (see theorem2)"]
    return outcomes or None, CONFIRMED if ok else VIOLATED, notes


def _family_check(n: int, m: int) -> Check:
    """Check: some maximizer is a unit-pendant caterpillar and, when a named
    family is defined for (n, m), one of them is among the maximizers; which
    of them are goes to the notes."""
    family_codes: dict[str, tuple[str, str]] = {}
    for which in FAMILY_LABELS:
        try:
            build = caterpillar_family(n, m, which)
        except (ParityMismatchError, InconsistentOrderError, UnrealizableError):
            continue
        family_codes[which] = (_code(build.tree), f"t_used={build.t_used}, t_formula={build.params.t}")

    def check(arg: list[Entry]) -> tuple[dict, str, list[str]]:
        outcomes = {code: {"caterpillar_unit_pendants": is_unit_pendant_caterpillar(tree)} for code, tree in arg}
        exists_cat = any(v["caterpillar_unit_pendants"] for v in outcomes.values())
        matches = sorted(which for which, (fcode, _) in family_codes.items() if fcode in outcomes)
        if matches:
            note = "matches family " + ", ".join(f"{w} ({family_codes[w][1]})" for w in matches)
        else:
            note = "no family construction matches the maximizer"
        ok = exists_cat and (matches or not family_codes)
        return outcomes, CONFIRMED_WITH_NOTES if ok else VIOLATED, [note]

    return check


def verify_min_starlike(max_n: int, k_set: Sequence[int]) -> list[VerificationReport]:
    """For every segment sequence of order <= max_n and every k: the starlike
    tree attains the minimum of the index over its class."""
    return _verify("theorem1", max_n, k_set, by_count=False, want_max=False,
                   judge=lambda c: _attains(starlike(c["segments"])))


def verify_max_quasi_caterpillar(max_n: int, k_set: Sequence[int]) -> list[VerificationReport]:
    """For every (sequence, k): some maximizer is a quasi-caterpillar.  The
    universal variant (all maximizers) is reported as supplementary data."""
    return _verify("theorem2", max_n, k_set, by_count=False, want_max=True,
                   judge=lambda c: _quasi_caterpillar_check)


def verify_structure(max_n: int, k_set: Sequence[int]) -> list[VerificationReport]:
    """Every quasi-caterpillar maximizer satisfies the degree, backbone
    unimodality and pendant anti-unimodality constraints under some backbone."""
    return _verify("structure", max_n, k_set, by_count=False, want_max=True,
                   judge=lambda c: _structure_check)


def verify_min_balanced(max_n: int, k_set: Sequence[int]) -> list[VerificationReport]:
    """For every order and segment count: the balanced starlike tree attains
    the minimum of the index."""
    return _verify("theorem5min", max_n, k_set, by_count=True, want_max=False,
                   judge=lambda c: _attains(balanced_starlike(c["n"], c["m"])))


def verify_max_caterpillar_family(max_n: int, k_set: Sequence[int]) -> list[VerificationReport]:
    """For every order and segment count: some maximizer is a caterpillar
    with unit pendant segments, and it is matched against the four named
    families (backbone length taken from order accounting; the published
    formula value is recorded in the notes)."""
    return _verify("theorem5max", max_n, k_set, by_count=True, want_max=True,
                   judge=lambda c: _family_check(c["n"], c["m"]))


# ---------------------------------------------------------------------------
# randomized switch instances (strict-inequality lemma)

def _attach(edges: list[tuple[int, int]], anchor: int, shape: Sequence[int], next_id: int) -> int:
    """Hang at *anchor* the tree on ids next_id, next_id + 1, ... whose
    vertex i > 0 is a child of vertex shape[i] < i; returns the next free id."""
    edges.append((anchor, next_id))
    edges.extend((next_id + shape[i], next_id + i) for i in range(1, len(shape)))
    return next_id + len(shape)


def random_switch_instance(
    rng: random.Random, relation: str = "strict"
) -> tuple[Tree, Switch]:
    """A random tree plus a valid switch descriptor on it.

    relation='strict' sizes the components so |X| > |Y| and |A| > |B|;
    'mirrored' flips the X/Y inequality; 'equal' makes A and B identically
    shaped (so the switch maps the tree to an isomorphic copy).
    """
    if relation not in ("strict", "mirrored", "equal"):
        raise ValueError("relation must be 'strict', 'mirrored' or 'equal'")
    s = rng.randint(1, 3)
    size_b = rng.randint(1, 3)
    size_a = size_b + rng.randint(1, 3)
    y_extra = rng.randint(1, 3)
    x_extra = y_extra + rng.randint(1, 3)
    if relation == "mirrored":
        x_extra, y_extra = y_extra, x_extra

    def shape(size: int) -> list[int]:
        return [0] + [rng.randrange(i) for i in range(1, size)]

    edges = [(i, i + 1) for i in range(s)]
    w0, ws = 0, s
    # the shapes are drawn in the order A, B, X, Y, which fixes the seeded instances
    a_shape = shape(size_a)
    a_root = s + 1
    b_root = _attach(edges, w0, a_shape, a_root)
    next_id = _attach(edges, ws, a_shape if relation == "equal" else shape(size_b), b_root)
    next_id = _attach(edges, w0, shape(x_extra), next_id)
    next_id = _attach(edges, ws, shape(y_extra), next_id)
    tree = Tree.from_edges(edges, n=next_id)
    return tree, Switch(w0=w0, ws=ws, a_root=a_root, b_root=b_root)


def verify_lemma31(samples: int, seed: int, k_set: Sequence[int]) -> VerificationReport:
    """Seeded random switch instances with |X| > |Y| and |A| > |B| must all
    strictly increase the index."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    violations = 0
    checked = 0
    for _ in range(samples):
        tree, move = random_switch_instance(rng, relation="strict")
        for k in _ks_for(tree.n, k_set):
            checked += 1
            if apply_switch(tree, move, k).delta <= 0:
                violations += 1
    if checked == 0:
        raise ValueError(f"verify lemma31: no k in {sorted(set(k_set))} fits any sampled tree")
    return VerificationReport(
        theorem="lemma31",
        instance={"samples": samples, "seed": seed, "k": sorted(set(k_set))},
        extremal_value=None,
        arg_trees=(),
        predicate_outcomes=None,
        verdict=CONFIRMED if violations == 0 else VIOLATED,
        notes=f"{checked} switch applications, {violations} non-positive deltas",
    )
