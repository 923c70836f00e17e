"""Exhaustive desk-scale verification of the extremal claims.

Every verifier enumerates a full instance class (all trees with a given
segment sequence, or with a given order and segment count), computes the
exact index for each tree, and compares the true extremum with the claimed
extremal construction.  Results are reproducible bit for bit: enumeration
order, tie-breaks and report ordering are all deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _string
from typing import Callable, Iterable, Sequence

from .enumeration import MAX_ORDER, _level_code, _tree_from_levels, read_trees, segment_sequences_of_order
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
from .steiner import _class_sums
from .trees import NotQuasiCaterpillarError, Tree, _first_backbone, canonical_code, is_quasi_caterpillar

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


_FIELD = "    "  # a report field's indent


def _json(value: object, indent: str) -> str:
    """*value* as ``json.dumps(value, indent=2)`` writes it at *indent*, for
    the report's value types: str, int, bool, None, lists, tuples and dicts
    with str keys."""
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        fields = ",\n".join(f"{inner}{_string(key)}: {_json(item, inner)}" for key, item in value.items())
        return "{\n" + fields + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # a list of plain ints (no bools) in one join
        if all(type(item) is int for item in value):
            items = map(int.__repr__, value)
        else:
            items = (_json(item, inner) for item in value)
        return "[\n" + inner + f",\n{inner}".join(items) + "\n" + indent + "]"
    raise TypeError(f"no report encoding for {type(value).__name__}")


def reports_to_json(reports: Iterable[VerificationReport]) -> str:
    """The reports as a JSON list, byte for byte what
    ``json.dumps(..., indent=2)`` writes for their dicts, plus a newline
    (`extremal_value` as a decimal string).  Reports that share a ruling
    hold the same `arg_trees` and `predicate_outcomes` objects, which are
    encoded once."""
    reports = list(reports)  # alive for the call, so their ids stay unique
    shared: dict[tuple[int, int], str] = {}
    items = []
    for r in reports:
        key = (id(r.arg_trees), id(r.predicate_outcomes))
        block = shared.get(key)
        if block is None:
            block = shared[key] = (
                f'"arg_trees": {_json(r.arg_trees, _FIELD)},\n'
                f'{_FIELD}"predicate_outcomes": {_json(r.predicate_outcomes, _FIELD)}'
            )
        value = None if r.extremal_value is None else str(r.extremal_value)
        items.append(
            f'  {{\n{_FIELD}"theorem": {_string(r.theorem)},\n'
            f'{_FIELD}"instance": {_json(r.instance, _FIELD)},\n'
            f'{_FIELD}"extremal_value": {_json(value, _FIELD)},\n'
            f"{_FIELD}{block},\n"
            f'{_FIELD}"verdict": {_string(r.verdict)},\n'
            f'{_FIELD}"notes": {_string(r.notes)}\n  }}'
        )
    return "[\n" + ",\n".join(items) + "\n]\n" if items else "[]\n"


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
        return dict(vars(self))


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

    Each group can be taken whole, falling or rising: a group astride the
    valley puts its largest value at the end next to its larger neighbour.
    So the groups that can fall from the front must meet those that can
    rise to the back: past the first step where a group's smallest value is
    below the next one's largest, every step must rise."""
    spans = [(min(g), max(g)) for g in groups if g]
    steps = list(zip(spans, spans[1:]))
    turn = next((i for i, ((lo, _), (_, hi)) in enumerate(steps) if lo < hi), len(steps))
    return all(hi <= lo for (_, hi), (lo, _) in steps[turn + 1 :])


def structure_assessment(t: Tree) -> tuple[StructurePredicateSet, bool]:
    """Per-predicate outcomes, read along one backbone, plus whether all of
    them hold at once.

    One read of the series-reduced tree (`trees._first_backbone`) both
    tells a quasi-caterpillar (it raises for any other tree) and gives its
    first backbone candidate, unoriented.  One backbone suffices: every
    candidate is the spine of the series-reduced tree between the same two
    end branch vertices plus a longest leg at each end, so all candidates
    read the same end branch vertices, backbone segment lengths and pendant
    groups up to orientation, and no predicate depends on orientation."""
    le4 = max((t.degree(v) for v in range(t.n)), default=0) <= 4
    try:
        view = _first_backbone(t)
    except NotQuasiCaterpillarError:
        return StructurePredicateSet(False, le4, False, False, False), False
    ends = {view.path[i] for i in view.branch_indices[:1] + view.branch_indices[-1:]}
    d4 = all(t.degree(v) != 4 or v in ends for v in range(t.n))
    uni = is_unimodal(view.backbone_segment_lengths)
    valley = groups_admit_valley(view.pendant_groups)
    return StructurePredicateSet(True, le4, d4, uni, valley), le4 and d4 and uni and valley


def is_unit_pendant_caterpillar(t: Tree) -> bool:
    """Caterpillar: no vertex has more than two non-leaf neighbours.

    Equivalently, a quasi-caterpillar whose off-backbone segments all have
    length 1."""
    adj = t.adj
    return all(sum(len(adj[w]) > 1 for w in adj[v]) <= 2 for v in range(t.n))


# ---------------------------------------------------------------------------
# exhaustive instance classes

# one tree of a class, unbuilt: (level sequence, edge side sizes)
Member = tuple[list[int], list[int]]
# the rule's result for one k: (predicate outcomes, verdict, notes after the
# class size)
Ruling = tuple[dict | None, str, list[str]]


@dataclass(frozen=True)
class _Judge:
    """How the extremal trees of one class are judged: *outcome* reads one
    tree (None: the rule reads codes alone, and no tree is built), and
    *rule* decides one k from the (code, outcome) pairs of all its tied
    trees, sorted by code."""

    outcome: Callable[[Tree], object] | None
    rule: Callable[[list[tuple[str, object]]], Ruling]


def _check_ks(k_set: Sequence[int]) -> None:
    if any(k < 1 for k in k_set):
        raise ValueError(f"k={min(k_set)} is below 1")


def _ks_for(n: int, k_set: Sequence[int]) -> tuple[int, ...]:
    return tuple(k for k in sorted(set(k_set)) if k <= n)


def _code(t: Tree) -> str:
    return canonical_code(t).decode("ascii")


def _classes(n: int, by_count: bool) -> list[tuple[dict, list[Member]]]:
    """Instance classes of order *n* with their instance fields: one per
    segment sequence (in `segment_sequences_of_order` order) or one per
    segment count (ascending).  Members are in enumeration order, each a
    kept copy of its level sequence with its edge side sizes; no tree is
    built here."""
    buckets: dict[object, list[Member]] = {}
    for seq, sides, level in read_trees(n):
        buckets.setdefault(len(seq) if by_count else seq, []).append((level[:], sides))
    if by_count:
        return [({"n": n, "m": m}, buckets[m]) for m in sorted(buckets)]
    return [({"n": n, "segments": list(seq)}, buckets[seq]) for seq in segment_sequences_of_order(n)]


def _verify(
    theorem: str,
    max_n: int,
    k_set: Sequence[int],
    by_count: bool,
    want_max: bool,
    judge: Callable[[dict], _Judge],
) -> list[VerificationReport]:
    """Enumerate every class of order 2..max_n, evaluate the requested
    indices of the whole class at once (`steiner._class_sums`: one packed
    sum per tree over the edge side sizes the enumerator read, then one
    column of values per k), and let *judge*'s rule decide each k on all
    the extremal trees, sorted by canonical code.  Each k's extremum and
    ties are read straight off its column.

    Within a class a tree is coded (off its level sequence) and judged at
    most once, when it first ties on an extremum, and built only for a judge
    whose outcome reads it; a set of tied trees is ruled on once:
    another k with the same ties reuses the codes, the outcomes and the
    ruling.  The memo lives in this call.

    A k below 1, or a run that checks nothing, raises ValueError."""
    if max_n > MAX_ORDER:
        raise ValueError(f"verification is guarded to max_n <= {MAX_ORDER}")
    _check_ks(k_set)
    pick = max if want_max else min
    reports = []
    for n in range(2, max_n + 1):
        ks = _ks_for(n, k_set)
        if not ks:
            continue
        for fields, members in _classes(n, by_count):
            class_judge = judge(fields)
            outcome_of = class_judge.outcome
            columns = _class_sums(n, [sides for _, sides in members], ks)
            judged: dict[int, tuple[str, object]] = {}
            rulings: dict[tuple[int, ...], tuple[tuple[str, ...], dict | None, str, str]] = {}
            size_note = f"class size {len(members)}"
            for k, column in zip(ks, columns):
                best = pick(column)
                ties = tuple([j for j, v in enumerate(column) if v == best])
                ruling = rulings.get(ties)
                if ruling is None:
                    for j in ties:
                        if j not in judged:
                            level = members[j][0]
                            outcome = None if outcome_of is None else outcome_of(_tree_from_levels(level))
                            judged[j] = (_level_code(level).decode("ascii"), outcome)
                    arg = sorted((judged[j] for j in ties), key=lambda e: e[0])
                    outcomes, verdict, notes = class_judge.rule(arg)
                    ruling = rulings[ties] = (
                        tuple(code for code, _ in arg), outcomes, verdict, "; ".join([size_note, *notes])
                    )
                arg_trees, outcomes, verdict, notes = ruling
                reports.append(
                    VerificationReport(
                        theorem=theorem,
                        instance={**fields, "k": k},
                        extremal_value=best,
                        arg_trees=arg_trees,
                        predicate_outcomes=outcomes,
                        verdict=verdict,
                        notes=notes,
                    )
                )
    if not reports:
        raise ValueError(f"verify {theorem}: no instance with 2 <= n <= {max_n} and k in {sorted(set(k_set))}")
    return reports


def _attains(t: Tree) -> _Judge:
    """Judge: *t* is among the extremal trees."""
    code = _code(t)
    return _Judge(None, lambda arg: (None, CONFIRMED if any(c == code for c, _ in arg) else VIOLATED, []))


def _quasi_caterpillar_rule(arg: list[tuple[str, bool]]) -> Ruling:
    flags = [qc for _, qc in arg]
    outcomes = {code: {"is_quasi_caterpillar": qc} for code, qc in arg}
    return outcomes, CONFIRMED if any(flags) else VIOLATED, [f"all_argmax_quasi_caterpillar={all(flags)}"]


def _structure_rule(arg: list[tuple[str, tuple[StructurePredicateSet, bool]]]) -> Ruling:
    outcomes = {}
    ok = True
    for code, (preds, all_at_once) in arg:
        if not preds.is_quasi_caterpillar:
            continue
        outcomes[code] = preds.as_dict()
        ok = ok and all_at_once
    notes = [] if outcomes else ["no quasi-caterpillar maximizer (see theorem2)"]
    return outcomes or None, CONFIRMED if ok else VIOLATED, notes


# the outcomes look their predicate up when called, so that a replaced
# module attribute (a tracer, a counting test) sees every call
_QUASI_CATERPILLAR = _Judge(lambda t: is_quasi_caterpillar(t), _quasi_caterpillar_rule)
_STRUCTURE = _Judge(lambda t: structure_assessment(t), _structure_rule)


def _family_check(n: int, m: int) -> _Judge:
    """Judge: some maximizer is a unit-pendant caterpillar and, when a named
    family is defined for (n, m), one of them is among the maximizers; which
    of them are goes to the notes."""
    family_codes: dict[str, tuple[str, str]] = {}
    for which in FAMILY_LABELS:
        try:
            build = caterpillar_family(n, m, which)
        except (ParityMismatchError, InconsistentOrderError, UnrealizableError):
            continue
        family_codes[which] = (_code(build.tree), f"t_used={build.t_used}, t_formula={build.params.t}")

    def rule(arg: list[tuple[str, bool]]) -> Ruling:
        outcomes = {code: {"caterpillar_unit_pendants": cat} for code, cat in arg}
        exists_cat = any(cat for _, cat in arg)
        matches = sorted(which for which, (fcode, _) in family_codes.items() if fcode in outcomes)
        if matches:
            note = "matches family " + ", ".join(f"{w} ({family_codes[w][1]})" for w in matches)
        else:
            note = "no family construction matches the maximizer"
        ok = exists_cat and (matches or not family_codes)
        return outcomes, CONFIRMED_WITH_NOTES if ok else VIOLATED, [note]

    return _Judge(lambda t: is_unit_pendant_caterpillar(t), rule)


def verify_min_starlike(max_n: int, k_set: Sequence[int]) -> list[VerificationReport]:
    """For every segment sequence of order <= max_n and every k: the starlike
    tree attains the minimum of the index over its class."""
    return _verify("theorem1", max_n, k_set, by_count=False, want_max=False,
                   judge=lambda c: _attains(starlike(c["segments"])))


def verify_max_quasi_caterpillar(max_n: int, k_set: Sequence[int]) -> list[VerificationReport]:
    """For every (sequence, k): some maximizer is a quasi-caterpillar.  The
    universal variant (all maximizers) is reported as supplementary data."""
    return _verify("theorem2", max_n, k_set, by_count=False, want_max=True,
                   judge=lambda c: _QUASI_CATERPILLAR)


def verify_structure(max_n: int, k_set: Sequence[int]) -> list[VerificationReport]:
    """Every quasi-caterpillar maximizer satisfies the degree, backbone
    unimodality and pendant anti-unimodality constraints under some backbone."""
    return _verify("structure", max_n, k_set, by_count=False, want_max=True,
                   judge=lambda c: _STRUCTURE)


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
    strictly increase the index.  Raises ValueError for a k below 1."""
    if samples < 1:
        raise ValueError("need at least one sample")
    _check_ks(k_set)
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
