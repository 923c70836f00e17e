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

from .enumeration import MAX_ORDER, _level_code, _parents, _tree_reads
from .generators import FAMILY_LABELS, ParityMismatchError, UnrealizableError, _balanced_legs, caterpillar_family
from .moves import Switch, apply_switch
from .steiner import _class_sums, _packed, _packed_sum
from .trees import Tree, _read_built, _spine

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


def _head(theorem: str, instance: dict) -> str:
    """A report as `reports_to_json` writes it, from its start up to the
    value of its last instance field, or to the end of an empty instance."""
    start = f'  {{\n{_FIELD}"theorem": {_string(theorem)},\n{_FIELD}"instance": '
    if not instance:
        return start + "{}"
    inner = _FIELD + "  "
    *items, (name, _) = instance.items()
    fields = "".join(f"{inner}{_string(field)}: {_json(value, inner)},\n" for field, value in items)
    return start + "{\n" + fields + f"{inner}{_string(name)}: "


def reports_to_json(reports: Iterable[VerificationReport]) -> str:
    """The reports as a JSON list, byte for byte what
    ``json.dumps(..., indent=2)`` writes for their dicts, plus a newline
    (`extremal_value` as a decimal string).

    A report is a head, its last instance field's value (k), its
    extremal value and a tail, and only the middle two are encoded for
    every report.  Reports that share a ruling hold the same `arg_trees`,
    `predicate_outcomes`, `verdict` and `notes` objects, so a tail, those
    four fields, is encoded once per the identities of all four.  The
    reports of one class share their theorem and every instance field but
    k, which comes last, so a head (`_head`) is encoded once per theorem,
    instance key list and the identities of all but the last value."""
    reports = list(reports)  # alive for the call, so their ids stay unique
    heads: dict[tuple, str] = {}
    tails: dict[tuple[int, int, int, int], str] = {}
    inner = _FIELD + "  "
    items = []
    for r in reports:
        instance = r.instance
        values = list(instance.values())
        # the keys are strs and the ids ints: the one flat tuple is unambiguous
        key = (r.theorem, *instance, *map(id, values[:-1]))
        head = heads.get(key)
        if head is None:
            head = heads[key] = _head(r.theorem, instance)
        key = (id(r.arg_trees), id(r.predicate_outcomes), id(r.verdict), id(r.notes))
        tail = tails.get(key)
        if tail is None:
            tail = tails[key] = (
                f'{_FIELD}"arg_trees": {_json(r.arg_trees, _FIELD)},\n'
                f'{_FIELD}"predicate_outcomes": {_json(r.predicate_outcomes, _FIELD)},\n'
                f'{_FIELD}"verdict": {_string(r.verdict)},\n'
                f'{_FIELD}"notes": {_string(r.notes)}\n  }}'
            )
        last = _json(values[-1], inner) + "\n" + _FIELD + "}" if values else ""
        value = "null" if r.extremal_value is None else f'"{r.extremal_value}"'  # an int's digits need no escape
        items.append(f'{head}{last},\n{_FIELD}"extremal_value": {value},\n{tail}')
    return "[\n" + ",\n".join(items) + "\n]\n" if items else "[]\n"


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
    turned = False
    for (lo, hi), (next_lo, next_hi) in zip(spans, spans[1:]):
        if turned and hi > next_lo:
            return False
        turned = turned or lo < next_hi
    return True


def _structure(parent: list[int], degree: list[int]) -> tuple[StructurePredicateSet, bool]:
    """Per-predicate outcomes for the tree with these preorder parents and
    degrees, read along one backbone, plus whether all of them hold at once.

    One shape read of the series-reduced tree (`trees._spine`) both tells a
    quasi-caterpillar (it gives None for any other tree) and gives its
    spine.  One backbone suffices: every candidate is the spine between the
    same two end branch vertices plus a longest leg at each end (the two
    longest at a lone spine vertex), so all candidates read the same
    backbone segment lengths and pendant groups up to orientation, and no
    predicate depends on orientation.  So the lengths answer every
    predicate: degree 4 may occur only at the two spine ends."""
    le4 = max(degree) <= 4
    read = _spine(parent, range(len(parent)), degree)
    if read is None:
        return StructurePredicateSet(False, le4, False, False, False), False
    spine, joins, legs = read
    groups = [sorted([seg[2] for seg in at]) for at in legs]
    if not spine:  # a path is one backbone segment, a single vertex none
        lengths = [len(parent) - 1] if len(parent) > 1 else []
    elif len(spine) == 1:
        lengths = [groups[0].pop(), groups[0].pop()]
    else:
        lengths = [groups[0].pop(), *(seg[2] for seg in joins), groups[-1].pop()]
    d4 = all(degree[v] != 4 for v in spine[1:-1])
    uni = is_unimodal(lengths)
    valley = groups_admit_valley(groups)
    return StructurePredicateSet(True, le4, d4, uni, valley), le4 and d4 and uni and valley


def _unit_pendant_caterpillar(parent: list[int], degree: list[int]) -> bool:
    """Caterpillar: no vertex of the tree with these preorder parents and
    degrees has more than two non-leaf neighbours.

    Equivalently, a quasi-caterpillar whose off-backbone segments all have
    length 1."""
    inner = [0] * len(parent)
    for v in range(1, len(parent)):
        p = parent[v]
        inner[p] += degree[v] > 1
        inner[v] += degree[p] > 1
    return max(inner) <= 2


# ---------------------------------------------------------------------------
# exhaustive instance classes

# one tree of a class, unbuilt: (level sequence, packed total of its side sizes)
Member = tuple[bytes, int]
# the rule's result for one k: (predicate outcomes, verdict, notes after the
# class size)
Ruling = tuple[dict | None, str, list[str]]


@dataclass(frozen=True)
class _Judge:
    """How the extremal trees of one class are judged: *outcome* reads one
    tree off its preorder parents and degrees (`enumeration._parents`;
    None: the rule reads no tree), and *rule* decides one k from the (code,
    outcome) pairs of all its tied trees, sorted by code, and from one flag
    per construction row: whether that construction attains the extremum.
    *rows* are the edge side sizes of constructions that are members of
    the class: each is one more row of the class's sums, kept out of the
    extremum and the ties, and its construction attains the extremum
    exactly when its value equals the column's."""

    outcome: Callable[[list[int], list[int]], object] | None
    rule: Callable[[list[tuple[str, object]], tuple[bool, ...]], Ruling]
    rows: tuple[list[int], ...] = ()


def _check_ks(k_set: Sequence[int]) -> None:
    if any(k < 1 for k in k_set):
        raise ValueError(f"k={min(k_set)} is below 1")


def _ks_for(n: int, k_set: Sequence[int]) -> tuple[int, ...]:
    return tuple(k for k in sorted(set(k_set)) if k <= n)


def _classes(n: int, by_count: bool, row: Sequence[int]) -> list[tuple[dict, list[Member]]]:
    """Instance classes of order *n* with their instance fields: one per
    segment sequence or one per segment count, in the order of the keys of
    the buckets the stream fills, sequences descending (the partitions of
    n - 1 into one part or at least three, lexicographically) and counts
    ascending.  Members are in enumeration order, each its level sequence,
    as bytes, with the sum of the packed *row* over its edge side sizes,
    read branch by branch (`enumeration._tree_reads`); no tree is built
    here."""
    buckets: dict[object, list[Member]] = {}
    for seq, total, level in _tree_reads(n, row):
        buckets.setdefault(len(seq) if by_count else seq, []).append((level, total))
    if by_count:
        return [({"n": n, "m": m}, buckets[m]) for m in sorted(buckets)]
    return [({"n": n, "segments": list(seq)}, buckets[seq]) for seq in sorted(buckets, reverse=True)]


def _verify(
    theorem: str,
    max_n: int,
    k_set: Sequence[int],
    by_count: bool,
    want_max: bool,
    judge: Callable[[dict], _Judge],
) -> list[VerificationReport]:
    """Enumerate every class of order 2..max_n, evaluate the requested
    indices of the whole class at once (one packed total per tree, the sum
    of its root branches' totals, each distinct branch of an order read
    once by `enumeration._tree_reads`; each construction row summed over
    its side sizes with the same packed row; then `steiner._class_sums`
    splits the totals into one column of values per k), and let *judge*'s
    rule decide each k on all the extremal trees, sorted by canonical
    code, and on which of the judge's construction rows attain the
    extremum.  Each k's extremum and ties are read straight off its column.

    Within a class a tree is coded and judged (off its level sequence) at
    most once, when it first ties on an extremum, and no tree is built; a
    set of tied trees is ruled on once:
    another k with the same ties reuses the codes, the outcomes and the
    ruling.  These memos, and the branch reads of each order, live in
    this call.

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
        row = _packed(n, ks)[0]
        for fields, members in _classes(n, by_count, row):
            class_judge = judge(fields)
            outcome_of = class_judge.outcome
            size = len(members)
            totals = [total for _, total in members]
            totals += [_packed_sum(row, sides) for sides in class_judge.rows]
            columns = _class_sums(n, totals, ks)
            judged: dict[int, tuple[str, object]] = {}
            rulings: dict[tuple[int, ...], tuple[tuple[str, ...], dict | None, str, str]] = {}
            size_note = f"class size {size}"
            for k, column in zip(ks, columns):
                own = column[size:]
                del column[size:]
                best = pick(column)
                ties = tuple([j for j, v in enumerate(column) if v == best])
                ruling = rulings.get(ties)
                if ruling is None:
                    for j in ties:
                        if j not in judged:
                            level = members[j][0]
                            outcome = None if outcome_of is None else outcome_of(*_parents(level))
                            judged[j] = (_level_code(level), outcome)
                    arg = sorted((judged[j] for j in ties), key=lambda e: e[0])
                    # the constructions are members, so this is a function of the ties
                    outcomes, verdict, notes = class_judge.rule(arg, tuple([v == best for v in own]))
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


def _starlike_attains(legs: Sequence[int]) -> _Judge:
    """Judge: the starlike tree with these legs is among the extremal trees.
    Its side sizes, rooted at its centre, are 1..l along each leg l."""
    sides = [a for length in legs for a in range(1, length + 1)]
    return _Judge(None, lambda arg, attained: (None, CONFIRMED if attained[0] else VIOLATED, []), (sides,))


def _quasi_caterpillar_rule(arg: list[tuple[str, bool]], attained: tuple[bool, ...]) -> Ruling:
    outcomes = {code: {"is_quasi_caterpillar": flag} for code, flag in arg}
    flags = [flag for _, flag in arg]
    return outcomes, CONFIRMED if any(flags) else VIOLATED, [f"all_argmax_quasi_caterpillar={all(flags)}"]


# a tied tree's code and `_structure`'s read of it
Shaped = list[tuple[str, tuple[StructurePredicateSet, bool]]]


def _structure_rule(arg: Shaped, attained: tuple[bool, ...]) -> Ruling:
    outcomes = {}
    ok = True
    for code, (preds, all_at_once) in arg:
        if not preds.is_quasi_caterpillar:
            continue
        outcomes[code] = preds.as_dict()
        ok = ok and all_at_once
    notes = [] if outcomes else ["no quasi-caterpillar maximizer (see theorem2)"]
    return outcomes or None, CONFIRMED if ok else VIOLATED, notes


# theorem2 judges a tree by the spine read alone (a quasi-caterpillar is a
# tree it reads a spine off), structure by the full shape read; each outcome
# looks its function up when called, so that a replaced module attribute (a
# tracer, a counting test) sees every call
_QUASI_CATERPILLAR = _Judge(
    lambda parent, degree: _spine(parent, range(len(parent)), degree) is not None, _quasi_caterpillar_rule
)
_STRUCTURE = _Judge(lambda parent, degree: _structure(parent, degree), _structure_rule)


def _family_check(n: int, m: int) -> _Judge:
    """Judge: some maximizer is a unit-pendant caterpillar and, when a named
    family is defined for (n, m), one of them is among the maximizers; which
    of them are goes to the notes.  Each defined family is an order-n tree
    with m segments, a member of the class, so it is one more row of the
    class's sums (its side sizes off one read, `trees._read_built`) and
    matches exactly when its value is the extremum."""
    labels, rows = [], []
    for which in FAMILY_LABELS:
        try:
            build = caterpillar_family(n, m, which)
        except (ParityMismatchError, UnrealizableError):
            continue
        labels.append(f"{which} (t_used={build.t_used}, t_formula={build.params.t})")
        rows.append(_read_built(build.tree)[1])

    def rule(arg: list[tuple[str, bool]], attained: tuple[bool, ...]) -> Ruling:
        outcomes = {code: {"caterpillar_unit_pendants": cat} for code, cat in arg}
        exists_cat = any(cat for _, cat in arg)
        matches = [label for label, hit in zip(labels, attained) if hit]
        if matches:
            note = "matches family " + ", ".join(matches)
        else:
            note = "no family construction matches the maximizer"
        ok = exists_cat and (matches or not labels)
        return outcomes, CONFIRMED_WITH_NOTES if ok else VIOLATED, [note]

    return _Judge(lambda parent, degree: _unit_pendant_caterpillar(parent, degree), rule, tuple(rows))


def verify_min_starlike(max_n: int, k_set: Sequence[int]) -> list[VerificationReport]:
    """For every segment sequence of order <= max_n and every k: the starlike
    tree attains the minimum of the index over its class."""
    return _verify("theorem1", max_n, k_set, by_count=False, want_max=False,
                   judge=lambda c: _starlike_attains(c["segments"]))


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
                   judge=lambda c: _starlike_attains(_balanced_legs(c["n"], c["m"])))


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
