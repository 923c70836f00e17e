from __future__ import annotations

import ast
import hashlib
import json
import random
import re
from pathlib import Path

import pytest

from segwiener import steiner as steiner_module
from segwiener import trees as trees_module
from segwiener import verify as verify_module
from segwiener import generators as generators_module
from segwiener.enumeration import _parents, _tree_from_levels, all_trees, count_trees
from segwiener.generators import (
    FAMILY_LABELS,
    ParityMismatchError,
    UnrealizableError,
    balanced_starlike,
    caterpillar_family,
    quasi_caterpillar,
    starlike,
)
from segwiener.moves import apply_switch
from segwiener.steiner import sw_k
from segwiener.trees import (
    Tree,
    _read_built,
    all_backbones,
    canonical_code,
    is_quasi_caterpillar,
    tree_from_code,
)
from segwiener.verify import (
    CONFIRMED,
    CONFIRMED_WITH_NOTES,
    VIOLATED,
    VerificationReport,
    _family_check,
    _structure,
    _unit_pendant_caterpillar,
    groups_admit_valley,
    is_unimodal,
    random_switch_instance,
    reports_to_json,
    verify_lemma31,
    verify_max_caterpillar_family,
    verify_max_quasi_caterpillar,
    verify_min_balanced,
    verify_min_starlike,
    verify_structure,
)

from . import oracles
from .conftest import any_violated, path_tree
from .oracles import (
    _orientation_key,
    attains_by_code,
    backbone_over_all_candidates,
    groups_admit_valley_greedy,
    is_unit_pendant_caterpillar,
    level_sequences,
    path,
    random_labeled_tree,
    relabel,
    reports_to_json_by_stdlib,
    rooted_level_sequence,
    segment_sequences_of_order,
    structure_assessment,
    structure_assessment_over_all_backbones,
)

VERIFIERS = (
    verify_min_starlike,
    verify_max_quasi_caterpillar,
    verify_structure,
    verify_min_balanced,
    verify_max_caterpillar_family,
)
VERIFIER_IDS = ["theorem1", "theorem2", "structure", "theorem5min", "theorem5max"]


class TestShapePredicates:
    def test_unimodal(self):
        assert is_unimodal([1, 2, 3])
        assert is_unimodal([3, 2, 1])
        assert is_unimodal([1, 3, 3, 2])
        assert is_unimodal([2])
        assert is_unimodal([])
        assert not is_unimodal([2, 1, 2])
        assert not is_unimodal([1, 3, 2, 3])

    def test_valley_single_groups(self):
        assert groups_admit_valley([[3], [2], [1], [2], [5]])
        assert groups_admit_valley([[1], [1], [1]])
        assert not groups_admit_valley([[1], [2], [1]])
        assert groups_admit_valley([])

    def test_valley_uses_free_order_within_groups(self):
        # [3,1] then [2]: order the first group 3,1 and the valley works
        assert groups_admit_valley([[1, 3], [2]])
        # [2] then [1,3]: order the second group 1,3
        assert groups_admit_valley([[2], [3, 1]])
        # no ordering helps: the middle group forces a bump
        assert not groups_admit_valley([[1], [3, 3], [1]])

    def test_valley_matches_permutation_brute_force(self):
        import itertools

        def brute(groups):
            def is_valley(seq):
                rising = False
                for a, b in zip(seq, seq[1:]):
                    if b > a:
                        rising = True
                    elif b < a and rising:
                        return False
                return True

            pools = [set(itertools.permutations(g)) for g in groups if g]
            return any(
                is_valley([x for part in combo for x in part])
                for combo in itertools.product(*pools)
            )

        rng = random.Random(123)
        for _ in range(600):
            groups = [
                [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
                for _ in range(rng.randint(0, 4))
            ]
            assert groups_admit_valley(groups) == brute(groups), groups
            assert groups_admit_valley(groups) == groups_admit_valley_greedy(groups), groups

    def test_structure_of_named_trees(self, fig1_top, fig1_bottom):
        preds, all_at_once = structure_assessment(fig1_top)
        assert preds.is_quasi_caterpillar
        assert not preds.max_degree_le4  # the centre has degree 9
        preds, _ = structure_assessment(fig1_bottom)
        assert preds.is_quasi_caterpillar and preds.max_degree_le4

    def test_unit_pendant_caterpillar(self):
        assert is_unit_pendant_caterpillar(path_tree(6))
        assert is_unit_pendant_caterpillar(caterpillar_family(9, 5, "ii").tree)
        assert not is_unit_pendant_caterpillar(quasi_caterpillar((2, 2), [(1, 3)]))

    def test_unit_pendant_caterpillar_matches_backbone_read_off(self):
        for n in range(1, 13):
            for t in all_trees(n):
                by_backbone = is_quasi_caterpillar(t) and all(
                    length == 1 for length in backbone_over_all_candidates(t).pendant_segment_lengths
                )
                assert is_unit_pendant_caterpillar(t) == by_backbone

    def test_golden_backbones_and_structure(self):
        # every quasi-caterpillar of order <= 12: its backbone candidates
        # (each taken in its smaller orientation) and structure assessment
        digest = hashlib.sha256()
        count = 0
        for n in range(1, 13):
            for t in all_trees(n):
                if not is_quasi_caterpillar(t):
                    continue
                count += 1
                cands = sorted(min(c, c[::-1]) for c in all_backbones(t))
                preds, all_at_once = structure_assessment(t)
                digest.update(json.dumps([n, cands, preds.as_dict(), all_at_once]).encode() + b"\n")
        assert count == 963
        assert digest.hexdigest() == "926cf62641188573c2753f278bfc7376285a611780b62bb646fcd2f2197e181e"

    def test_one_backbone_reads_as_all_candidates(self):
        # every quasi-caterpillar of order <= 12, seeded random ones and
        # starlike trees with tied longest legs, each relabelled: reading
        # one candidate gives the predicates of the route over every
        # candidate
        trees = [t for n in range(1, 13) for t in all_trees(n) if is_quasi_caterpillar(t)]
        rng = random.Random(14)
        for _ in range(300):
            r = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 6)))
            pend = [(j, rng.randint(1, 3)) for j in range(1, len(r)) for _ in range(rng.randint(1, 3))]
            trees.append(quasi_caterpillar(r, pend))
        trees += [starlike(legs) for legs in [(3, 3, 1), (2, 2, 2), (3, 2, 2), (4, 2, 2, 2, 1), (2, 2, 1, 1)]]
        for t in trees[:]:
            perm = list(range(t.n))
            rng.shuffle(perm)
            trees.append(relabel(t, perm))
        opposite = 0
        for t in trees:
            assert structure_assessment(t) == structure_assessment_over_all_backbones(t)
            first, *rest = all_backbones(t)
            key = _orientation_key(t, first)
            opposite += any(_orientation_key(t, c) == key[::-1] != key for c in rest)
        assert opposite  # some candidates come out in opposite orientations

    def test_oracles_keep_their_own_valley_test_and_orientation_key(self):
        # the reference routes must not borrow the package's versions
        tree = ast.parse(Path(oracles.__file__).read_text())
        borrowed = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("segwiener")
            for alias in node.names
        }
        assert not borrowed & {"groups_admit_valley", "_orientation_key"}


def _preorder(t: Tree, rng: random.Random) -> tuple[list[int], list[int]]:
    """The parents and degrees of *t* relabelled in the preorder of a
    depth-first search from a random root that takes the children in random
    order: a preorder, but not a canonical one."""
    root = rng.randrange(t.n)
    label = {}
    parent: list[int] = []
    stack = [(root, root)]
    while stack:
        v, up = stack.pop()
        label[v] = len(parent)
        parent.append(label[up])
        kids = [w for w in t.adj[v] if w != up]
        rng.shuffle(kids)
        stack.extend((w, v) for w in kids)
    degree = [0] * t.n
    for v in range(t.n):
        degree[label[v]] = t.degree(v)
    return parent, degree


class TestLevelJudges:
    """The judges the verifiers read off preorder parents and degrees equal
    the routes over a built tree they replaced (`oracles`)."""

    @staticmethod
    def assert_judged_alike(t: Tree, parent: list[int], degree: list[int]) -> None:
        assert _structure(parent, degree) == structure_assessment(t), t
        assert _structure(parent, degree)[0].is_quasi_caterpillar == is_quasi_caterpillar(t), t
        assert _unit_pendant_caterpillar(parent, degree) == is_unit_pendant_caterpillar(t), t

    def test_every_tree_up_to_order_16(self):
        for n in range(1, 17):
            for level in level_sequences(n):
                self.assert_judged_alike(_tree_from_levels(level), *_parents(level))

    def test_random_trees_in_non_canonical_preorder(self):
        # random labelled trees and random quasi-caterpillars (degree 4 at
        # inner and end branch vertices, long legs, valleys and bumps) up to
        # order 130, each read in the preorder of a random search
        rng = random.Random(26)
        trees = [random_labeled_tree(rng.randint(1, 130), rng) for _ in range(300)]
        while len(trees) < 600:
            r = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 12)))
            pend = [(j, rng.randint(1, 4)) for j in range(1, len(r)) for _ in range(rng.choice((1, 1, 2, 3)))]
            pend += [(j, rng.randint(1, 3)) for j in (1, len(r) - 1) if len(r) > 1 and rng.random() < 0.5]
            t = quasi_caterpillar(r, pend)
            if t.n <= 130:
                trees.append(t)
        judged = set()
        for t in trees:
            parent, degree = _preorder(t, rng)
            self.assert_judged_alike(t, parent, degree)
            preds, all_at_once = _structure(parent, degree)
            judged.add((preds.is_quasi_caterpillar, all_at_once))
        assert judged == {(False, False), (True, False), (True, True)}


def _defined_families(n: int, m: int) -> list[tuple[str, Tree]]:
    """The families i..iv defined for (n, m), each with its built tree."""
    families = []
    for which in FAMILY_LABELS:
        try:
            families.append((which, caterpillar_family(n, m, which).tree))
        except (ParityMismatchError, UnrealizableError):
            continue
    return families


def _recorded_rows(monkeypatch, verifier, max_n: int) -> list[tuple[dict, list[VerificationReport], dict]]:
    """Each class of *verifier*'s run up to *max_n* at every k: its fields,
    its reports and, per k, the values of the rows summed after its
    members, as the one split of the class's packed totals into columns
    (`_class_sums`) gives them."""
    recorded = []

    def recording(n, totals, ks, _fn=verify_module._class_sums):
        columns = _fn(n, totals, ks)
        recorded.append({k: list(column) for k, column in zip(ks, columns)})
        return columns

    monkeypatch.setattr(verify_module, "_class_sums", recording)
    reports = verifier(max_n, range(1, max_n + 1))
    by_class: dict[str, list[VerificationReport]] = {}
    for r in reports:
        by_class.setdefault(json.dumps({key: value for key, value in r.instance.items() if key != "k"}), []).append(r)
    assert len(recorded) == len(by_class)
    classes = []
    for columns, class_reports in zip(recorded, by_class.values()):
        fields = {key: value for key, value in class_reports[0].instance.items() if key != "k"}
        size = int(class_reports[0].notes.split(";")[0].removeprefix("class size "))
        classes.append((fields, class_reports, {k: column[size:] for k, column in columns.items()}))
    return classes


class TestStarlikeRow:
    """theorem1 and theorem5min sum the starlike construction, and
    theorem5max each family defined for (n, m), as rows of the class, and
    rule off their values; the lookup of their codes among the tied trees
    is the oracle."""

    @pytest.mark.parametrize(
        "verifier, construction",
        [
            (verify_min_starlike, lambda fields: starlike(fields["segments"])),
            (verify_min_balanced, lambda fields: balanced_starlike(fields["n"], fields["m"])),
        ],
        ids=["theorem1", "theorem5min"],
    )
    def test_row_and_verdict_match_the_built_construction(self, monkeypatch, verifier, construction):
        # every class of order <= 12 at every k: the extra row is the
        # construction's SW_k, and the verdict is the one its canonical
        # code among the extremal trees' codes gives
        for fields, class_reports, rows in _recorded_rows(monkeypatch, verifier, 12):
            tree = construction(fields)
            assert rows == {k: [sw_k(tree, k)] for k in range(1, tree.n + 1)}, fields
            for r in class_reports:
                assert r.verdict == attains_by_code(tree, r.arg_trees), r.instance

    def test_family_rows_and_matches_follow_the_built_families(self, monkeypatch):
        # theorem5max, every class of order <= 12 at every k: the extra
        # rows are the SW_k of the families defined for (n, m), in label
        # order, and the notes name exactly the families whose canonical
        # code is among the extremal trees' codes
        matched = set()
        for fields, class_reports, rows in _recorded_rows(monkeypatch, verify_max_caterpillar_family, 12):
            families = _defined_families(fields["n"], fields["m"])
            assert rows == {k: [sw_k(t, k) for _, t in families] for k in range(1, fields["n"] + 1)}, fields
            for r in class_reports:
                named = re.findall(r"([iv]+) \(t_used=", r.notes)
                by_code = [which for which, t in families if attains_by_code(t, r.arg_trees) == CONFIRMED]
                assert named == by_code, r.instance
                matched.update(named)
        assert matched == set(FAMILY_LABELS)


class TestClassOrder:
    def test_classes_come_in_the_order_of_their_keys(self):
        # the classes are ordered by the keys of their buckets: sequences
        # as the partitions of n - 1 list them, counts ascending; the
        # golden report digests pin class order only at max_n = 9
        for n in range(2, 17):
            row = steiner_module._packed(n, (2,))[0]
            by_sequence = [tuple(fields["segments"]) for fields, _ in verify_module._classes(n, False, row)]
            assert by_sequence == segment_sequences_of_order(n)
            counts = sorted({len(seq) for seq in by_sequence})
            assert [fields["m"] for fields, _ in verify_module._classes(n, True, row)] == counts


class TestTheorem1:
    def test_no_violations_small(self):
        reports = verify_min_starlike(8, [2, 3])
        assert reports and not any_violated(reports)

    def test_unit_segment_class_minimizer_is_the_star(self):
        reports = verify_min_starlike(6, [2])
        rep = next(
            r for r in reports if r.instance == {"n": 6, "segments": [1, 1, 1, 1, 1], "k": 2}
        )
        assert rep.verdict == CONFIRMED
        assert "class size 2" in rep.notes
        star_code = canonical_code(starlike((1, 1, 1, 1, 1))).decode()
        assert star_code in rep.arg_trees

    def test_singleton_class_trivially_confirmed(self):
        reports = verify_min_starlike(5, [2])
        rep = next(r for r in reports if r.instance["segments"] == [2, 1, 1])
        assert rep.verdict == CONFIRMED and "class size 1" in rep.notes

    def test_guard(self):
        # verification is capped only by the enumerator's order limit
        with pytest.raises(ValueError, match="max_n <= 16"):
            verify_min_starlike(17, [2])
        reports = verify_min_starlike(13, [2])
        assert any(r.instance["n"] == 13 for r in reports)


class TestTheorem2AndStructure:
    def test_no_violations_small(self):
        assert not any_violated(verify_max_quasi_caterpillar(8, [2, 3]))
        assert not any_violated(verify_structure(8, [2, 3]))

    def test_violation_map(self):
        # the universal reading of `structure` fails only at k = 1 or
        # n - k <= 3, where many trees tie; on every violated instance some
        # quasi-caterpillar maximizer passes all predicates under one backbone
        reports = verify_structure(12, range(1, 13))
        violated = [r for r in reports if r.verdict == VIOLATED]
        assert (len(reports), len(violated)) == (1651, 222)
        for r in violated:
            n, k = r.instance["n"], r.instance["k"]
            assert k == 1 or n - k <= 3, r.instance
            trees = [tree_from_code(code) for code in r.arg_trees]
            assert any(structure_assessment(t)[1] for t in trees), r.instance

    def test_violations_leave_the_region_at_order_15(self):
        # past order 14 the map leaves k = 1 or n - k <= 3: the first
        # violations with n - k = 4 are these three classes at n = 15, k = 11,
        # each a tie in which another quasi-caterpillar maximizer passes
        violated = [
            r for r in verify_structure(15, [11])
            if r.verdict == VIOLATED and r.instance["n"] - r.instance["k"] >= 4
        ]
        assert [(r.instance["n"], r.instance["segments"]) for r in violated] == [
            (15, [3, 3, 2, 1, 1, 1, 1, 1, 1]),
            (15, [2, 2, 2, 2, 2, 2, 1, 1]),
            (15, [2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]),
        ]
        for r in violated:
            assert any(structure_assessment(tree_from_code(code))[1] for code in r.arg_trees), r.instance

    def test_spot_instance_predicates_all_true(self):
        reports = verify_structure(10, [2])
        rep = next(
            r for r in reports if r.instance == {"n": 10, "segments": [2, 2, 1, 1, 1, 1, 1], "k": 2}
        )
        assert rep.verdict == CONFIRMED
        assert rep.predicate_outcomes
        for preds in rep.predicate_outcomes.values():
            assert all(preds.values())


class TestTheorem5:
    def test_min_balanced_no_violations(self):
        assert not any_violated(verify_min_balanced(8, [2, 3]))

    def test_min_balanced_spot(self):
        reports = verify_min_balanced(6, [2])
        rep = next(r for r in reports if r.instance == {"n": 6, "m": 3, "k": 2})
        assert rep.verdict == CONFIRMED
        assert canonical_code(balanced_starlike(6, 3)).decode() in rep.arg_trees
        assert "class size 2" in rep.notes

    def test_max_family_verdicts(self):
        reports = verify_max_caterpillar_family(8, [2, 3])
        assert not any_violated(reports)
        assert {r.verdict for r in reports} <= {CONFIRMED, CONFIRMED_WITH_NOTES}
        for r in reports:
            if r.instance["m"] % 2 == 1:
                assert "matches family" in r.notes

    def test_max_family_odd_m_matches_family_ii(self):
        reports = verify_max_caterpillar_family(9, [2])
        for r in reports:
            n, m = r.instance["n"], r.instance["m"]
            if m % 2 == 0:
                continue
            fam = caterpillar_family(n, m, "ii")
            assert canonical_code(fam.tree).decode() in r.arg_trees

    def test_max_family_missing_from_argmax_is_violated(self):
        def ruling(check, attained, *trees):
            judged = [(canonical_code(t).decode(), check.outcome(*_parents(rooted_level_sequence(t, 0)))) for t in trees]
            return check.rule(judged, attained)

        # (8, 5) defines family ii only, one row; another unit-pendant
        # caterpillar with 5 segments does not confirm it
        family_ii = caterpillar_family(8, 5, "ii").tree
        other = quasi_caterpillar((1, 1, 3), [(1, 1), (2, 1)])
        assert is_unit_pendant_caterpillar(other)
        assert canonical_code(other) != canonical_code(family_ii)
        check = _family_check(8, 5)
        assert check.rows == (_read_built(family_ii)[1],)
        assert ruling(check, (False,), other)[1] == VIOLATED
        _, verdict, notes = ruling(check, (True,), other, family_ii)
        assert verdict == CONFIRMED_WITH_NOTES
        assert notes == ["matches family ii (t_used=5, t_formula=6)"]
        # (8, 4) defines no family, so a unit-pendant caterpillar is enough
        four = quasi_caterpillar((1, 4), [(1, 1), (1, 1)])
        assert _family_check(8, 4).rows == ()
        _, verdict, notes = ruling(_family_check(8, 4), (), four)
        assert verdict == CONFIRMED_WITH_NOTES
        assert notes == ["no family construction matches the maximizer"]
        assert ruling(_family_check(8, 4), (), quasi_caterpillar((2, 2), [(1, 3)]))[1] == VIOLATED


class TestLemma31:
    def test_seeded_run_confirms(self):
        rep = verify_lemma31(60, 42, [2, 3, 4])
        assert rep.verdict == CONFIRMED
        assert "0 non-positive deltas" in rep.notes

    def test_reproducible(self):
        a = verify_lemma31(40, 7, [2, 3])
        b = verify_lemma31(40, 7, [2, 3])
        assert a == b

    def test_deltas_are_never_negative(self):
        # every 2 <= k <= n on seeded strict instances: no switch lowers the
        # index, and a zero delta occurs only close to k = n
        rng = random.Random(1)
        applications = zeros = 0
        for _ in range(300):
            tree, move = random_switch_instance(rng)
            for k in range(2, tree.n + 1):
                delta = apply_switch(tree, move, k).delta
                applications += 1
                assert delta >= 0, (tree, move, k)
                if delta == 0:
                    zeros += 1
                    assert tree.n - k <= 6, (tree, move, k)
        assert (applications, zeros) == (4245, 1522)

    def test_instance_builder_relations(self):
        rng = random.Random(3)
        tree, move = random_switch_instance(rng, relation="strict")
        seg = path(tree, move.w0, move.ws)
        assert tree.degree(move.w0) >= 3 and tree.degree(move.ws) >= 3
        assert all(tree.degree(x) == 2 for x in seg[1:-1])
        with pytest.raises(ValueError):
            random_switch_instance(rng, relation="other")


class TestReports:
    def test_json_round_trip_and_determinism(self):
        reports = verify_min_starlike(6, [2, 3])
        text = reports_to_json(reports)
        again = reports_to_json(verify_min_starlike(6, [2, 3]))
        assert text == again
        parsed = json.loads(text)
        assert parsed and all(r["verdict"] in (CONFIRMED, CONFIRMED_WITH_NOTES, VIOLATED) for r in parsed)

    def test_extremal_values_serialized_as_decimal_strings(self):
        text = reports_to_json(verify_min_starlike(5, [2]))
        for rec in json.loads(text):
            assert isinstance(rec["extremal_value"], str)
            int(rec["extremal_value"])

    def test_arg_trees_reparse_to_reported_value(self):
        # every k, so that k = 1 and k close to n give many tied trees
        for rep in (rep for verifier in VERIFIERS for rep in verifier(8, range(1, 9))):
            assert list(rep.arg_trees) == sorted(rep.arg_trees)
            k = rep.instance["k"]
            for code in rep.arg_trees:
                t = tree_from_code(code)
                assert sw_k(t, k) == rep.extremal_value

    # sha256 of the report bytes for max_n = 9, k = 2, 3, 4, recorded before
    # the verifiers shared one loop; any change to enumeration order,
    # tie-breaks, notes or serialization shows up here.
    @pytest.mark.parametrize(
        "verifier, digest",
        [
            (verify_min_starlike, "fddfbf1fc096419370818ce9dca0dd8b203edf4ca3abf9a99e347bb35d8356f8"),
            (verify_max_quasi_caterpillar, "145794257118fea4342306cad2bdd106294ad31d349b1d7fba87436159ff166b"),
            (verify_structure, "ea44b14d65d56be93ec599bac8653a5b31de35a136763e2e66c11ab85747a225"),
            (verify_min_balanced, "b729d4955fd3b670a135375cdc53253326f0b68c4120c83724958e0a02fcc0fa"),
            (verify_max_caterpillar_family, "35d93488729a09015e4b33888f3d3548b9f1dc79aff6a527cf0f983830424044"),
        ],
        ids=["theorem1", "theorem2", "structure", "theorem5min", "theorem5max"],
    )
    def test_golden_report_bytes(self, verifier, digest):
        text = reports_to_json(verifier(9, [2, 3, 4]))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # the same over every k = 1..9, recorded before the verifier shared
    # codes and rulings across k: at k = 1 and near k = n many trees tie,
    # and the same ties recur for several k, so this pins the predicate
    # outcomes, verdicts and notes a ruling shares across k (the bench
    # digest leaves them out)
    @pytest.mark.parametrize(
        "verifier, digest",
        [
            (verify_min_starlike, "e8cf1f3b43af170f0e7f727aa8691dbe0a5de7168adcd13c932d5d388a163203"),
            (verify_max_quasi_caterpillar, "223262ab68d2193193b7f2b784768a0518f3cf554ce7b7f1c968c91483126626"),
            (verify_structure, "c10a919b86ac65f83047756aa94f9872e91880422a3700b30c82a459d9beb91c"),
            (verify_min_balanced, "d4d2b60a4c8cc2ffa12a71792d4616c7ef4433a50fb1320f2173026176aa45d1"),
            (verify_max_caterpillar_family, "52ebd406ba17770dd8cb9814b2a5c7b74330dd0dcf70421ba4427fe76ba38bbc"),
        ],
        ids=["theorem1", "theorem2", "structure", "theorem5min", "theorem5max"],
    )
    def test_golden_report_bytes_every_k(self, verifier, digest):
        text = reports_to_json(verifier(9, range(1, 10)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "verifier, judgements",
        [
            (verify_min_starlike, ()),
            (verify_max_quasi_caterpillar, ("_spine",)),
            (verify_structure, ("_structure", "_spine")),
            (verify_min_balanced, ()),
            (verify_max_caterpillar_family, ("_unit_pendant_caterpillar",)),
        ],
        ids=["theorem1", "theorem2", "structure", "theorem5min", "theorem5max"],
    )
    def test_each_tree_coded_and_judged_once_per_class(self, monkeypatch, verifier, judgements):
        # the calls made from the verifier: a tree is coded at most once per
        # class, and so is every judgement on it (theorem2's spine read,
        # structure's full read, which reads the spine once inside it); no
        # construction is coded, since each is judged by its row's value
        counted = ("_level_code", "_structure", "_spine", "_unit_pendant_caterpillar")
        calls = dict.fromkeys(counted + ("canonical_code",), 0)
        for module, name in [(verify_module, name) for name in counted] + [(trees_module, "canonical_code")]:
            def counting(*args, _name=name, _fn=getattr(module, name)):
                result = _fn(*args)
                calls[_name] += 1
                return result

            monkeypatch.setattr(module, name, counting)
        assert not hasattr(verify_module, "canonical_code")
        reports = verifier(10, range(1, 11))
        arg_codes: dict[str, set[str]] = {}
        for r in reports:
            instance = json.dumps({key: value for key, value in r.instance.items() if key != "k"})
            arg_codes.setdefault(instance, set()).update(r.arg_trees)
        distinct = sum(len(codes) for codes in arg_codes.values())
        assert calls["_level_code"] == distinct
        assert calls["canonical_code"] == 0
        for name in judgements:
            assert calls[name] == distinct, name
        for name in set(counted[1:]) - set(judgements):
            assert calls[name] == 0, name

    @pytest.mark.parametrize("verifier", VERIFIERS, ids=VERIFIER_IDS)
    def test_sums_each_class_once(self, monkeypatch, verifier):
        # the requested indices of a class come from one split of the packed
        # totals of all its trees (plus one row for the starlike construction
        # of theorem1 and theorem5min, and one for each family theorem5max
        # defines for (n, m)), and no tree is summed on its own
        classes: list[tuple[int, int]] = []
        per_tree: list[int] = []

        def extra_rows(fields):
            if verifier in (verify_min_starlike, verify_min_balanced):
                return 1
            if verifier is verify_max_caterpillar_family:
                return len(_defined_families(fields["n"], fields["m"]))
            return 0

        def counting(n, totals, ks, _fn=verify_module._class_sums):
            classes.append((n, len(totals)))
            return _fn(n, totals, ks)

        def summing_one_tree(n, sides, ks, _fn=steiner_module._index_sums):
            per_tree.append(n)
            return _fn(n, sides, ks)

        monkeypatch.setattr(verify_module, "_class_sums", counting)
        monkeypatch.setattr(steiner_module, "_index_sums", summing_one_tree)
        monkeypatch.setattr(verify_module, "_index_sums", summing_one_tree, raising=False)
        reports = verifier(10, range(1, 11))
        sizes = {}
        for r in reports:
            instance = json.dumps({key: value for key, value in r.instance.items() if key != "k"})
            size = int(r.notes.split(";")[0].removeprefix("class size "))
            sizes[instance] = (r.instance["n"], size, extra_rows(r.instance))
        assert sorted(classes) == sorted((n, size + extra) for n, size, extra in sizes.values())
        assert sum(size for _, size, _ in sizes.values()) == sum(count_trees(n) for n in range(2, 11))
        assert per_tree == []

    def test_reads_each_root_branch_once_per_order(self, level_reads):
        # orders 2..12 hold 986 trees but 189 distinct root branches (82 at
        # order 12): each is read once per order of a call, and no read
        # outlives the call, so a second call reads them all again
        for _ in range(2):
            level_reads[0] = 0
            verify_min_starlike(12, [2, 3])
            assert level_reads[0] == 189
        level_reads[0] = 0
        verify_max_caterpillar_family(12, [2, 3])
        assert level_reads[0] == 189

    def test_structure_reads_each_judged_tree_once(self, monkeypatch):
        # one shape read of the series-reduced tree both tells a
        # quasi-caterpillar and gives its backbone: one per distinct tied
        # tree of each class, off its parents and degrees
        read: list[tuple[int, ...]] = []

        def counting(parent, order, degree, _fn=trees_module._spine):
            read.append(tuple(parent))
            return _fn(parent, order, degree)

        monkeypatch.setattr(verify_module, "_spine", counting)
        reports = verify_structure(10, range(1, 11))
        arg_codes: dict[str, set[str]] = {}
        for r in reports:
            instance = json.dumps({key: value for key, value in r.instance.items() if key != "k"})
            arg_codes.setdefault(instance, set()).update(r.arg_trees)
        assert len(read) == sum(len(codes) for codes in arg_codes.values())

    @pytest.mark.parametrize("ks", [range(1, 11), (2, 3)], ids=["every-k", "k-2-3"])
    @pytest.mark.parametrize("verifier", VERIFIERS, ids=VERIFIER_IDS)
    def test_builds_only_the_trees_it_codes(self, monkeypatch, tree_builds, verifier, ks):
        # no tree is built from its level sequence: every judge reads the
        # tied trees off their parents and degrees, and the starlike
        # constructions are one more row of their class's sums; the only
        # Trees constructed at all are the families theorem5max sums as
        # rows of their class, at most four per (n, m), each one Tree
        built = [0]
        families = [0]
        init = trees_module.Tree.__init__

        def counting_init(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        def counting_family(*args, _fn=verify_module.caterpillar_family):
            families[0] += 1
            return _fn(*args)

        monkeypatch.setattr(trees_module.Tree, "__init__", counting_init)
        monkeypatch.setattr(verify_module, "caterpillar_family", counting_family)
        for name in ("starlike", "balanced_starlike"):
            monkeypatch.setattr(generators_module, name, lambda *args, _name=name: pytest.fail(f"{_name} built"))
        reports = verifier(10, ks)
        assert tree_builds[0] == 0
        classes = {json.dumps({key: value for key, value in r.instance.items() if key != "k"}) for r in reports}
        if verifier is verify_max_caterpillar_family:
            assert 0 < built[0] <= families[0] <= 4 * len(classes)
        else:
            assert built[0] == families[0] == 0


class TestReportEncoder:
    @pytest.mark.parametrize("verifier", VERIFIERS, ids=VERIFIER_IDS)
    def test_matches_stdlib_every_k(self, verifier):
        reports = verifier(9, range(1, 10))
        assert reports_to_json(reports) == reports_to_json_by_stdlib(reports)

    def test_matches_stdlib_on_lemma31_and_empty(self):
        reports = [verify_lemma31(20, 7, [2, 3, 9])]
        assert reports_to_json(reports) == reports_to_json_by_stdlib(reports)
        assert reports_to_json([]) == reports_to_json_by_stdlib([]) == "[]\n"

    def test_rulings_differing_in_verdict_or_notes_alone(self):
        # reports holding the same arg_trees and predicate_outcomes objects
        # but other verdicts or notes, and the same instance fields but
        # another theorem: every encoded part is keyed on all it writes
        codes = ("(()())", "((()))")
        outcomes = {code: {"is_quasi_caterpillar": True} for code in codes}
        segments = [2, 1, 1]

        def report(theorem, k, verdict, notes):
            return VerificationReport(
                theorem=theorem,
                instance={"n": 5, "segments": segments, "k": k},
                extremal_value=k * 10,
                arg_trees=codes,
                predicate_outcomes=outcomes,
                verdict=verdict,
                notes=notes,
            )

        reports = [
            report("theorem2", 2, CONFIRMED, "class size 3"),
            report("theorem2", 3, VIOLATED, "class size 3"),
            report("theorem2", 4, CONFIRMED, "class size 3; other"),
            report("structure", 2, CONFIRMED, "class size 3"),
            report("structure", 3, CONFIRMED, "class size 3"),
        ]
        assert reports_to_json(reports) == reports_to_json_by_stdlib(reports)

    def test_escapes_strings_like_json(self):
        odd = 'quote " backslash \\ newline \n tab \t non-ASCII é ∑ 😀 \x01'
        reports = [
            VerificationReport(
                theorem=odd,
                instance={odd: [odd, True, False, None, -3], "empty": {}, "none": []},
                extremal_value=None,
                arg_trees=(),
                predicate_outcomes=None,
                verdict=odd,
                notes=odd,
            ),
            VerificationReport(
                theorem="t",
                instance={},
                extremal_value=-(2**127),
                arg_trees=(odd, "(())"),
                predicate_outcomes={odd: {odd: True}, "(())": {}},
                verdict="confirmed",
                notes="",
            ),
        ]
        assert reports_to_json(reports) == reports_to_json_by_stdlib(reports)
        assert reports_to_json(iter(reports)) == reports_to_json_by_stdlib(reports)

    def test_lists_of_ints_and_bools(self):
        # a list of plain ints is written in one join; bools are not plain
        # ints and stay true / false, alone or among ints
        lists = {
            "ints": [3, -2, 0, 2**127, -(2**127)],
            "bools": [True, False],
            "mixed": [1, True, 0, False],
            "one": (7,),
            "nested": [[1, 2], [True], [], 3],
        }
        reports = [
            VerificationReport(
                theorem="t",
                instance=lists,
                extremal_value=None,
                arg_trees=(),
                predicate_outcomes=None,
                verdict="confirmed",
                notes="",
            )
        ]
        assert reports_to_json(reports) == reports_to_json_by_stdlib(reports)
