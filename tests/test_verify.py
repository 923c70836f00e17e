from __future__ import annotations

import hashlib
import json
import random

import pytest

from segwiener.enumeration import all_trees
from segwiener.generators import balanced_starlike, caterpillar_family, quasi_caterpillar, starlike
from segwiener.steiner import sw_k
from segwiener.trees import all_backbones, backbone, canonical_code, is_quasi_caterpillar, tree_from_code
from segwiener.verify import (
    CONFIRMED,
    CONFIRMED_WITH_NOTES,
    VIOLATED,
    _family_check,
    any_violated,
    groups_admit_valley,
    is_unimodal,
    is_unit_pendant_caterpillar,
    random_switch_instance,
    reports_to_json,
    structure_assessment,
    verify_lemma31,
    verify_max_caterpillar_family,
    verify_max_quasi_caterpillar,
    verify_min_balanced,
    verify_min_starlike,
    verify_structure,
)

from .conftest import path_tree


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
                    length == 1 for length in backbone(t).pendant_segment_lengths
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
        with pytest.raises(ValueError):
            verify_min_starlike(13, [2])


class TestTheorem2AndStructure:
    def test_no_violations_small(self):
        assert not any_violated(verify_max_quasi_caterpillar(8, [2, 3]))
        assert not any_violated(verify_structure(8, [2, 3]))

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
        def entry(t):
            return canonical_code(t).decode(), t

        # (8, 5) defines family ii only; another unit-pendant caterpillar
        # with 5 segments does not confirm it
        family_ii = caterpillar_family(8, 5, "ii").tree
        other = quasi_caterpillar((1, 1, 3), [(1, 1), (2, 1)])
        assert is_unit_pendant_caterpillar(other)
        assert canonical_code(other) != canonical_code(family_ii)
        check = _family_check(8, 5)
        assert check([entry(other)])[1] == VIOLATED
        assert check([entry(other), entry(family_ii)])[1] == CONFIRMED_WITH_NOTES
        # (8, 4) defines no family, so a unit-pendant caterpillar is enough
        four = quasi_caterpillar((1, 4), [(1, 1), (1, 1)])
        _, verdict, notes = _family_check(8, 4)([entry(four)])
        assert verdict == CONFIRMED_WITH_NOTES
        assert notes == ["no family construction matches the maximizer"]
        assert _family_check(8, 4)([entry(quasi_caterpillar((2, 2), [(1, 3)]))])[1] == VIOLATED


class TestLemma31:
    def test_seeded_run_confirms(self):
        rep = verify_lemma31(60, 42, [2, 3, 4])
        assert rep.verdict == CONFIRMED
        assert "0 non-positive deltas" in rep.notes

    def test_reproducible(self):
        a = verify_lemma31(40, 7, [2, 3])
        b = verify_lemma31(40, 7, [2, 3])
        assert a == b

    def test_instance_builder_relations(self):
        rng = random.Random(3)
        tree, move = random_switch_instance(rng, relation="strict")
        seg = tree.path(move.w0, move.ws)
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
        for rep in verify_max_quasi_caterpillar(7, [2, 3]):
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
