"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Everything is exact
integer arithmetic, so every comparison is equality; there are no numeric
tolerances to calibrate.
"""

from __future__ import annotations

import os
import random

from segwiener.enumeration import all_trees
from segwiener.generators import (
    FAMILY_LABELS,
    ParityMismatchError,
    UnrealizableError,
    caterpillar_family,
)
from segwiener.moves import Reattach, Slide, Switch, apply_reattach, apply_slide, apply_switch
from segwiener.steiner import sw_k, wiener
from segwiener.trees import canonical_code, segment_sequence
from segwiener.verify import (
    random_switch_instance,
    verify_lemma31,
    verify_max_caterpillar_family,
    verify_max_quasi_caterpillar,
    verify_min_balanced,
    verify_min_starlike,
    verify_structure,
)

from . import oracles
from .conftest import any_violated, moves_of_kind
from .oracles import _interned_class_key, deinterned_class_key, prufer_class_keys_in_parts, sw_k_bruteforce


def _announce(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


def test_criterion_1_oracle_equivalence_all_orders_up_to_nine():
    classes = 0
    pairs = 0
    for n in range(1, 10):
        for t in all_trees(n):
            classes += 1
            for k in range(1, n + 1):
                assert sw_k(t, k) == sw_k_bruteforce(t, k), (n, k)
                pairs += 1
    _announce("1", f"sw_k == sw_k_bruteforce on {pairs} (tree, k) pairs over {classes} classes")


def test_criterion_2_wiener_identities_up_to_ten():
    checked = 0
    for n in range(2, 11):
        for t in all_trees(n):
            w = wiener(t)
            assert sw_k(t, 2) == w
            if n >= 3:
                assert 2 * sw_k(t, 3) == (n - 2) * w
            checked += 1
    _announce("2", f"SW_2 = W and 2SW_3 = (n-2)W on {checked} trees")


def test_criterion_3_starlike_minimizes_exhaustively():
    reports = verify_min_starlike(11, [2, 3, 4, 5])
    assert not any_violated(reports)
    _announce("3", f"{len(reports)} (sequence, k) instances, zero violated")


def test_criterion_4_quasi_caterpillar_maximizes_with_structure():
    reports_max = verify_max_quasi_caterpillar(11, [2, 3, 4, 5])
    assert not any_violated(reports_max)
    reports_structure = verify_structure(11, [2, 3, 4, 5])
    assert not any_violated(reports_structure)
    _announce(
        "4",
        f"{len(reports_max)} maximizer instances and {len(reports_structure)} "
        "structure instances, zero violated",
    )


def test_criterion_5_balanced_starlike_minimizes():
    reports = verify_min_balanced(11, [2, 3, 4])
    assert not any_violated(reports)
    _announce("5", f"{len(reports)} (n, m, k) instances, zero violated")


def test_criterion_6_odd_segment_count_maximizer_is_the_balanced_caterpillar():
    reports = verify_max_caterpillar_family(11, [2, 3, 4])
    assert not any_violated(reports)
    odd_checked = 0
    defined_checked = 0
    for rep in reports:
        assert rep.verdict in ("confirmed", "confirmed-with-notes")
        n, m = rep.instance["n"], rep.instance["m"]
        family_codes = set()
        for which in FAMILY_LABELS:
            try:
                family_codes.add(canonical_code(caterpillar_family(n, m, which).tree).decode("ascii"))
            except (ParityMismatchError, UnrealizableError):
                continue
        if family_codes:
            # some family defined for (n, m), odd or even m, is a maximizer
            assert family_codes & set(rep.arg_trees), rep.instance
            defined_checked += 1
        if m % 2 == 0:
            continue
        # all-degree-3 pattern with near-balanced end blocks
        build = caterpillar_family(n, m, "ii")
        assert canonical_code(build.tree).decode("ascii") in rep.arg_trees, rep.instance
        odd_checked += 1
    _announce(
        "6",
        f"{odd_checked} odd-m instances matched the all-degree-3 family exactly; "
        f"{defined_checked} instances with a defined family had one among the maximizers",
    )


def test_criterion_7_switch_lemma_property_suite():
    report = verify_lemma31(200, 42, [2, 3, 4])
    assert report.verdict == "confirmed", report.notes
    rng = random.Random(42)
    for _ in range(25):
        tree, move = random_switch_instance(rng, relation="equal")
        for k in (2, 3, 4):
            out = apply_switch(tree, move, k)
            assert out.delta == 0
        assert canonical_code(apply_switch(tree, move, 2).tree) == canonical_code(tree)
    _announce("7", f"200 strict instances positive ({report.notes}); isomorphic controls zero")


def test_criterion_8_move_closure_and_reattach_sign():
    descriptors = 0
    sign_checks = 0
    for n in range(2, 10):
        for t in all_trees(n):
            seq = segment_sequence(t)
            for mv in moves_of_kind(t, Switch):
                out = apply_switch(t, mv, 2)
                assert out.tree.n == n and segment_sequence(out.tree) == seq
                descriptors += 1
            for mv in moves_of_kind(t, Slide):
                out = apply_slide(t, mv, 2)
                assert out.tree.n == n and segment_sequence(out.tree) == seq
                descriptors += 1
            for mv in moves_of_kind(t, Reattach):
                descriptors += 1
                for k in (2, 3, 4):
                    if k > n:
                        continue
                    out = apply_reattach(t, mv, k)
                    assert out.tree.n == n and segment_sequence(out.tree) == seq
                    assert out.delta < 0, (n, mv, k)
                    sign_checks += 1
    _announce("8", f"{descriptors} descriptors closed; {sign_checks} reattach deltas all negative")


def test_criterion_9_enumeration_matches_prufer_oracle():
    # every Prüfer sequence of orders 4..9, split by first symbol over at
    # most one worker process per core; each process interns its own keys,
    # so both sides are compared de-interned
    oracle = prufer_class_keys_in_parts(range(4, 10), len(os.sched_getaffinity(0)))
    counts = {}
    for n in range(4, 10):
        intern: dict = {}
        keys = [_interned_class_key(t.adj, n, intern) for t in all_trees(n)]
        counts[n] = len(keys)
        assert len(set(keys)) == counts[n], n
        assert {deinterned_class_key(key, intern) for key in keys} == oracle[n], n
    streams_equal = all(
        [tuple(t.edges()) for t in all_trees(n)] == [tuple(t.edges()) for t in all_trees(n)]
        for n in range(4, 10)
    )
    assert streams_equal
    _announce("9", f"class key sets of sizes {counts} match the labeled-tree oracle; streams byte-identical")


def test_prufer_parts_run_in_process_when_no_worker_starts(monkeypatch):
    # the sweep never skips: without worker processes it runs in this one
    # and finds the same classes
    in_workers = prufer_class_keys_in_parts(range(4, 8), 2)

    def no_workers(*args, **kwargs):
        raise OSError("no process can start")

    monkeypatch.setattr(oracles, "ProcessPoolExecutor", no_workers)
    assert prufer_class_keys_in_parts(range(4, 8), 2) == in_workers
    assert [len(in_workers[n]) for n in range(4, 8)] == [2, 3, 6, 11]
