"""Steiner k-Wiener indices of trees with segment constraints.

Exact index computation by edge contribution, constructors for the
extremal families, isomorphism-free enumeration, segment-preserving local
moves, and exhaustive verification of the extremal claims at desk scale.
The independent routes they are checked against (brute-force subset sums,
segment walks, backbones read over every candidate) are test oracles and
not part of the package.
"""

from .enumeration import all_trees, trees_with_segment_count, trees_with_segment_sequence
from .exact import CountOverflowError, binomial
from .generators import balanced_starlike, caterpillar_family, quasi_caterpillar, starlike
from .moves import (
    MoveOutcome,
    Reattach,
    Slide,
    Switch,
    apply_reattach,
    apply_slide,
    apply_switch,
    hill_climb,
    neighbors,
)
from .steiner import sw_k, sw_profile, wiener
from .trees import (
    Tree,
    canonical_code,
    is_quasi_caterpillar,
    is_starlike,
    segment_sequence,
    tree_from_code,
)
from .verify import (
    StructurePredicateSet,
    VerificationReport,
    verify_lemma31,
    verify_max_caterpillar_family,
    verify_max_quasi_caterpillar,
    verify_min_balanced,
    verify_min_starlike,
    verify_structure,
)

__all__ = [
    "CountOverflowError",
    "MoveOutcome",
    "Reattach",
    "Slide",
    "StructurePredicateSet",
    "Switch",
    "Tree",
    "VerificationReport",
    "all_trees",
    "apply_reattach",
    "apply_slide",
    "apply_switch",
    "balanced_starlike",
    "binomial",
    "canonical_code",
    "caterpillar_family",
    "hill_climb",
    "is_quasi_caterpillar",
    "is_starlike",
    "neighbors",
    "quasi_caterpillar",
    "segment_sequence",
    "starlike",
    "sw_k",
    "sw_profile",
    "tree_from_code",
    "trees_with_segment_count",
    "trees_with_segment_sequence",
    "verify_lemma31",
    "verify_max_caterpillar_family",
    "verify_max_quasi_caterpillar",
    "verify_min_balanced",
    "verify_min_starlike",
    "verify_structure",
    "wiener",
]
