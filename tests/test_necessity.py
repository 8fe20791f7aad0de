"""Every reported check is necessary: a pinned input fails it and no other.

Each check of verify_matched_pair, verify_braiding and
verify_crossed_category, and two of verify_center_braided's, has an input
here on which it is the only failing check, so no other check can stand
in for it.  Left out:

- axiom2_j_cocycle, chi_cocycle and axiom3_j_chi, whose independence is a
  question of linear algebra over Z/M (ROADMAP item 16);
- act1_fixes_unit, act2_fixes_unit and action_fixes_unit, which a later
  check implies (test_unit_checks_never_fail_alone).  They stay because
  each is the first failure of some input, and dropping one would move
  that input's first failure to a later check and change its report;
- four checks of the center.  Under verify_center_braided's precondition
  and with the enumerated simples, every check of the center passes (the
  main theorem); a simple list other than the oracle's fails
  oracle_equivalence.  So induced_pair_braided and the three braiding
  axioms cannot fail alone on an input the command accepts: they certify
  the theorem on that input.  center_category_axioms fails alone only on
  an input that breaks the precondition.
"""

from __future__ import annotations

import itertools

import pytest

from conftest import FIXTURE_DIR, category, entry_moved, pair, rebuilt, table_mutants
from crossedcat import jsonio
from crossedcat.braided import BraidedMatchedPair, verify_braiding
from crossedcat.center import enumerate_center, verify_center_braided
from crossedcat.groups import cyclic, symmetric, trivial_group
from crossedcat.matched import direct_pair, matched_pair, verify_matched_pair
from crossedcat.pointed import pointed_category, vec_gamma, verify_crossed_category
from fixture_builders import MATCHED_PAIRS, element_order, z2_on_z3_by_inversion

Z2, Z3, Z4, Z7, ONE, S3 = cyclic(2), cyclic(3), cyclic(4), cyclic(7), trivial_group(), symmetric(3)
SWAP_1_2 = (0, 2, 1, 3)  # an involution of the set Z4 that is no automorphism
T12 = next(a for a in S3.elements() if element_order(S3, a) == 2)


def ident(K) -> list[int]:
    return list(K.elements())


def broken_act2() -> object:
    # direct-z2-z2 with act2[1][1] = 0: act2 is no action, off its identity row
    return matched_pair(Z2, Z2, [[0, 1], [0, 1]], [[0, 1], [0, 0]])


def _vec_z2z3(**tables):
    return rebuilt(vec_gamma(z2_on_z3_by_inversion(), 2), **tables)


def _center_input():
    # equivariant-s3 with iota moved at one label: it fails chi_units, so it
    # breaks verify_center_braided's precondition
    return entry_moved(category("equivariant-s3"), "iotatable", (2,), 1)


# report -> check -> a thunk giving the report on which that check alone fails
ALONE = {"matched": {
    # single-entry mutants of direct-z2-z2, and an involution that is no
    # automorphism with the other action trivial
    "act1_is_left_action": lambda: verify_matched_pair(
        matched_pair(Z2, Z2, [[0, 1], [0, 0]], [[0, 1], [0, 1]])),
    "act2_is_left_action": lambda: verify_matched_pair(broken_act2()),
    "matching_relation_1": lambda: verify_matched_pair(
        matched_pair(Z2, Z4, [ident(Z4), SWAP_1_2], [ident(Z2)] * 4)),
    "matching_relation_2": lambda: verify_matched_pair(
        matched_pair(Z4, Z2, [ident(Z2)] * 4, [ident(Z4), SWAP_1_2])),
}, "braided": {
    "underlying_matched_pair": lambda: verify_braiding(
        BraidedMatchedPair(matched_pair(ONE, Z2, [[1, 0]], [[0], [0]]), (0, 0), (0, 0))),
    "phi_is_homomorphism": lambda: verify_braiding(
        BraidedMatchedPair(direct_pair(Z2, Z2), (1, 1), (0, 0))),
    "psi_is_homomorphism": lambda: verify_braiding(
        BraidedMatchedPair(direct_pair(Z2, Z2), (0, 0), (1, 1))),
    # Gamma = S3 does not commute; then phi(t) must commute with all of G = S3
    "braiding_axiom_1": lambda: verify_braiding(
        BraidedMatchedPair(direct_pair(S3, S3), (0,) * 6, (0,) * 6)),
    "braiding_axiom_2": lambda: verify_braiding(
        BraidedMatchedPair(direct_pair(S3, Z2), (0, T12), (0, 0))),
    "braiding_axiom_3": lambda: verify_braiding(
        BraidedMatchedPair(direct_pair(S3, Z2), (0, 0), (0, T12))),
}, "category": {
    "matched_pair_valid": lambda: verify_crossed_category(
        pointed_category(ONE, broken_act2(), [0], [[0], [0]], 2)),
    "grading_is_homomorphism": lambda: verify_crossed_category(
        pointed_category(Z2, direct_pair(ONE, Z2), [1, 1], [[0, 1]], 2)),
    "action_identity": lambda: verify_crossed_category(
        pointed_category(Z2, direct_pair(Z2, ONE), [0, 0], [[0, 0], [0, 0]], 2)),
    "action_composition": lambda: verify_crossed_category(
        pointed_category(Z7, direct_pair(Z2, ONE), [0] * 7,
                         [ident(Z7), [2 * x % 7 for x in Z7.elements()]], 2)),
    "axiom1_grading_compat": lambda: verify_crossed_category(
        pointed_category(Z3, z2_on_z3_by_inversion(), ident(Z3), [ident(Z3)] * 2, 2)),
    "axiom2_object_compat": lambda: verify_crossed_category(
        pointed_category(Z4, direct_pair(Z2, ONE), [0] * 4, [ident(Z4), SWAP_1_2], 2)),
    "axiom2_units": lambda: verify_crossed_category(_vec_z2z3(phitable=[0, 1])),
    "chi_units": lambda: verify_crossed_category(_vec_z2z3(iotatable=[0, 1, 0])),
}, "center": {
    "oracle_equivalence": lambda: verify_center_braided(
        category("z4-over-z2"), simples=enumerate_center(category("z4-over-z2"))[::-1]),
    "center_category_axioms": lambda: verify_center_braided(_center_input()),
}}

LINEAR_ALGEBRA = ("axiom2_j_cocycle", "chi_cocycle", "axiom3_j_chi")
CENTER_THEOREM = ("induced_pair_braided", "braiding_axiom_1", "braiding_axiom_2",
                  "braiding_axiom_3")


def failing(rep) -> list[str]:
    return [c.name for c in rep.checks if not c.passed]


@pytest.mark.parametrize("kind,name", [(kind, name) for kind in ALONE for name in ALONE[kind]])
def test_check_fails_alone(kind, name):
    assert failing(ALONE[kind][name]()) == [name]


def test_every_check_is_pinned_or_excused():
    """The checks above, with the excused ones, are the whole reports."""
    reports = {
        "matched": verify_matched_pair(pair("turaev-s3")),
        "braided": verify_braiding(jsonio.load_braided(FIXTURE_DIR / "turaev-s3-braided.json")),
        "category": verify_crossed_category(category("z6-over-z3")),
        "center": verify_center_braided(category("z6-over-z3")),
    }
    assert all(rep.passed for rep in reports.values())
    excused = {"matched": ("act1_fixes_unit", "act2_fixes_unit"), "braided": (),
               "category": ("action_fixes_unit", *LINEAR_ALGEBRA), "center": CENTER_THEOREM}
    for kind, rep in reports.items():
        names = [c.name for c in rep.checks]
        assert sorted(names) == sorted([*ALONE[kind], *excused[kind]]), kind


# every 2 x 2 table with entries in {0, 1}
TABLES_2X2 = [[list(r) for r in rows]
              for rows in itertools.product(itertools.product(range(2), repeat=2), repeat=2)]


def _pairs():
    """Every pair of tables of Z2 on Z2, and the single-entry action
    mutants of every matched-pair fixture."""
    for a1, a2 in itertools.product(TABLES_2X2, repeat=2):
        yield matched_pair(Z2, Z2, a1, a2)
    for name in MATCHED_PAIRS:
        mp = pair(name)
        for a1 in table_mutants(mp.act1, mp.Gamma.order):
            yield rebuilt(mp, act1=a1)
        for a2 in table_mutants(mp.act2, mp.G.order):
            yield rebuilt(mp, act2=a2)


def _categories():
    """Every action table of Z2 on the labels Z2 over (Z2, 1), and the
    single-entry action and grading mutants of every category fixture."""
    for action in TABLES_2X2:
        yield pointed_category(Z2, direct_pair(Z2, ONE), [0, 0], action, 2)
    for path in sorted(FIXTURE_DIR.glob("cat-*.json")):
        cat = jsonio.load_category(path, validate=False)
        for action in table_mutants(cat.action, cat.Lambda.order):
            yield rebuilt(cat, action=action)
        for (grading,) in table_mutants([cat.grading], cat.Gamma.order):
            yield rebuilt(cat, grading=grading)


def test_unit_checks_never_fail_alone():
    """Each unit check is implied by later checks, so it never fails alone:
    - act1_fixes_unit by matching_relation_1 at (g, e, e), which reads
      g |>1 e = (g |>1 e)(g |>1 e) once act2's identity row fixes g, as
      act2_is_left_action checks first;
    - act2_fixes_unit by its mirror, matching_relation_2 with act1's
      identity row;
    - action_fixes_unit by axiom2_object_compat at (g, e, e), which reads
      ^g e = ^g e . ^g e once del(e) = e (grading_is_homomorphism) and
      e |>2 g = g (matched_pair_valid)."""
    implied_by = {
        "act1_fixes_unit": ("act2_is_left_action", "matching_relation_1"),
        "act2_fixes_unit": ("act1_is_left_action", "matching_relation_2"),
        "action_fixes_unit": ("grading_is_homomorphism", "matched_pair_valid",
                              "axiom2_object_compat"),
    }
    first = dict.fromkeys(implied_by, 0)
    reports = [*map(verify_matched_pair, _pairs()), *map(verify_crossed_category, _categories())]
    for rep in reports:
        names = failing(rep)
        for check, premises in implied_by.items():
            if check in names:
                assert set(names) & set(premises), (check, names)
                first[check] += names[0] == check
    # each check is the first failure of some input, which a later check
    # would report without it
    assert all(first.values()), first
