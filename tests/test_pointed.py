from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given, strategies as st

from conftest import FIXTURE_DIR, category, duals_hold
from crossedcat import jsonio
from crossedcat.errors import ValidationError
from crossedcat.fixtures import CATEGORIES
from crossedcat.groups import cyclic, trivial_group
from crossedcat.matched import direct_pair
from crossedcat.pointed import PointedCrossedCategory, pointed_category, verify_crossed_category
from reference_sweeps import reference_crossed_category

ALL_CATS = sorted(CATEGORIES)


@pytest.mark.parametrize("name", ALL_CATS)
def test_all_fixture_categories_verify(name):
    rep = verify_crossed_category(category(name))
    assert rep.passed, rep.first_failure()


def test_vec_gamma_z2z3_shape():
    cat = category("vec-z2z3")
    assert cat.Lambda.order == 3 and cat.G.order == 2
    # G permutes the three simples through |>1
    assert cat.action[1] == (0, 2, 1)
    assert cat.grading == (0, 1, 2)


def test_vec_gamma_trivial_pair_one_simple():
    cat = category("vec-trivial")
    assert cat.Lambda.order == 1


def test_vec_gamma_turaev_s3_is_conjugation():
    cat = category("vec-turaev-s3")
    S3 = cat.Gamma
    for g in S3.elements():
        for s in S3.elements():
            assert cat.act(g, s) == S3.conj(g, s)


def test_grading_incompatible_action_detected():
    mp = direct_pair(trivial_group(), cyclic(2))
    bad = pointed_category(cyclic(2), mp, [0, 1], [[1, 0]], 2)  # swaps degrees
    rep = verify_crossed_category(bad)
    assert not rep.passed
    names = [c.name for c in rep.checks if not c.passed]
    assert "axiom1_grading_compat" in names


def test_cocycle_j_found_by_brute_force_search():
    """Search mu_2-valued J[1] tables satisfying the axiom equations; the
    fixture's sign cocycle must be the unique nontrivial normalized one."""
    base = category("cocycle-j")
    solutions = []
    for values in itertools.product((0, 2), repeat=4):
        j1 = [[values[0], values[1]], [values[2], values[3]]]
        cand = pointed_category(base.Lambda, base.mp, base.grading, base.action, 4,
                                jtable=[[[0, 0], [0, 0]], j1])
        if verify_crossed_category(cand).passed:
            solutions.append(tuple(values))
    assert (0, 0, 0, 0) in solutions
    assert (0, 0, 0, 2) in solutions  # the fixture's table
    assert len(solutions) == 2


def test_single_entry_mutations_detected():
    """Corrupting any single action or grading entry trips some axiom."""
    cat = category("z4-over-z2")
    n = cat.Lambda.order
    for g in cat.G.elements():
        for l in range(n):
            action = [list(r) for r in cat.action]
            action[g][l] = (action[g][l] + 1) % n
            mut = pointed_category(cat.Lambda, cat.mp, cat.grading, action, cat.M)
            assert not verify_crossed_category(mut).passed
    for l in range(n):
        grading = list(cat.grading)
        grading[l] = 1 - grading[l]
        mut = pointed_category(cat.Lambda, cat.mp, grading, cat.action, cat.M)
        assert not verify_crossed_category(mut).passed


def test_unit_law_implied_by_chi_units_and_axiom3_j_chi():
    """The unit law iota[e_L] = phi[e] is not a check of its own:
    axiom3_j_chi at (e, e, e_L, e_L), axiom2_units ("right", e, e_L) and
    chi_units ("right", e, e_L) imply it.  So every phi or iota mutant that
    breaks it fails one of those three, and every phi or iota mutant fails
    some check."""
    broken = 0
    for path in sorted(FIXTURE_DIR.glob("cat-*.json")):
        cat = jsonio.load_category(path)
        M, eL, eG = cat.M, cat.Lambda.identity, cat.G.identity
        phi, iota = list(cat.phitable), list(cat.iotatable)
        for row in (phi, iota):
            for i, v in enumerate(row):
                for delta in range(1, M):
                    row[i] = (v + delta) % M
                    mut = pointed_category(cat.Lambda, cat.mp, cat.grading, cat.action, M,
                                           jtable=cat.jtable, phitable=phi,
                                           chitable=cat.chitable, iotatable=iota)
                    failed = {c.name for c in verify_crossed_category(mut).checks if not c.passed}
                    assert failed, (path.name, i, delta)
                    if (iota[eL] - phi[eG]) % M:
                        broken += 1
                        assert failed & {"chi_units", "axiom2_units", "axiom3_j_chi"}, \
                            (path.name, i, delta)
                row[i] = v
    assert broken


def left_dual(cat, lam, g):
    """The left dual label of ^g lam, by definition ^{deg(lam) |>2 g}(lam^-1)."""
    return cat.act(cat.mp.a2(cat.deg(lam), g), cat.Lambda.inv(lam))


def test_dual_data_identity_case():
    cat = category("z4-over-z2")
    for lam in cat.Lambda.elements():
        assert left_dual(cat, lam, cat.G.identity) == cat.Lambda.inv(lam)


def test_dual_data_vec_z3_example():
    cat = category("vec-z2z3")
    # lam = 1, g the inversion: (g . lam)^-1 = (2)^-1 = 1
    assert left_dual(cat, 1, 1) == cat.Lambda.inv(cat.act(1, 1)) == 1


@pytest.mark.parametrize("name", ALL_CATS)
def test_dual_data_sweep(name):
    # the dual law, which axiom2_object_compat implies
    assert duals_hold(category(name))


def test_dual_law_implied_by_object_compat_and_unit():
    """The dual law is not a check of its own: axiom2_object_compat at
    (g, x^-1, x) and action_fixes_unit at g imply it.  So every single-entry
    action mutant that breaks it fails one of those two."""
    broken = 0
    for path in sorted(FIXTURE_DIR.glob("cat-*.json")):
        cat = jsonio.load_category(path, validate=False)
        n = cat.Lambda.order
        for g in cat.G.elements():
            for x in range(n):
                for v in range(n):
                    if v == cat.act(g, x):
                        continue
                    action = [list(r) for r in cat.action]
                    action[g][x] = v
                    mut = pointed_category(cat.Lambda, cat.mp, cat.grading, action, cat.M,
                                           jtable=cat.jtable, phitable=cat.phitable,
                                           chitable=cat.chitable, iotatable=cat.iotatable)
                    if duals_hold(mut):
                        continue
                    broken += 1
                    failed = {c.name for c in verify_crossed_category(mut).checks
                              if not c.passed}
                    assert failed & {"axiom2_object_compat", "action_fixes_unit"}, \
                        (path.name, g, x, v)
    assert broken


@pytest.mark.parametrize("name", ALL_CATS)
def test_category_json_round_trip(name, tmp_path):
    cat = category(name)
    path = tmp_path / "cat.json"
    jsonio.save_category(cat, path)
    back = jsonio.load_category(path)
    assert back.Lambda.table == cat.Lambda.table
    assert back.grading == cat.grading and back.action == cat.action
    assert back.jtable == cat.jtable and back.chitable == cat.chitable
    assert back.phitable == cat.phitable and back.iotatable == cat.iotatable
    assert back.M == cat.M


def test_load_rejects_out_of_range_exponent(tmp_path):
    cat = category("cocycle-j")
    obj = jsonio.category_to_json(cat)
    obj["J"][1][1][1] = 7  # M = 4, exponent must be < 4
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValidationError):
        jsonio.load_category(path)


def test_hand_written_vec_z2_file(tmp_path):
    path = tmp_path / "vecz2.json"
    z2 = {"name": "Z2", "order": 2, "identity": 0, "table": [[0, 1], [1, 0]]}
    one = {"name": "1", "order": 1, "identity": 0, "table": [[0]]}
    obj = {
        "Lambda": z2, "Gamma": z2, "G": one,
        "mp": {"G": one, "Gamma": z2, "act1": [[0, 1]], "act2": [[0], [0]]},
        "grading": [0, 1], "action": [[0, 1]], "M": 2,
        "J": "trivial", "phi": "trivial", "chi": "trivial", "iota": "trivial",
    }
    path.write_text(json.dumps(obj))
    cat = jsonio.load_category(path)
    assert verify_crossed_category(cat).passed
    assert cat.Lambda.order == 2


def test_matched_pair_group_mismatch_rejected(tmp_path):
    cat = category("vec-z2z3")
    obj = jsonio.category_to_json(cat)
    obj["G"] = {"name": "Z3", "order": 3, "identity": 0,
                "table": [[(a + b) % 3 for b in range(3)] for a in range(3)]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValidationError):
        jsonio.load_category(path)


@pytest.mark.parametrize("shape,witness", [
    ("grading", "grading range"),
    ("action-entry", "action range"),
    ("short-row", "action shape"),
    ("other-groups", "matched-pair groups differ from category groups"),
    ("j-planes", "scalar shape"),
    ("phi", "scalar shape"),
    ("iota", "scalar shape"),
    ("chi-planes", "scalar shape"),
], ids=["grading", "action-entry", "short-row", "other-groups", "j-planes", "phi", "iota",
        "chi-planes"])
def test_malformed_category_reports_well_formed_alone(shape, witness):
    """A category that fails well_formed gets a report holding that one
    check, from the package and from the reference, where every later check
    would index the bad tables."""
    cat = jsonio.load_category(FIXTURE_DIR / "cat-z4-over-z2.json")
    grading, action = list(cat.grading), [list(r) for r in cat.action]
    if shape == "grading":
        grading = [0, 1, 0, 5]
    elif shape == "action-entry":
        action[1][1] = 9
    elif shape == "short-row":
        action[1] = action[1][:3]
    scalars = {"j-planes": {"jtable": cat.jtable[:1]}, "phi": {"phitable": cat.phitable[:1]},
               "iota": {"iotatable": cat.iotatable[:2]},
               "chi-planes": {"chitable": cat.chitable[:1]}}
    mut = pointed_category(cat.Lambda, cat.mp, grading, action, cat.M, name="bad",
                           **scalars.get(shape, {}))
    if shape == "other-groups":
        mut = PointedCrossedCategory(cat.Lambda, cat.Gamma, cat.G,
                                     direct_pair(trivial_group(), trivial_group()), mut.grading,
                                     mut.action, mut.M, mut.jtable, mut.phitable, mut.chitable,
                                     mut.iotatable, "bad")
    for verify in (verify_crossed_category, reference_crossed_category):
        rep = verify(mut)
        assert [(c.name, c.passed, c.witness) for c in rep.checks] == \
            [("well_formed", False, (witness,))], verify.__name__


@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
def test_vec_gamma_action_respects_twisted_product(a, b, g):
    """eval of g<(x*y)> matches the twisted factor form on a vec fixture."""
    cat = category("vec-turaev-s3")
    x, y = a % 6, b % 6
    L, mp = cat.Lambda, cat.mp
    lhs = cat.act(g, L.mul(x, y))
    rhs = L.mul(cat.act(mp.a2(cat.deg(y), g), x), cat.act(g, y))
    assert lhs == rhs
