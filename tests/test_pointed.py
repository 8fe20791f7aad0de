from __future__ import annotations

import itertools
import json

import pytest

from conftest import (FIXTURE_DIR, category, duals_hold, entry_mutants, indices, moved, rebuilt,
                      table_mutants)
from crossedcat import jsonio
from crossedcat.errors import ValidationError
from crossedcat.groups import cyclic, trivial_group
from crossedcat.matched import direct_pair
from crossedcat.pointed import pointed_category, verify_crossed_category
from fixture_builders import CATEGORIES

ALL_CATS = sorted(CATEGORIES)


@pytest.mark.parametrize("name", ALL_CATS)
def test_all_fixture_categories_verify(name):
    rep = verify_crossed_category(category(name))
    assert rep.passed, rep.first_failure()


@pytest.mark.parametrize("name", ALL_CATS)
def test_rebuilt_replaces_only_the_named_fields(name):
    cat = category(name)
    assert rebuilt(cat) == cat
    action = moved(cat.action, (0, 0), 1, cat.Lambda.order)
    mut = rebuilt(cat, action=action)
    assert mut.action == tuple(map(tuple, action))
    assert (mut.jtable, mut.chitable, mut.phitable, mut.iotatable) == \
        (cat.jtable, cat.chitable, cat.phitable, cat.iotatable)


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
            assert cat.action[g][s] == S3.conj(g, s)


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
        cand = rebuilt(base, jtable=[[[0, 0], [0, 0]], j1])
        if verify_crossed_category(cand).passed:
            solutions.append(tuple(values))
    assert (0, 0, 0, 0) in solutions
    assert (0, 0, 0, 2) in solutions  # the fixture's table
    assert len(solutions) == 2


def test_single_entry_mutations_detected():
    """Corrupting any single action or grading entry trips some axiom."""
    cat = category("z4-over-z2")
    muts = [*(rebuilt(cat, action=moved(cat.action, index, 1, cat.Lambda.order))
              for index in indices(cat.action)),
            *(rebuilt(cat, grading=moved(cat.grading, index, 1, cat.Gamma.order))
              for index in indices(cat.grading))]
    assert not any(verify_crossed_category(mut).passed for mut in muts)


def test_unit_law_implied_by_chi_units_and_axiom3_j_chi():
    """The unit law iota[e_L] = phi[e] is not a check of its own:
    axiom3_j_chi at (e, e, e_L, e_L), axiom2_units ("right", e, e_L) and
    chi_units ("right", e, e_L) imply it.  So every phi or iota mutant that
    breaks it fails one of those three, and every phi or iota mutant fails
    some check."""
    broken = 0
    for path in sorted(FIXTURE_DIR.glob("cat-*.json")):
        cat = jsonio.load_category(path)
        eL, eG = cat.Lambda.identity, cat.G.identity
        for mut in entry_mutants(cat, ("phitable", "iotatable")):
            failed = {c.name for c in verify_crossed_category(mut).checks if not c.passed}
            where = (path.name, mut.phitable, mut.iotatable)
            assert failed, where
            if (mut.iotatable[eL] - mut.phitable[eG]) % cat.M:
                broken += 1
                assert failed & {"chi_units", "axiom2_units", "axiom3_j_chi"}, where
    assert broken


def left_dual(cat, lam, g):
    """The left dual label of ^g lam, by definition ^{deg(lam) |>2 g}(lam^-1)."""
    return cat.action[cat.mp.act2[cat.grading[lam]][g]][cat.Lambda.inverses[lam]]


def test_dual_data_identity_case():
    cat = category("z4-over-z2")
    for lam in cat.Lambda.elements():
        assert left_dual(cat, lam, cat.G.identity) == cat.Lambda.inverses[lam]


def test_dual_data_vec_z3_example():
    cat = category("vec-z2z3")
    # lam = 1, g the inversion: (g . lam)^-1 = (2)^-1 = 1
    assert left_dual(cat, 1, 1) == cat.Lambda.inverses[cat.action[1][1]] == 1


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
        for action in table_mutants(cat.action, cat.Lambda.order):
            mut = rebuilt(cat, action=action)
            if duals_hold(mut):
                continue
            broken += 1
            failed = {c.name for c in verify_crossed_category(mut).checks if not c.passed}
            assert failed & {"axiom2_object_compat", "action_fixes_unit"}, (path.name, action)
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


@pytest.mark.parametrize("shape,error", [
    ("grading", "grading must map Lambda into Gamma"),
    ("action-entry", "action entry out of range"),
    ("short-row", "action must be |G| x |Lambda|"),
    ("j-planes", "J must be 2x4x4"),
    ("phi", "phi must have length 2"),
    ("iota", "iota must have length 4"),
    ("chi-planes", "chi must be 2x2x4"),
], ids=["grading", "action-entry", "short-row", "j-planes", "phi", "iota", "chi-planes"])
def test_pointed_category_refuses_malformed_tables(shape, error):
    """A category is well formed or not built: pointed_category refuses each
    malformed table with the loader's message, so no verifier, the
    package's or the reference's, ever indexes a table of the wrong shape."""
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
    with pytest.raises(ValidationError) as exc:
        pointed_category(cat.Lambda, cat.mp, grading, action, cat.M, name="bad",
                         **scalars.get(shape, {}))
    assert str(exc.value) == error


def test_vec_gamma_action_respects_twisted_product():
    """eval of g<(x*y)> matches the twisted factor form on a vec fixture, at
    every (x, y, g)."""
    cat = category("vec-turaev-s3")
    L, mp = cat.Lambda, cat.mp
    for x, y, g in itertools.product(L.elements(), L.elements(), cat.G.elements()):
        lhs = cat.action[g][L.table[x][y]]
        rhs = L.table[cat.action[mp.act2[cat.grading[y]][g]][x]][cat.action[g][y]]
        assert lhs == rhs, (x, y, g)
