from __future__ import annotations

import pytest

from conftest import category
from crossedcat.braided import verify_braiding
from crossedcat.center import (CenterSimple, CenterStructure, enumerate_center,
                               relative_center_oracle, verify_center_braided)
from crossedcat.errors import NonSingularityViolated, UnsupportedConfiguration
from crossedcat.fixtures import CATEGORIES, CENTER_FIXTURES, nonsingular_violation
from crossedcat.groups import cyclic, trivial_group
from crossedcat.matched import direct_pair
from crossedcat.pointed import PointedCrossedCategory, pointed_category
from reference_sweeps import ReferenceCenter


@pytest.mark.parametrize("name", CENTER_FIXTURES)
def test_oracle_equivalence(name):
    cat = category(name)
    assert enumerate_center(cat) == relative_center_oracle(cat)


def test_expected_counts():
    assert len(enumerate_center(category("vec-z2-gtrivial"))) == 2
    assert len(enumerate_center(category("z4-over-z2"))) == 16
    assert len(enumerate_center(category("equivariant-z2"))) == 2  # one per g in G
    assert len(enumerate_center(category("z4-over-z2-graded"))) == 8
    assert len(enumerate_center(category("vec-z3-gtrivial"))) == 3


def test_nonsingularity_gate():
    with pytest.raises(NonSingularityViolated):
        enumerate_center(nonsingular_violation())


def test_z4_fixture_conjugation_holds_for_both_degrees():
    cat = category("z4-over-z2")
    simples = enumerate_center(cat)
    assert {z.g for z in simples} == {0, 1}  # inversion fixes N = {0, 2}
    assert {z.label for z in simples} == {0, 1, 2, 3}


def test_tensor_unit_and_membership():
    cat = category("z4-over-z2")
    Z = CenterStructure(cat)
    for z in Z.simples:
        assert Z.tensor(Z.unit, z) == z
        assert Z.tensor(z, Z.unit) == z
        for w in Z.simples:
            Z.find(Z.tensor(z, w))  # stays in the enumerated list


def test_tensor_formula_z4_fixture():
    cat = category("z4-over-z2")
    Z = CenterStructure(cat)
    g = 1  # the inversion
    zs = [z for z in Z.simples if z.g == g and z.label == 1]
    for z1 in zs:
        for z2 in zs:
            prod = Z.tensor(z1, z2)
            assert prod.g == 0 and prod.label == 2
            # chi(nu) = chi1(-nu) + chi2(nu) on N = {0, 2}
            for nu in cat.neutral_labels:
                want = (Z.chi_at(z1, cat.act(g, nu)) + Z.chi_at(z2, nu)) % cat.M
                assert Z.chi_at(prod, nu) == want


def test_tensor_associative_everywhere():
    for name in ("z4-over-z2", "cocycle-j", "cocycle-chi"):
        Z = CenterStructure(category(name))
        for a in Z.simples:
            for b in Z.simples:
                for c in Z.simples:
                    assert Z.tensor(Z.tensor(a, b), c) == Z.tensor(a, Z.tensor(b, c))


def test_g_action_identity_and_law():
    for name in ("z4-over-z2", "vec-z2z3"):
        cat = category(name)
        Z = CenterStructure(cat)
        for z in Z.simples:
            assert Z.g_act(cat.G.identity, z) == z
        for g in cat.G.elements():
            for h in cat.G.elements():
                for z in Z.simples:
                    assert Z.g_act(g, Z.g_act(h, z)) == Z.g_act(cat.G.mul(g, h), z)


def test_g_action_z4_inversion_example():
    cat = category("z4-over-z2")
    Z = CenterStructure(cat)
    g = 1
    for z in Z.simples:
        if z.label != 1:
            continue
        w = Z.g_act(g, z)
        assert w.label == 3 and w.g == z.g
        assert w.chi == z.chi  # -nu = nu on N = {0,2}


def test_gamma_action_examples():
    cat = category("z4-over-z2")
    Z = CenterStructure(cat)
    for z in Z.simples:
        assert Z.gamma_act(cat.Gamma.identity, z) == z
    s = 1  # zeta_1 = 1 in Z4
    for z in Z.simples:
        w = Z.gamma_act(s, z)
        # label' = (h . zeta) + lam - zeta in Z4: lam when h = e, lam + 2 when
        # h is the inversion (which sends zeta_1 = 1 to 3)
        expect = z.label if z.g == 0 else (z.label + 2) % 4
        assert w.label == expect
        gz, sz = Z.grade(z)
        gw, sw = Z.grade(w)
        # grade transport (s |>2 h, (h |>1 s) t s^-1) with trivial pair actions
        assert (gw, sw) == (gz, sz)


@pytest.mark.parametrize("name", CENTER_FIXTURES)
def test_gamma_action_grade_covariance(name):
    cat = category(name)
    Z = CenterStructure(cat)
    mp = cat.mp
    for s in cat.Gamma.elements():
        for z in Z.simples:
            gz, sz = Z.grade(z)
            gw, sw = Z.grade(Z.gamma_act(s, z))
            assert gw == mp.a2(s, gz)
            assert sw == cat.Gamma.mul(cat.Gamma.mul(mp.a1(gz, s), sz), cat.Gamma.inv(s))


def test_braiding_examples():
    Z = CenterStructure(category("vec-z2-gtrivial"))
    # all crossings are identities here
    assert [list(row) for row in Z.braid_table] == [[0, 0], [0, 0]]
    cat = category("z4-over-z2")
    Z = CenterStructure(cat)
    for z1 in Z.simples:
        for z2 in Z.simples:
            # the braiding runs between two simples of one grade
            src = Z.tensor(Z.gamma_act(cat.deg(z2.label), z1), z2)
            tgt = Z.tensor(Z.g_act(z1.g, z2), z1)
            Z.find(src)  # raises KeyError unless src is a simple
            Z.find(tgt)
            assert Z.grade(src) == Z.grade(tgt)


@pytest.mark.parametrize("name", CENTER_FIXTURES)
def test_as_category_matches_pointed_category(name):
    # as_category builds its record directly from the reduced tables;
    # pointed_category, which reduces every entry again, must agree with it
    Z = CenterStructure(category(name))
    cat, n, cp = Z.cat, len(Z.simples), Z.induced.mp
    zcat = Z.as_category()
    want = pointed_category(
        zcat.Lambda, cp, Z.grade_table[:n], [row[:n] for row in Z.action_table], cat.M,
        jtable=[plane[:n] for plane in Z.j_table], chitable=Z.chi_table,
        phitable=[cat.ph(A // cat.Gamma.order) for A in cp.G.elements()],
        iotatable=[cat.io(z.label) for z in Z.simples], name=f"Z({cat.name})")
    for field in PointedCrossedCategory._fields:
        assert getattr(zcat, field) == getattr(want, field), field
    assert zcat == want


def test_exponents_are_stored_reduced():
    # the exponent accessors j, ph, x and io return entries as stored
    cats = [category(name) for name in CATEGORIES]
    cats += [CenterStructure(category(name)).as_category() for name in CENTER_FIXTURES]
    for cat in cats:
        stored = [v for t in (cat.jtable, cat.chitable) for plane in t for row in plane
                  for v in row] + list(cat.phitable) + list(cat.iotatable)
        assert all(0 <= v < cat.M for v in stored), cat.name


@pytest.mark.parametrize("name", CENTER_FIXTURES)
def test_verify_center_braided_all_fixtures(name):
    rep = verify_center_braided(category(name))
    assert rep.passed, (name, rep.first_failure())


def test_half_braiding_mutation_detected():
    cat = category("z4-over-z2")
    simples = enumerate_center(cat)
    z = simples[5]
    pos = 1 if len(z.chi) > 1 else 0
    chi = list(z.chi)
    chi[pos] = (chi[pos] + 2) % cat.M
    mutated = list(simples)
    mutated[5] = CenterSimple(z.g, z.label, tuple(chi))
    rep = verify_center_braided(cat, simples=mutated)
    assert not rep.passed


def test_structure_tables_match_chains():
    for name in ("z4-over-z2", "cocycle-j", "z6-over-z3"):
        _assert_tables_match_chains(category(name))


def _assert_tables_match_chains(cat) -> None:
    # the scalar tables hoist each chain's per-column terms; every entry must
    # still equal the per-entry chain of the reference structure
    Z, R = CenterStructure(cat), ReferenceCenter(cat)
    assert Z.points == Z.simples
    g1, s1 = cat.G.order - 1, cat.Gamma.order - 1
    for i, z1 in enumerate(Z.simples):
        assert Z.points[Z.g_action_table[g1][i]] == Z.g_act(g1, z1)
        assert Z.points[Z.gamma_action_table[s1][i]] == Z.gamma_act(s1, z1)
        for g in cat.G.elements():
            for s in cat.Gamma.elements():
                assert Z.sigma_table[g][s][i] == Z.sigma(g, s, z1) == R.sigma(g, s, z1)
        for k, z2 in enumerate(Z.simples):
            assert Z.points[Z.tensor_table[i][k]] == Z.tensor(z1, z2)
            assert Z.braid_table[i][k] == R.braiding(z1, z2)[1]
            assert Z.points[Z.tensor_table[Z.g_action_table[z1.g][k]][i]] == \
                Z.tensor(Z.g_act(z1.g, z2), z1)
            for s in cat.Gamma.elements():
                assert Z.j_gamma_table[s][i][k] == R.j_gamma(s, z1, z2)


def _assert_adjoint_pattern(Z: CenterStructure, K) -> None:
    """With one of G, Gamma trivial, the induced pair is the adjoint action on
    the surviving group K against the trivial one, and it is braided."""
    cp = Z.induced.mp
    for a in K.elements():
        for x in K.elements():
            assert cp.a1(a, x) == K.conj(a, x)
            assert cp.a2(x, a) == a
    assert verify_braiding(Z.induced).passed


# the construction generalizes the graded center (G trivial) and the
# equivariant center (Gamma trivial); checked on CenterStructure itself

def test_graded_center_specialization():
    cat = category("z4-over-z2-graded")
    assert cat.G.order == 1
    Z = CenterStructure(cat)
    assert len(Z.simples) == 8
    assert all(z.g == cat.G.identity for z in Z.simples)
    _assert_adjoint_pattern(Z, cat.Gamma)


def test_equivariant_center_specialization():
    cat = category("equivariant-z2")
    assert cat.Gamma.order == 1
    Z = CenterStructure(cat)
    assert len(Z.simples) == 2
    assert all(cat.deg(z.label) == cat.Gamma.identity for z in Z.simples)
    _assert_adjoint_pattern(Z, cat.G)


def test_graded_center_of_vec_z3():
    cat = category("vec-z3-gtrivial")
    assert cat.G.order == 1
    Z = CenterStructure(cat)
    assert len(Z.simples) == 3
    assert all(z.g == cat.G.identity for z in Z.simples)
    assert all(z.chi == () or all(v == 0 for v in z.chi) for z in Z.simples)
    _assert_adjoint_pattern(Z, cat.Gamma)


def test_section_independence():
    """A different section permutes Gamma-action images but preserves grade
    multisets and the overall verification outcome."""
    cat = category("z4-over-z2")
    default = cat.least_section()          # (0, 1)
    other = (0, 3)                          # the other label of degree 1
    assert default != other
    Z1 = CenterStructure(cat)
    Z2 = CenterStructure(cat, section=other)
    for s in cat.Gamma.elements():
        grades1 = sorted(Z1.grade(Z1.gamma_act(s, z)) for z in Z1.simples)
        grades2 = sorted(Z2.grade(Z2.gamma_act(s, z)) for z in Z2.simples)
        assert grades1 == grades2
        images2 = {Z2.find(Z2.gamma_act(s, z)) for z in Z2.simples}
        assert images2 == set(range(len(Z2.simples)))  # a permutation
    assert verify_center_braided(cat, section=other).passed


def test_partial_conjugation_support_excludes_labels():
    """Nonabelian N: labels failing the conjugation constraint for a degree
    contribute nothing there; only one coset survives per degree."""
    cat = category("equivariant-s3")
    simples = enumerate_center(cat)
    assert simples == relative_center_oracle(cat)
    assert len(simples) == 4
    S3 = cat.Lambda
    t12 = next(a for a in S3.elements() if S3.element_order(a) == 2)
    assert {(z.g, z.label) for z in simples} == {(0, S3.identity), (1, t12)}
    # the two characters per cell are the trivial one and the sign
    for z in simples:
        for a in cat.neutral_labels:
            for b in cat.neutral_labels:
                want = (z.chi[a] + z.chi[b]) % cat.M
                assert z.chi[S3.mul(a, b)] == want


def test_frozen_scalar_regression_tables():
    """The derived scalar chains, frozen once and asserted exactly.

    The axiom sweeps admit no gauge slack at these points: a change in any
    correction term of the swap scalars or the braiding shows up here."""
    Z = CenterStructure(category("z4-over-z2"))
    assert [Z.sigma(1, 1, z) for z in Z.simples] == [0, 2] * 8
    assert Z.simples[5] == CenterSimple(0, 2, (0, 2))
    assert list(Z.braid_table[5]) == [0, 0, 0, 0, 2, 2, 2, 2, 0, 0, 0, 0, 2, 2, 2, 2]
    Zj = CenterStructure(category("cocycle-j"))
    assert [(z.g, z.label, z.chi) for z in Zj.simples] == [
        (0, 0, (0, 0)), (0, 0, (0, 2)), (0, 1, (0, 0)), (0, 1, (0, 2)),
        (1, 0, (0, 1)), (1, 0, (0, 3)), (1, 1, (0, 1)), (1, 1, (0, 3))]
    assert [list(row) for row in Zj.braid_table] == [
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 2, 2, 0, 0, 2, 2],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 2, 2, 0, 0, 2, 2],
        [0, 0, 1, 1, 0, 0, 1, 1],
        [0, 0, 3, 3, 0, 0, 3, 3],
        [0, 0, 1, 1, 0, 0, 1, 1],
        [0, 0, 3, 3, 0, 0, 3, 3]]
    Z6 = CenterStructure(category("z6-over-z3"))
    assert [Z6.sigma(1, 1, z) for z in Z6.simples] == [0, 2] * 12


def test_unsupported_half_braiding_obstruction():
    """G = Z4 with J[g][1][1] = g on Lambda = Z2 leaves odd degrees with no
    root-valued character; enumeration must refuse rather than guess."""
    Z2 = cyclic(2)
    mp = direct_pair(cyclic(4), trivial_group())
    j = [[[0, 0], [0, g]] for g in range(4)]
    cat = pointed_category(Z2, mp, [0, 0], [[0, 1]] * 4, 4, jtable=j, name="obstructed")
    from crossedcat.pointed import verify_crossed_category
    assert verify_crossed_category(cat).passed
    with pytest.raises(UnsupportedConfiguration):
        enumerate_center(cat)
