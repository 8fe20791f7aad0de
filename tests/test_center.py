from __future__ import annotations

import itertools
import json
import math
import random
import re

import pytest

from conftest import ROOT, category, triples, unit_index
from crossedcat import center, jsonio
from crossedcat.braided import center_braiding, verify_braiding
from crossedcat.center import (CenterSimple, CenterStructure, enumerate_center,
                               relative_center_oracle, verify_center_braided)
from crossedcat.cli import main
from crossedcat.errors import ValidationError
from crossedcat.fixtures import CATEGORIES, CENTER_FIXTURES, nonsingular_violation
from crossedcat.groups import cyclic, direct_product, trivial_group
from crossedcat.matched import direct_pair
from crossedcat.pointed import PointedCrossedCategory, pointed_category, verify_crossed_category
from gauge import gauge, random_cochain
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
    with pytest.raises(ValidationError, match="^grading not surjective: no simple of degree "):
        enumerate_center(nonsingular_violation())


def test_z4_fixture_conjugation_holds_for_both_degrees():
    cat = category("z4-over-z2")
    simples = enumerate_center(cat)
    assert {z.g for z in simples} == {0, 1}  # inversion fixes N = {0, 2}
    assert {z.label for z in simples} == {0, 1, 2, 3}


def test_tensor_unit_and_membership():
    cat = category("z4-over-z2")
    Z = CenterStructure(cat)
    T, n = Z.tensor_table, len(Z.simples)
    u = unit_index(Z)
    for i in range(n):
        assert T[u][i] == i
        assert T[i][u] == i
        assert all(k < n for k in T[i])  # stays in the enumerated list


def test_tensor_formula_z4_fixture():
    cat = category("z4-over-z2")
    Z = CenterStructure(cat)
    g = 1  # the inversion
    zs = [z for z in Z.simples if z.g == g and z.label == 1]
    assert zs
    for z1 in zs:
        for z2 in zs:
            prod = Z.points[Z.tensor_table[Z.simples.index(z1)][Z.simples.index(z2)]]
            assert prod.g == 0 and prod.label == 2
            # chi(nu) = chi1(-nu) + chi2(nu) on N = {0, 2}
            for nu in cat.neutral_labels:
                want = (z1.chi[Z.npos[cat.action[g][nu]]] + z2.chi[Z.npos[nu]]) % cat.M
                assert prod.chi[Z.npos[nu]] == want


def test_tensor_associative_everywhere():
    for name in ("z4-over-z2", "cocycle-j", "cocycle-chi"):
        Z = CenterStructure(category(name))
        T, simples = Z.tensor_table, range(len(Z.simples))
        assert all(k in simples for row in T for k in row)
        for a in simples:
            for b in simples:
                for c in simples:
                    assert T[T[a][b]][c] == T[a][T[b][c]]


def test_g_action_identity_and_law():
    for name in ("z4-over-z2", "vec-z2z3"):
        cat = category(name)
        Z = CenterStructure(cat)
        GA, simples = Z.g_action_table, range(len(Z.simples))
        for i in simples:
            assert GA[cat.G.identity][i] == i
        for g in cat.G.elements():
            for h in cat.G.elements():
                for i in simples:
                    assert GA[g][GA[h][i]] == GA[cat.G.table[g][h]][i]


def test_g_action_z4_inversion_example():
    cat = category("z4-over-z2")
    Z = CenterStructure(cat)
    g = 1
    for i, z in enumerate(Z.simples):
        if z.label != 1:
            continue
        w = Z.points[Z.g_action_table[g][i]]
        assert w.label == 3 and w.g == z.g
        assert w.chi == z.chi  # -nu = nu on N = {0,2}


def test_gamma_action_examples():
    cat = category("z4-over-z2")
    Z = CenterStructure(cat)
    SA, grade = Z.gamma_action_table, Z.grade_table
    for i in range(len(Z.simples)):
        assert SA[cat.Gamma.identity][i] == i
    s = 1  # zeta_1 = 1 in Z4
    for i, z in enumerate(Z.simples):
        w = Z.points[SA[s][i]]
        # label' = (h . zeta) + lam - zeta in Z4: lam when h = e, lam + 2 when
        # h is the inversion (which sends zeta_1 = 1 to 3)
        expect = z.label if z.g == 0 else (z.label + 2) % 4
        assert w.label == expect
        # grade transport (s |>2 h, (h |>1 s) t s^-1) with trivial pair actions
        assert grade[SA[s][i]] == grade[i]


@pytest.mark.parametrize("name", CENTER_FIXTURES)
def test_gamma_action_grade_covariance(name):
    cat = category(name)
    Z = CenterStructure(cat)
    mp, SA, St, Sinv = cat.mp, Z.gamma_action_table, cat.Gamma.table, cat.Gamma.inverses
    for s in cat.Gamma.elements():
        for i in range(len(Z.simples)):
            gz, sz = divmod(Z.grade_table[i], cat.Gamma.order)
            gw, sw = divmod(Z.grade_table[SA[s][i]], cat.Gamma.order)
            assert gw == mp.act2[s][gz]
            assert sw == St[St[mp.act1[gz][s]][sz]][Sinv[s]]


def test_braiding_examples():
    Z = CenterStructure(category("vec-z2-gtrivial"))
    # all crossings are identities here
    assert [list(row) for row in Z.braid_table] == [[0, 0], [0, 0]]
    cat = category("z4-over-z2")
    Z = CenterStructure(cat)
    T, GA, SA, n = Z.tensor_table, Z.g_action_table, Z.gamma_action_table, len(Z.simples)
    for i, z1 in enumerate(Z.simples):
        for k, z2 in enumerate(Z.simples):
            # the braiding runs between two simples of one grade
            src = T[SA[cat.grading[z2.label]][i]][k]
            tgt = T[GA[z1.g][k]][i]
            assert src < n and tgt < n
            assert Z.grade_table[src] == Z.grade_table[tgt]


@pytest.mark.parametrize("name", CENTER_FIXTURES)
def test_as_category_matches_pointed_category(name):
    # as_category builds its record directly from the reduced tables;
    # pointed_category, which checks every shape and reduces every entry
    # again, must accept its tables and agree with it
    Z = CenterStructure(category(name))
    cat, n, cp = Z.cat, len(Z.simples), Z.induced.mp
    zcat = Z.as_category()
    want = pointed_category(
        zcat.Lambda, cp, Z.grade_table[:n], [row[:n] for row in Z.action_table], cat.M,
        jtable=[plane[:n] for plane in Z.j_table], chitable=Z.chi_table,
        phitable=[cat.phitable[A // cat.Gamma.order] for A in cp.G.elements()],
        iotatable=[cat.iotatable[z.label] for z in Z.simples], name=f"Z({cat.name})")
    for field in PointedCrossedCategory._fields:
        assert getattr(zcat, field) == getattr(want, field), field
    assert zcat == want


def test_exponents_are_stored_reduced():
    # every J, chi, phi and iota entry is stored reduced to 0..M-1, so a
    # sweep reads each exponent as stored
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


@pytest.mark.parametrize("name", [
    name for name in CENTER_FIXTURES
    # z6-over-z3's C' (|Lambda'| = 24, 576 simples) takes over 20 s until
    # verify_center_braided is faster on nonzero data (ROADMAP item 19); the
    # slow test_center_of_a_center_is_braided_at_every_section covers it
    if name != "z6-over-z3"])
def test_center_of_a_center_is_braided(name):
    """The center C' of a center fixture, viewed as a category, is a valid
    category, and by the paper's theorem its own center is braided.  Only
    the least section is checked."""
    cat = CenterStructure(category(name)).as_category()
    assert verify_crossed_category(cat).passed
    rep = verify_center_braided(cat)
    assert rep.passed, rep.first_failure()


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


def test_empty_simple_list_report():
    """An empty simple list misses the unit, and the empty tensor table is
    no group table: the center cannot be built as a category."""
    rep = verify_center_braided(category("z4-over-z2"), simples=[])
    assert triples(rep) == [
        ("oracle_equivalence", False, ((), ((0, 0, (0, 0)),))),
        ("induced_pair_braided", True, None),
        ("center_category_axioms", False, ("structure_tables_unbuildable", "empty table")),
        ("braiding_axiom_1", True, None),
        ("braiding_axiom_2", True, None),
        ("braiding_axiom_3", True, None),
    ]


def noncyclic_chi(n: int) -> PointedCrossedCategory:
    """G = Z_n x Z_n acting trivially on Lambda = Z_n, with Gamma = 1, M = n,
    J = 0 and chi[g][h][x] = g1 h2 x for g = n g1 + g2 (direct_product's
    encoding): a bilinear 2-cocycle that is not symmetric.  With an abelian
    G acting trivially, chi(g, h) - chi(h, g) is a cohomology invariant, so
    neither a fixture (each has a cyclic G or chi = 0) nor a gauge of one
    reaches this."""
    G, L = direct_product(cyclic(n), cyclic(n)), cyclic(n)
    chi = [[[(g // n) * (h % n) * x % n for x in L.elements()] for h in G.elements()]
           for g in G.elements()]
    return pointed_category(L, direct_pair(G, trivial_group()), [0] * n,
                            [list(L.elements())] * G.order, n, chitable=chi,
                            name=f"noncyclic-chi-z{n}")


@pytest.mark.parametrize("n", [2, 3])
def test_center_of_a_noncyclic_chi_is_braided(n):
    """The G-action charges chi for ^g(^{g^-1} nu) ~ nu and for collapsing
    ^{g'}(^h(^{g^-1} nu)); without those three terms this valid category's
    center failed braiding_axiom_1, at (1, 8, 2) for n = 2 and at (1, 27, 3)
    for n = 3.  Mod 2 the terms' signs are invisible; n = 3 pins them."""
    cat = noncyclic_chi(n)
    assert verify_crossed_category(cat).passed
    rep = verify_center_braided(cat)
    assert rep.passed, rep.first_failure()


# categories off the fixtures whose tables are compared with the chains: the
# two noncyclic chi shapes in full, and 12 x 12 seeded rows of three centers
# C' = Z(name) viewed as categories
TABLE_CASES = {"noncyclic-chi-z2": lambda: noncyclic_chi(2),
               "noncyclic-chi-z3": lambda: noncyclic_chi(3),
               **{f"Z({name})": (lambda name=name: CenterStructure(category(name)).as_category())
                  for name in ("z4-over-z2", "equivariant-s3", "vec-z2z3")}}


@pytest.mark.parametrize("name", [*CENTER_FIXTURES, *TABLE_CASES])
def test_structure_tables_match_chains(name):
    """Every table read from half_braiding equals the chain that the
    rewriting system derives (tests/derived_center.py): on the fixture, on
    gauges off the units and on corrupted simple lists, whose escape points
    sigma and the combined chi read too; and on the cases off the fixtures,
    at every point or at seeded rows of a C'."""
    from test_reference_equivalence import _corrupted_simples
    if name in TABLE_CASES:
        cat = TABLE_CASES[name]()
        n = len(CenterStructure(cat).points)
        rng = random.Random(f"tables:{name}")
        _assert_tables_match_chains(cat, rows=None if name.startswith("noncyclic") else
                                    [sorted(rng.sample(range(n), min(12, n))) for _ in range(2)])
        return
    cat = category(name)
    assert CenterStructure(cat).points == tuple(enumerate_center(cat))
    rng = random.Random(f"tables:{name}")
    _assert_tables_match_chains(cat)
    for simples in _corrupted_simples(cat, 2, rng):
        _assert_tables_match_chains(cat, simples)
    # gauges that keep phi and iota make J nonzero where the chains read it:
    # a seeded one, and u = 1 at labels off N and off the section, which
    # makes J[g][zeta_s][nu] = 1, read by half_braiding, for g, s, nu != e
    eG, eL, N, sec = cat.G.identity, cat.Lambda.identity, cat.neutral_labels, cat.least_section()
    for at in (lambda x: rng.randrange(cat.M) if x != eL else 0,
               lambda x: int(x not in N and x not in sec)):
        u = [[at(x) if g != eG else 0 for x in cat.Lambda.elements()] for g in cat.G.elements()]
        _assert_tables_match_chains(gauge(cat, u))


def _assert_tables_match_chains(cat, simples=None, rows=None) -> None:
    # the scalar tables read each chain from half_braiding; every entry at
    # every point (or at the two index lists `rows`, for the first and the
    # second point) must equal the derived chain, and half_braiding on N is
    # the point's chi
    Z = CenterStructure(cat, simples=simples)
    R = ReferenceCenter(Z.cat, simples=Z.simples)
    P, N = Z.points, Z.cat.neutral_labels
    first, second = rows or (range(len(P)), range(len(P)))
    assert len(Z.half_braiding) == len(P)
    for i in first:
        z1 = P[i]
        assert [Z.half_braiding[i][nu] for nu in N] == [z1.chi[Z.npos[nu]] for nu in N]
        for g in cat.G.elements():
            assert P[Z.g_action_table[g][i]] == R.g_act(g, z1)
            for s in cat.Gamma.elements():
                assert Z.sigma_table[g][s][i] == R.sigma(g, s, z1)
        for s in cat.Gamma.elements():
            for s2 in cat.Gamma.elements():
                assert Z.chi_gamma_table[s][s2][i] == R.chi_gamma(s, s2, z1)
        for k in second:
            z2 = P[k]
            assert Z.braid_table[i][k] == R.braiding(z1, z2)[1]
            for s in cat.Gamma.elements():
                assert Z.j_gamma_table[s][i][k] == R.j_gamma(s, z1, z2)
            if k >= len(Z.simples):
                continue
            assert P[Z.tensor_table[i][k]] == R.tensor(z1, z2)
            if i < len(Z.simples):  # the braiding's target tensors with z1
                assert P[Z.tensor_table[Z.g_action_table[z1.g][k]][i]] == \
                    R.braiding(z1, z2)[0]
    for s in cat.Gamma.elements():
        assert [P[Z.gamma_action_table[s][i]] for i in first] == \
            [R.gamma_act(s, P[i]) for i in first]


def _closure_by_chains(Z: CenterStructure) -> tuple:
    """The points and tables of Z, closed one chain call at a time by the
    reference structure's tensor, g_act and gamma_act on CenterSimple
    values, interned on the records."""
    cat = Z.cat
    R = ReferenceCenter(cat, section=Z.section, simples=Z.simples)
    points = list(Z.simples)
    where = {z: i for i, z in enumerate(points)}

    def intern(z: CenterSimple) -> int:
        if z not in where:
            where[z] = len(points)
            points.append(z)
        return where[z]

    g_rows, gamma_rows, tensor_rows = [], [], []
    for z in points:
        g_rows.append([intern(R.g_act(g, z)) for g in cat.G.elements()])
        gamma_rows.append([intern(R.gamma_act(s, z)) for s in cat.Gamma.elements()])
        tensor_rows.append(tuple(intern(R.tensor(z, w)) for w in Z.simples))
    return tuple(points), tuple(tensor_rows), tuple(zip(*g_rows)), tuple(zip(*gamma_rows))


@pytest.mark.parametrize("name", CENTER_FIXTURES)
def test_closure_matches_chains(name):
    """The interned closure builds the points and tables that the per-simple
    chains give, on corrupted and duplicated simple lists too, where points
    escape the list, some have a nonzero chi at e_L, and one index is named
    twice."""
    from test_reference_equivalence import _corrupted_simples, _duplicated_simple
    cat = category(name)
    rng = random.Random(f"closure:{name}")
    for simples in [None, *_corrupted_simples(cat, 3, rng), *_duplicated_simple(cat, rng)]:
        Z = CenterStructure(cat, simples=simples)
        assert (Z.points, Z.tensor_table, Z.g_action_table, Z.gamma_action_table) \
            == _closure_by_chains(Z)


def _assert_adjoint_pattern(Z: CenterStructure, K) -> None:
    """With one of G, Gamma trivial, the induced pair is the adjoint action on
    the surviving group K against the trivial one, and it is braided."""
    cp = Z.induced.mp
    for a in K.elements():
        for x in K.elements():
            assert cp.act1[a][x] == K.conj(a, x)
            assert cp.act2[x][a] == a
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
    assert all(cat.grading[z.label] == cat.Gamma.identity for z in Z.simples)
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
        grades1 = sorted(Z1.grade_table[p] for p in Z1.gamma_action_table[s])
        grades2 = sorted(Z2.grade_table[p] for p in Z2.gamma_action_table[s])
        assert grades1 == grades2
        images2 = set(Z2.gamma_action_table[s])
        assert images2 == set(range(len(Z2.simples)))  # a permutation
    assert verify_center_braided(cat, section=other).passed


def _sections(cat):
    """Every section: one label per Gamma-fiber, e_L on the trivial degree's."""
    e = cat.Gamma.identity
    return list(itertools.product(*((cat.Lambda.identity,) if s == e else cat.fibers[s]
                                    for s in cat.Gamma.elements())))


@pytest.mark.parametrize("name", CENTER_FIXTURES)
def test_every_section_gives_the_least_sections_report(name):
    """Section independence on each center fixture and three seeded gauges
    of it: every section's report is the least section's, byte for byte."""
    cat = category(name)
    rng = random.Random(f"sections:{name}")
    for case in [cat, *(gauge(cat, random_cochain(cat, rng)) for _ in range(3))]:
        least = verify_center_braided(case).to_json()
        assert least["pass"], case.name
        for section in _sections(case):
            assert verify_center_braided(case, section=section).to_json() == least, section


@pytest.mark.slow
@pytest.mark.parametrize("name", CENTER_FIXTURES)
def test_center_of_a_center_is_braided_at_every_section(name):
    """The center C' of a center fixture, viewed as a category, is valid,
    and its own center is braided at every section of C', or at 64 seeded
    sections where C' has more.  Slow: z4-over-z2's C' has 64 sections, and
    z6-over-z3's C' takes about 20 s per section."""
    cat = CenterStructure(category(name)).as_category()
    assert verify_crossed_category(cat).passed
    e, rng = cat.Gamma.identity, random.Random(f"c-prime-sections:{name}")
    fibers = [(cat.Lambda.identity,) if s == e else cat.fibers[s] for s in cat.Gamma.elements()]
    if math.prod(map(len, fibers)) <= 64:
        sections = set(itertools.product(*fibers))
    else:
        sections = set()
        while len(sections) < 64:
            sections.add(tuple(rng.choice(fiber) for fiber in fibers))
    for section in sorted(sections):
        rep = verify_center_braided(cat, section=section)
        assert rep.passed, (section, rep.first_failure())


@pytest.mark.parametrize("Lambda,M", [(cyclic(3), 3), (cyclic(4), 4), (cyclic(4), 8),
                                      (direct_product(cyclic(2), cyclic(2)), 2)],
                         ids=["z3-m3", "z4-m4", "z4-m8", "z2xz2-m2"])
def test_drinfeld_center_of_vec_lambda(Lambda, M):
    """G = Gamma = 1 and Lambda abelian: the center is Z(Vec_Lambda), whose
    simples are Lambda x Hom(Lambda, Z/M) and whose braiding exponent from
    z to w is chi_z(lambda_w)."""
    one, n = trivial_group(), Lambda.order
    cat = pointed_category(Lambda, direct_pair(one, one), [0] * n, [list(range(n))], M,
                           name=f"Vec[{Lambda.name}]")
    chars = [c for c in itertools.product(range(M), repeat=n)
             if all(c[Lambda.table[a][b]] == (c[a] + c[b]) % M for a in range(n) for b in range(n))]
    Z = CenterStructure(cat)
    assert cat.neutral_labels == tuple(range(n))
    assert sorted(Z.simples, key=CenterSimple.sort_key) == \
        [CenterSimple(0, x, c) for x in range(n) for c in chars]
    for i, z in enumerate(Z.simples):
        for k, w in enumerate(Z.simples):
            assert Z.braid_table[i][k] == z.chi[w.label]
    assert verify_center_braided(cat).passed


def test_center_size_bounds_refuse_at_their_edges(monkeypatch):
    """Each search refuses a category whose own tries pass the bound and
    admits one at it: |G| |Lambda| M^|N| for the oracle, and |G| M^k for
    enumerate_center, k the generators of N its characters are solved on."""
    cat = category("z4-over-z2")
    simples = enumerate_center(cat)
    assert (center.oracle_tries(cat), center.enumeration_tries(cat)) == (2 * 4 * 4 ** 2, 2 * 4)
    assert max(center.oracle_tries(category(n)) for n in CATEGORIES) == 768
    for search, tries in ((relative_center_oracle, 128), (enumerate_center, 8)):
        monkeypatch.setattr(center, "MAX_CENTER_TRIES", tries)
        assert search(cat) == simples
        monkeypatch.setattr(center, "MAX_CENTER_TRIES", tries - 1)
        with pytest.raises(ValidationError, match=f"^center too large to enumerate: "
                                                  f"{search.__name__} would try {tries} "):
            search(cat)
    # an input the oracle refuses can still be enumerated
    monkeypatch.setattr(center, "MAX_CENTER_TRIES", 127)
    assert enumerate_center(cat) == simples


def _z8_over_trivial_groups():
    """Lambda = Z_8 graded trivially over trivial G and Gamma, M = 8."""
    Z8, one = cyclic(8), trivial_group()
    return pointed_category(Z8, direct_pair(one, one), [0] * 8, [list(range(8))], 8)


def _unsearched(monkeypatch):
    """Make enumerate_center and CenterStructure raise if they are called."""
    def fail(what):
        def run(*args, **kwargs):
            raise AssertionError(f"{what} ran")
        return run

    monkeypatch.setattr(center, "enumerate_center", fail("enumerate_center"))
    monkeypatch.setattr(center, "CenterStructure", fail("CenterStructure"))


def test_oracle_bound_refuses_before_the_center_tables(monkeypatch):
    """On Z_8 over trivial groups with M = 8, enumeration tries 8
    characters and the oracle 8 * 8^8 functions: verify_center_braided
    refuses on the oracle's bound before enumerate_center searches and
    before CenterStructure builds a table."""
    cat = _z8_over_trivial_groups()
    assert (center.enumeration_tries(cat), center.oracle_tries(cat)) == (8, 8 * 8 ** 8)
    _unsearched(monkeypatch)
    with pytest.raises(ValidationError,
                       match="^center too large to enumerate: relative_center_oracle would try"):
        verify_center_braided(cat)


@pytest.mark.parametrize("command", [["verify", "center"], ["center"]])
def test_center_commands_refuse_on_the_oracle_bound_before_any_search(
        monkeypatch, capsys, tmp_path, command):
    """Both center commands exit 2 on the Z_8 category, naming the oracle's
    count, with no enumeration and no center table."""
    path = tmp_path / "z8.json"
    jsonio.save_category(_z8_over_trivial_groups(), path)
    _unsearched(monkeypatch)
    assert main([*command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": (
        f"center too large to enumerate: relative_center_oracle would try {8 * 8 ** 8} "
        f"candidates, over the limit of {center.MAX_CENTER_TRIES}")}


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
                assert z.chi[S3.table[a][b]] == want


def test_frozen_scalar_regression_tables():
    """The derived scalar chains, frozen once and asserted exactly.

    The axiom sweeps admit no gauge slack at these points: a change in any
    correction term of the swap scalars or the braiding shows up here."""
    Z = CenterStructure(category("z4-over-z2"))
    assert list(Z.sigma_table[1][1]) == [0, 2] * 8
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
    assert list(Z6.sigma_table[1][1]) == [0, 2] * 12


def test_obstructed_degrees_have_no_simple(tmp_path, capsys):
    """G = Z4 with J[g][1][1] = g on Lambda = Z2 leaves the odd degrees with
    no root-valued character.  They have no simple; the invertible part at
    degrees 0 and 2 is the center, and it verifies, in process and from
    the CLI."""
    Z2 = cyclic(2)
    mp = direct_pair(cyclic(4), trivial_group())
    j = [[[0, 0], [0, g]] for g in range(4)]
    cat = pointed_category(Z2, mp, [0, 0], [[0, 1]] * 4, 4, jtable=j, name="obstructed")
    assert verify_crossed_category(cat).passed
    simples = enumerate_center(cat)
    assert [(z.g, z.label, z.chi) for z in simples] == [
        (g, label, (0, c)) for g in (0, 2) for label in (0, 1)
        for c in ((0, 2) if g == 0 else (1, 3))]
    assert simples == relative_center_oracle(cat)
    assert verify_center_braided(cat).passed
    path = tmp_path / "obstructed.json"
    jsonio.save_category(cat, path)
    for argv in (["verify", "center", str(path)], ["center", str(path)]):
        assert main(argv) == 0, (argv, capsys.readouterr())
        assert json.loads(capsys.readouterr().out)["pass"] is True


def test_readme_check_counts():
    """The README's count of report checks is the verifiers' on a passing
    fixture."""
    text = " ".join((ROOT / "README.md").read_text().split())
    found = re.search(r"the category report has (\d+) checks and the center report (\d+)\.", text)
    assert found, "README sentence with the check counts is missing"
    cat = category("z4-over-z2")
    rep, center = verify_crossed_category(cat), verify_center_braided(cat)
    assert rep.passed and center.passed
    assert (int(found[1]), int(found[2])) == (len(rep.checks), len(center.checks))
    found = re.search(r"The braided-pair report has (\d+) checks\.", text)
    assert found, "README sentence with the braided-pair check count is missing"
    braided = verify_braiding(center_braiding(cat.mp))
    assert braided.passed and int(found[1]) == len(braided.checks)
