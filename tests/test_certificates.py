"""Laws certified on generating sets against their exhaustive sweeps.

`groups.certified_sweep` passes a law once it holds at generators of one
variable, and runs the full witness-order sweep only when the generators
find a witness or the closure proof's premises failed.  On generated
inputs, each verifier must return the same verdict and witness as the
exhaustive sweeps of tests/reference_sweeps.py, and on the fixtures that
pass no full sweep may run at all.
"""

from __future__ import annotations

import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURE_DIR, category, indices, moved, pair, rebuilt, triples, unit_index
from crossedcat import braided, groups, jsonio
from crossedcat.center import CenterStructure, verify_center_braided
from crossedcat.errors import CrossedCatError, GroupValidationError
from crossedcat.braided import braiding_witnesses, verify_braiding
from crossedcat.groups import (FiniteGroup, action_law_witness, cyclic, dihedral, direct_product,
                               generators, is_hom_image, subgroup_from_generators, symmetric,
                               trivial_group, twisted_hom_witness, validate_group)
from crossedcat.matched import matched_pair, verify_matched_pair
from crossedcat.pointed import verify_crossed_category
from crossedcat.report import VerificationReport
from gauge import gauge, random_cochain
from reference_sweeps import (BraidingLaws, CategoryLaws, first, reported_crossed_category,
                              reference_is_hom_image, reference_matched_pair,
                              reference_validate_group)

GROUPS = [trivial_group(), cyclic(2), cyclic(3), cyclic(4), direct_product(cyclic(2), cyclic(2)),
          cyclic(6), symmetric(3), dihedral(4)]
PAIRS = ["trivial-pair", "direct-z2-z2", "turaev-z2", "turaev-s3", "s3-factorized",
         "z2-z3-inversion", "d4-z4-z2"]
CATEGORIES = ["vec-z2z3", "z4-over-z2", "z6-over-z3", "cocycle-j", "equivariant-s3",
              "vec-z3-gtrivial"]
CATEGORY_FILES = sorted(p.name for p in FIXTURE_DIR.glob("cat-*.json"))
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


def outcome(fn, *args):
    """A verifier's result, or its exception's type and message."""
    try:
        return fn(*args)
    except (GroupValidationError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


@st.composite
def relabelled(draw) -> FiniteGroup:
    """A group of GROUPS with its elements renumbered, so that the identity
    and the generators sit at drawn indices."""
    G = draw(st.sampled_from(GROUPS))
    p = draw(st.permutations(range(G.order)))
    table = [[0] * G.order for _ in G.elements()]
    for a in G.elements():
        for b in G.elements():
            table[p[a]][p[b]] = p[G.table[a][b]]
    return validate_group(table, p[G.identity], G.name)


def reached(table, identity: int, gens) -> set[int]:
    """Left-bracketed products of gens from the identity."""
    seen, frontier = {identity}, [identity]
    while frontier:
        x = frontier.pop()
        for s in gens:
            if table[x][s] not in seen:
                seen.add(table[x][s])
                frontier.append(table[x][s])
    return seen


# -- the generator routine

@SETTINGS
@given(G=relabelled(), data=st.data())
def test_generators_reach_every_member(G, data):
    gens = generators(G.table, G.identity)
    assert reached(G.table, G.identity, gens) == set(G.elements())
    # greedy: no generator is reached by the ones before it
    for i, s in enumerate(gens):
        assert s not in reached(G.table, G.identity, gens[:i])
    members = subgroup_from_generators(G, data.draw(st.lists(st.sampled_from(G.elements()),
                                                             max_size=2)))
    sub = generators(G.table, G.identity, members)
    assert set(sub) <= set(members)
    assert reached(G.table, G.identity, sub) == set(members)


@SETTINGS
@given(n=st.integers(1, 6), data=st.data())
def test_generators_reach_every_element_of_a_magma_with_identity(n, data):
    e = data.draw(st.integers(0, n - 1))
    table = [[data.draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
    for a in range(n):
        table[e][a] = table[a][e] = a
    assert reached(table, e, generators(table, e)) == set(range(n))


# -- associativity (Light's test)

def _associative(table) -> bool:
    n = len(table)
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a, b, c in itertools.product(range(n), repeat=3))


@SETTINGS
@given(n=st.integers(2, 6), data=st.data())
def test_light_on_random_tables_with_identity(n, data):
    e = data.draw(st.integers(0, n - 1))
    table = [[data.draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
    for a in range(n):
        table[e][a] = table[a][e] = a
    if _associative(table):
        table[e][e] = (e + 1) % n  # breaks the identity law instead
    for identity in (e, None):
        assert outcome(validate_group, table, identity) == \
            outcome(reference_validate_group, table, identity)


@SETTINGS
@given(G=relabelled(), data=st.data())
def test_light_on_group_tables_with_one_entry_changed(G, data):
    table = [list(row) for row in G.table]
    a, b = data.draw(st.integers(0, G.order - 1)), data.draw(st.integers(0, G.order - 1))
    table[a][b] = data.draw(st.integers(0, G.order - 1))
    for identity in (G.identity, None):
        assert outcome(validate_group, table, identity) == \
            outcome(reference_validate_group, table, identity)


# -- matched pairs: left actions and matching relations

def _rows(data, K: FiniteGroup, X: FiniteGroup, base) -> list[list[int]]:
    """Action rows of K on X: the base rows, one entry changed, every row a
    random permutation, or random maps."""
    kind = data.draw(st.sampled_from(["base", "entry", "permutations", "maps"]))
    if kind == "base":
        return [list(r) for r in base]
    if kind == "entry":
        rows = [list(r) for r in base]
        k, x = data.draw(st.integers(0, K.order - 1)), data.draw(st.integers(0, X.order - 1))
        rows[k][x] = data.draw(st.integers(0, X.order - 1))
        return rows
    if kind == "permutations":
        return [list(data.draw(st.permutations(range(X.order)))) for _ in K.elements()]
    return [[data.draw(st.integers(0, X.order - 1)) for _ in X.elements()] for _ in K.elements()]


@SETTINGS
@given(name=st.sampled_from(PAIRS), data=st.data())
def test_matched_pair_on_random_actions(name, data):
    # when one table is kept and the other drawn, the matching relation
    # whose back action is the drawn one runs without its certificate
    mp = pair(name)
    a1 = _rows(data, mp.G, mp.Gamma, mp.act1)
    a2 = _rows(data, mp.Gamma, mp.G, mp.act2)
    mut = rebuilt(mp, act1=a1, act2=a2)
    assert triples(verify_matched_pair(mut)) == triples(reference_matched_pair(mut))


def test_matching_certificate_needs_a_left_action_back():
    """Without a left-action back, the relation can hold at the generators
    and fail elsewhere, so the gate sweeps in full."""
    K, X = cyclic(2), cyclic(3)
    act = ((0, 1, 2), (0, 2, 1))     # Z2 inverts Z3
    back = ((0, 1), (0, 1), (0, 0))  # 2 |>' 1 = 0, so 2 |>' (2 |>' 1) != (2 2) |>' 1
    assert action_law_witness(X.table, back, X.identity) == (1, 1, 1)
    # ungated, the certificate passes at 0 and the generator 1
    assert generators(X.table, X.identity) == [1]
    assert twisted_hom_witness(X.table, act, back, X.identity) is None
    assert twisted_hom_witness(X.table, act, back, None) == (1, 1, 2)
    mp = matched_pair(K, X, act, back)
    assert triples(verify_matched_pair(mp)) == triples(reference_matched_pair(mp))
    assert verify_matched_pair(mp).checks[4].witness == (1, 1, 2)


# -- homomorphisms

@SETTINGS
@given(source=relabelled(), target=relabelled(), data=st.data())
def test_hom_image_on_random_images(source, target, data):
    kind = data.draw(st.sampled_from(["maps", "trivial", "entry"]))
    if kind == "maps":
        image = [data.draw(st.integers(0, target.order - 1)) for _ in source.elements()]
    else:
        image = [target.identity] * source.order
        if kind == "entry":
            image[data.draw(st.integers(0, source.order - 1))] = \
                data.draw(st.integers(0, target.order - 1))
    assert is_hom_image(source, target, image) == reference_is_hom_image(source, target, image)


@SETTINGS
@given(G=relabelled(), data=st.data())
def test_hom_image_on_automorphisms_with_one_entry_changed(G, data):
    # conjugation by a drawn element is a homomorphism G -> G
    g = data.draw(st.integers(0, G.order - 1))
    image = [G.conj(g, x) for x in G.elements()]
    assert is_hom_image(G, G, image) is None
    image[data.draw(st.integers(0, G.order - 1))] = data.draw(st.integers(0, G.order - 1))
    assert is_hom_image(G, G, image) == reference_is_hom_image(G, G, image)


# -- categories: action composition and the object-level axiom 2

@settings(max_examples=150, deadline=None, derandomize=True)
@given(name=st.sampled_from(CATEGORIES), data=st.data())
def test_category_on_random_action_tables(name, data):
    cat = category(name)
    action = _rows(data, cat.G, cat.Lambda, cat.action)
    grading = list(cat.grading)
    if data.draw(st.booleans()):
        # gates axiom2_object_compat's certificate on grading_is_homomorphism
        grading[data.draw(st.integers(0, cat.Lambda.order - 1))] = \
            data.draw(st.integers(0, cat.Gamma.order - 1))
    mut = rebuilt(cat, grading=grading, action=action, name=name)
    assert triples(verify_crossed_category(mut)) == triples(reported_crossed_category(mut))


def test_object_compat_certificate_needs_a_grading_homomorphism():
    """With a grading that is no homomorphism, axiom 2 at the object level
    can hold at the generators of Lambda and fail elsewhere, so the gate
    sweeps in full."""
    cat = category("vec-s4-pair")
    mut = rebuilt(cat, grading=[*cat.grading[:5], 0], name="regraded")  # del(5) = 0
    L, law = mut.Lambda, CategoryLaws(mut).axiom2_object_compat
    ys = [L.identity, *generators(L.table, L.identity)]
    assert not any(law(*w) for w in itertools.product(mut.G.elements(), L.elements(), ys))
    rep = verify_crossed_category(mut)
    assert triples(rep) == triples(reported_crossed_category(mut))
    assert {c.name: c.witness for c in rep.checks}["axiom2_object_compat"] == (1, 1, 5)


# -- categories: the J and chi cocycle laws

def _coboundary_shifted(cat, rng: random.Random):
    """`cat` with J += d(alpha) and chi += d(beta), for random 1-cochains
    alpha of Lambda and beta of G in the right modules of the cocycle
    laws' closure proof (at pointed.axiom2_cocycle), both zero at the unit.  D(d(alpha)) = 0, so each
    cocycle law reads the same sums as on `cat`, now over nonzero data; the
    unit entries of J and chi do not move."""
    L, G, M, a2, deg, act = cat.Lambda, cat.G, cat.M, cat.mp.act2, cat.grading, cat.action
    Lt, Gt = L.table, G.table

    def cochain(K, size):
        return [[0] * size if k == K.identity else [rng.randrange(M) for _ in range(size)]
                for k in K.elements()]

    alpha, beta = cochain(L, G.order), cochain(G, L.order)
    j = [[[(cat.jtable[g][x][y] + alpha[y][g] - alpha[Lt[x][y]][g] + alpha[x][a2[deg[y]][g]]) % M
           for y in L.elements()] for x in L.elements()] for g in G.elements()]
    chi = [[[(cat.chitable[g][h][x] + beta[h][x] - beta[Gt[g][h]][x] + beta[g][act[h][x]]) % M
             for x in L.elements()] for h in G.elements()] for g in G.elements()]
    return rebuilt(cat, jtable=j, chitable=chi, name=f"{cat.name}+d")


def _moved(cat, table: str, count: int, rng: random.Random):
    """`cat` with `count` distinct entries of its J or chi table moved by
    nonzero deltas."""
    field = "jtable" if table == "J" else "chitable"
    t = getattr(cat, field)
    cells = indices(t)
    for index in rng.sample(cells, min(count, len(cells))):
        t = moved(t, index, rng.randrange(1, cat.M), cat.M)
    return rebuilt(cat, **{field: t}, name=f"{cat.name}:{table}x{count}")


COCYCLE_LAWS = ("axiom2_j_cocycle", "chi_cocycle")


@pytest.mark.parametrize("name", CATEGORY_FILES)
def test_cocycle_certificates_on_coboundary_shifts(name):
    """The certified J and chi cocycle sweeps against the full sweeps, on
    coboundary shifts of every category fixture, which keep both laws, and
    on single-entry mutants of the shifts, which break one."""
    cat = jsonio.load_category(FIXTURE_DIR / name, validate=False)
    rng = random.Random(f"coboundary:{name}")
    before = {c.name: c.passed for c in verify_crossed_category(cat).checks}
    for _ in range(2):
        shifted = _coboundary_shifted(cat, rng)
        rep = verify_crossed_category(shifted)
        assert triples(rep) == triples(reported_crossed_category(shifted))
        assert {c.name: c.passed for c in rep.checks if c.name in COCYCLE_LAWS} == \
            {law: before[law] for law in COCYCLE_LAWS}
        for _ in range(3):
            mut = _moved(shifted, rng.choice(("J", "chi")), 1, rng)
            assert triples(verify_crossed_category(mut)) == \
                triples(reported_crossed_category(mut)), mut.name


def test_cocycle_certificates_need_a_right_action():
    """With a grading that is no homomorphism, or an action that does not
    compose, a coboundary shift can keep a cocycle law at e and the
    generators and break it elsewhere, so the gates sweep in full."""
    cat = jsonio.load_category(FIXTURE_DIR / "cat-vec-s4-pair.json")
    L = cat.Lambda
    regraded = rebuilt(cat, grading=[*cat.grading[:5], 0])
    shifted = _coboundary_shifted(regraded, random.Random(5))
    law = CategoryLaws(shifted).axiom2_j_cocycle
    zs = [L.identity, *generators(L.table, L.identity)]
    assert not any(law(*w) for w in itertools.product(cat.G.elements(), L.elements(),
                                                       L.elements(), zs))
    rep = verify_crossed_category(shifted)
    assert triples(rep) == triples(reported_crossed_category(shifted))
    assert {c.name: c.witness for c in rep.checks}["axiom2_j_cocycle"] == (1, 1, 1, 5)

    cat = jsonio.load_category(FIXTURE_DIR / "cat-vec-turaev-s3.json")
    G, act = cat.G, list(cat.action)
    act[4] = [0, 3, 5, 2, 4, 1]  # 4 is no generator of G, and ^1(^2 1) != ^4 1
    shifted = _coboundary_shifted(rebuilt(cat, action=act), random.Random(1144))
    law = CategoryLaws(shifted).chi_cocycle
    assert not any(law(*w) for w in itertools.product(
        G.elements(), G.elements(), [G.identity, *generators(G.table, G.identity)],
        cat.Lambda.elements()))
    rep = verify_crossed_category(shifted)
    assert triples(rep) == triples(reported_crossed_category(shifted))
    witnesses = {c.name: c.witness for c in rep.checks}
    assert (witnesses["action_composition"], witnesses["chi_cocycle"]) == ((1, 2, 1), (1, 3, 4, 1))


# -- categories: axiom 3, certified on y

AXIOM3_PREMISES = ("matched_pair_valid", "grading_is_homomorphism", "axiom1_grading_compat",
                   "axiom2_object_compat", "axiom2_j_cocycle")


def axiom3_holds_at(cat) -> set[int]:
    """The y at which axiom3_j_chi holds for every (g, h, x), evaluated
    tuple by tuple."""
    law, Gs, Ls = CategoryLaws(cat).axiom3_j_chi, cat.G.elements(), cat.Lambda.elements()
    return {y for y in Ls if not any(law(g, h, x, y) for g, h, x in itertools.product(Gs, Gs, Ls))}


def _noncomposing_equivariant_s3():
    """cat-equivariant-s3 with Z2's generator acting on S3 by the inner
    automorphism of a 3-cycle, which has order 3: every premise of the
    axiom 3 certificate holds, and action_composition fails."""
    cat = jsonio.load_category(FIXTURE_DIR / "cat-equivariant-s3.json")
    L = cat.Lambda
    c = next(x for x in L.elements() if L.element_order(x) == 3)
    action = [list(L.elements()), [L.conj(c, x) for x in L.elements()]]
    return rebuilt(cat, action=action, name="equivariant-s3:c3")


@pytest.mark.parametrize("name", CATEGORY_FILES)
def test_axiom3_certificate_on_gauged_fixtures(name):
    """Gauged fixtures keep every axiom; with one to three chi entries moved
    they keep the J cocycle, so axiom 3 runs under its certificate, and
    with one or two J entries moved they mostly break it, so it runs in
    full.  Both must give the exhaustive report."""
    cat = jsonio.load_category(FIXTURE_DIR / name)
    rng = random.Random(f"gauged:{name}")
    for table, counts in (("chi", (1, 2, 3)), ("J", (1, 2))):
        for count in counts:
            for _ in range(2):
                mut = _moved(gauge(cat, random_cochain(cat, rng)), table, count, rng)
                assert triples(verify_crossed_category(mut)) == \
                    triples(reported_crossed_category(mut)), mut.name


def test_axiom3_holds_on_a_product_closed_set():
    """The closure proof at axiom3_j_chi, as a property: on every input that
    passes its premises, the y at which axiom 3 holds for every (g, h, x)
    are closed under products.  Inputs are gauged fixtures, and a category
    whose action does not compose, with J or chi entries moved."""
    rng = random.Random("axiom3-closure")
    bases = [jsonio.load_category(FIXTURE_DIR / n) for n in CATEGORY_FILES]
    checked = proper = 0
    for cat in [*bases, _noncomposing_equivariant_s3()]:
        for _ in range(30):
            mut = _moved(gauge(cat, random_cochain(cat, rng)), rng.choice(("J", "chi", "chi")),
                         rng.randint(1, 3), rng)
            rep = verify_crossed_category(mut)
            if not all(c.passed for c in rep.checks if c.name in AXIOM3_PREMISES):
                continue
            L, good = mut.Lambda, axiom3_holds_at(mut)
            assert all(L.table[y][z] in good for y in good for z in good), mut.name
            assert {c.name: c.passed for c in rep.checks}["axiom3_j_chi"] == (len(good) == L.order)
            checked += 1
            proper += 0 < len(good) < L.order
    assert (checked, proper) == (328, 114)


def test_axiom3_certificate_needs_a_j_cocycle():
    """With J moved off the cocycle law, axiom 3 can hold at e and the
    generators and fail elsewhere, so the gate sweeps in full."""
    cat = jsonio.load_category(FIXTURE_DIR / "cat-vec-s4-pair.json")
    rng = random.Random(11)
    mut = _moved(gauge(cat, random_cochain(cat, rng)), "J", 1, rng)
    L = mut.Lambda
    good = axiom3_holds_at(mut)
    assert {L.identity, *generators(L.table, L.identity)} <= good == {0, 1, 2, 3, 4}
    rep = verify_crossed_category(mut)
    assert triples(rep) == triples(reported_crossed_category(mut))
    assert [(c.name, c.witness) for c in rep.checks if not c.passed] == \
        [("axiom2_j_cocycle", (1, 1, 5, 1)), ("axiom3_j_chi", (1, 1, 1, 5))]


def test_axiom3_certificate_with_an_action_that_does_not_compose():
    """The closure proof does not use action_composition, so its gate leaves
    it out: on gauges of the noncomposing category axiom 3 is certified,
    and with chi entries moved off the law the report is still the
    exhaustive one."""
    cat = _noncomposing_equivariant_s3()
    rng = random.Random("noncomposing")
    for count in (0, 1, 2, 3):
        for _ in range(3):
            mut = _moved(gauge(cat, random_cochain(cat, rng)), "chi", count, rng)
            rep = verify_crossed_category(mut)
            assert triples(rep) == triples(reported_crossed_category(mut)), mut.name
            passed = {c.name: c.passed for c in rep.checks}
            assert not passed["action_composition"]
            assert all(passed[p] for p in AXIOM3_PREMISES)
            assert passed["axiom3_j_chi"] == (count == 0)


# -- the center's braiding axioms, certified on the actor and on generators

NONZERO_CENTERS = ["z6-over-z3", "z4-over-z2", "cocycle-j", "cocycle-chi", "equivariant-s3"]
BRAIDING_LAWS = ("braiding_axiom_1", "braiding_axiom_2", "braiding_axiom_3")


def _center_sweeps(monkeypatch) -> dict[str, tuple]:
    """Record (sweep, identity or None) of each certified sweep of
    braided.py by the law's name."""
    runs = {}

    def spy(sweep, Kt, e):
        runs[sweep.__qualname__.split(".<locals>.")[-2]] = (sweep, e)
        return groups.certified_sweep(sweep, Kt, e)

    monkeypatch.setattr(braided, "certified_sweep", spy)
    return runs


def _center_args(Z: CenterStructure, **tables) -> tuple:
    """braiding_witnesses' arguments but the unit, which are those of
    BraidingLaws.on_tables, read from Z's tables unless `tables` names them."""
    args = dict(n=len(Z.simples), B=Z.braid_table, T=Z.tensor_table, act=Z.action_table,
                grade=Z.grade_table, J=Z.j_table, X=Z.chi_table, bmp=Z.induced, M=Z.cat.M)
    args.update(tables)
    return tuple(args.values())


def _certified_as_full(runs: dict[str, tuple], args: tuple, e: int) -> list[tuple]:
    """braiding_witnesses under the unit e; each law must run under its
    certificate and return what the full sweep (e = None) returns."""
    runs.clear()
    got = braiding_witnesses(*args, e)
    assert sorted(runs) == list(BRAIDING_LAWS)
    assert all(gate is not None for _, gate in runs.values())
    assert got == braiding_witnesses(*args, None)
    return got


@pytest.mark.parametrize("name", NONZERO_CENTERS)
def test_braiding_certificates_on_braid_table_mutants(name, monkeypatch):
    """Every single-entry mutant of the braid table over the simples (one
    drawn nonzero delta per entry) leaves the center as a category as it
    is, so the three braiding axioms run under their certificates, and each
    must return the full sweep's witness.  A seeded sample of the mutants
    is checked against BraidingLaws on the same tables too, except on the
    24-simple center, which is left out of the sample."""
    cat = category(name)
    Z = CenterStructure(cat)
    n, M, center = len(Z.simples), cat.M, Z.as_category()
    assert verify_braiding(Z.induced).passed and verify_crossed_category(center).passed
    runs = _center_sweeps(monkeypatch)
    rng = random.Random(f"braid:{name}")
    sample = set(rng.sample(range(n * n), 4)) if n < 24 else set()
    for a, b in itertools.product(range(n), repeat=2):
        row = list(Z.braid_table[a])
        row[b] = (row[b] + rng.randrange(1, M)) % M
        args = _center_args(Z, B=Z.braid_table[:a] + (tuple(row),) + Z.braid_table[a + 1:])
        got = _certified_as_full(runs, args, center.Lambda.identity)
        if a * n + b in sample:
            laws = BraidingLaws.on_tables(*args).sweeps()
            assert got == [(law, first(residue, domain)()) for law, residue, domain in laws], (a, b)


def test_braiding_axioms_sweep_in_full_when_the_center_is_no_category(monkeypatch):
    """With one J entry of the center moved at a simple that is no
    generator of the simples' group, center_category_axioms fails, and
    both hexagons hold at e and the generators and fail elsewhere: the gate
    sends all three braiding axioms to the full sweep, which reports its
    first witness."""
    cat = category("z6-over-z3")
    Z = CenterStructure(cat)
    n = len(Z.simples)
    e = unit_index(Z)
    gens = generators(Z.tensor_table[:n], e)
    assert (e, gens) == (0, [1, 2, 12])
    j_table = CenterStructure.j_table.func

    def moved(self):
        planes = j_table(self)
        plane = [list(row) for row in planes[0]]
        plane[0][3] = (plane[0][3] + 1) % cat.M  # J[(e, e)][0][3]
        return (tuple(map(tuple, plane)),) + planes[1:]

    monkeypatch.setattr(CenterStructure, "j_table", property(moved))
    runs = _center_sweeps(monkeypatch)
    rep = verify_center_braided(cat)
    assert [(c.name, c.witness) for c in rep.checks if not c.passed] == [
        ("center_category_axioms", ("axiom2_j_cocycle", 0, 0, 0, 3)),
        ("braiding_axiom_1", (0, 0, 3)),
        ("braiding_axiom_2", (0, 3, 0)),
        ("braiding_axiom_3", (0, 0, 3))]
    assert sorted(runs) == list(BRAIDING_LAWS)
    assert all(gate is None for _, gate in runs.values())
    assert [runs[law][0]([e, *gens]) for law in BRAIDING_LAWS[1:]] == [None, None]


def test_braiding_axiom_1_needs_well_typed_braidings(monkeypatch):
    """(phi, phi) is a braided pair on the induced pair of z4-over-z2, but
    under it 96 braidings have a source phi(S_k).i (x) k other than their
    target phi(S_i).k (x) i, and the closure proof at braiding_axiom_1 needs
    the two equal.  Its gate sends it to the full sweep; the hexagons, whose
    proofs do not need it, stay certified."""
    cat = category("z4-over-z2")
    Z = CenterStructure(cat)
    bmp = Z.induced
    doubled = rebuilt(bmp, psi=bmp.phi)
    center = Z.as_category()
    assert verify_braiding(doubled).passed and verify_crossed_category(center).passed
    T, act, grade, phi = Z.tensor_table, Z.action_table, Z.grade_table, bmp.phi
    n = len(Z.simples)
    assert sum(T[act[phi[grade[k]]][i]][k] != T[act[phi[grade[i]]][k]][i]
               for i in range(n) for k in range(n)) == 96
    runs = _center_sweeps(monkeypatch)
    args = _center_args(Z, bmp=doubled)
    got = braiding_witnesses(*args, center.Lambda.identity)
    assert [(law, runs[law][1] is None) for law in BRAIDING_LAWS] == [
        ("braiding_axiom_1", True), ("braiding_axiom_2", False), ("braiding_axiom_3", False)]
    assert got == braiding_witnesses(*args, None)


def braiding_holds_at(args: tuple) -> tuple[set[int], set[int], set[int]]:
    """The actors A at which braiding_axiom_1 holds for every (i, k), the k
    at which braiding_axiom_2 holds for every (i, l), and the l at which
    braiding_axiom_3 holds for every (i, k), evaluated tuple by tuple on
    braiding_witnesses' arguments."""
    laws, product = BraidingLaws.on_tables(*args), itertools.product
    Zs = laws.simples
    return ({A for A in laws.bmp.mp.G.elements()
             if not any(laws.braiding_axiom_1(A, i, k) for i, k in product(Zs, Zs))},
            {k for k in Zs if not any(laws.braiding_axiom_2(i, k, l) for i, l in product(Zs, Zs))},
            {l for l in Zs if not any(laws.braiding_axiom_3(i, k, l) for i, k in product(Zs, Zs))})


def test_braiding_axioms_hold_on_product_closed_sets(monkeypatch):
    """The closure proofs at the braiding axioms, as a property.  A gauge of
    the center viewed as a category (tests/gauge.py, by a cochain zero at
    the unit simple and at the unit actor, so that phi and iota stay zero)
    keeps every premise, and with the braid table left as it is the
    axioms fail on part of the actors or simples.  The actors at which
    axiom 1 holds everywhere, and the k and l at which the hexagons do,
    must be closed under products (49 of the 90 sets are proper and
    nonempty), and each certified sweep must return the full sweep's
    witness."""
    rng = random.Random("hexagon-closure")
    runs = _center_sweeps(monkeypatch)
    checked = proper = 0
    for name in NONZERO_CENTERS:
        Z = CenterStructure(category(name))
        as_cat, n, e = Z.as_category(), len(Z.simples), unit_index(Z)
        assert verify_braiding(Z.induced).passed
        K, T = as_cat.G, Z.tensor_table
        actors = [A for A in K.elements() if A != K.identity]
        others = [x for x in range(n) if x != e]
        for _ in range(6):
            u = [[0] * n for _ in K.elements()]
            for _ in range(rng.randint(1, 2)):
                u[rng.choice(actors)][rng.choice(others)] = rng.randrange(1, as_cat.M)
            gauged = gauge(as_cat, u)
            assert not any(gauged.phitable) and not any(gauged.iotatable)
            assert verify_crossed_category(gauged).passed
            args = _center_args(Z, J=gauged.jtable, X=gauged.chitable)
            passed = {law: w is None for law, w in _certified_as_full(runs, args, e)}
            for law, table, good in zip(BRAIDING_LAWS, (K.table, T, T), braiding_holds_at(args)):
                assert all(table[a][b] in good for a in good for b in good), (name, law)
                assert passed[law] == (len(good) == len(table))
                checked += 1
                proper += 0 < len(good) < len(table)
    assert (checked, proper) == (90, 49)


# -- no silent fallback

def test_a_gate_refuses_a_premise_the_report_does_not_hold():
    """A misspelt or reordered premise raises KeyError instead of opening a
    certificate, as `all()` over no matching check would."""
    rep = VerificationReport("gates")
    rep.add("first", None)
    rep.add("second", (0,))
    assert rep.all_passed("first") and rep.all_passed()
    assert not rep.all_passed("first", "second")
    for names in (("third",), ("first", "third"), ("second", "third")):
        with pytest.raises(KeyError, match="third"):
            rep.all_passed(*names)


def test_passing_fixtures_run_no_full_sweep(monkeypatch):
    """On every category fixture whose `verify category` and `verify center`
    pass, and on every group, matched-pair and braided-pair fixture, every
    certified law passes on its generators: a certificate that stops
    holding there turns this red instead of quietly costing the full sweep."""
    full, laws = [], set()
    original = groups.certified_sweep

    def counting(sweep, Kt, e):
        laws.add(sweep.__qualname__.split(".<locals>.")[-2])

        def recorded(r):
            if isinstance(r, range):
                full.append(sweep)
            return sweep(r)
        return original(recorded, Kt, e)

    patched = [module for name, module in list(sys.modules.items())
               if name.startswith("crossedcat")
               and getattr(module, "certified_sweep", None) is original]
    assert patched, "no module binds certified_sweep"
    for module in patched:
        monkeypatch.setattr(module, "certified_sweep", counting)
    # a known-failing mutant sweeps in full, so the patch is live
    cat = category("vec-s4-pair")
    mut = rebuilt(cat, grading=[*cat.grading[:5], 0])
    assert not verify_crossed_category(mut).passed
    assert full != []
    passing = []
    laws.clear()
    for path in sorted(FIXTURE_DIR.glob("*.json")):
        del full[:]
        name = path.name
        if name.startswith("group-"):
            jsonio.load_group(path)
        elif name.endswith("-braided.json") or name.endswith("-center.json"):
            assert verify_braiding(jsonio.load_braided(path)).passed, name
        elif not name.startswith("cat-"):
            assert verify_matched_pair(jsonio.load_matched(path)).passed, name
        else:
            cat = jsonio.load_category(path, validate=False)
            if not verify_crossed_category(cat).passed:
                continue
            try:
                if not verify_center_braided(cat).passed:
                    continue
            except CrossedCatError:  # a center that cannot be built has no report
                continue
        passing.append(name)
        assert full == [], name
    assert len(passing) == 38, passing
    # the nonzero fixtures and centers certify axiom 3 and the braiding axioms too
    assert {"axiom3_j", "axiom2_cocycle", "chi_cocycle", *BRAIDING_LAWS} <= laws, laws
