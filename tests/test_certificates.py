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
import sys

from hypothesis import given, settings, strategies as st

from conftest import FIXTURE_DIR, category, pair
from crossedcat import groups, jsonio
from crossedcat.center import verify_center_braided
from crossedcat.errors import CrossedCatError, GroupValidationError
from crossedcat.braided import verify_braiding
from crossedcat.groups import (FiniteGroup, action_law_witness, cyclic, dihedral, direct_product,
                               generators, group_hom, is_hom_image, subgroup_from_generators,
                               symmetric, trivial_group, twisted_hom_witness, validate_group)
from crossedcat.matched import matched_pair, verify_matched_pair
from crossedcat.pointed import pointed_category, verify_crossed_category
from reference_sweeps import (reference_crossed_category, reference_group_hom,
                              reference_is_hom_image, reference_matched_pair,
                              reference_validate_group)

GROUPS = [trivial_group(), cyclic(2), cyclic(3), cyclic(4), direct_product(cyclic(2), cyclic(2)),
          cyclic(6), symmetric(3), dihedral(4)]
PAIRS = ["trivial-pair", "direct-z2-z2", "turaev-z2", "turaev-s3", "s3-factorized",
         "z2-z3-inversion", "d4-z4-z2"]
CATEGORIES = ["vec-z2z3", "z4-over-z2", "z6-over-z3", "cocycle-j", "equivariant-s3",
              "vec-z3-gtrivial"]
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


def triples(rep) -> list[tuple]:
    return [(c.name, c.passed, c.witness) for c in rep.checks]


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
            table[p[a]][p[b]] = p[G.mul(a, b)]
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
    mut = matched_pair(mp.G, mp.Gamma, a1, a2)
    assert triples(verify_matched_pair(mut)) == triples(reference_matched_pair(mut))


def test_matching_certificate_needs_a_left_action_back():
    """Without a left-action back, the relation can hold at the generators
    and fail elsewhere, so the gate sweeps in full."""
    K, X = cyclic(2), cyclic(3)
    act = ((0, 1, 2), (0, 2, 1))     # Z2 inverts Z3
    back = ((0, 1), (0, 1), (0, 0))  # 2 |>' 1 = 0, so 2 |>' (2 |>' 1) != (2 2) |>' 1
    assert action_law_witness(X.table, back, generators(X.table, X.identity)) == (1, 1, 1)
    assert twisted_hom_witness(X.table, act, back, [0, 1]) is None  # at 0 and the generator 1
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
    assert outcome(group_hom, source, target, image) == \
        outcome(reference_group_hom, source, target, image)


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
    mut = pointed_category(cat.Lambda, cat.mp, grading, action, cat.M, jtable=cat.jtable,
                           phitable=cat.phitable, chitable=cat.chitable,
                           iotatable=cat.iotatable, name=name)
    assert triples(verify_crossed_category(mut)) == triples(reference_crossed_category(mut))


def test_object_compat_certificate_needs_a_grading_homomorphism():
    """With a grading that is no homomorphism, axiom 2 at the object level
    can hold at the generators of Lambda and fail elsewhere, so the gate
    sweeps in full."""
    cat = category("vec-s4-pair")
    grading = [*cat.grading[:5], 0]  # del(5) = 0
    mut = pointed_category(cat.Lambda, cat.mp, grading, cat.action, cat.M, name="regraded")
    L, a2 = mut.Lambda, mut.mp.act2
    ys = [L.identity, *generators(L.table, L.identity)]
    assert all(mut.act(g, L.mul(x, y)) == L.mul(mut.act(a2[grading[y]][g], x), mut.act(g, y))
               for g in mut.G.elements() for x in L.elements() for y in ys)
    rep = verify_crossed_category(mut)
    assert triples(rep) == triples(reference_crossed_category(mut))
    assert {c.name: c.witness for c in rep.checks}["axiom2_object_compat"] == (1, 1, 5)


# -- no silent fallback

def test_passing_fixtures_run_no_full_sweep(monkeypatch):
    """On every category fixture whose `verify category` and `verify center`
    pass, and on every group, matched-pair and braided-pair fixture, every
    certified law passes on its generators: a certificate that stops
    holding there turns this red instead of quietly costing the full sweep."""
    full = []
    original = groups.certified_sweep

    def counting(sweep, gens, elements):
        def recorded(r):
            if r is elements:
                full.append(sweep)
            return sweep(r)
        return original(recorded, gens, elements)

    patched = [module for name, module in list(sys.modules.items())
               if name.startswith("crossedcat")
               and getattr(module, "certified_sweep", None) is original]
    assert patched, "no module binds certified_sweep"
    for module in patched:
        monkeypatch.setattr(module, "certified_sweep", counting)
    # a known-failing mutant sweeps in full, so the patch is live
    cat = category("vec-s4-pair")
    mut = pointed_category(cat.Lambda, cat.mp, [*cat.grading[:5], 0], cat.action, cat.M)
    assert not verify_crossed_category(mut).passed
    assert full != []
    passing = []
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
