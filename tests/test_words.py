from __future__ import annotations

import hashlib
import itertools
import json
import random

import pytest

from conftest import FIXTURE_DIR, category, entry_moved, entry_mutants, pair, rebuilt
from crossedcat import jsonio
from crossedcat.pointed import pointed_category, verify_crossed_category
from crossedcat.words import (BRANCHINGS, Act, Hole, Tensor, Unit, check_coherence, composites,
                              enumerate_words, moves, normal_form, print_word, verify_coherence)
from reference_sweeps import CategoryLaws

CATEGORY_FILES = sorted(p.name for p in FIXTURE_DIR.glob("cat-*.json"))


def test_print_word_examples():
    # coherence witnesses are printed words, so their format is pinned here
    assert print_word(Unit()) == "1"
    assert print_word(Tensor(Hole(1), Act(1, Hole(2)))) == "(_1 * 1<_2>)"
    assert print_word(Tensor(Tensor(Hole(1), Unit()), Hole(2))) == "((_1 * 1) * _2)"
    assert print_word(Act(0, Act(2, Tensor(Unit(), Hole(1))))) == "0<2<(1 * _1)>>"


def _axiom3_square_mutant():
    return entry_moved(category("cocycle-chi"), "jtable", (1, 1, 1), 1)


def _chi_unit_mutant():
    # a unit-coherence entry, 0 in cocycle-chi
    return entry_moved(category("cocycle-chi"), "chitable", (1, 0, 1), 1)


# -- the exact check by critical branchings

@pytest.mark.parametrize("name", CATEGORY_FILES)
def test_every_fixture_passes_coherence(name):
    cat = jsonio.load_category(FIXTURE_DIR / name)
    rep = verify_coherence(cat)
    assert rep.passed, rep.first_failure()
    assert [c.name for c in rep.checks] == [b[0] for b in BRANCHINGS]
    g, n = cat.G.order, cat.Lambda.order
    # chi/chi, chi/J, chi/phi, chi/iota and iota/chi, J/iota, phi/iota, J/l and J/r, J/assoc
    assert rep.stats == {"branchings": 10, "instances": g ** 3 * n + g * g * n * n + g * g
                         + 2 * g * n + n * n + 1 + 2 * g * n + g * n ** 3}
    assert name != "cat-vec-turaev-s3.json" or rep.stats["instances"] == 4105


def test_coherence_checks_the_axiom3_square():
    """The first action-composition relation (axiom 3's J/chi square) is a
    cycle of the 7-node graph: it holds on cocycle-chi at every pair, and a
    single J entry that breaks only that axiom breaks coherence at (1, 1).
    The walk sees it only at budget 7; the branchings fail it at chi/J,
    with both composites and exponents."""
    cat, mut = category("cocycle-chi"), _axiom3_square_mutant()
    labels = list(cat.Lambda.elements())
    for objs in itertools.product(labels, repeat=2):
        rep = check_coherence(cat, 7, objs)
        assert rep.passed and rep.stats["words"] == 1107, (objs, rep.first_failure())
    assert [c.name for c in verify_crossed_category(mut).checks if not c.passed] == \
        ["axiom3_j_chi"]
    assert check_coherence(mut, 6, (1, 1)).passed  # the square needs 7 nodes
    assert not check_coherence(mut, 7, (1, 1)).passed
    rep = verify_coherence(mut)
    assert [c.name for c in rep.checks if not c.passed] == ["chi/J"]
    assert rep.first_failure().witness == (
        (1, 1), "1<1<(_1 * _2)>>",
        "chi(1,1)@(_1 * _2) . ~J(0)@(_1,_2) . ~iota@_1 . ~iota@_2",
        "~J(1)@(_1,_2) . ~J(1)@(1<_1>,1<_2>) . chi(1,1)@_1 . ~iota@_1 . chi(1,1)@_2 . ~iota@_2",
        0, 2)


def test_branching_witness_follows_the_j_twist():
    # vec-s4-pair is the one fixture whose J twist deg(y) |>2 g is not g:
    # J(1) at (_1, _2) with _2 of label 1 acts by 2 on _1, and the outer J(1)
    # then by 3
    cat = jsonio.load_category(FIXTURE_DIR / "cat-vec-s4-pair.json")
    failure = verify_coherence(entry_moved(cat, "jtable", (1, 0, 1), 1)).first_failure()
    assert (failure.name, failure.witness) == ("chi/J", (
        (0, 1), "1<1<(_1 * _2)>>",
        "chi(1,1)@(_1 * _2) . ~J(2)@(_1,_2)",
        "~J(1)@(_1,_2) . ~J(1)@(2<_1>,1<_2>) . chi(3,2)@_1 . chi(1,1)@_2",
        0, 1))


def test_objects_restrict_the_hole_labels():
    # the mutated entry chi[1][0][1] is read only where a hole has label 1
    mut = _chi_unit_mutant()
    assert verify_coherence(mut, [0]).passed
    rep = verify_coherence(mut, [1, 1])
    assert not rep.passed
    assert rep.first_failure().witness[0] == (1,)
    assert rep.stats["instances"] < verify_coherence(mut).stats["instances"]


def _interpretation(w) -> int:
    """The termination order of the module docstring."""
    if isinstance(w, Tensor):
        return 2 * _interpretation(w.left) + _interpretation(w.right) + 3
    if isinstance(w, Act):
        return 2 * _interpretation(w.body) + 1
    return 1


def test_every_move_lowers_the_interpretation():
    cat = category("cocycle-chi")
    for arity in range(4):
        for w in set(enumerate_words(6, arity, [0, 1])):
            for _, v, _, _ in moves(w, cat, (1,) * arity):
                assert _interpretation(v) < _interpretation(w), print_word(w)


# positions, relative to a redex, of the rule's left side that are not letters
NON_LETTERS = {"chi": ((), (2,)), "J": ((), (2,)), "phi": ((), (2,)), "iota": ((),),
               "l": ((), (0,)), "r": ((), (1,)), "assoc": ((), (0,))}
H1, H2, H3, H4 = Hole(1), Hole(2), Hole(3), Hole(4)
# the five overlaps without an action, as the module docstring lists them
ACTION_FREE = (
    ("l/r", 0, Tensor(Unit(), Unit()), ("l", ()), ("r", ())),
    ("r/assoc", 2, Tensor(Tensor(H1, H2), Unit()), ("r", ()), ("assoc", ())),
    ("assoc/l", 2, Tensor(Tensor(Unit(), H1), H2), ("assoc", ()), ("l", (0,))),
    ("assoc/r", 2, Tensor(Tensor(H1, Unit()), H2), ("assoc", ()), ("r", (0,))),
    ("pentagon", 4, Tensor(Tensor(Tensor(H1, H2), H3), H4), ("assoc", ()), ("assoc", (0,))),
)


def test_overlapping_redexes_are_the_listed_branchings():
    """Every pair of overlapping redexes in the words of up to 7 nodes
    (elements 0 and 1, at most 4 holes) is one of the 15 branchings, and
    each branching occurs."""
    cat = category("cocycle-chi")
    listed = {frozenset((a, b)): name for name, *_, a, b in (*BRANCHINGS, *ACTION_FREE)}
    assert len(listed) == 15
    seen = set()
    for arity in range(5):
        for w in set(enumerate_words(7, arity, [0, 1])):
            redexes = [(p, rule[0]) for p, _, _, rule in moves(w, cat, (0,) * arity)]
            for (p, r), (q, s) in itertools.permutations(redexes, 2):
                inner = q[len(p):]
                if q[:len(p)] == p and inner in NON_LETTERS[r]:
                    key = frozenset(((r, ()), (s, inner)))
                    assert key in listed, (print_word(w), p, r, q, s)
                    seen.add(listed[key])
    assert seen == set(listed.values())


def test_action_free_branchings_commute_with_exponent_0():
    cat = category("cocycle-chi")
    for name, holes, w, first, second in ACTION_FREE:
        for objects in itertools.product(cat.Lambda.elements(), repeat=holes):
            ends = []
            for rule, position in (first, second):
                [(v, x, step)] = [(v, x, step) for p, v, x, step in moves(w, cat, objects)
                                  if p == position and step[0] == rule]
                v, y = normal_form(v, cat, objects, [step])
                ends.append((v, x + y))
            assert ends[0] == ends[1] and ends[0][1] == 0, name


# every mutant of the small fixtures, and a seeded sample of the others
SMALL = ["cat-cocycle-chi.json", "cat-cocycle-j.json", "cat-equivariant-z2.json",
         "cat-nonsurjective.json", "cat-vec-trivial.json", "cat-vec-z2-gtrivial.json",
         "cat-vec-z2z3.json", "cat-vec-z3-gtrivial.json", "cat-z4-over-z2-graded.json"]
SAMPLED_MUTANTS = 4


@pytest.mark.parametrize("name", CATEGORY_FILES)
def test_verdict_is_the_category_verdict_on_entry_mutants(name):
    """Galindo's coherence theorem: a category with valid object-level data
    passes the branchings exactly when it passes the scalar checks."""
    muts = list(entry_mutants(jsonio.load_category(FIXTURE_DIR / name)))
    if name not in SMALL:
        muts = random.Random(name).sample(muts, SAMPLED_MUTANTS)
    for mut in muts:
        assert verify_coherence(mut).passed == verify_crossed_category(mut).passed


def _chi_j_against_axiom3(cat):
    """At every (g, h, x, y): the chi/J branching's exponent difference, as
    verify_coherence computes it, and axiom3_j_chi's residue, its left side
    minus its right side (CategoryLaws)."""
    name, _, _, overlap, first, second = BRANCHINGS[1]
    assert name == "chi/J"
    law = CategoryLaws(cat).axiom3_j_chi
    for g, h in itertools.product(cat.G.elements(), repeat=2):
        w = overlap(cat.G.identity, g, h)
        for x, y in itertools.product(cat.Lambda.elements(), repeat=2):
            (v1, x1, _), (v2, x2, _) = composites(w, cat, (x, y), first, second)
            assert v1 == v2
            yield (x1 - x2) % cat.M, law(g, h, x, y)


def _unit_normal(cat, rng, M: int = 5):
    """cat's object-level data with J and chi drawn by rng mod M and zero at
    the units (J[g][e_L][.], J[g][.][e_L], chi[g][e][.], chi[e][g][.]),
    phi = iota = 0."""
    n, ng, eL, e = cat.Lambda.order, cat.G.order, cat.Lambda.identity, cat.G.identity
    chi = [[[0 if e in (g, h) else rng.randrange(M) for _ in range(n)] for h in range(ng)]
           for g in range(ng)]
    j = [[[0 if eL in (x, y) else rng.randrange(M) for y in range(n)] for x in range(n)]
         for _ in range(ng)]
    return rebuilt(cat, M=M, jtable=j, chitable=chi, phitable=[0] * ng, iotatable=[0] * n)


@pytest.mark.parametrize("name", CATEGORY_FILES)
def test_chi_j_branching_is_axiom3_on_unit_normal_data(name):
    """The chi/J branching commutes exactly where axiom3_j_chi holds: on the
    fixture, and on random J and chi that vanish at the units over its
    shape, where the difference is the residue itself."""
    cat = jsonio.load_category(FIXTURE_DIR / name)
    assert all(diff == residue == 0 for diff, residue in _chi_j_against_axiom3(cat))
    mut = _unit_normal(cat, random.Random(name))
    assert all(diff == residue for diff, residue in _chi_j_against_axiom3(mut))


def test_chi_j_branching_drops_unit_terms():
    """Once a unit law fails the two disagree: normal_form takes the iota
    and unit moves, so the branching drops the terms that vanish only under
    the unit laws.  Lambda = Gamma with the identity grading and act1 as the
    action, M = 5, phi = iota = 0, and chi then J drawn by one
    random.Random(7); with chi and J zero at the units none disagree."""
    rng = random.Random(7)
    for name, disagree in [("s3-factorized", 6), ("s4-z4-s3", 39), ("z2-z3-inversion", 3)]:
        mp = pair(name)
        n, ng = mp.Gamma.order, mp.G.order
        chi = [[[rng.randrange(5) for _ in range(n)] for _ in range(ng)] for _ in range(ng)]
        j = [[[rng.randrange(5) for _ in range(n)] for _ in range(n)] for _ in range(ng)]
        grading = tuple(mp.Gamma.elements())
        cats = [pointed_category(mp.Gamma, mp, grading, mp.act1, 5, jtable=j, chitable=chi)]
        e, eL = mp.G.identity, mp.Gamma.identity
        for g in mp.G.elements():
            for z in mp.Gamma.elements():
                j[g][eL][z] = j[g][z][eL] = chi[g][e][z] = chi[e][g][z] = 0
        cats.append(rebuilt(cats[0], jtable=j, chitable=chi))
        assert [sum((diff == 0) != (residue == 0) for diff, residue in _chi_j_against_axiom3(c))
                for c in cats] == [disagree, 0], name


@pytest.mark.parametrize("name", ["cat-cocycle-chi.json", "cat-cocycle-j.json",
                                  "cat-z4-over-z2-graded.json"])
def test_never_weaker_than_the_walk(name):
    """Wherever the walk finds a mismatch on a 1-tuple at budget 6, the
    branchings fail too."""
    cat = jsonio.load_category(FIXTURE_DIR / name)
    muts = random.Random(name).sample(list(entry_mutants(cat)), 6)
    failing = 0
    for mut in [*muts, _axiom3_square_mutant(), _chi_unit_mutant()]:
        passed = verify_coherence(mut).passed
        for x in mut.Lambda.elements():
            if not check_coherence(mut, 6, (x,)).passed:
                assert not passed, mut.name
                failing += 1
    assert failing


# -- the bounded walk

FULL_SWEEP = ["vec-trivial", "vec-z2-gtrivial", "cocycle-j", "cocycle-chi", "equivariant-z2"]
SAMPLED = {"z4-over-z2": 12, "vec-z2z3": 12}


@pytest.mark.parametrize("name", FULL_SWEEP)
def test_coherence_full_sweep_small_fixtures(name):
    cat = category(name)
    labels = list(cat.Lambda.elements())
    for k in range(0, 3 + 1):
        for objs in itertools.product(labels, repeat=k):
            rep = check_coherence(cat, 6, objs)
            assert rep.passed, (name, objs, rep.first_failure())


@pytest.mark.parametrize("name", sorted(SAMPLED))
def test_coherence_sampled_tuples_larger_fixtures(name):
    cat = category(name)
    labels = list(cat.Lambda.elements())
    tuples = [(l,) for l in labels]
    pool2 = list(itertools.product(labels, repeat=2))
    pool3 = list(itertools.product(labels, repeat=3))
    cap = SAMPLED[name]
    tuples += pool2[:cap] + pool3[:cap]
    for objs in tuples:
        rep = check_coherence(cat, 6, objs)
        assert rep.passed, (name, objs, rep.first_failure())


def test_coherence_detects_chi_mutation():
    rep = check_coherence(_chi_unit_mutant(), 6, (1,))
    assert not rep.passed
    witness = rep.first_failure().witness
    assert witness is not None and len(witness) == 5  # two composites shown


def test_coherence_trivial_category_vacuous():
    rep = check_coherence(category("vec-trivial"), 6, ())
    assert rep.passed


def test_coherence_stats_count_independent_cycles():
    # at 3 nodes and arity 1 every enumerated word is distinct
    st = check_coherence(category("cocycle-j"), 3, (1,)).stats
    assert st["independent_cycles"] == st["edges"] - st["words"] + st["components"] == 4


@pytest.mark.parametrize("name,objs", [("cocycle-j", (1,)), ("cocycle-j", (0, 1)),
                                       ("z4-over-z2", (1, 2))])
def test_coherence_independent_cycles_count_distinct_words(name, objs):
    cat = category(name)
    rep = check_coherence(cat, 6, objs)
    assert rep.passed
    st = rep.stats
    nodes = len(set(enumerate_words(6, len(objs), list(cat.G.elements()))))
    assert st["independent_cycles"] == st["edges"] - nodes + st["components"] > 0


def _pinned_walk(name, entry, max_nodes, objects):
    """check_coherence on a fixture, or on it with one entry moved, and the
    first 16 hex digits of the SHA-256 of its checks' JSON."""
    cat = jsonio.load_category(FIXTURE_DIR / f"cat-{name}.json")
    rep = check_coherence(entry_moved(cat, *entry) if entry else cat, max_nodes, objects)
    body = json.dumps([c.to_json() for c in rep.checks], sort_keys=True)
    return rep, hashlib.sha256(body.encode()).hexdigest()[:16]


# stats and checks of the union-find skeleton this walk replaced.  The walk
# shares its moves with verify_coherence, so a wrong twist, orientation or
# sign in them would shift both checks alike; these values, taken from the
# skeleton, would move.  vec-s4-pair is the one fixture whose J twist
# deg(y) |>2 g is not g, and its J mutants fail at budget 7 along twisted J
# edges.
PASSED = "a8023f209292cc36"
PINNED_WALKS = [
    ("vec-s4-pair", None, 7, (0, 1), (7327, 19246, 16, 13077), PASSED),
    ("vec-s4-pair", ("jtable", (1, 0, 1), 1), 7, (0, 1), (7327, 19246, 1, None),
     "7009cd10365ff73a"),
    ("vec-s4-pair", ("jtable", (1, 0, 5), 1), 7, (0, 5), (7327, 19246, 1, None),
     "9fe8ef6901d7e8de"),
    ("vec-s4-pair", ("chitable", (1, 2, 3), 1), 5, (3,), (593, 1706, 1, None),
     "53adf64e3604e21c"),
    ("z4-over-z2", None, 6, (1, 2), (228, 468, 4, 295), PASSED),
    ("z6-over-z3", ("chitable", (1, 1, 4), 3), 5, (4,), (115, 302, 1, None), "d697fb39bf8ed8aa"),
    ("cocycle-j", ("jtable", (1, 0, 1), 1), 6, (1,), (441, 1498, 1, None), "d862cc1b27b4f4bd"),
]


@pytest.mark.parametrize("name,entry,max_nodes,objects,stats,digest", PINNED_WALKS)
def test_walk_matches_the_pinned_skeleton(name, entry, max_nodes, objects, stats, digest):
    rep, got = _pinned_walk(name, entry, max_nodes, objects)
    assert rep.stats == dict(zip(("words", "edges", "components", "independent_cycles"), stats))
    assert got == digest


def test_coherence_deepest_witness_paths():
    # turaev-s3 over one object is the fixtures' largest graph at budget 6,
    # and the witness's two composites are the longest any test walks
    rep, got = _pinned_walk("vec-turaev-s3", ("chitable", (1, 2, 3), 1), 6, (3,))
    assert (rep.stats["words"], rep.stats["edges"]) == (14829, 57282)
    assert [len(path.split(" . ")) for path in rep.checks[0].witness[3:]] == [73, 50]
    assert got == "89e18b66954be8e2"


def test_coherence_independent_cycles_unknown_after_mismatch():
    rep = check_coherence(entry_moved(category("cocycle-j"), "jtable", (1, 0, 1), 1), 6, (1,))
    assert not rep.passed
    assert rep.stats["independent_cycles"] is None
