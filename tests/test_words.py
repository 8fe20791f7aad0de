from __future__ import annotations

import itertools
import json
import tracemalloc

import pytest

from conftest import FIXTURE_DIR, category
from crossedcat import jsonio, words
from crossedcat.cli import main
from crossedcat.words import Act, Hole, Tensor, Unit, check_coherence, print_word


def test_print_word_examples():
    # coherence witnesses are printed words, so their format is pinned here
    assert print_word(Unit()) == "1"
    assert print_word(Tensor(Hole(1), Act(1, Hole(2)))) == "(_1 * 1<_2>)"
    assert print_word(Tensor(Tensor(Hole(1), Unit()), Hole(2))) == "((_1 * 1) * _2)"
    assert print_word(Act(0, Act(2, Tensor(Unit(), Hole(1))))) == "0<2<(1 * _1)>>"


def test_coherence_checks_the_axiom3_square():
    """The first action-composition relation (axiom 3's J/chi square) is a
    cycle of the 7-node graph: it holds on cocycle-chi at every pair, and a
    single J entry that breaks only that axiom breaks coherence at (1, 1)."""
    from crossedcat.pointed import pointed_category, verify_crossed_category
    cat = category("cocycle-chi")
    labels = list(cat.Lambda.elements())
    for objs in itertools.product(labels, repeat=2):
        rep = check_coherence(cat, 7, objs)
        assert rep.passed and rep.stats["words"] == 1107, (objs, rep.first_failure())
    j = [[list(r) for r in plane] for plane in cat.jtable]
    j[1][1][1] = (j[1][1][1] + 1) % cat.M
    mut = pointed_category(cat.Lambda, cat.mp, cat.grading, cat.action, cat.M,
                           jtable=j, chitable=cat.chitable, name="mutated")
    assert [c.name for c in verify_crossed_category(mut).checks if not c.passed] == \
        ["axiom3_j_chi"]
    assert check_coherence(mut, 6, (1, 1)).passed  # the square needs 7 nodes
    assert not check_coherence(mut, 7, (1, 1)).passed


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
    from crossedcat.pointed import pointed_category
    cat = category("cocycle-chi")
    chi = [[list(r) for r in plane] for plane in cat.chitable]
    chi[1][0][1] = 1  # unit-coherence entry
    mut = pointed_category(cat.Lambda, cat.mp, cat.grading, cat.action, cat.M,
                           chitable=chi, name="mutated")
    rep = check_coherence(mut, 6, (1,))
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
    from crossedcat.words import enumerate_words
    cat = category(name)
    rep = check_coherence(cat, 6, objs)
    assert rep.passed
    st = rep.stats
    nodes = len(set(enumerate_words(6, len(objs), list(cat.G.elements()))))
    assert st["independent_cycles"] == st["edges"] - nodes + st["components"] > 0


def test_coherence_independent_cycles_unknown_after_mismatch():
    from crossedcat.pointed import pointed_category
    cat = category("cocycle-j")
    j = [[list(r) for r in plane] for plane in cat.jtable]
    j[1][0][1] = (j[1][0][1] + 1) % cat.M
    mut = pointed_category(cat.Lambda, cat.mp, cat.grading, cat.action, cat.M,
                           jtable=j, name="mutated")
    rep = check_coherence(mut, 6, (1,))
    assert not rep.passed
    assert rep.stats["independent_cycles"] is None


def test_min_word_nodes_is_the_smallest_word():
    from crossedcat.words import enumerate_words, min_word_nodes
    for arity in range(4):
        n = min_word_nodes(arity)
        assert enumerate_words(n - 1, arity, [0, 1]) == []
        assert enumerate_words(n, arity, [0, 1]) != []


def test_default_sweep_builds_one_skeleton_per_arity(monkeypatch, capsys):
    built = []

    class Counted(words._Skeleton):
        def __init__(self, max_nodes, arity, G):
            built.append((max_nodes, arity))
            super().__init__(max_nodes, arity, G)

    monkeypatch.setattr(words, "_Skeleton", Counted)
    monkeypatch.setattr(words, "_last", None)
    assert main(["coherence", "--category", str(FIXTURE_DIR / "cat-z4-over-z2-graded.json")]) == 0
    assert json.loads(capsys.readouterr().out)["stats"]["tuplesChecked"] == 4 + 16 + 64
    assert built == [(6, 1), (6, 2), (6, 3)]


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURE_DIR.glob("cat-*.json")))
def test_word_graph_size_depends_on_arity_only(name):
    # a move exists or not by the shapes and node counts of words, never by
    # the labels, so every tuple of one arity counts the same words and edges
    cat = jsonio.load_category(FIXTURE_DIR / name)
    labels = list(cat.Lambda.elements())
    for arity in (1, 2):
        sizes = {(st["words"], st["edges"]) for st in
                 (check_coherence(cat, 6, objs).stats
                  for objs in itertools.product(labels, repeat=arity))}
        assert len(sizes) == 1, (arity, sizes)


def test_coherence_memory_guard(monkeypatch):
    # the word-record graph this replaced peaked at 2.7-2.9 MB of traced
    # allocations; the skeleton build, which frees its scratch, plus one
    # union-find pass, which builds no adjacency lists, must stay under 1.2 MB
    cat = jsonio.load_category(FIXTURE_DIR / "cat-vec-turaev-s3.json")
    monkeypatch.setattr(words, "_last", None, raising=False)  # build the skeleton afresh
    tracemalloc.start()
    try:
        rep = check_coherence(cat, 6, (0, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.stats["edges"] == 4584
    assert peak < 1.2e6, peak
