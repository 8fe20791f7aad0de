from __future__ import annotations

import itertools
import json
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from conftest import FIXTURE_DIR, category
from crossedcat import jsonio, words
from crossedcat.cli import main
from crossedcat.errors import ArityMismatch, EndpointMismatch, ParseError
from crossedcat.words import (Act, Apply, Assoc, ChiMove, Compose, Hole, Inverse, IotaMove,
                              JMove, PhiMove, Tensor, Unit, check_coherence, eval_structural,
                              eval_word, parse_word, print_word, word_arity)


def test_parse_examples():
    assert parse_word("(_1 * g<_2>)") == Tensor(Hole(1), Act("g", Hole(2)))
    assert parse_word("1") == Unit()
    with pytest.raises(ParseError) as exc:
        parse_word("(* _1)")
    assert exc.value.position == 2


def random_word(rng: random.Random, depth: int, next_hole: list[int]):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        if rng.random() < 0.4 or next_hole[0] > 3:
            return Unit()
        h = Hole(next_hole[0])
        next_hole[0] += 1
        return h
    if roll < 0.65:
        left = random_word(rng, depth - 1, next_hole)
        right = random_word(rng, depth - 1, next_hole)
        return Tensor(left, right)
    return Act(rng.choice(["e", "g1", 0, 1, 2]), random_word(rng, depth - 1, next_hole))


def test_printer_parser_round_trip_corpus():
    rng = random.Random(20260811)
    for _ in range(1000):
        w = random_word(rng, 4, [1])
        assert parse_word(print_word(w)) == w


@given(st.integers(0, 2 ** 30))
def test_printer_parser_round_trip_hypothesis(seed):
    rng = random.Random(seed)
    w = random_word(rng, 5, [1])
    assert parse_word(print_word(w)) == w


def test_eval_word_examples():
    cat = category("vec-z2z3")
    assert eval_word(Unit(), [], cat) == cat.Lambda.identity
    assert eval_word(parse_word("(_1 * _2)"), [1, 2], cat) == cat.Lambda.mul(1, 2)
    # action bookkeeping: 1<_1> applies the nontrivial G-element
    assert eval_word(parse_word("1<_1>"), [1], cat) == cat.act(1, 1)
    with pytest.raises(ArityMismatch):
        eval_word(parse_word("(_1 * _2)"), [1], cat)


def test_word_arity_rejects_nonlinear():
    with pytest.raises(ArityMismatch):
        word_arity(Tensor(Hole(2), Hole(1)))


def test_eval_structural_identity_and_inverse_pairs():
    cat = category("cocycle-j")
    j = JMove(1, Hole(1), Hole(2))
    src, tgt, coeff = eval_structural(j, [1, 1], cat)
    assert coeff.exponent == cat.j(1, 1, 1) == 2
    roundtrip = Compose(Inverse(j), j)
    s, t, c = eval_structural(roundtrip, [1, 1], cat)
    assert s == t and c.is_one


def test_eval_structural_endpoint_mismatch():
    cat = category("cocycle-j")
    # chi at label 1 cannot be followed by phi, which lives at the unit label
    bad = Compose(PhiMove(1), ChiMove(1, 1, Hole(1)))
    with pytest.raises(EndpointMismatch):
        eval_structural(bad, [1], cat)


def test_eval_structural_axiom3_composites_agree():
    """Both sides of the first action-composition relation, built as explicit
    composites, agree coefficient-exactly on the chi-twisted fixture."""
    cat = category("cocycle-chi")
    H1, H2 = Hole(1), Hole(2)
    for g in cat.G.elements():
        for h in cat.G.elements():
            for x in cat.Lambda.elements():
                for y in cat.Lambda.elements():
                    tw = cat.mp.a2(cat.deg(y), h)
                    tw2 = cat.mp.a2(cat.mp.a1(h, cat.deg(y)), g)
                    lhs = Compose(
                        Compose(ChiMove(g, h, Tensor(H1, H2)),
                                Apply(Act(g, H1), (JMove(h, H1, H2),))),
                        JMove(g, Act(tw, H1), Act(h, H2)))
                    rhs = Compose(
                        JMove(cat.G.mul(g, h), H1, H2),
                        Apply(Tensor(H1, H2), (ChiMove(tw2, tw, H1), ChiMove(g, h, H2))))
                    assert eval_structural(lhs, [x, y], cat) == eval_structural(rhs, [x, y], cat)


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


def test_structural_coefficients_are_roots():
    cat = category("cocycle-j")
    for g in cat.G.elements():
        for x in cat.Lambda.elements():
            for y in cat.Lambda.elements():
                _, _, c = eval_structural(JMove(g, Hole(1), Hole(2)), [x, y], cat)
                assert not c.is_zero
            _, _, c = eval_structural(ChiMove(g, g, Hole(1)), [x], cat)
            assert not c.is_zero
        _, _, c = eval_structural(PhiMove(g), [], cat)
        assert not c.is_zero


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
    # allocations; the skeleton build plus one walk must stay under 1.7 MB
    cat = jsonio.load_category(FIXTURE_DIR / "cat-vec-turaev-s3.json")
    monkeypatch.setattr(words, "_last", None, raising=False)  # build the skeleton afresh
    tracemalloc.start()
    try:
        rep = check_coherence(cat, 6, (0, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.stats["edges"] == 4584
    assert peak < 1.7e6, peak
