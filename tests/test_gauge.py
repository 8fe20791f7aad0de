"""Gauge invariance: a 1-cochain moves a category's scalar data to an
equivalent category (tests/gauge.py), which must verify the same way.

The category side holds: every gauged fixture is a valid category with the
same center.  The center is built in the unit-normal gauge
(center.unit_normal), so every gauge of the units verifies: the census
below draws cochains on (G - e) x {e_L} (family i) and on {e} x Lambda
(family ii) for every center fixture.
"""

from __future__ import annotations

import ast
import random

import pytest

from conftest import FIXTURE_DIR, category, triples
from crossedcat import jsonio
from crossedcat.center import (CenterSimple, CenterStructure, enumerate_center,
                               relative_center_oracle, unit_normal, verify_center_braided)
from crossedcat.groups import cyclic, trivial_group
from crossedcat.matched import direct_pair
from crossedcat.pointed import pointed_category, verify_crossed_category
from crossedcat.words import verify_coherence
from fixture_builders import CATEGORIES, CENTER_FIXTURES
from gauge import gauge, random_cochain
from reference_sweeps import ReferenceCenter, reference_center_braided

@pytest.mark.parametrize("name", sorted(CATEGORIES))
def test_gauge_keeps_category_and_center(name):
    cat = category(name)
    rng = random.Random(f"gauge:{name}")
    size = len(enumerate_center(cat))
    for _ in range(3):
        gauged = gauge(cat, random_cochain(cat, rng))
        assert verify_crossed_category(gauged).passed
        simples = enumerate_center(gauged)
        assert simples == relative_center_oracle(gauged)
        assert len(simples) == size
        assert verify_coherence(gauged).passed


def _trivial_all_ones():
    """(a) Trivial groups, M = 2, every structure scalar -1: the gauge of
    Vec by u = 1."""
    one = trivial_group()
    return pointed_category(one, direct_pair(one, one), [0], [[0]], 2, jtable=[[[1]]],
                            phitable=[1], chitable=[[[1]]], iotatable=[1], name="trivial-ones")


def _vec_z2z3_gauged():
    """(b) vec-z2z3 gauged by u[1] = (0, 0, 1)."""
    return gauge(category("vec-z2z3"), [[0, 0, 0], [0, 0, 1]])


def _z2_iota_chi():
    """(c) Lambda = G = Z2, Gamma = 1, trivial action, J = phi = 0,
    iota = (0, 1), chi[g][h] = (0, 1) except chi[1][1] = (0, 0)."""
    z2, one = cyclic(2), trivial_group()
    return pointed_category(z2, direct_pair(z2, one), [0, 0], [[0, 1], [0, 1]], 2,
                            chitable=[[[0, 1], [0, 1]], [[0, 1], [0, 0]]], iotatable=[0, 1],
                            name="z2-iota-chi")


NAMED = {"a-trivial-ones": _trivial_all_ones, "b-vec-z2z3-gauged": _vec_z2z3_gauged,
         "c-z2-iota-chi": _z2_iota_chi}


def test_named_cases_are_valid_categories():
    b = NAMED["b-vec-z2z3-gauged"]()
    assert b.jtable[1] == ((0, 0, 0), (0, 1, 1), (0, 1, 0))
    assert b.chitable[1][1] == (0, 1, 1)
    for name, build in NAMED.items():
        cat = build()
        assert verify_crossed_category(cat).passed, name
        assert verify_coherence(cat).passed, name


@pytest.mark.parametrize("name", CENTER_FIXTURES)
def test_gauged_center_is_braided(name):
    """A census of ten seeded random gauges, every family at once."""
    cat = category(name)
    rng = random.Random(f"gauge-center:{name}")
    for draw in range(10):
        u = random_cochain(cat, rng)
        rep = verify_center_braided(gauge(cat, u))
        assert rep.passed, (name, draw, rep.first_failure())


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_case_center_is_braided(name):
    assert verify_center_braided(NAMED[name]()).passed


# -- gauges of the units

SCALAR_TABLES = ("jtable", "phitable", "chitable", "iotatable")


def _unit_gauges(cat, draws: int = 3):
    """Seeded cochains of family (i), on (G - e) x {e_L}, and family (ii),
    on {e} x Lambda, `draws` of each; all-zero draws are skipped."""
    rng = random.Random(f"unit-gauge:{cat.name}")
    eG, eL = cat.G.identity, cat.Lambda.identity
    for at in (lambda g, x: g != eG and x == eL, lambda g, x: g == eG):
        for _ in range(draws):
            u = [[rng.randrange(cat.M) if at(g, x) else 0 for x in cat.Lambda.elements()]
                 for g in cat.G.elements()]
            if any(map(any, u)):
                yield u


def _unit_normal_gauge(cat):
    """u0[g][e_L] = -phi[g] and u0[e][x] = -iota[x], written out here so
    that it checks center.unit_normal."""
    eG, eL = cat.G.identity, cat.Lambda.identity
    return [[-cat.phitable[g] if x == eL else -cat.iotatable[x] if g == eG else 0
             for x in cat.Lambda.elements()] for g in cat.G.elements()]


# the two 24-simple centers take seconds per reference run, so their
# reports are compared with the report on the unit-normal category instead
REFERENCE_TOO_SLOW = ("vec-s4-pair", "z6-over-z3")


@pytest.mark.parametrize("name", CENTER_FIXTURES)
def test_unit_gauge_census(name):
    """Every gauge of the units verifies, its unit-normal category is
    gauge.py's, and its report is the reference's on that category."""
    references = {}
    seen = 0
    for u in _unit_gauges(category(name)):
        gauged = gauge(category(name), u)
        normal = gauge(gauged, _unit_normal_gauge(gauged))
        assert not any(normal.phitable) and not any(normal.iotatable)
        built = CenterStructure(gauged).cat
        assert all(getattr(built, t) == getattr(normal, t) for t in SCALAR_TABLES), name
        rep = verify_center_braided(gauged)
        assert rep.passed, (name, u, rep.first_failure())
        key = tuple(getattr(normal, t) for t in SCALAR_TABLES)
        if key not in references:
            references[key] = triples(verify_center_braided(normal)
                                      if name in REFERENCE_TOO_SLOW
                                      else reference_center_braided(normal))
        assert triples(rep) == references[key], (name, u)
        seen += 1
    assert seen, name


def test_reference_center_refuses_a_gauge_of_the_units():
    """ReferenceCenter's chains hold only with strict units: it refuses a
    gauge of family (i), and takes that gauge's unit-normal category."""
    cat = category("z4-over-z2")
    gauged = gauge(cat, [[0] * cat.Lambda.order, [1] + [0] * (cat.Lambda.order - 1)])
    assert gauged.phitable == (0, 1)
    with pytest.raises(ValueError, match="unit-normal"):
        ReferenceCenter(gauged)
    with pytest.raises(ValueError, match="unit-normal"):
        reference_center_braided(gauged)
    normal = gauge(gauged, _unit_normal_gauge(gauged))
    assert set(ReferenceCenter(normal).simples) == set(CenterStructure(gauged).simples)


def test_fixtures_are_unit_normal():
    """Every category fixture has u0 = 0, so the center is built on the
    loaded record itself: the reports stay as they were and no gauge is
    computed."""
    for path in sorted(FIXTURE_DIR.glob("cat-*.json")):
        cat = jsonio.load_category(path, validate=False)
        normal, u0 = unit_normal(cat)
        assert normal is cat, path.name
        assert not any(map(any, u0)), path.name


RETRACT_CASES = [*((n, False) for n in CENTER_FIXTURES), ("vec-z2z3", True), ("cocycle-j", True)]


@pytest.mark.parametrize("name,gauged", RETRACT_CASES,
                         ids=[n + "-unit-gauges" * g for n, g in RETRACT_CASES])
def test_a_simple_whose_retract_is_not_the_identity_fails_oracle_equivalence(name, gauged):
    """The retract law is implied by oracle equivalence (proof at
    verify_center_braided): a simple whose unit exponent is moved off the
    oracle's, phi[g], is no oracle simple.  So the report's first failure
    is oracle_equivalence, with that simple, as passed, as its extra
    witness.  Run on the fixture, or on its gauges of the units, where phi
    is not zero, at up to four seeded simples of each."""
    base = category(name)
    cats = [gauge(base, u) for u in _unit_gauges(base)] if gauged else [base]
    rng = random.Random(f"retract:{name}")
    for cat in cats:
        simples = enumerate_center(cat)
        unit_pos = cat.neutral_labels.index(cat.Lambda.identity)
        for k in rng.sample(range(len(simples)), min(4, len(simples))):
            z, chi = simples[k], list(simples[k].chi)
            assert chi[unit_pos] == cat.phitable[z.g]
            chi[unit_pos] = (chi[unit_pos] + rng.randrange(1, cat.M)) % cat.M
            bad = CenterSimple(z.g, z.label, tuple(chi))
            first = verify_center_braided(cat, simples=simples[:k] + [bad] + simples[k + 1:]) \
                .first_failure()
            assert (first.name, first.witness[0]) == ("oracle_equivalence", (bad.sort_key(),)), \
                (name, cat.phitable, k)


def test_escape_witness_is_in_the_input_gauge():
    """On a gauge of the units, the point that center_category_axioms names
    outside a corrupted simple list is printed in the input's gauge: it is
    the point the unit-normal category names, moved back by u0."""
    cat = gauge(category("cocycle-j"), [[1, 3], [0, 0]])   # family (ii)
    u0 = _unit_normal_gauge(cat)
    simples = enumerate_center(cat)
    z = simples[2]
    mutated = simples[:2] + [CenterSimple(z.g, z.label, (z.chi[0], (z.chi[1] + 1) % cat.M))] \
        + simples[3:]
    moved = [CenterSimple(w.g, w.label, tuple((c + u0[w.g][nu]) % cat.M
                                              for c, nu in zip(w.chi, cat.neutral_labels)))
             for w in mutated]

    def escaped(rep):
        name, message = {c.name: c.witness for c in rep.checks}["center_category_axioms"]
        assert name == "structure_tables_unbuildable"
        return ast.literal_eval(message.split("simple ", 1)[1].split(" not in")[0])

    g, label, chi = escaped(verify_center_braided(gauge(cat, u0), simples=moved))
    want = (g, label, tuple((c - u0[g][nu]) % cat.M for c, nu in zip(chi, cat.neutral_labels)))
    assert escaped(verify_center_braided(cat, simples=mutated)) == want
    assert want[2] != chi
