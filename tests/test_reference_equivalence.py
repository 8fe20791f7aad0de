"""The dense-table verification core against the per-element sweeps it
replaced (tests/reference_sweeps.py).

Category reports must agree check by check on (name, pass, witness), so the
table loops keep every first witness; this is exercised on failing inputs
too, where witnesses are nontrivial.  Center reports on corrupted simple
lists must agree on pass/fail for each check.
"""

from __future__ import annotations

import random

import pytest

from conftest import FIXTURE_DIR, category
from crossedcat import jsonio
from crossedcat.center import CenterSimple, CenterStructure, enumerate_center, verify_center_braided
from crossedcat.fixtures import CENTER_FIXTURES
from crossedcat.pointed import pointed_category, verify_crossed_category
from reference_sweeps import ReferenceCenter, reference_center_braided, reference_crossed_category

CATEGORY_FILES = sorted(p.name for p in FIXTURE_DIR.glob("cat-*.json"))
CENTER_FILES = [n for n in CATEGORY_FILES if n != "cat-nonsurjective.json"]


def triples(rep) -> list[tuple]:
    return [(c.name, c.passed, c.witness) for c in rep.checks]


def verdicts(rep) -> list[tuple]:
    return [(c.name, c.passed) for c in rep.checks]


def assert_same_category_report(cat) -> None:
    assert triples(verify_crossed_category(cat)) == triples(reference_crossed_category(cat)), \
        cat.name


@pytest.mark.parametrize("name", CATEGORY_FILES)
def test_category_fixtures(name):
    assert_same_category_report(jsonio.load_category(FIXTURE_DIR / name, validate=False))


@pytest.mark.parametrize("name", CENTER_FILES)
def test_center_viewed_as_category(name):
    cat = jsonio.load_category(FIXTURE_DIR / name)
    zcat = CenterStructure(cat).as_category()
    ref = ReferenceCenter(cat).as_category()
    assert zcat == ref
    assert_same_category_report(zcat)


def test_criterion_9_category_mutants(monkeypatch):
    import test_acceptance

    seen = []

    def both(cat):
        rep = verify_crossed_category(cat)
        assert triples(rep) == triples(reference_crossed_category(cat)), cat.name
        seen.append(cat)
        return rep

    monkeypatch.setattr(test_acceptance, "verify_crossed_category", both)
    for name, check in test_acceptance._mutation_pool():
        if name.startswith("category:"):
            assert check(), name
    assert len(seen) >= 15


def _table_mutants(name: str, count: int, rng: random.Random):
    """Single-entry mutants of the J, chi and action tables of a center category."""
    zcat = CenterStructure(jsonio.load_category(FIXTURE_DIR / f"cat-{name}.json")).as_category()
    n, ng, M = zcat.Lambda.order, zcat.G.order, zcat.M
    for _ in range(count):
        j = [[list(r) for r in plane] for plane in zcat.jtable]
        chi = [[list(r) for r in plane] for plane in zcat.chitable]
        action = [list(r) for r in zcat.action]
        kind = rng.choice(("J", "chi", "action"))
        if kind == "J":
            g, x, y = rng.randrange(ng), rng.randrange(n), rng.randrange(n)
            j[g][x][y] = (j[g][x][y] + rng.randrange(1, M)) % M
        elif kind == "chi":
            g, h, x = rng.randrange(ng), rng.randrange(ng), rng.randrange(n)
            chi[g][h][x] = (chi[g][h][x] + rng.randrange(1, M)) % M
        else:
            g, x = rng.randrange(ng), rng.randrange(n)
            action[g][x] = (action[g][x] + rng.randrange(1, n)) % n
        yield pointed_category(zcat.Lambda, zcat.mp, zcat.grading, action, M, jtable=j,
                               phitable=zcat.phitable, chitable=chi,
                               iotatable=zcat.iotatable, name=f"{zcat.name}:{kind}")


@pytest.mark.parametrize("name,count", [("vec-turaev-s3", 2), ("vec-s4-pair", 18)])
def test_center_category_table_mutants(name, count):
    failing = 0
    for mut in _table_mutants(name, count, random.Random(f"mutants:{name}")):
        rep = verify_crossed_category(mut)
        assert triples(rep) == triples(reference_crossed_category(mut)), mut.name
        failing += not rep.passed
    assert failing == count


def _corrupted_simples(cat, count: int, rng: random.Random):
    """Simple lists with one half-braiding exponent changed."""
    simples = enumerate_center(cat)
    for _ in range(count):
        idx = rng.randrange(len(simples))
        z = simples[idx]
        pos = rng.randrange(len(z.chi))
        chi = list(z.chi)
        chi[pos] = (chi[pos] + rng.randrange(1, cat.M)) % cat.M
        mutated = list(simples)
        mutated[idx] = CenterSimple(z.g, z.label, tuple(chi))
        yield mutated


# the two 24-simple centers take seconds per reference run; their category
# part is compared in test_center_viewed_as_category
@pytest.mark.parametrize("name", [n for n in CENTER_FIXTURES
                                  if n not in ("vec-s4-pair", "z6-over-z3")])
def test_center_reports(name):
    cat = category(name)
    assert triples(verify_center_braided(cat)) == triples(reference_center_braided(cat))
    for mutated in _corrupted_simples(cat, 3, random.Random(f"simples:{name}")):
        rep = verify_center_braided(cat, simples=mutated)
        assert not rep.passed
        assert verdicts(rep) == verdicts(reference_center_braided(cat, simples=mutated))


def test_criterion_9_center_mutants(monkeypatch):
    import test_acceptance

    seen = []

    def both(cat, simples=None):
        rep = verify_center_braided(cat, simples=simples)
        assert verdicts(rep) == verdicts(reference_center_braided(cat, simples=simples))
        seen.append(cat)
        return rep

    monkeypatch.setattr(test_acceptance, "verify_center_braided", both)
    for name, check in test_acceptance._mutation_pool():
        if name.startswith("center:"):
            assert check(), name
    assert seen
