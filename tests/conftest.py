from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from crossedcat.center import CenterSimple  # noqa: E402
from crossedcat.fixtures import CATEGORIES, MATCHED_PAIRS  # noqa: E402
from crossedcat.groups import FiniteGroup  # noqa: E402
from crossedcat.matched import MatchedPair  # noqa: E402
from crossedcat.pointed import pointed_category  # noqa: E402

FIXTURE_DIR = ROOT / "fixtures"

_cat_cache: dict[str, object] = {}
_mp_cache: dict[str, object] = {}


def category(name: str):
    if name not in _cat_cache:
        _cat_cache[name] = CATEGORIES[name]()
    return _cat_cache[name]


def pair(name: str):
    if name not in _mp_cache:
        _mp_cache[name] = MATCHED_PAIRS[name]()
    return _mp_cache[name]


def unit_index(Z) -> int:
    """Index in Z.simples of the center's unit, (e_G, e_L, 0) in the
    unit-normal gauge of a CenterStructure."""
    cat = Z.cat
    return Z.simples.index(CenterSimple(cat.G.identity, cat.Lambda.identity, (0,) * len(Z.npos)))


def triples(rep) -> list[tuple]:
    """A report's checks as (name, passed, witness), for comparing two reports."""
    return [(c.name, c.passed, c.witness) for c in rep.checks]


def entry_mutants(cat):
    """Every category that differs from cat in one J, chi, phi or iota
    exponent, by every nonzero delta mod M."""
    M = cat.M
    j = [[list(r) for r in plane] for plane in cat.jtable]
    chi = [[list(r) for r in plane] for plane in cat.chitable]
    phi, iota = list(cat.phitable), list(cat.iotatable)
    for row in [*(r for plane in j for r in plane), *(r for plane in chi for r in plane), phi, iota]:
        for i, v in enumerate(row):
            for delta in range(1, M):
                row[i] = (v + delta) % M
                yield pointed_category(cat.Lambda, cat.mp, cat.grading, cat.action, M,
                                       jtable=j, phitable=phi, chitable=chi, iotatable=iota,
                                       name=cat.name)
            row[i] = v


def table_mutants(table, size: int):
    """Every table that differs from `table` in one entry, by every other
    value in range(size), as lists of lists."""
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            for new in range(size):
                if new != v:
                    out = [list(r) for r in table]
                    out[i][j] = new
                    yield out


def duals_hold(cat) -> bool:
    """The dual law: the left dual of ^g x, ^{del(x) |>2 g}(x^-1), is the
    inverse label of ^g x, for every (x, g)."""
    Linv, act, deg, a2 = cat.Lambda.inverses, cat.action, cat.grading, cat.mp.act2
    return all(act[a2[deg[x]][g]][Linv[x]] == Linv[act[g][x]]
               for x in cat.Lambda.elements() for g in cat.G.elements())


def renamed(mp, like):
    """`mp` with its two groups named as in `like`: from_exact_factorization
    names the groups it extracts after the factorized group."""
    G, M = mp.G, mp.Gamma
    return MatchedPair(FiniteGroup(G.order, G.table, G.identity, G.inverses, like.G.name),
                       FiniteGroup(M.order, M.table, M.identity, M.inverses, like.Gamma.name),
                       mp.act1, mp.act2)


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    assert FIXTURE_DIR.is_dir(), "run scripts/build_fixtures.py first"
    return FIXTURE_DIR
