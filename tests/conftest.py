from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from crossedcat.fixtures import CATEGORIES, MATCHED_PAIRS  # noqa: E402
from crossedcat.groups import FiniteGroup  # noqa: E402
from crossedcat.matched import MatchedPair  # noqa: E402

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
