from __future__ import annotations

import collections
import functools
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from crossedcat.braided import BraidedMatchedPair, center_braiding  # noqa: E402
from crossedcat.center import CenterSimple, enumerate_center  # noqa: E402
from crossedcat.fixtures import CATEGORIES, GROUPS, MATCHED_PAIRS  # noqa: E402
from crossedcat.groups import FiniteGroup  # noqa: E402
from crossedcat.matched import MatchedPair, matched_pair  # noqa: E402
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


@functools.cache
def mutation_pool() -> tuple[tuple[str, str, object], ...]:
    """Deterministic single-entry mutations of fixture tables (acceptance
    criterion 9), as (name, kind, mutant).  The mutant of kind "group" is a
    (table, identity) pair, of "pair" a MatchedPair, of "braided" a
    BraidedMatchedPair, of "category" a PointedCrossedCategory and of
    "center" a (category, simples) pair.  Each name says which entry the
    mutant changed; a repeated draw gets a "#k" suffix at its k-th
    occurrence, so the names are unique.  A draw that changes nothing (a
    grading onto a trivial Gamma, an action on one label, a simple without
    chi, M = 1) makes no mutant."""
    rng = random.Random(20260811)
    pool: list[tuple[str, str, object]] = []
    uses: collections.Counter[str] = collections.Counter()

    def add(name, kind, mutant):
        uses[name] += 1
        pool.append((name if uses[name] == 1 else f"{name}#{uses[name]}", kind, mutant))

    def group_mutations(name, count):
        G = GROUPS[name]()
        for _ in range(count):
            a, b = rng.randrange(G.order), rng.randrange(G.order)
            delta = rng.randrange(1, G.order)
            table = [list(r) for r in G.table]
            table[a][b] = (table[a][b] + delta) % G.order
            add(f"group:{name}[{a}][{b}]", "group", (tuple(map(tuple, table)), G.identity))

    def pair_mutations(name, count):
        mp = pair(name)
        for _ in range(count):
            which = rng.choice(("act1", "act2"))
            act = mp.act1 if which == "act1" else mp.act2
            size = mp.Gamma.order if which == "act1" else mp.G.order
            i, j = rng.randrange(len(act)), rng.randrange(len(act[0]))
            delta = rng.randrange(1, size)
            a1, a2 = [list(r) for r in mp.act1], [list(r) for r in mp.act2]
            mutated = a1 if which == "act1" else a2
            mutated[i][j] = (mutated[i][j] + delta) % size
            add(f"pair:{name}:{which}[{i}][{j}]", "pair", matched_pair(mp.G, mp.Gamma, a1, a2))

    def braided_mutations(name, count):
        bmp = center_braiding(pair(name))
        for _ in range(count):
            which = rng.choice(("phi", "psi"))
            i = rng.randrange(bmp.mp.Gamma.order)
            delta = rng.randrange(1, bmp.mp.G.order)
            images = {"phi": list(bmp.phi), "psi": list(bmp.psi)}
            images[which][i] = (images[which][i] + delta) % bmp.mp.G.order
            add(f"braided:{name}:{which}[{i}]", "braided",
                BraidedMatchedPair(bmp.mp, tuple(images["phi"]), tuple(images["psi"])))

    def category_mutations(name, count):
        cat = category(name)
        n, ng, M = cat.Lambda.order, cat.G.order, cat.M
        kinds = ["action", "grading"]
        if any(v for plane in cat.jtable for row in plane for v in row) or M > 1:
            kinds += ["J", "chi", "phi", "iota"]
        for _ in range(count):
            kind = rng.choice(kinds)
            rng2 = random.Random(rng.random())
            if (kind == "grading" and cat.Gamma.order == 1) or (kind == "action" and n == 1):
                continue
            action = [list(x) for x in cat.action]
            grading = list(cat.grading)
            j = [[list(x) for x in plane] for plane in cat.jtable]
            chi = [[list(x) for x in plane] for plane in cat.chitable]
            phi = list(cat.phitable)
            iota = list(cat.iotatable)
            if kind == "action":
                g, l = rng2.randrange(ng), rng2.randrange(n)
                action[g][l] = (action[g][l] + rng2.randrange(1, n)) % n
                entry = (g, l)
            elif kind == "grading":
                l = rng2.randrange(n)
                grading[l] = (grading[l] + rng2.randrange(1, cat.Gamma.order)) % cat.Gamma.order
                entry = (l,)
            elif kind == "J":
                g, x, y = rng2.randrange(ng), rng2.randrange(n), rng2.randrange(n)
                j[g][x][y] = (j[g][x][y] + rng2.randrange(1, M)) % M
                entry = (g, x, y)
            elif kind == "chi":
                g, h, x = rng2.randrange(ng), rng2.randrange(ng), rng2.randrange(n)
                chi[g][h][x] = (chi[g][h][x] + rng2.randrange(1, M)) % M
                entry = (g, h, x)
            elif kind == "phi":
                g = rng2.randrange(ng)
                phi[g] = (phi[g] + rng2.randrange(1, M)) % M
                entry = (g,)
            else:
                l = rng2.randrange(n)
                iota[l] = (iota[l] + rng2.randrange(1, M)) % M
                entry = (l,)
            add(f"category:{name}:{kind}" + "".join(f"[{i}]" for i in entry), "category",
                pointed_category(cat.Lambda, cat.mp, grading, action, M, jtable=j,
                                 phitable=phi, chitable=chi, iotatable=iota))

    def center_mutations(name, count):
        cat = category(name)
        simples = enumerate_center(cat)
        for _ in range(count):
            idx = rng.randrange(len(simples))
            pos = rng.randrange(max(len(simples[idx].chi), 1))
            delta = rng.randrange(1, cat.M) if cat.M > 1 else 0
            z = simples[idx]
            if not z.chi or delta == 0:
                continue
            chi = list(z.chi)
            chi[pos] = (chi[pos] + delta) % cat.M
            mutated = list(simples)
            mutated[idx] = CenterSimple(z.g, z.label, tuple(chi))
            add(f"center:{name}:simple[{idx}].chi[{pos}]", "center", (cat, tuple(mutated)))

    group_mutations("s3", 6)
    group_mutations("d4", 6)
    pair_mutations("z2-z3-inversion", 8)
    pair_mutations("s4-z4-s3", 8)
    braided_mutations("z2-z3-inversion", 6)
    category_mutations("z4-over-z2", 8)
    category_mutations("cocycle-j", 6)
    category_mutations("cocycle-chi", 6)
    center_mutations("z4-over-z2", 6)
    return tuple(pool)


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
