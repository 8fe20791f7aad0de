from __future__ import annotations

import collections
import functools
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from crossedcat.braided import BraidedMatchedPair, braided_pair, center_braiding  # noqa: E402
from crossedcat.center import CenterSimple, enumerate_center  # noqa: E402
from crossedcat.fixtures import CATEGORIES, GROUPS, MATCHED_PAIRS  # noqa: E402
from crossedcat.groups import FiniteGroup  # noqa: E402
from crossedcat.matched import MatchedPair, matched_pair  # noqa: E402
from crossedcat.pointed import PointedCrossedCategory, pointed_category  # noqa: E402

FIXTURE_DIR = ROOT / "fixtures"


@functools.cache
def category(name: str):
    return CATEGORIES[name]()


@functools.cache
def pair(name: str):
    return MATCHED_PAIRS[name]()


def rebuilt(record, **fields):
    """`record`, a category, matched pair or braided pair, built afresh by its
    constructor with the named fields replaced and every other field carried
    over.  The constructors take the record's fields as parameters of the
    same names, so a misspelled field raises TypeError."""
    build = {PointedCrossedCategory: pointed_category, MatchedPair: matched_pair,
             BraidedMatchedPair: braided_pair}[type(record)]
    return build(**{**{name: getattr(record, name) for name in record._fields}, **fields})


def indices(table) -> list[tuple[int, ...]]:
    """Every index of a nested table's entries, in row-major order."""
    if not isinstance(table[0], (tuple, list)):
        return [(i,) for i in range(len(table))]
    return [(i, *rest) for i, row in enumerate(table) for rest in indices(row)]


def moved(table, index, delta: int, size: int) -> list:
    """A copy of the nested table with the entry at `index` moved by delta
    mod size; the rows on the index's path are copied as lists."""
    i, *rest = index
    out = list(table)
    out[i] = moved(table[i], rest, delta, size) if rest else (table[i] + delta) % size
    return out


def randomly_moved(table, size: int, rng: random.Random) -> tuple[tuple[int, ...], list]:
    """(index, moved(table, index, delta, size)), drawing the index by one
    rng.randrange per axis, outermost first, and then delta by
    rng.randrange(1, size)."""
    index, row = [], table
    while isinstance(row, (tuple, list)):
        index.append(rng.randrange(len(row)))
        row = row[0]
    return tuple(index), moved(table, index, rng.randrange(1, size), size)


def action_mutant(mp, rng: random.Random):
    """(which, index, mutant): mp with one entry of act1 or act2, as `which`
    says, moved by randomly_moved."""
    which = rng.choice(("act1", "act2"))
    size = mp.Gamma.order if which == "act1" else mp.G.order
    index, table = randomly_moved(getattr(mp, which), size, rng)
    return which, index, rebuilt(mp, **{which: table})


def unit_index(Z) -> int:
    """Index in Z.simples of the center's unit, (e_G, e_L, 0) in the
    unit-normal gauge of a CenterStructure."""
    cat = Z.cat
    return Z.simples.index(CenterSimple(cat.G.identity, cat.Lambda.identity, (0,) * len(Z.npos)))


def triples(rep) -> list[tuple]:
    """A report's checks as (name, passed, witness), for comparing two reports."""
    return [(c.name, c.passed, c.witness) for c in rep.checks]


def entry_moved(cat, field: str, index, delta: int):
    """cat with the exponent at `index` of the scalar table `field` moved by
    delta mod M."""
    return rebuilt(cat, **{field: moved(getattr(cat, field), index, delta, cat.M)})


def entry_mutants(cat, fields=("jtable", "chitable", "phitable", "iotatable")):
    """Every category that differs from cat in one exponent of the named
    scalar tables, by every nonzero delta mod M."""
    for field in fields:
        for index in indices(getattr(cat, field)):
            for delta in range(1, cat.M):
                yield entry_moved(cat, field, index, delta)


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
    grading onto a trivial Gamma, an action on one label, a scalar with
    M = 1, a simple without chi) makes no mutant."""
    rng = random.Random(20260811)
    pool: list[tuple[str, str, object]] = []
    uses: collections.Counter[str] = collections.Counter()

    def add(name, kind, mutant):
        uses[name] += 1
        pool.append((name if uses[name] == 1 else f"{name}#{uses[name]}", kind, mutant))

    def group_mutations(name, count):
        G = GROUPS[name]()
        for _ in range(count):
            (a, b), table = randomly_moved(G.table, G.order, rng)
            add(f"group:{name}[{a}][{b}]", "group", (tuple(map(tuple, table)), G.identity))

    def pair_mutations(name, count):
        mp = pair(name)
        for _ in range(count):
            which, (i, j), mutant = action_mutant(mp, rng)
            add(f"pair:{name}:{which}[{i}][{j}]", "pair", mutant)

    def braided_mutations(name, count):
        bmp = center_braiding(pair(name))
        for _ in range(count):
            which = rng.choice(("phi", "psi"))
            (i,), images = randomly_moved(getattr(bmp, which), bmp.mp.G.order, rng)
            add(f"braided:{name}:{which}[{i}]", "braided", rebuilt(bmp, **{which: images}))

    def category_mutations(name, count):
        cat = category(name)
        tables = {"action": ("action", cat.Lambda.order), "grading": ("grading", cat.Gamma.order),
                  "J": ("jtable", cat.M), "chi": ("chitable", cat.M),
                  "phi": ("phitable", cat.M), "iota": ("iotatable", cat.M)}
        for _ in range(count):
            kind = rng.choice(list(tables))
            rng2 = random.Random(rng.random())
            field, size = tables[kind]
            if size == 1:
                continue
            entry, table = randomly_moved(getattr(cat, field), size, rng2)
            add(f"category:{name}:{kind}" + "".join(f"[{i}]" for i in entry), "category",
                rebuilt(cat, **{field: table}))

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
