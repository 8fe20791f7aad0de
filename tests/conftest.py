from __future__ import annotations

import collections
import functools
import importlib
import io
import json
import pkgutil
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import crossedcat  # noqa: E402
from crossedcat import jsonio  # noqa: E402
from crossedcat.braided import BraidedMatchedPair, braided_pair, center_braiding  # noqa: E402
from crossedcat.center import CenterSimple, CenterStructure, enumerate_center  # noqa: E402
from crossedcat.cli import main  # noqa: E402
from crossedcat.groups import FiniteGroup, cyclic, trivial_group  # noqa: E402
from crossedcat.matched import MatchedPair, direct_pair, matched_pair  # noqa: E402
from crossedcat.pointed import PointedCrossedCategory, pointed_category  # noqa: E402
from fixture_builders import CATEGORIES, GROUPS, MATCHED_PAIRS  # noqa: E402

# Hypothesis mixes the literal constants of every imported module outside a
# tests directory into its draws: the package's, and those of the benchmark
# modules that perfbench/tests/test_perfbench.py imports when pytest collects
# it.  Each command imports its modules when it runs, so without importing
# them all here a seeded test would draw other examples according to which
# tests ran before it and whether pytest collects perfbench/tests.
PERFBENCH_MODULES = ("gate", "hostspeed", "inputs", "spans", "traced_cli")
for _module in pkgutil.iter_modules(crossedcat.__path__):
    importlib.import_module(f"crossedcat.{_module.name}")
for _module in PERFBENCH_MODULES:
    importlib.import_module(_module)

FIXTURE_DIR = ROOT / "fixtures"


def cli(*argv: str) -> tuple[int, str, str]:
    """`crossedcat argv...` run in this process: (exit code, stdout, stderr).
    It redirects the streams itself, so a Hypothesis test, which cannot take
    the capsys fixture, can call it too."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """`python args...` in a child interpreter that imports the package from
    src/, with stdout and stderr captured as text and a 60 s timeout;
    `kwargs` go to subprocess.run and override these."""
    return subprocess.run([sys.executable, *args], **{
        "stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True, "timeout": 60,
        "env": {"PYTHONPATH": str(ROOT / "src")}, **kwargs})


REMOVED = object()


def fixture_with(name: str, path: tuple, value=REMOVED):
    """The JSON value of fixtures/<name>.json with the node at the key path
    `path` set to `value`, or removed when no value is given."""
    obj = json.loads((FIXTURE_DIR / f"{name}.json").read_text())
    node = obj
    for key in path[:-1]:
        node = node[key]
    if value is REMOVED:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return obj


def z8_over_trivial_groups() -> PointedCrossedCategory:
    """Lambda = Z_8 graded trivially over trivial G and Gamma, M = 8: the
    center's oracle would try 8 * 8^8 functions."""
    one = trivial_group()
    return pointed_category(cyclic(8), direct_pair(one, one), [0] * 8, [list(range(8))], 8)


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


def carried(table, axes, values=None) -> tuple:
    """The nested table, as tuples, with the entry at (i, j, ...) moved to (axes[0][i],
    axes[1][j], ...) and, when `values` is given, renamed to values[entry]."""
    if not axes:
        return table if values is None else values[table]
    out = [None] * len(table)
    for i, row in enumerate(table):
        out[axes[0][i]] = carried(row, axes[1:], values)
    return tuple(out)


def relabeled_group(H: FiniteGroup, p) -> FiniteGroup:
    """H with p[g] the new label of g: its table, identity and inverses
    carried across."""
    return FiniteGroup(H.order, carried(H.table, (p, p), p), p[H.identity],
                       carried(H.inverses, (p,), p), H.name)


def relabeled(record, perms):
    """`record`, a matched pair or a category, with the labels of its groups
    renamed: perms[0][g] is the new label of g in G, perms[1] renames Gamma
    and, for a category, perms[2] renames Lambda.  Every table is carried
    across: the group tables, identities and inverses, both actions, and
    the grading, action, J, chi, phi and iota of a category."""
    if isinstance(record, MatchedPair):
        pG, pS = perms
        return rebuilt(record, G=relabeled_group(record.G, pG),
                       Gamma=relabeled_group(record.Gamma, pS),
                       act1=carried(record.act1, (pG, pS), pS),
                       act2=carried(record.act2, (pS, pG), pG))
    pG, pS, pL = perms
    return rebuilt(record, Lambda=relabeled_group(record.Lambda, pL),
                   mp=relabeled(record.mp, (pG, pS)),
                   grading=carried(record.grading, (pL,), pS),
                   action=carried(record.action, (pG, pL), pL),
                   jtable=carried(record.jtable, (pG, pL, pL)),
                   phitable=carried(record.phitable, (pG,)),
                   chitable=carried(record.chitable, (pG, pG, pL)),
                   iotatable=carried(record.iotatable, (pL,)))


def random_perms(record, rng: random.Random) -> tuple[list[int], ...]:
    """A random relabeling of each group of a matched pair or category, in
    the order relabeled takes them."""
    groups = [record.G, record.Gamma]
    if isinstance(record, PointedCrossedCategory):
        groups.append(record.Lambda)
    return tuple(rng.sample(range(H.order), H.order) for H in groups)


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


def entries_moved(cat, table: str, count: int, rng: random.Random):
    """`cat` with `count` distinct entries of its J or chi table, as `table`
    says, moved by nonzero deltas."""
    field = "jtable" if table == "J" else "chitable"
    t = getattr(cat, field)
    cells = indices(t)
    for index in rng.sample(cells, min(count, len(cells))):
        t = moved(t, index, rng.randrange(1, cat.M), cat.M)
    return rebuilt(cat, **{field: t}, name=f"{cat.name}:{table}x{count}")


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


def center_table_mutants(name: str, count: int, rng: random.Random):
    """Single-entry mutants of the J, chi and action tables of the center of
    fixtures/cat-<name>.json viewed as a category."""
    zcat = CenterStructure(jsonio.load_category(FIXTURE_DIR / f"cat-{name}.json")).as_category()
    tables = {"J": ("jtable", zcat.M), "chi": ("chitable", zcat.M),
              "action": ("action", zcat.Lambda.order)}
    for _ in range(count):
        kind = rng.choice(list(tables))
        field, size = tables[kind]
        _, table = randomly_moved(getattr(zcat, field), size, rng)
        yield rebuilt(zcat, **{field: table}, name=f"{zcat.name}:{kind}")


def corrupted_simples(cat, count: int, rng: random.Random):
    """Simple lists with one half-braiding exponent changed to a value that
    makes a triple no simple of the list has, so each list lacks one simple
    and holds one triple that is not a simple."""
    simples = enumerate_center(cat)
    present = set(simples)
    while count:
        idx = rng.randrange(len(simples))
        z = simples[idx]
        pos = rng.randrange(len(z.chi))
        changed = []
        for delta in range(1, cat.M):
            chi = list(z.chi)
            chi[pos] = (chi[pos] + delta) % cat.M
            changed.append(CenterSimple(z.g, z.label, tuple(chi)))
        changed = [w for w in changed if w not in present]
        if changed:
            mutated = list(simples)
            mutated[idx] = rng.choice(changed)
            count -= 1
            yield mutated


def duplicated_simple(cat, rng: random.Random) -> list:
    """The simple list with one simple in place of another, so that it holds
    that simple twice and lacks the other; [] for a one-simple center."""
    simples = enumerate_center(cat)
    if len(simples) < 2:
        return []
    i, j = rng.sample(range(len(simples)), 2)
    mutated = list(simples)
    mutated[i] = simples[j]
    return [mutated]


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
