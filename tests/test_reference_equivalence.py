"""The dense-table verification core against the per-element sweeps it
replaced (tests/reference_sweeps.py).

Category, matched-pair and braided-pair reports must agree check by check
on (name, pass, witness), so the table loops keep every first witness; this
is exercised on failing inputs too, where witnesses are nontrivial.  The
constructions (twisted product, induced pair, induced braiding) must build
the same tables.  Center reports on corrupted simple lists must agree on
pass/fail for each check.
"""

from __future__ import annotations

import itertools
import random

import pytest

from conftest import (FIXTURE_DIR, category, entry_mutants, mutation_pool, pair, table_mutants,
                      triples, unit_index)
from crossedcat import jsonio, matched
from crossedcat.braided import BraidedMatchedPair, center_braiding, verify_braiding
from crossedcat.center import CenterSimple, CenterStructure, enumerate_center, verify_center_braided
from crossedcat.errors import UnsupportedConfiguration
from crossedcat.fixtures import CENTER_FIXTURES, MATCHED_PAIRS
from crossedcat.matched import matched_pair, verify_matched_pair, zappa_szep
from crossedcat.pointed import pointed_category, verify_crossed_category
from gauge import gauge
from reference_sweeps import (ReferenceCenter, ReferenceSwapLaws, reference_center_braided,
                              reference_center_braiding, reported_braiding,
                              reported_crossed_category, reference_matched_pair,
                              reference_swap_laws, reference_zappa_szep)

CATEGORY_FILES = sorted(p.name for p in FIXTURE_DIR.glob("cat-*.json"))
CENTER_FILES = [n for n in CATEGORY_FILES if n != "cat-nonsurjective.json"]
PAIR_FILES = sorted(p.name for p in FIXTURE_DIR.glob("*.json")
                    if not p.name.startswith(("cat-", "group-")))
BRAIDED_FILES = [n for n in PAIR_FILES if n.endswith(("-braided.json", "-center.json"))]


def verdicts(rep) -> list[tuple]:
    return [(c.name, c.passed) for c in rep.checks]


def assert_same_category_report(cat) -> None:
    assert triples(verify_crossed_category(cat)) == triples(reported_crossed_category(cat)), \
        cat.name


def assert_same_pair_reports(bmp: BraidedMatchedPair) -> None:
    assert triples(verify_matched_pair(bmp.mp)) == triples(reference_matched_pair(bmp.mp))
    assert triples(verify_braiding(bmp)) == triples(reported_braiding(bmp))


@pytest.mark.parametrize("name", PAIR_FILES)
def test_pair_fixtures(name):
    if name in BRAIDED_FILES:
        assert_same_pair_reports(jsonio.load_braided(FIXTURE_DIR / name))
    else:
        mp = jsonio.load_matched(FIXTURE_DIR / name)
        assert triples(verify_matched_pair(mp)) == triples(reference_matched_pair(mp))


@pytest.mark.parametrize("name", list(MATCHED_PAIRS))
def test_induced_pairs(name):
    mp = pair(name)
    assert zappa_szep(mp) == reference_zappa_szep(mp)
    bmp = center_braiding(mp)
    assert bmp == reference_center_braiding(mp)
    assert_same_pair_reports(bmp)


def _action_mutants(mp, count: int, rng: random.Random):
    """Single-entry mutants of the act1 and act2 tables of a matched pair."""
    for _ in range(count):
        which = rng.choice(("act1", "act2"))
        a1 = [list(r) for r in mp.act1]
        a2 = [list(r) for r in mp.act2]
        act, size = (a1, mp.Gamma.order) if which == "act1" else (a2, mp.G.order)
        i, j = rng.randrange(len(act)), rng.randrange(size)
        act[i][j] = (act[i][j] + rng.randrange(1, size)) % size
        yield matched_pair(mp.G, mp.Gamma, a1, a2)


@pytest.mark.parametrize("name", ["turaev-s3", "s4-z4-s3"])
def test_induced_pair_action_mutants(name):
    bmp = center_braiding(pair(name))
    for mut in _action_mutants(bmp.mp, 20, random.Random(f"induced:{name}")):
        assert not verify_matched_pair(mut).passed
        assert_same_pair_reports(BraidedMatchedPair(mut, bmp.phi, bmp.psi))


@pytest.mark.parametrize("name", BRAIDED_FILES)
def test_braided_entry_mutants(name):
    """Every braided pair one table entry away from a braided-pair fixture,
    in phi, psi, act1 or act2: the mutants small-inputs draws from."""
    bmp = jsonio.load_braided(FIXTURE_DIR / name)
    mp, G, M = bmp.mp, bmp.mp.G, bmp.mp.Gamma
    mutants = [*(BraidedMatchedPair(mp, tuple(phi), bmp.psi)
                 for (phi,) in table_mutants([bmp.phi], G.order)),
               *(BraidedMatchedPair(mp, bmp.phi, tuple(psi))
                 for (psi,) in table_mutants([bmp.psi], G.order)),
               *(BraidedMatchedPair(matched_pair(G, M, a1, mp.act2), bmp.phi, bmp.psi)
                 for a1 in table_mutants(mp.act1, M.order)),
               *(BraidedMatchedPair(matched_pair(G, M, mp.act1, a2), bmp.phi, bmp.psi)
                 for a2 in table_mutants(mp.act2, G.order))]
    for mut in mutants:
        assert triples(verify_braiding(mut)) == triples(reported_braiding(mut))


def test_one_matching_sweep_per_pair(monkeypatch):
    """The input pair and the induced pair are each swept once across
    `verify category` and `verify center`, and the verdict stays with its
    record: a mutant of a verified pair is a new record and is swept afresh."""
    calls = []
    # the pairs' calls only: pointed binds the shared sweep under its own name
    sweep = matched.twisted_hom_witness
    monkeypatch.setattr(matched, "twisted_hom_witness",
                        lambda Xt, act, back, e: calls.append((Xt, act))
                        or sweep(Xt, act, back, e))
    # loaded afresh: no record of it has been verified in this process
    cat = jsonio.load_category(FIXTURE_DIR / "cat-vec-turaev-s3.json", validate=False)
    assert verify_crossed_category(cat).passed
    assert verify_center_braided(cat).passed
    # two relations for each of the two pairs, the input and the induced one
    assert len(calls) == 4
    assert len({(id(Xt), id(act)) for Xt, act in calls}) == 4

    Z = CenterStructure(cat)
    del calls[:]
    underlying = verify_braiding(Z.induced).checks[0]
    valid = verify_crossed_category(Z.as_category()).checks[0]
    assert (underlying.name, underlying.passed) == ("underlying_matched_pair", True)
    assert (valid.name, valid.passed) == ("matched_pair_valid", True)
    assert len(calls) == 2
    # each call hands out a fresh report, so annotating one leaks nowhere
    first = verify_matched_pair(Z.induced.mp)
    first.input_digest = "x"
    assert verify_matched_pair(Z.induced.mp).input_digest is None
    assert len(calls) == 2

    for mut in _action_mutants(Z.induced.mp, 5, random.Random("one-sweep")):
        before = len(calls)
        rep = verify_matched_pair(mut)
        assert len(calls) > before
        assert not rep.passed
        assert triples(rep) == triples(reference_matched_pair(mut))
    assert verify_matched_pair(Z.induced.mp).passed


def test_criterion_9_pair_mutants():
    mutants = [(name, kind, m) for name, kind, m in mutation_pool()
               if kind in ("pair", "braided")]
    assert len(mutants) >= 20
    for name, kind, m in mutants:
        if kind == "pair":
            assert triples(verify_matched_pair(m)) == triples(reference_matched_pair(m)), name
        else:
            assert triples(verify_braiding(m)) == triples(reported_braiding(m)), name


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


def test_criterion_9_category_mutants():
    mutants = [(name, m) for name, kind, m in mutation_pool() if kind == "category"]
    assert len(mutants) >= 15
    for name, cat in mutants:
        assert triples(verify_crossed_category(cat)) == \
            triples(reported_crossed_category(cat)), name


def dense_zero(cat) -> bool:
    """PointedCrossedCategory.zero, by a scan of every entry."""
    return not any(v for table in (cat.jtable, cat.chitable) for plane in table
                   for row in plane for v in row) \
        and not any(cat.phitable) and not any(cat.iotatable)


# zero data passes the scalar checks unread, so each mutant, which gives the
# zero tables of a Vec fixture one live entry, must clear the flag and keep
# every witness
@pytest.mark.parametrize("name,entries", [("cat-vec-turaev-s3.json", 444),
                                          ("cat-vec-s4-pair.json", 250)])
def test_single_entry_mutants(name, entries):
    cat = jsonio.load_category(FIXTURE_DIR / name)
    assert cat.zero
    seen = 0
    for mut in entry_mutants(cat):
        assert not mut.zero and not dense_zero(mut)
        assert triples(verify_crossed_category(mut)) == triples(reported_crossed_category(mut))
        seen += 1
    assert seen == entries * (cat.M - 1)


def test_zero_flag_is_a_dense_scan():
    """The flag scans each distinct plane once; on every category fixture and
    every center viewed as a category it equals a scan of every entry."""
    zero = []
    for name in CATEGORY_FILES:
        cat = jsonio.load_category(FIXTURE_DIR / name, validate=False)
        assert cat.zero == dense_zero(cat), name
        if cat.zero:
            zero.append(name)
    assert zero == [f"cat-{n}.json" for n in (
        "equivariant-s3", "equivariant-z2", "nonsurjective", "vec-s4-pair", "vec-trivial",
        "vec-turaev-s3", "vec-z2-gtrivial", "vec-z2z3", "vec-z3-gtrivial", "z4-over-z2-graded",
        "z4-over-z2", "z6-over-z3")]
    centers = {}
    for name in CENTER_FIXTURES:
        Z = CenterStructure(category(name))
        zcat = Z.as_category()
        assert zcat.zero == dense_zero(zcat), name
        centers[name] = (Z.zero, zcat.zero)
    assert [n for n, flags in centers.items() if flags == (True, True)] == \
        ["vec-trivial", "vec-z2-gtrivial", "vec-z3-gtrivial", "vec-z2z3", "vec-s4-pair",
         "equivariant-z2"]
    assert [n for n, flags in centers.items() if flags == (False, True)] == ["equivariant-s3"]


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
        assert triples(rep) == triples(reported_crossed_category(mut)), mut.name
        failing += not rep.passed
    assert failing == count


def _corrupted_simples(cat, count: int, rng: random.Random):
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


def _duplicated_simple(cat, rng: random.Random) -> list:
    """The simple list with one simple in place of another, so that it holds
    that simple twice and lacks the other; [] for a one-simple center."""
    simples = enumerate_center(cat)
    if len(simples) < 2:
        return []
    i, j = rng.sample(range(len(simples)), 2)
    mutated = list(simples)
    mutated[i] = simples[j]
    return [mutated]


# the two 24-simple centers take seconds per reference run; their category
# part is compared in test_center_viewed_as_category
@pytest.mark.parametrize("name", [n for n in CENTER_FIXTURES
                                  if n not in ("vec-s4-pair", "z6-over-z3")])
def test_center_reports(name):
    cat = category(name)
    assert triples(verify_center_braided(cat)) == triples(reference_center_braided(cat))
    rng = random.Random(f"simples:{name}")
    for mutated in [*_corrupted_simples(cat, 3, rng), *_duplicated_simple(cat, rng), []]:
        rep = verify_center_braided(cat, simples=mutated)
        # a changed exponent, a repeated simple or an empty list leaves the
        # oracle's list, so no later check is ever the first to see it
        assert rep.first_failure().name == "oracle_equivalence"
        assert verdicts(rep) == verdicts(reference_center_braided(cat, simples=mutated))


@pytest.mark.parametrize("name", ["z4-over-z2", "z6-over-z3"])
def test_reordered_or_repeated_simples_name_the_first_departure(name):
    """A list with the oracle's simples, reordered or with one repeated, has
    no extra or missing simple to name: oracle_equivalence names the first
    index where the two lists differ, with both keys there (None past the
    oracle's end).  The reference, slow on the 24-simple center, is
    compared on the smaller one."""
    cat = category(name)
    simples = enumerate_center(cat)
    keys = [z.sort_key() for z in simples]
    for mutated, witness in [(simples[1:] + simples[:1], (0, keys[1], keys[0])),
                             (simples + simples[:1], (len(keys), keys[0], None))]:
        reports = [verify_center_braided(cat, simples=mutated)]
        if name == "z4-over-z2":
            reports.append(reference_center_braided(cat, simples=mutated))
        for rep in reports:
            first = rep.first_failure()
            assert (first.name, first.witness) == ("oracle_equivalence", witness)


@pytest.mark.parametrize("name", CENTER_FIXTURES)
def test_unit_actions_on_points(name):
    """The closure and well-formed-swap proofs at center_category_axioms
    rest on three facts about the points of a CenterStructure, corrupted
    simple lists included: GA[e] keeps (g, label), it shifts chi by an
    amount that depends on (g, label) alone, and SA[e] fixes every point.
    The duplicated list holds one simple twice; a table entry then names
    the later copy, so points are compared as values."""
    cat = category(name)
    rng = random.Random(f"simples:{name}")
    lists = [None, *_corrupted_simples(cat, 3, rng), *_duplicated_simple(cat, rng)]
    for simples in lists:
        Z = CenterStructure(cat, simples=simples)
        P, shifts = Z.points, {}
        for z, p in zip(P, Z.g_action_table[cat.G.identity]):
            assert (P[p].g, P[p].label) == (z.g, z.label)
            shift = tuple((a - b) % cat.M for a, b in zip(P[p].chi, z.chi))
            assert shifts.setdefault((z.g, z.label), shift) == shift
        try:
            SA = Z.gamma_action_table
        except UnsupportedConfiguration:
            # a point fails the retract guard, so there is no Gamma-action,
            # and zero data, where no table read may raise, is ruled out
            assert not Z.zero
            continue
        assert [P[p] for p in SA[cat.Gamma.identity]] == list(P)


def test_zero_support_skips_never_mask_an_exception():
    """A simple of a Vec fixture whose unit exponent breaks the retract
    idempotent makes the center's data nonzero, so no check is skipped:
    each of the three scalar sweeps reports the same exception as the
    reference sweeps, and every other check the reference's witness."""
    cat = category("vec-z2z3")
    simples = enumerate_center(cat)
    unit_pos = cat.neutral_labels.index(cat.Lambda.identity)
    sweeps = ("braiding_axiom_1", "braiding_axiom_2", "braiding_axiom_3")
    for k, z in enumerate(simples):
        chi = list(z.chi)
        chi[unit_pos] = (chi[unit_pos] + 1) % cat.M
        mutated = simples[:k] + [CenterSimple(z.g, z.label, tuple(chi))] + simples[k + 1:]
        assert not CenterStructure(cat, simples=mutated).zero
        mine = triples(verify_center_braided(cat, simples=mutated))
        for name, _, witness in mine:
            if name in sweeps:
                assert witness[:2] == ("exception", "UnsupportedConfiguration"), (k, name)
        assert mine == triples(reference_center_braided(cat, simples=mutated)), k
    # so is the report on a list without the unit
    unit = unit_index(CenterStructure(cat))
    mutated = simples[:unit] + simples[unit + 1:]
    assert triples(verify_center_braided(cat, simples=mutated)) == \
        triples(reference_center_braided(cat, simples=mutated))


@pytest.mark.parametrize("name", [n for n in CENTER_FIXTURES if n.startswith("vec-")])
def test_zero_data_builds_no_scalar_table(name, monkeypatch):
    """On a Vec center the flag holds, and the center verifies without
    building sigma, the Gamma-action's J and chi, or the braiding."""
    cat = category(name)
    assert CenterStructure(cat).zero

    def unread(self):
        raise AssertionError("scalar table read on zero data")

    for table in ("sigma_table", "j_gamma_table", "chi_gamma_table", "braid_table"):
        monkeypatch.setattr(CenterStructure, table, property(unread))
    assert verify_center_braided(cat).passed


def test_criterion_9_center_mutants():
    mutants = [(name, m) for name, kind, m in mutation_pool() if kind == "center"]
    assert mutants
    for name, (cat, simples) in mutants:
        assert verdicts(verify_center_braided(cat, simples=simples)) == \
            verdicts(reference_center_braided(cat, simples=simples)), name


# -- the swap scalars' laws, which center_category_axioms restates
#
# ReferenceSwapLaws evaluates the laws in the input's gauge, so it agrees
# with the center's swap scalars on unit-normal inputs only: the fixtures,
# their sigma-table mutants and corrupted simple lists, and their gauges
# off the units and off N (family iii), which keep phi = iota = 0.

SIGMA_MUTANT_FIXTURES = ("z6-over-z3", "z4-over-z2", "cocycle-j", "equivariant-s3", "vec-z2z3")


def _center_axioms_pass(cat, simples=None) -> bool:
    return next(c.passed for c in verify_center_braided(cat, simples=simples).checks
                if c.name == "center_category_axioms")


def _restated_residues(cat):
    """(swap-law residue, residue of the center law that restates it) at
    every instance of the four swap laws off the unit actors (every group
    argument is not e).  The center's actor (g, s) is g * |Gamma| + s."""
    laws = ReferenceSwapLaws(cat)
    C = CenterStructure(cat).as_category()
    X, J, act, deg, Lt, M = C.chitable, C.jtable, C.action, C.grading, C.Lambda.table, C.M
    Kt, a1, a2, phi, eZ = C.G.table, C.mp.act1, C.mp.act2, C.phitable, C.Lambda.identity
    Zs, order = range(len(laws.Z.simples)), cat.Gamma.order
    Gs = [g for g in cat.G.elements() if g != cat.G.identity]
    Ss = [s for s in cat.Gamma.elements() if s != cat.Gamma.identity]
    eG, eS = cat.G.identity, cat.Gamma.identity

    def j_chi(g, h, x, y):  # axiom3_j_chi
        t = a2[deg[y]][h]
        return (X[g][h][Lt[x][y]] + J[h][x][y] + J[g][act[t][x]][act[h][y]]
                - J[Kt[g][h]][x][y] - X[a2[a1[h][deg[y]]][g]][t][x] - X[g][h][y]) % M

    def cocycle(g, h, k, x):  # chi_cocycle
        return (X[Kt[g][h]][k][x] + X[g][h][act[k][x]] - X[g][Kt[h][k]][x] - X[h][k][x]) % M

    for g, s in itertools.product(Gs, Ss):
        A, B = eG * order + s, g * order + eS
        yield laws.phi_compat(g, s), (X[A][B][eZ] + phi[B] + phi[A] - phi[Kt[A][B]]) % M
        for i, k in itertools.product(Zs, Zs):
            yield laws.j_compat(g, s, i, k), j_chi(A, B, i, k)
        for s2, i in itertools.product(Ss, Zs):
            yield laws.yang_baxter_gamma(g, s, s2, i), cocycle(A, eG * order + s2, B, i)
        for g2, i in itertools.product(Gs, Zs):
            yield laws.yang_baxter_g(g, g2, s, i), cocycle(A, B, g2 * order + eS, i)


def _assert_restated(cat):
    residues = list(_restated_residues(cat))
    assert all((a == 0) == (b == 0) for a, b in residues), cat.name
    return sum(a != 0 for a, _ in residues)


@pytest.mark.parametrize("name", SIGMA_MUTANT_FIXTURES)
def test_sigma_mutants_fail_center_category_axioms(name, monkeypatch):
    """sigma moved by one at two seeded simples per (g, s), in the center's
    table and in the reference's alike, with the zero flag forced off:
    every mutant fails a swap law and center_category_axioms, and off the
    unit actors each law vanishes where the center law that restates it
    does."""
    cat = category(name)
    simples = enumerate_center(cat)
    table = CenterStructure(cat).sigma_table
    reference_sigma = ReferenceCenter.sigma
    rng = random.Random(f"sigma:{name}")
    monkeypatch.setattr(CenterStructure, "zero", property(lambda self: False))
    nonzero = 0
    for g, s, _ in itertools.product(cat.G.elements(), cat.Gamma.elements(), range(2)):
        i = rng.randrange(len(simples))
        mutated = [[list(row) for row in plane] for plane in table]
        mutated[g][s][i] = (mutated[g][s][i] + 1) % cat.M
        monkeypatch.setattr(CenterStructure, "sigma_table", property(lambda self, t=mutated: t))

        def sigma(self, g2, s2, z, at=(g, s, simples[i])):
            return (reference_sigma(self, g2, s2, z) + ((g2, s2, z) == at)) % cat.M

        monkeypatch.setattr(ReferenceCenter, "sigma", sigma)
        assert not reference_swap_laws(cat).passed, (g, s, i)
        assert not _center_axioms_pass(cat), (g, s, i)
        if g != cat.G.identity and s != cat.Gamma.identity:
            nonzero += _assert_restated(cat)
    assert nonzero or cat.G.order == 1 or cat.Gamma.order == 1


@pytest.mark.parametrize("name", [n for n in CENTER_FIXTURES
                                  if n not in ("vec-s4-pair", "z6-over-z3")])
def test_corrupted_simples_failing_swap_laws_fail_center_category_axioms(name):
    """Changed exponents, dropped simples and a repeated simple: some fail
    a swap law, and each of those fails center_category_axioms too."""
    cat = category(name)
    simples = enumerate_center(cat)
    rng = random.Random(f"swap-simples:{name}")
    dropped = [simples[:k] + simples[k + 1:] for k in rng.sample(range(len(simples)),
                                                                 min(2, len(simples)))]
    failing = [m for m in [*_corrupted_simples(cat, 2, rng), *dropped,
                           *_duplicated_simple(cat, rng)]
               if not reference_swap_laws(cat, m).passed]
    assert failing
    assert not any(_center_axioms_pass(cat, m) for m in failing)


def test_family_iii_gauges_pass_swap_laws_and_center_category_axioms():
    """Gauges at (g, x) with g != e and x outside N keep the units strict.
    Each is a valid category, so it passes every swap law and
    center_category_axioms, and off the unit actors each law vanishes
    where its restatement does."""
    cases = [gauge(category("vec-z2z3"), [[0, 0, 0], [0, 0, 1]])]
    for name in ("vec-z2z3", "z4-over-z2", "z6-over-z3"):
        cat, rng = category(name), random.Random(f"family-iii:{name}")
        off_n = [x for x in cat.Lambda.elements() if x not in cat.neutral_labels]
        for _ in range(3):
            cases.append(gauge(cat, [[rng.randrange(cat.M) if g != cat.G.identity and x in off_n
                                      else 0 for x in cat.Lambda.elements()]
                                     for g in cat.G.elements()]))
    for cat in cases:
        assert reference_swap_laws(cat).passed, cat.name
        assert _center_axioms_pass(cat), cat.name
        _assert_restated(cat)
