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

from conftest import (FIXTURE_DIR, action_mutant, category, entry_mutants, mutation_pool, pair,
                      randomly_moved, rebuilt, table_mutants, triples, unit_index)
from crossedcat import jsonio, matched
from crossedcat.braided import BraidedMatchedPair, center_braiding, verify_braiding
from crossedcat.center import CenterSimple, CenterStructure, enumerate_center, verify_center_braided
from crossedcat.matched import verify_matched_pair, zappa_szep
from crossedcat.pointed import verify_crossed_category
from fixture_builders import CENTER_FIXTURES, MATCHED_PAIRS
from gauge import gauge
from reference_sweeps import (BraidingLaws, CategoryLaws, PairLaws, ReferenceCenter,
                              ReferenceSwapLaws, reference_center_braided,
                              reference_center_braiding, reference_crossed_category,
                              reference_matched_pair, reference_swap_laws, reference_zappa_szep,
                              reported_braiding, reported_crossed_category)

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


@pytest.mark.parametrize("name", ["turaev-s3", "s4-z4-s3"])
def test_induced_pair_action_mutants(name):
    bmp, rng = center_braiding(pair(name)), random.Random(f"induced:{name}")
    for _, _, mut in (action_mutant(bmp.mp, rng) for _ in range(20)):
        assert not verify_matched_pair(mut).passed
        assert_same_pair_reports(rebuilt(bmp, mp=mut))


@pytest.mark.parametrize("name", BRAIDED_FILES)
def test_braided_entry_mutants(name):
    """Every braided pair one table entry away from a braided-pair fixture,
    in phi, psi, act1 or act2: the mutants small-inputs draws from."""
    bmp = jsonio.load_braided(FIXTURE_DIR / name)
    mp, G, M = bmp.mp, bmp.mp.G, bmp.mp.Gamma
    mutants = [*(rebuilt(bmp, phi=phi) for (phi,) in table_mutants([bmp.phi], G.order)),
               *(rebuilt(bmp, psi=psi) for (psi,) in table_mutants([bmp.psi], G.order)),
               *(rebuilt(bmp, mp=rebuilt(mp, act1=a1)) for a1 in table_mutants(mp.act1, M.order)),
               *(rebuilt(bmp, mp=rebuilt(mp, act2=a2)) for a2 in table_mutants(mp.act2, G.order))]
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

    rng = random.Random("one-sweep")
    for _, _, mut in (action_mutant(Z.induced.mp, rng) for _ in range(5)):
        before = len(calls)
        rep = verify_matched_pair(mut)
        assert len(calls) > before
        assert not rep.passed
        assert triples(rep) == triples(reference_matched_pair(mut))
    assert verify_matched_pair(Z.induced.mp).passed



def test_one_reference_sweep_per_pair(monkeypatch):
    """The reference's twin of test_one_matching_sweep_per_pair: across the
    reference category and center reports the input pair and the induced
    pair are each swept once.  The verdict stays with its record under the
    reference's own attribute, so the package's verdict on the same record
    is never read, and a new record, a mutant or an equal copy, is swept
    afresh."""
    swept = []
    init = PairLaws.__init__
    monkeypatch.setattr(PairLaws, "__init__", lambda self, mp: swept.append(mp) or init(self, mp))
    # loaded afresh: no record of it has been verified in this process
    cat = jsonio.load_category(FIXTURE_DIR / "cat-vec-z2z3.json", validate=False)
    assert verify_matched_pair(cat.mp).passed
    assert reference_crossed_category(cat).passed
    assert reference_center_braided(cat).passed
    assert [(mp.G.order, mp.Gamma.order) for mp in swept] == [(2, 3), (6, 6)]
    assert swept[0] is cat.mp

    del swept[:]
    # each call hands out a fresh report, so annotating one leaks nowhere
    report = reference_matched_pair(cat.mp)
    report.input_digest = "x"
    assert reference_matched_pair(cat.mp).input_digest is None
    assert swept == []
    rng = random.Random("one-reference-sweep")
    mutants = [mut for _, _, mut in (action_mutant(cat.mp, rng) for _ in range(5))]
    for mut in [*mutants, rebuilt(cat.mp)]:
        assert triples(reference_matched_pair(mut)) == triples(reference_matched_pair(mut))
        assert swept[-1] is mut
    assert len(swept) == 6 and swept[-1] == cat.mp


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
    tables = {"J": ("jtable", zcat.M), "chi": ("chitable", zcat.M),
              "action": ("action", zcat.Lambda.order)}
    for _ in range(count):
        kind = rng.choice(list(tables))
        field, size = tables[kind]
        _, table = randomly_moved(getattr(zcat, field), size, rng)
        yield rebuilt(zcat, **{field: table}, name=f"{zcat.name}:{kind}")


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


# nonzero residues per braiding law, under the induced pair and then (phi, phi)
BRAIDING_RESIDUES = {"z4-over-z2": [0, 0, 0, 192, 1024, 512], "cocycle-j": [0, 0, 0, 0, 0, 64],
                     "equivariant-s3": [0] * 6, "vec-z2z3": [0] * 6}


@pytest.mark.parametrize("name", BRAIDING_RESIDUES)
def test_one_braiding_statement_on_tables_and_derived_maps(name):
    """BraidingLaws gives the same residue on CenterStructure's tables as on
    ReferenceCenter's derived maps at every (A, i, k) and (i, k, l), under
    the induced pair and under its (phi, phi) pair, which breaks the laws
    on z4-over-z2 and cocycle-j (test_certificates.py's
    test_braiding_axiom_1_needs_well_typed_braidings)."""
    cat = category(name)
    Z, R = CenterStructure(cat), ReferenceCenter(cat)
    assert Z.simples == R.simples
    bmp, counts = Z.induced, []
    for braided in (bmp, rebuilt(bmp, psi=bmp.phi)):
        tables = BraidingLaws.on_tables(len(Z.simples), Z.braid_table, Z.tensor_table,
                                        Z.action_table, Z.grade_table, Z.j_table, Z.chi_table,
                                        braided, cat.M)
        for (law, on_tables, domain), (_, on_maps, _) in zip(tables.sweeps(),
                                                             R.braiding_laws(braided).sweeps()):
            residues = [(on_tables(*w), on_maps(*w)) for w in domain]
            assert all(a == b for a, b in residues), (law, braided == bmp)
            counts.append(sum(a != 0 for a, _ in residues))
    assert counts == BRAIDING_RESIDUES[name]


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
        assert [P[p] for p in Z.gamma_action_table[cat.Gamma.identity]] == list(P)


def test_nonzero_unit_exponent_runs_every_sweep_as_the_reference_does():
    """A simple of a Vec fixture whose unit exponent is moved makes the
    center's data nonzero, so no check is skipped: every check of the
    report, the three scalar sweeps included, gives the reference's
    verdict and witness."""
    cat = category("vec-z2z3")
    simples = enumerate_center(cat)
    unit_pos = cat.neutral_labels.index(cat.Lambda.identity)
    for k, z in enumerate(simples):
        chi = list(z.chi)
        chi[unit_pos] = (chi[unit_pos] + 1) % cat.M
        mutated = simples[:k] + [CenterSimple(z.g, z.label, tuple(chi))] + simples[k + 1:]
        assert not CenterStructure(cat, simples=mutated).zero
        assert triples(verify_center_braided(cat, simples=mutated)) == \
            triples(reference_center_braided(cat, simples=mutated)), k
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


def _restated_residues(laws: ReferenceSwapLaws, center: CategoryLaws):
    """(swap-law residue, residue of the center law that restates it) at
    every instance of the four swap laws off the unit actors (every group
    argument is not e).  The center's actor (g, s) is g * |Gamma| + s."""
    cat = laws.cat
    Zs, order = range(len(laws.Z.simples)), cat.Gamma.order
    Gs = [g for g in cat.G.elements() if g != cat.G.identity]
    Ss = [s for s in cat.Gamma.elements() if s != cat.Gamma.identity]
    eG, eS = cat.G.identity, cat.Gamma.identity
    for g, s in itertools.product(Gs, Ss):
        A, B = eG * order + s, g * order + eS
        yield laws.phi_compat(g, s), center.axiom3_phi(A, B)
        for i, k in itertools.product(Zs, Zs):
            yield laws.j_compat(g, s, i, k), center.axiom3_j_chi(A, B, i, k)
        for s2, i in itertools.product(Ss, Zs):
            yield laws.yang_baxter_gamma(g, s, s2, i), center.chi_cocycle(A, eG * order + s2, B, i)
        for g2, i in itertools.product(Gs, Zs):
            yield laws.yang_baxter_g(g, g2, s, i), center.chi_cocycle(A, B, g2 * order + eS, i)


def _assert_restated(laws: ReferenceSwapLaws, center: CategoryLaws):
    residues = list(_restated_residues(laws, center))
    assert all((a == 0) == (b == 0) for a, b in residues), laws.cat.name
    return sum(a != 0 for a, _ in residues)


@pytest.mark.parametrize("name", SIGMA_MUTANT_FIXTURES)
def test_sigma_mutants_fail_center_category_axioms(name):
    """sigma moved by one at two seeded simples per (g, s), in the center's
    table and in the reference's alike, with the zero flag forced off:
    every mutant fails a swap law and center_category_axioms, and off the
    unit actors each law vanishes where the center law that restates it
    does."""
    cat = category(name)
    simples = enumerate_center(cat)
    table = CenterStructure(cat).sigma_table
    rng = random.Random(f"sigma:{name}")
    nonzero = 0
    for g, s, _ in itertools.product(cat.G.elements(), cat.Gamma.elements(), range(2)):
        i = rng.randrange(len(simples))
        mutated = [[list(row) for row in plane] for plane in table]
        mutated[g][s][i] = (mutated[g][s][i] + 1) % cat.M
        # instance attributes shadow the cached tables they replace
        Z = CenterStructure(cat)
        Z.sigma_table, Z.zero = mutated, False
        laws = ReferenceSwapLaws(cat)
        reference_sigma, at = laws.Z.sigma, (g, s, simples[i])

        def sigma(g2, s2, z):
            return (reference_sigma(g2, s2, z) + ((g2, s2, z) == at)) % cat.M

        laws.Z.sigma = sigma
        center = Z.as_category()
        assert not laws.report().passed, (g, s, i)
        assert not verify_crossed_category(center).passed, (g, s, i)
        if g != cat.G.identity and s != cat.Gamma.identity:
            nonzero += _assert_restated(laws, CategoryLaws(center))
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
        _assert_restated(ReferenceSwapLaws(cat), CategoryLaws(CenterStructure(cat).as_category()))
