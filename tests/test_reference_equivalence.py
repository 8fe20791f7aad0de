"""The dense-table verification core against the per-element sweeps it
replaced (tests/reference_sweeps.py).

SOURCES lists where the records come from: fixtures, constructions, seeded
mutants, corrupted simple lists and relabelings.  On every record the
package's report and the reference's agree check by check on (name, pass,
witness), so the table loops keep every first witness, on failing inputs
too, where witnesses are nontrivial.  The constructions (twisted product,
induced pair, induced braiding, the center viewed as a category) must
build the same records.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Iterable, NamedTuple

import pytest

from conftest import (FIXTURE_DIR, action_mutant, category, center_table_mutants,
                      corrupted_simples, duplicated_simple, entries_moved, entry_mutants,
                      mutation_pool, pair, random_perms, rebuilt, relabeled, table_mutants,
                      triples, unit_index)
from crossedcat import jsonio, matched
from crossedcat.braided import BraidedMatchedPair, center_braiding, verify_braiding
from crossedcat.center import CenterSimple, CenterStructure, enumerate_center, verify_center_braided
from crossedcat.matched import MatchedPair, verify_matched_pair, zappa_szep
from crossedcat.pointed import PointedCrossedCategory, vec_gamma, verify_crossed_category
from fixture_builders import CATEGORIES, CENTER_FIXTURES, MATCHED_PAIRS
from gauge import coboundary_shifted, gauge, random_cochain
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
# the two 24-simple centers take seconds per reference run; their category
# part is compared as a row of centers viewed as categories
SMALL_CENTERS = [n for n in CENTER_FIXTURES if n not in ("vec-s4-pair", "z6-over-z3")]
# zero data passes the scalar checks unread, so each single-entry mutant of
# these, which gives their zero tables one live entry, must keep every witness
ZERO_FIXTURES = ("cat-vec-turaev-s3.json", "cat-vec-s4-pair.json")
# mutants drawn from each center viewed as a category
CENTER_TABLE_MUTANTS = {"vec-turaev-s3": 2, "vec-s4-pair": 18}


def fixture(name: str, **kwargs):
    """fixtures/<name>, loaded as the category, braided pair or matched pair it holds."""
    load = (jsonio.load_category if name.startswith("cat-") else
            jsonio.load_braided if name in BRAIDED_FILES else jsonio.load_matched)
    return load(FIXTURE_DIR / name, **kwargs)


def induced_action_mutants(name: str):
    bmp, rng = center_braiding(pair(name)), random.Random(f"induced:{name}")
    for _ in range(20):
        yield rebuilt(bmp, mp=action_mutant(bmp.mp, rng)[2])


def braided_entry_mutants(name: str):
    """Every braided pair one table entry away from a braided-pair fixture,
    in phi, psi, act1 or act2: the mutants small-inputs draws from."""
    bmp = fixture(name)
    mp, G, M = bmp.mp, bmp.mp.G, bmp.mp.Gamma
    yield from (rebuilt(bmp, phi=phi) for (phi,) in table_mutants([bmp.phi], G.order))
    yield from (rebuilt(bmp, psi=psi) for (psi,) in table_mutants([bmp.psi], G.order))
    yield from (rebuilt(bmp, mp=rebuilt(mp, act1=a1)) for a1 in table_mutants(mp.act1, M.order))
    yield from (rebuilt(bmp, mp=rebuilt(mp, act2=a2)) for a2 in table_mutants(mp.act2, G.order))


def coboundary_shifts(name: str):
    """(shift, three single-entry mutants of it), twice per category fixture.
    A shift keeps both cocycle laws, and a mutant of it breaks one, so the
    certified J and chi cocycle sweeps meet passing and failing nonzero
    data."""
    cat, rng = fixture(name, validate=False), random.Random(f"coboundary:{name}")
    for _ in range(2):
        shifted = coboundary_shifted(cat, rng)
        yield shifted, [entries_moved(shifted, rng.choice(("J", "chi")), 1, rng)
                        for _ in range(3)]


def gauged_fixture_mutants(name: str):
    """Gauged fixtures with one to three chi entries moved, which keep the J
    cocycle, so axiom 3 runs under its certificate, and with one or two J
    entries moved, which mostly break it, so axiom 3 runs in full."""
    cat, rng = fixture(name), random.Random(f"gauged:{name}")
    for table, count in [("chi", 1), ("chi", 2), ("chi", 3), ("J", 1), ("J", 2)]:
        for _ in range(2):
            yield entries_moved(gauge(cat, random_cochain(cat, rng)), table, count, rng)


def corrupted_simple_lists(name: str):
    """A changed exponent, a repeated simple or an empty list: each leaves
    the oracle's list."""
    cat, rng = category(name), random.Random(f"simples:{name}")
    for simples in [*corrupted_simples(cat, 3, rng), *duplicated_simple(cat, rng), []]:
        yield cat, simples


def unit_exponent_moved(name: str):
    """A Vec center's simple list with one simple's unit exponent moved, once
    per simple, and then without the unit.  A moved unit exponent makes the
    center's data nonzero, so no check is skipped, the three scalar sweeps
    included."""
    cat = category(name)
    simples = enumerate_center(cat)
    unit_pos = cat.neutral_labels.index(cat.Lambda.identity)
    for k, z in enumerate(simples):
        chi = list(z.chi)
        chi[unit_pos] = (chi[unit_pos] + 1) % cat.M
        yield cat, simples[:k] + [CenterSimple(z.g, z.label, tuple(chi))] + simples[k + 1:]
    unit = unit_index(CenterStructure(cat))
    yield cat, simples[:unit] + simples[unit + 1:]


def relabeled_categories(name: str):
    """A category builder relabeled four times, drawn as tests/test_relabeled.py
    draws it: the identities sit off index 0, where no fixture has one."""
    cat, rng = category(name), random.Random(f"relabel:{name}")
    return [relabeled(cat, random_perms(cat, rng)) for _ in range(4)]


def relabeled_pairs(name: str):
    """A pair builder relabeled four times, each with its induced braided
    pair and Vec over it, drawn as tests/test_relabeled.py draws them."""
    mp, rng = pair(name), random.Random(f"relabel:{name}")
    for _ in range(4):
        pG, pS = random_perms(mp, rng)
        moved = relabeled(mp, (pG, pS))
        yield from (moved, center_braiding(moved), relabeled(vec_gamma(mp, 2), (pG, pS, pS)))


def relabeled_mutants(_):
    """test_relabeled.py's sample of the pool's pair and category mutants,
    each relabeled twice."""
    rng = random.Random("relabel:mutants")
    drawn = [entry for entry in mutation_pool() if entry[1] in ("pair", "category")]
    for _, _, mutant in rng.sample(drawn, 24):
        yield from (relabeled(mutant, random_perms(mutant, rng)) for _ in range(2))


class Source(NamedTuple):
    """Records, each a matched pair, a braided pair, a category, or a
    category and a simple list (None for its enumeration) for its center,
    built per key.  On each, the package's report and the reference's give
    the same triples, and `holds` is true of the package's; `counts` is
    (records, failing) per key, or one pair for every key."""
    id: str
    keys: Iterable[str]
    records: Callable[[str], Iterable]
    counts: tuple[int, int] | dict[str, tuple[int, int]]
    holds: Callable = lambda rep: True


SOURCES = [
    Source("pair-fixtures", PAIR_FILES, lambda n: [fixture(n)], (1, 0)),
    Source("induced-pairs", MATCHED_PAIRS, lambda n: [center_braiding(pair(n))], (1, 0)),
    Source("induced-pair-action-mutants", ("turaev-s3", "s4-z4-s3"), induced_action_mutants,
           (20, 20), holds=lambda rep: rep.first_failure().name == "underlying_matched_pair"),
    # a trivial pair's tables have no entry to move
    Source("braided-entry-mutants", BRAIDED_FILES, braided_entry_mutants,
           {"d4-z4-z2-center.json": (1008, 1008), "s3-factorized-center.json": (420, 420),
            "trivial-pair-center.json": (0, 0), "turaev-d4-braided.json": (1008, 1008),
            "turaev-s3-braided.json": (420, 420), "turaev-z2-braided.json": (12, 10),
            "z2-z3-inversion-center.json": (420, 420)}),
    Source("mutation-pool", ("pair", "braided", "category", "center"),
           lambda kind: [m for _, k, m in mutation_pool() if k == kind],
           {"pair": (16, 16), "braided": (6, 6), "category": (16, 16), "center": (6, 6)}),
    Source("category-fixtures", CATEGORY_FILES, lambda n: [fixture(n, validate=False)], (1, 0)),
    Source("centers-as-categories", CENTER_FILES,
           lambda n: [CenterStructure(fixture(n)).as_category()], (1, 0)),
    Source("single-entry-mutants", ZERO_FIXTURES, lambda n: entry_mutants(fixture(n)),
           {"cat-vec-turaev-s3.json": (444, 444), "cat-vec-s4-pair.json": (250, 250)}),
    Source("center-table-mutants", CENTER_TABLE_MUTANTS,
           lambda n: center_table_mutants(n, CENTER_TABLE_MUTANTS[n],
                                          random.Random(f"mutants:{n}")),
           {n: (count, count) for n, count in CENTER_TABLE_MUTANTS.items()}),
    # the failing shifts per fixture, in CATEGORY_FILES order
    Source("coboundary-shifts", CATEGORY_FILES, lambda n: [s for s, _ in coboundary_shifts(n)],
           {n: (2, failing) for n, failing in zip(CATEGORY_FILES,
                                                  [1, 1, 2, 1, 0, 2, 0, 2, 0, 2, 1, 2, 2, 2])},
           holds=lambda rep: all(c.passed for c in rep.checks
                                 if c.name in ("axiom2_j_cocycle", "chi_cocycle"))),
    Source("coboundary-shift-mutants", CATEGORY_FILES,
           lambda n: [m for _, ms in coboundary_shifts(n) for m in ms], (6, 6)),
    Source("gauged-fixture-mutants", CATEGORY_FILES, gauged_fixture_mutants, (10, 10)),
    Source("center-fixtures", SMALL_CENTERS, lambda n: [(category(n), None)], (1, 0)),
    # no later check is ever the first to see a list the oracle does not give,
    # and a one-simple center has no list with a repeated simple
    Source("corrupted-simple-lists", SMALL_CENTERS, corrupted_simple_lists,
           {n: (4, 4) if n == "vec-trivial" else (5, 5) for n in SMALL_CENTERS},
           holds=lambda rep: rep.first_failure().name == "oracle_equivalence"),
    Source("unit-exponent-moved", ("vec-z2z3",), unit_exponent_moved, (7, 7)),
    Source("relabeled-categories", CATEGORIES, relabeled_categories, (4, 0)),
    Source("relabeled-pairs", MATCHED_PAIRS, relabeled_pairs, (12, 0)),
    Source("relabeled-mutants", ("pool",), relabeled_mutants, (48, 48)),
]

# the package's verifier and its reference, per type of record
VERIFIERS = {
    MatchedPair: (verify_matched_pair, reference_matched_pair),
    BraidedMatchedPair: (verify_braiding, reported_braiding),
    PointedCrossedCategory: (verify_crossed_category, reported_crossed_category),
    tuple: (lambda rec: verify_center_braided(*rec), lambda rec: reference_center_braided(*rec)),
}


@pytest.mark.parametrize("source, key", [pytest.param(source, key, id=f"{source.id}-{key}")
                                         for source in SOURCES for key in source.keys])
def test_source_gives_the_references_reports(source, key):
    records = failing = 0
    for record in source.records(key):
        if isinstance(record, BraidedMatchedPair):
            # its report names only the first witness of the underlying pair,
            # so the pair's own report is compared too
            assert triples(verify_matched_pair(record.mp)) == \
                triples(reference_matched_pair(record.mp)), records
        verify, reference = VERIFIERS[type(record)]
        rep = verify(record)
        assert triples(rep) == triples(reference(record)), records
        assert source.holds(rep), records
        records += 1
        failing += not rep.passed
    counts = source.counts[key] if isinstance(source.counts, dict) else source.counts
    assert (records, failing) == counts


def test_constructions_give_the_references_records():
    """The twisted product, the induced pair and its braiding of every pair
    builder, and every center fixture viewed as a category."""
    for name in MATCHED_PAIRS:
        mp = pair(name)
        assert zappa_szep(mp) == reference_zappa_szep(mp), name
        assert center_braiding(mp) == reference_center_braiding(mp), name
    for cat in map(fixture, CENTER_FILES):
        assert CenterStructure(cat).as_category() == ReferenceCenter(cat).as_category(), cat.name


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


def dense_zero(cat) -> bool:
    """PointedCrossedCategory.zero, by a scan of every entry."""
    return not any(v for table in (cat.jtable, cat.chitable) for plane in table
                   for row in plane for v in row) \
        and not any(cat.phitable) and not any(cat.iotatable)


def test_zero_flag_is_a_dense_scan():
    """The flag scans each distinct plane once; on every category fixture and
    every center viewed as a category it equals a scan of every entry, and
    no single-entry mutant of a zero fixture keeps it."""
    zero = []
    for name in CATEGORY_FILES:
        cat = fixture(name, validate=False)
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
    # one live entry in the zero tables of a Vec fixture clears the flag
    for cat in map(fixture, ZERO_FIXTURES):
        assert cat.zero
        assert not any(mut.zero or dense_zero(mut) for mut in entry_mutants(cat)), cat.name
    # and so does one moved unit exponent in a Vec center's simple list
    assert not any(CenterStructure(cat, simples=simples).zero
                   for cat, simples in list(unit_exponent_moved("vec-z2z3"))[:-1])


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
    lists = [None, *corrupted_simples(cat, 3, rng), *duplicated_simple(cat, rng)]
    for simples in lists:
        Z = CenterStructure(cat, simples=simples)
        P, shifts = Z.points, {}
        for z, p in zip(P, Z.g_action_table[cat.G.identity]):
            assert (P[p].g, P[p].label) == (z.g, z.label)
            shift = tuple((a - b) % cat.M for a, b in zip(P[p].chi, z.chi))
            assert shifts.setdefault((z.g, z.label), shift) == shift
        assert [P[p] for p in Z.gamma_action_table[cat.Gamma.identity]] == list(P)


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


@pytest.mark.parametrize("name", SMALL_CENTERS)
def test_corrupted_simples_failing_swap_laws_fail_center_category_axioms(name):
    """Changed exponents, dropped simples and a repeated simple: some fail
    a swap law, and each of those fails center_category_axioms too."""
    cat = category(name)
    simples = enumerate_center(cat)
    rng = random.Random(f"swap-simples:{name}")
    dropped = [simples[:k] + simples[k + 1:] for k in rng.sample(range(len(simples)),
                                                                 min(2, len(simples)))]
    failing = [m for m in [*corrupted_simples(cat, 2, rng), *dropped,
                           *duplicated_simple(cat, rng)]
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
