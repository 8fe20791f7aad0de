from __future__ import annotations

import itertools
import re

import pytest

from conftest import moved, pair, rebuilt, renamed
from crossedcat import groups
from crossedcat.braided import turaev_braiding
from crossedcat.errors import NotMatched, ValidationError
from crossedcat.fixtures import MATCHED_PAIRS
from crossedcat.groups import (cyclic, dihedral, direct_product, is_hom_image,
                               subgroup_from_generators, symmetric, trivial_group,
                               validate_group)
from crossedcat.matched import (direct_pair, from_exact_factorization, matched_pair,
                                turaev_pair, verify_matched_pair, zappa_szep)

ALL_PAIRS = ["trivial-pair", "direct-z2-z2", "z2-z3-inversion", "s3-factorized",
             "s4-z4-s3", "d4-z4-z2", "turaev-z2", "turaev-s3", "turaev-d4"]


@pytest.mark.parametrize("name", ALL_PAIRS)
def test_all_pairs_verify(name):
    assert verify_matched_pair(pair(name)).passed


@pytest.mark.parametrize("name", ALL_PAIRS)
def test_rebuilt_pair_names_no_field(name):
    mp, bmp = pair(name), turaev_braiding(pair(name).G)
    assert rebuilt(mp) == mp and rebuilt(bmp) == bmp


def test_trivial_gamma_always_passes():
    mp = direct_pair(symmetric(3), trivial_group())
    assert verify_matched_pair(mp).passed


def test_corrupted_pair_reports_first_witness():
    mp = pair("z2-z3-inversion")
    bad = rebuilt(mp, act1=moved(mp.act1, (1, 1), 1, 3))
    rep = verify_matched_pair(bad)
    assert not rep.passed
    fail = rep.first_failure()
    assert fail.witness is not None and len(fail.witness) >= 2
    # the refusal names the check and witness as load_category's does
    with pytest.raises(NotMatched) as exc:
        zappa_szep(bad)
    assert str(exc.value) == "matched-pair verification failed: act1_is_left_action at [1, 1, 1]"


@pytest.mark.parametrize("table,row,value,error", [
    ("act1", 1, [0, 1], "act1 must be |G| x |Gamma|"),
    ("act2", 2, [1], "act2 must be |Gamma| x |G|"),
    ("act1", 1, [0, 3, 1], "act1 entry out of range"),
    ("act2", 0, [0, -1], "act2 entry out of range"),
], ids=["ragged-act1", "ragged-act2", "act1-range", "act2-range"])
def test_matched_pair_rejects_malformed_action_tables(table, row, value, error):
    """The builder checks the shapes and ranges every sweep indexes by, so
    an in-process pair fails as the loader does, not with an IndexError."""
    mp = pair("z2-z3-inversion")
    acts = {"act1": [list(r) for r in mp.act1], "act2": [list(r) for r in mp.act2]}
    acts[table][row] = value
    with pytest.raises(ValidationError, match=f"^{re.escape(error)}$"):
        matched_pair(mp.G, mp.Gamma, acts["act1"], acts["act2"])


def test_zappa_z2_z3_is_s3():
    H, eg, em = zappa_szep(pair("z2-z3-inversion"))
    # a group of order 6 with a non-commuting pair is S3
    assert H.order == 6
    assert H.table[eg[1]][em[1]] != H.table[em[1]][eg[1]]
    # embeddings are injective and intersect trivially
    assert len(set(eg)) == 2 and len(set(em)) == 3
    assert set(eg) & set(em) == {H.identity}
    # every element factors as embedG(g) * embedGamma(s)
    assert {H.table[eg[g]][em[s]] for g in range(2) for s in range(3)} == set(H.elements())


def test_zappa_trivial_actions_is_direct_product():
    Z2, Z3 = cyclic(2), cyclic(3)
    H, _, _ = zappa_szep(direct_pair(Z2, Z3))
    assert H.table == direct_product(Z2, Z3).table


@pytest.mark.parametrize("name", list(MATCHED_PAIRS))
def test_products_equal_their_validated_tables(name):
    # constructions build their products without a group-law sweep; the
    # sweep over their own tables must give back the same group
    mp = pair(name)
    H, eg, em = zappa_szep(mp)
    assert H == validate_group(H.table, H.identity, H.name)
    assert is_hom_image(mp.G, H, eg) is None and is_hom_image(mp.Gamma, H, em) is None
    for P in (direct_product(mp.G, mp.Gamma), direct_product(mp.Gamma, cyclic(3))):
        assert P == validate_group(P.table, P.identity, P.name)


def test_zappa_order_always_product():
    for name in ALL_PAIRS:
        mp = pair(name)
        H, _, _ = zappa_szep(mp)
        assert H.order == mp.G.order * mp.Gamma.order


def multiplication_hom(Z, H, g_set, gamma_set):
    """The image list of (g, s) -> g*s from Z, the zappa_szep product of the
    pair extracted from H = G * Gamma, to H, checked to be a homomorphism."""
    image = [H.table[g_set[g]][gamma_set[s]]
             for g, s in (divmod(x, len(gamma_set)) for x in Z.elements())]
    assert is_hom_image(Z, H, image) is None
    return image


def test_from_exact_s3():
    S3 = symmetric(3)
    perms = sorted(itertools.permutations(range(3)))
    gset = [0, perms.index((1, 0, 2))]
    mset = [0, perms.index((1, 2, 0)), perms.index((2, 0, 1))]
    mp = from_exact_factorization(S3, gset, mset)
    assert verify_matched_pair(mp).passed
    Z, _, _ = zappa_szep(mp)
    assert sorted(multiplication_hom(Z, S3, gset, mset)) == list(S3.elements())


def test_from_exact_direct_product_gives_trivial_actions():
    Z2, Z3 = cyclic(2), cyclic(3)
    P = direct_product(Z2, Z3)
    gset = sorted({a * 3 for a in range(2)})
    mset = sorted({b for b in range(3)})
    mp = from_exact_factorization(P, gset, mset)
    assert all(mp.act1[g][s] == s for g in range(2) for s in range(3))
    assert all(mp.act2[s][g] == g for s in range(3) for g in range(2))


def test_from_exact_s4_sizes():
    mp = pair("s4-z4-s3")
    assert (mp.G.order, mp.Gamma.order) == (4, 6)


def test_from_exact_rejects_bad_input():
    S3 = symmetric(3)
    with pytest.raises(ValidationError, match="^not an exact factorization: "):
        from_exact_factorization(S3, [0, 1], [0, 1, 2])  # not closed
    perms = sorted(itertools.permutations(range(3)))
    t12 = perms.index((1, 0, 2))
    with pytest.raises(ValidationError, match="^not an exact factorization: "):
        from_exact_factorization(S3, [0, t12], [0, t12])  # intersects, wrong size
    # |G| |Gamma| = |H| only by counting the repeat; the two subgroups
    # factor half of S3, so no element may be left unfactored
    c3 = perms.index((1, 2, 0))
    with pytest.raises(ValidationError,
                       match="^not an exact factorization: G lists an element twice$"):
        from_exact_factorization(S3, [0, 0], subgroup_from_generators(S3, [c3]))


def test_turaev_pair_examples():
    assert verify_matched_pair(turaev_pair(symmetric(3))).passed
    Z4 = cyclic(4)
    mp = turaev_pair(Z4)
    assert all(mp.act1[g][s] == s for g in range(4) for s in range(4))  # abelian adjoint
    H, _, _ = zappa_szep(turaev_pair(cyclic(2)))
    assert H.table == direct_product(cyclic(2), cyclic(2)).table


@pytest.mark.parametrize("name", ALL_PAIRS)
def test_round_trip_a_reextraction_is_identical(name, monkeypatch):
    # the extracted subgroups are built without a group-law sweep, and
    # still equal the fixture's validated groups
    mp = pair(name)
    H, eg, em = zappa_szep(mp)
    monkeypatch.setattr(groups, "validate_group", lambda *a, **k: pytest.fail("group-law sweep"))
    mp2 = from_exact_factorization(H, list(eg), list(em))
    assert mp2 == renamed(mp, mp2)


def factorization(name):
    """The group a fixture pair factors and its two subgroup lists, as
    src/crossedcat/fixtures.py builds them."""
    if name == "s3-factorized":
        S3 = symmetric(3)
        perms = sorted(itertools.permutations(range(3)))
        return (S3, subgroup_from_generators(S3, [perms.index((1, 0, 2))]),
                subgroup_from_generators(S3, [perms.index((1, 2, 0))]))
    if name == "s4-z4-s3":
        S4 = symmetric(4)
        perms = sorted(itertools.permutations(range(4)))
        return (S4, subgroup_from_generators(S4, [perms.index((1, 2, 3, 0))]),
                [i for i, p in enumerate(perms) if p[3] == 3])
    D4 = dihedral(4)
    rot = next(a for a in D4.elements() if D4.element_order(a) == 4)
    gset = subgroup_from_generators(D4, [rot])
    ref = next(a for a in D4.elements() if D4.element_order(a) == 2 and a not in gset)
    return D4, gset, subgroup_from_generators(D4, [ref])


@pytest.mark.parametrize("name,order", [("s3-factorized", 6), ("s4-z4-s3", 24), ("d4-z4-z2", 8)])
def test_round_trip_b_zappa_of_extraction(name, order):
    mp = pair(name)
    H, _, _ = zappa_szep(mp)
    assert H.order == order
    source, gset, mset = factorization(name)
    assert from_exact_factorization(source, gset, mset) == mp
    # the multiplication map is a homomorphism onto the whole source group
    assert sorted(multiplication_hom(H, source, gset, mset)) == list(source.elements())
