from __future__ import annotations

import pytest

from conftest import pair
from crossedcat.braided import (BraidedMatchedPair, braided_pair, center_braiding, center_pair,
                                turaev_braiding, verify_braiding)
from crossedcat.errors import ValidationError
from crossedcat.groups import cyclic, dihedral, group_hom, symmetric, trivial_group
from crossedcat.matched import direct_pair, verify_matched_pair, zappa_szep


@pytest.mark.parametrize("G", [cyclic(2), symmetric(3), dihedral(4)])
def test_turaev_braiding_passes(G):
    assert verify_braiding(turaev_braiding(G)).passed


def test_turaev_braiding_trivial_group():
    assert verify_braiding(turaev_braiding(trivial_group())).passed


@pytest.mark.parametrize("which", ["phi", "psi"])
@pytest.mark.parametrize("image", [(0, 1), (0, 1, 5)], ids=["short", "out-of-range"])
def test_braided_pair_rejects_malformed_images(which, image):
    """The builder checks the shapes the braiding sweeps index by, so an
    in-process pair fails as the loader does, not with an IndexError."""
    bmp = turaev_braiding(cyclic(3))
    images = {"phi": bmp.phi.image, "psi": bmp.psi.image, which: image}
    with pytest.raises(ValidationError, match=f"^{which} must map all of Gamma into G$"):
        braided_pair(bmp.mp, images["phi"], images["psi"])
    assert braided_pair(bmp.mp, bmp.phi.image, bmp.psi.image) == bmp


def test_direct_pair_trivial_homs_fail_on_noncommuting():
    S3 = symmetric(3)
    mp = direct_pair(S3, S3)
    triv = group_hom(S3, S3, [S3.identity] * 6)
    rep = verify_braiding(BraidedMatchedPair(mp, triv, triv))
    assert not rep.passed
    fail = next(c for c in rep.checks if c.name == "braiding_axiom_1")
    s, t = fail.witness
    assert S3.mul(t, s) != S3.mul(s, t)  # witness is a non-commuting pair


def test_gamma_trivial_is_vacuous():
    G = symmetric(3)
    T = trivial_group()
    mp = direct_pair(G, T)
    bmp = BraidedMatchedPair(mp, group_hom(T, G, [G.identity]), group_hom(T, G, [G.identity]))
    assert verify_braiding(bmp).passed


def test_center_pair_trivial_actions_z2_z2():
    mp = pair("direct-z2-z2")
    cp = center_pair(mp)
    assert cp.G.order == 4 and cp.Gamma.order == 4
    # all conjugations and twists collapse: both actions trivial
    assert all(cp.a1(a, x) == x for a in range(4) for x in range(4))
    assert all(cp.a2(x, a) == a for x in range(4) for a in range(4))
    H, _, _ = zappa_szep(cp)
    assert H.order == 16 and all(H.mul(a, a) == H.identity for a in H.elements())


@pytest.mark.parametrize("name", ["trivial-pair", "direct-z2-z2", "z2-z3-inversion",
                                  "s3-factorized", "turaev-z2", "turaev-s3", "d4-z4-z2"])
def test_center_pair_is_matched(name):
    assert verify_matched_pair(center_pair(pair(name))).passed


@pytest.mark.parametrize("name", ["trivial-pair", "direct-z2-z2", "z2-z3-inversion",
                                  "s3-factorized", "turaev-z2", "turaev-s3", "d4-z4-z2",
                                  "s4-z4-s3", "turaev-d4"])
def test_center_braiding_passes(name):
    bmp = center_braiding(pair(name))
    rep = verify_braiding(bmp)
    assert rep.passed, rep.first_failure()


def test_center_pair_order_squared():
    # stays inside the order-64 envelope: the product group is validated cubically
    for name in ["trivial-pair", "direct-z2-z2", "z2-z3-inversion", "s3-factorized", "d4-z4-z2"]:
        mp = pair(name)
        cp = center_pair(mp)
        H, _, _ = zappa_szep(cp)
        assert H.order == (mp.G.order * mp.Gamma.order) ** 2


def test_turaev_case_restriction_data():
    """With trivial |>2 and adjoint |>1, the induced pair restricts like the
    adjoint pattern: (h,t) ~|>2 (g,e) has trivial Gamma-component, and phi
    vanishes on the first factor."""
    G = symmetric(3)
    mp = pair("turaev-s3")
    bmp = center_braiding(mp)
    cp = bmp.mp
    n = G.order
    for h in range(n):
        for t in range(n):
            S = h * n + t
            for g in range(n):
                A = g * n + G.identity
                assert cp.a2(S, A) % n == G.identity  # Gamma-component is e
    for h in range(n):
        assert bmp.phi(h * n + G.identity) == G.identity * n + G.identity
