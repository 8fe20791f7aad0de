"""Braidings on matched pairs and the induced pair on (G><Gamma, G x Gamma).

The induced actions come from two one-sided constructions,

    g |>1^G (h,t) = ((t |>2 g) h g^-1, g |>1 t)      (h,t) |>2^G g = t |>2 g
    s |>1^Gam (h,t) = (s |>2 h, (h |>1 s) t s^-1)    (h,t) |>2^Gam s = h |>1 s

combined as

    (g,s) ~|>1 (h,t) = g |>1^G (s |>1^Gam (h,t))
    (h,t) ~|>2 (g,s) = ((s |>1^Gam (h,t)) |>2^G g, (h,t) |>2^Gam s)

where the G-component of ~|>2 reads ((h |>1 s) t s^-1) |>2 g.  This is the
unique parenthesization under which the verifier accepts the pair on every
fixture.  The braiding homomorphisms are phi(h,t) = (e,t) and
psi(h,t) = (h,e); both land injectively in the twisted product.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .errors import NotMatched
from .groups import FiniteGroup, GroupHom, direct_product, group_hom, identity_hom, is_hom_image
from .matched import MatchedPair, matched_pair, turaev_pair, verify_matched_pair, zappa_szep
from .records import Record
from .report import VerificationReport, run_checks


class BraidedMatchedPair(Record):
    mp: MatchedPair
    phi: GroupHom  # Gamma -> G
    psi: GroupHom  # Gamma -> G


def verify_braiding(bmp: BraidedMatchedPair) -> VerificationReport:
    """Hom checks plus the five braiding axioms, exhaustive with witnesses."""
    mp = bmp.mp
    G, M = mp.G, mp.Gamma
    phi, psi = bmp.phi.image, bmp.psi.image
    rep = VerificationReport(subject="braided-matched-pair")

    pre = verify_matched_pair(mp)
    rep.add("underlying_matched_pair", pre.passed,
            None if pre.passed else tuple(pre.first_failure().witness or ()))

    def phi_hom() -> Optional[tuple]:
        return is_hom_image(M, G, phi)

    def psi_hom() -> Optional[tuple]:
        return is_hom_image(M, G, psi)

    def braid1() -> Optional[tuple]:
        # (phi(s) |>1 t) s = (psi(t) |>1 s) t
        for s, t in itertools.product(M.elements(), M.elements()):
            if M.mul(mp.a1(phi[s], t), s) != M.mul(mp.a1(psi[t], s), t):
                return (s, t)
        return None

    def braid2() -> Optional[tuple]:
        # (s |>2 g) phi(s) = phi(g |>1 s) g
        for s, g in itertools.product(M.elements(), G.elements()):
            if G.mul(mp.a2(s, g), phi[s]) != G.mul(phi[mp.a1(g, s)], g):
                return (s, g)
        return None

    def braid3() -> Optional[tuple]:
        for s, g in itertools.product(M.elements(), G.elements()):
            if G.mul(mp.a2(s, g), psi[s]) != G.mul(psi[mp.a1(g, s)], g):
                return (s, g)
        return None

    def braid4() -> Optional[tuple]:
        # s |>2 phi(t) = phi(psi(s) |>1 t)
        for s, t in itertools.product(M.elements(), M.elements()):
            if mp.a2(s, phi[t]) != phi[mp.a1(psi[s], t)]:
                return (s, t)
        return None

    def braid5() -> Optional[tuple]:
        for s, t in itertools.product(M.elements(), M.elements()):
            if mp.a2(s, psi[t]) != psi[mp.a1(phi[s], t)]:
                return (s, t)
        return None

    return run_checks(rep, [
        ("phi_is_homomorphism", phi_hom),
        ("psi_is_homomorphism", psi_hom),
        ("braiding_axiom_1", braid1),
        ("braiding_axiom_2", braid2),
        ("braiding_axiom_3", braid3),
        ("braiding_axiom_4", braid4),
        ("braiding_axiom_5", braid5),
    ])


def turaev_braiding(G: FiniteGroup) -> BraidedMatchedPair:
    """Adjoint pair with phi trivial and psi the identity."""
    mp = turaev_pair(G)
    phi = group_hom(G, G, [G.identity] * G.order)
    return BraidedMatchedPair(mp, phi, identity_hom(G))


# -- the induced pair on (G><Gamma, G x Gamma) ----------------------------------

def _one_sided_actions(mp: MatchedPair):
    G, M = mp.G, mp.Gamma

    def g_on_pair(g: int, h: int, t: int) -> tuple[int, int]:
        return (G.mul(G.mul(mp.a2(t, g), h), G.inv(g)), mp.a1(g, t))

    def pair_on_g(h: int, t: int, g: int) -> int:
        return mp.a2(t, g)

    def s_on_pair(s: int, h: int, t: int) -> tuple[int, int]:
        return (mp.a2(s, h), M.mul(M.mul(mp.a1(h, s), t), M.inv(s)))

    def pair_on_s(h: int, t: int, s: int) -> int:
        return mp.a1(h, s)

    return g_on_pair, pair_on_g, s_on_pair, pair_on_s


def center_pair(mp: MatchedPair) -> MatchedPair:
    """The induced matched pair (G><Gamma, G x Gamma); raises NotMatched unless mp is one."""
    G, M = mp.G, mp.Gamma
    GP, _, _ = zappa_szep(mp)           # elements g*|Gamma| + s
    GXM = direct_product(G, M)          # elements h*|Gamma| + t
    g_on_pair, pair_on_g, s_on_pair, pair_on_s = _one_sided_actions(mp)

    n_act = GP.order
    n_pts = GXM.order
    a1 = [[0] * n_pts for _ in range(n_act)]
    a2 = [[0] * n_act for _ in range(n_pts)]
    for g in G.elements():
        for s in M.elements():
            A = g * M.order + s
            for h in G.elements():
                for t in M.elements():
                    S = h * M.order + t
                    h1, t1 = s_on_pair(s, h, t)
                    h2, t2 = g_on_pair(g, h1, t1)
                    a1[A][S] = h2 * M.order + t2
                    a2[S][A] = pair_on_g(h1, t1, g) * M.order + pair_on_s(h, t, s)
    out = matched_pair(GP, GXM, a1, a2)
    rep = verify_matched_pair(out)
    if not rep.passed:
        raise NotMatched(rep)
    return out


def center_braiding(mp: MatchedPair) -> BraidedMatchedPair:
    """The induced pair with phi(h,t) = (e,t) and psi(h,t) = (h,e)."""
    cp = center_pair(mp)
    G, M = mp.G, mp.Gamma
    GXM, GP = cp.Gamma, cp.G
    phi_img, psi_img = [], []
    for h in G.elements():
        for t in M.elements():
            phi_img.append(G.identity * M.order + t)
            psi_img.append(h * M.order + M.identity)
    phi = group_hom(GXM, GP, phi_img)
    psi = group_hom(GXM, GP, psi_img)
    return BraidedMatchedPair(cp, phi, psi)
