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

from typing import Optional, Sequence

from .errors import ValidationError
from .groups import FiniteGroup, direct_product, is_hom_image
from .matched import MatchedPair, matched_pair, turaev_pair, verify_matched_pair, zappa_szep
from .records import Record
from .report import VerificationReport, run_checks


class BraidedMatchedPair(Record):
    """A matched pair with its two braiding maps Gamma -> G, each stored as
    its image tuple: phi[s] is the image of s in Gamma."""
    mp: MatchedPair
    phi: tuple[int, ...]
    psi: tuple[int, ...]


def braided_pair(mp: MatchedPair, phi: Sequence[int], psi: Sequence[int]) -> BraidedMatchedPair:
    """The pair with braiding images phi and psi; raises ValidationError unless
    each maps all of Gamma into G.  The axioms are verify_braiding's."""
    images = []
    for name, image in (("phi", phi), ("psi", psi)):
        image = tuple(int(v) for v in image)
        if len(image) != mp.Gamma.order or any(not 0 <= v < mp.G.order for v in image):
            raise ValidationError(f"{name} must map all of Gamma into G")
        images.append(image)
    return BraidedMatchedPair(mp, *images)


def verify_braiding(bmp: BraidedMatchedPair) -> VerificationReport:
    """Hom checks plus braiding axioms 1-3, exhaustive with witnesses.

    Two more laws of a braided pair follow from these checks and are not
    reported; their proofs are at braiding_axiom_2 and braiding_axiom_3.
    """
    mp = bmp.mp
    G, M = mp.G, mp.Gamma
    Gt, Mt, a1, a2 = G.table, M.table, mp.act1, mp.act2
    Gs, Ms = G.elements(), M.elements()
    phi, psi = bmp.phi, bmp.psi
    rep = VerificationReport(subject="braided-matched-pair")

    pre = verify_matched_pair(mp)
    rep.add("underlying_matched_pair", pre.passed,
            None if pre.passed else tuple(pre.first_failure().witness or ()))

    def braid1() -> Optional[tuple]:
        # (phi(s) |>1 t) s = (psi(t) |>1 s) t
        for s in Ms:
            a1phs = a1[phi[s]]
            for t in Ms:
                if Mt[a1phs[t]][s] != Mt[a1[psi[t]][s]][t]:
                    return (s, t)
        return None

    def twist(f) -> Optional[tuple]:
        # (s |>2 g) f(s) = f(g |>1 s) g: axiom 2 for f = phi, axiom 3 for f = psi.
        #
        # With the two homomorphism checks and axiom 1 they imply the two
        # intertwining laws of a braided pair, which are not checks:
        # - s |>2 phi(t) = phi(psi(s) |>1 t).  phi applied to axiom 1 at
        #   (t, s) gives phi(phi(t) |>1 s) phi(t) = phi(psi(s) |>1 t) phi(s),
        #   and axiom 2 at (s, phi(t)) gives
        #   (s |>2 phi(t)) phi(s) = phi(phi(t) |>1 s) phi(t); cancel phi(s)
        #   in the group G.
        # - s |>2 psi(t) = psi(phi(s) |>1 t), the mirror image: psi applied
        #   to axiom 1 at (s, t), then axiom 3 at (s, psi(t)).
        # Every premise is an earlier check, so a pair that breaks either law
        # has already failed one of them.
        for s in Ms:
            a2s, fs = a2[s], f[s]
            for g in Gs:
                if Gt[a2s[g]][fs] != Gt[f[a1[g][s]]][g]:
                    return (s, g)
        return None

    return run_checks(rep, [
        ("phi_is_homomorphism", lambda: is_hom_image(M, G, phi)),
        ("psi_is_homomorphism", lambda: is_hom_image(M, G, psi)),
        ("braiding_axiom_1", braid1),
        ("braiding_axiom_2", lambda: twist(phi)),
        ("braiding_axiom_3", lambda: twist(psi)),
    ])


def turaev_braiding(G: FiniteGroup) -> BraidedMatchedPair:
    """Adjoint pair with phi trivial and psi the identity."""
    return BraidedMatchedPair(turaev_pair(G), (G.identity,) * G.order, tuple(G.elements()))


# -- the induced pair on (G><Gamma, G x Gamma) ----------------------------------

def center_pair(mp: MatchedPair) -> MatchedPair:
    """The induced matched pair (G><Gamma, G x Gamma), from the combined
    formulas in the module docstring.

    zappa_szep raises NotMatched unless mp is a matched pair.  The induced
    pair of a matched pair is matched (the main theorem), so it is returned
    without a verification sweep; verify_braiding reports on it.
    """
    G, M = mp.G, mp.Gamma
    GP, _, _ = zappa_szep(mp)           # elements g*|Gamma| + s
    GXM = direct_product(G, M)          # elements h*|Gamma| + t
    m, Gt, Mt, Ginv, Minv = M.order, G.table, M.table, G.inverses, M.inverses
    a1, a2 = mp.act1, mp.act2
    out1 = [[0] * GXM.order for _ in range(GP.order)]
    out2 = [[0] * GP.order for _ in range(GXM.order)]
    for g in G.elements():
        gi, a1g = Ginv[g], a1[g]
        for s in M.elements():
            A = g * m + s
            row, a2s, si = out1[A], a2[s], Minv[s]
            for h in G.elements():
                h1, hs = a2s[h], a1[h][s]       # s |>2 h, h |>1 s
                Mhs = Mt[hs]
                for t in M.elements():
                    S = h * m + t
                    t1 = Mt[Mhs[t]][si]         # (h |>1 s) t s^-1
                    g1 = a2[t1][g]              # t1 |>2 g
                    row[S] = Gt[Gt[g1][h1]][gi] * m + a1g[t1]
                    out2[S][A] = g1 * m + hs
    return matched_pair(GP, GXM, out1, out2)


def center_braiding(mp: MatchedPair) -> BraidedMatchedPair:
    """The induced pair with phi(h,t) = (e,t) and psi(h,t) = (h,e), returned
    unverified like center_pair's output; verify_braiding reports on both."""
    cp = center_pair(mp)
    G, M = mp.G, mp.Gamma
    phi = tuple(G.identity * M.order + t for h in G.elements() for t in M.elements())
    psi = tuple(h * M.order + M.identity for h in G.elements() for t in M.elements())
    return BraidedMatchedPair(cp, phi, psi)
