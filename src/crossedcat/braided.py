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

braiding_witnesses sweeps the crossed-braiding axioms of a braided
category over such a pair, given the category's tables.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import ValidationError
from .groups import (FiniteGroup, Table, certified_sweep, direct_product, frozen, in_range,
                     is_hom_image)
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
    each is integers mapping all of Gamma into G.  The axioms are verify_braiding's."""
    images = frozen(phi, 1, "phi"), frozen(psi, 1, "psi")
    for name, image in zip(("phi", "psi"), images):
        if len(image) != mp.Gamma.order or not in_range(image, mp.G.order):
            raise ValidationError(f"{name} must map all of Gamma into G")
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
    rep.add("underlying_matched_pair", None if pre.passed else tuple(pre.first_failure().witness))

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


BRAIDING_AXIOMS = ("braiding_axiom_1", "braiding_axiom_2", "braiding_axiom_3")


def braiding_witnesses(n: int, B: Table, T: Table, act: Table, grade: Sequence[int],
                       J: Sequence[Table], X: Sequence[Table], bmp: BraidedMatchedPair,
                       M: int, e: Optional[int]) -> list[tuple[str, Optional[tuple]]]:
    """The three crossed-braiding axioms of a braided category over `bmp`,
    as (name, first witness or None) in report order.  The tables are
    indexed by points, the simples 0..n-1 first: B[a][b] the braiding's
    exponent, T[a][k] the tensor with a simple, act[A][a] the action,
    grade[a] the degree, J[A][a][k] and X[A][A2][a] the scalars mod M.  `e`
    is the unit simple when the category's and its pair's laws hold, which
    the closure proofs at the sweeps use, else None (certified_sweep).
    """
    Zs = range(n)
    phi_img, psi_img, cpa1, cpa2 = bmp.phi, bmp.psi, bmp.mp.act1, bmp.mp.act2
    phi_of = [phi_img[grade[l]] for l in Zs]

    def braiding_axiom_1() -> Optional[tuple]:
        # T_A carries the braiding of (i, k) to that of (A.i, A.k).  Certified
        # on the actor A (certified_sweep).  Write E_A(i, k) for the left side
        # minus the right side, and N_A(i, k) for its J and chi terms that
        # read phi, J[A][phi(S_k).i][k] - X[S_k |>2 A][phi S_k][i]
        # + X[phi(A |>1 S_k)][A][i]; so E_A(i, k) = B[i][k] - B[A.i][A.k]
        # + N_A(i, k) - N'_A(k, i), N' the same terms with psi.  With
        # S' = A' |>1 S_k, P = S' |>2 A and Q = S_k |>2 A', axiom3_j_chi at
        # (A, A'; phi(S_k).i, k) and chi_cocycle at (P, Q, phi S_k; i),
        # (P, phi S', A'; i) and (phi(A |>1 S'), A, A'; i) give
        #   N_AA'(i, k) = N_A'(i, k) + N_A(A'.i, A'.k)
        #                 + X[A][A'][src] - X[A][A'][i] - X[A][A'][k],
        # src = phi(S_k).i (x) k, once the objects are identified:
        # S_k |>2 AA' = PQ (matched_pair_valid), (S |>2 A) phi(S) =
        # phi(A |>1 S) A (braided-pair axiom 2), axiom1_grading_compat and
        # action_composition.  With N' alike (braided-pair axiom 3) and
        # B[A.(A'.i)][A.(A'.k)] = B[AA'.i][AA'.k],
        #   E_AA'(i, k) = E_A'(i, k) + E_A(A'.i, A'.k) + X[A][A'][src] - X[A][A'][tgt],
        # tgt = psi(S_i).k (x) i.  So the A at which E vanishes everywhere are
        # closed under products once every braiding is well typed, src = tgt
        # as simples.  No premise implies that, so the gate tests it too.
        def sweep(As: Sequence[int]) -> Optional[tuple]:
            for A in As:
                JA, actA, cpA = J[A], act[A], cpa1[A]
                for i in Zs:
                    S1 = grade[i]
                    Bi, ai = B[i], actA[i]
                    right1 = X[cpa2[S1][A]][psi_img[S1]]
                    right2 = X[psi_img[cpA[S1]]][A]
                    act_psi = act[psi_img[S1]]
                    for k in Zs:
                        S2 = grade[k]
                        lhs = Bi[k] + JA[act[phi_img[S2]][i]][k] \
                            - X[cpa2[S2][A]][phi_img[S2]][i] + X[phi_img[cpA[S2]]][A][i]
                        rhs = JA[act_psi[k]][i] - right1[k] + right2[k] + B[ai][actA[k]]
                        if (lhs - rhs) % M:
                            return (A, i, k)
            return None

        typed = e is not None and all(T[act[phi_of[k]][i]][k] == T[act[psi_img[grade[i]]][k]][i]
                                      for i in Zs for k in Zs)
        return certified_sweep(sweep, bmp.mp.G.table, bmp.mp.G.identity if typed else None)

    def braiding_axiom_2() -> Optional[tuple]:
        # B[ik][l] + J[phi S_l][i][k] = X[psi S_i][psi S_k][l] + B[i][psi(S_k).l] + B[k][l],
        # S_i the grade of i.  Certified on k (certified_sweep): with
        # D(i, k, l) the left side minus the right side, if D vanishes at k
        # and at k' for every (i, l), then D(ik, k', l), D(i, k, psi(S_k').l)
        # and D(k, k', l) expand B[(ik)k'][l], B[ik][psi(S_k').l] and
        # B[kk'][l], and D(i, kk', l) = 0: the B terms match, as
        # psi(S_k).(psi(S_k').l) = psi(S_kk').l (psi a homomorphism,
        # grading_is_homomorphism and action_composition); the chi terms form
        # chi_cocycle at (psi S_i, psi S_k, psi S_k'; l); and the J terms form
        # axiom2_j_cocycle at (phi S_l; i, k, k'), once
        # phi(S_{psi(S_k').l}) = S_k' |>2 phi(S_l), which follows from
        # axiom1_grading_compat and the law s |>2 phi(t) = phi(psi(s) |>1 t)
        # of a braided pair, implied by verify_braiding's checks (proof at its
        # braiding_axiom_2).  With (ik)k' = i(kk'), these are the premises.
        def sweep(ks: Sequence[int]) -> Optional[tuple]:
            for i in Zs:
                S1, Bi, Ti = grade[i], B[i], T[i]
                for k in ks:
                    S2, Bk, Bik = grade[k], B[k], B[Ti[k]]
                    X12, act2 = X[psi_img[S1]][psi_img[S2]], act[psi_img[S2]]
                    for l in Zs:
                        if (Bik[l] + J[phi_of[l]][i][k] - X12[l] - Bi[act2[l]] - Bk[l]) % M:
                            return (i, k, l)
            return None

        # without the premises the simples may form no group, and have no identity
        return certified_sweep(sweep, T[:n], e)

    def braiding_axiom_3() -> Optional[tuple]:
        # B[i][kl] + X[phi S_k][phi S_l][i] = J[psi S_i][k][l] + B[i][l] + B[phi(S_l).i][k].
        # Certified on l, the mirror image of axiom 2: D(i, kl, l'),
        # D(phi(S_l').i, k, l) and D(i, l, l') expand B[i][(kl)l'],
        # B[phi(S_l').i][kl] and B[i][ll'], and D(i, k, ll') = 0, the chi
        # terms forming chi_cocycle at (phi S_k, phi S_l, phi S_l'; i) and the
        # J terms axiom2_j_cocycle at (psi S_i; k, l, l'), once
        # psi(S_{phi(S_l').i}) = S_l' |>2 psi(S_i) by axiom1_grading_compat
        # and the mirror law s |>2 psi(t) = psi(phi(s) |>1 t), which the
        # braided pair's checks imply likewise.  Same premises.
        def sweep(ls: Sequence[int]) -> Optional[tuple]:
            for i in Zs:
                Bi, Jpsi = B[i], J[psi_img[grade[i]]]
                for k in Zs:
                    Tk, Xk, Jk = T[k], X[phi_of[k]], Jpsi[k]
                    for l in ls:
                        if (Bi[Tk[l]] + Xk[phi_of[l]][i] - Jk[l] - Bi[l]
                                - B[act[phi_of[l]][i]][k]) % M:
                            return (i, k, l)
            return None

        return certified_sweep(sweep, T[:n], e)

    return list(zip(BRAIDING_AXIOMS, (braiding_axiom_1(), braiding_axiom_2(), braiding_axiom_3())))


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
