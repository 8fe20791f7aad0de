"""The per-element verifier sweeps that the dense-table core replaced.

Test-only reference: `reference_crossed_category` and
`reference_center_braided` are the previous `verify_crossed_category` and
`verify_center_braided`, whose five swap-scalar checks are now
`ReferenceSwapLaws`; `reference_matched_pair`, `reference_zappa_szep`,
`reference_braiding`, `reference_center_pair` and
`reference_center_braiding` are the previous `verify_matched_pair`,
`zappa_szep`, `verify_braiding`, `center_pair` and `center_braiding`;
`reference_validate_group` and `reference_is_hom_image` are the previous
`validate_group` and `is_hom_image`, which swept every element where the
package now certifies a law on a generating set.  `reported_crossed_category`
and `reported_braiding` are the reference reports without the laws the
core proves from its other checks instead of reporting them.
`ReferenceCenter` reads the center's structure maps from
tests/derived_center.py, which composes them with `words.normal_form` and
never with center.py's chains.  Loop bodies keep the equations of the
code they replaced, each table read spelled as the core spells it, and
call only each other, never the code they are compared with, so that
tests/test_reference_equivalence.py can require the table-driven core to
return the same (name, pass, witness) lists.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Optional, Sequence

from crossedcat.braided import BraidedMatchedPair
from crossedcat.center import CenterSimple, enumerate_center, relative_center_oracle
from crossedcat.errors import (GroupValidationError, NotMatched, UnsupportedConfiguration,
                               ValidationError)
from crossedcat.groups import FiniteGroup, direct_product
from crossedcat.matched import MatchedPair, matched_pair
from crossedcat.pointed import PointedCrossedCategory, pointed_category
from crossedcat.report import VerificationReport, run_checks
from derived_center import DerivedCenter


# -- group laws

def reference_validate_group(table: Sequence[Sequence[int]], identity: Optional[int] = None,
                             name: str = "G") -> FiniteGroup:
    """Check all three group laws exhaustively and derive inverses.

    Raises ValidationError for a table that is empty, not square or out of
    range, then GroupValidationError at the first law that fails, with a
    concrete witness.
    """
    t = tuple(tuple(int(x) for x in row) for row in table)
    n = len(t)
    if n == 0:
        raise ValidationError("empty table")
    for row in t:
        if len(row) != n:
            raise ValidationError(f"table is not square: row of length {len(row)} in order-{n} table")
        for x in row:
            if not (0 <= x < n):
                raise ValidationError(f"entry {x} out of range 0..{n - 1}")
    if identity is None:
        identity = next((e for e in range(n)
                         if all(t[e][a] == a and t[a][e] == a for a in range(n))), -1)
        if identity < 0:
            raise GroupValidationError("element -1 is not an identity (fails at 0)", (-1, 0))
    elif not 0 <= identity < n:
        raise ValidationError(f"identity {identity} out of range 0..{n - 1}")
    else:
        for a in range(n):
            if t[identity][a] != a or t[a][identity] != a:
                raise GroupValidationError(
                    f"element {identity} is not an identity (fails at {a})", (identity, a))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    raise GroupValidationError(
                        f"associativity fails at (a,b,c)=({a},{b},{c})", (a, b, c))
    inverses = []
    for a in range(n):
        b = next((b for b in range(n) if t[a][b] == identity and t[b][a] == identity), -1)
        if b < 0:
            raise GroupValidationError(f"element {a} has no two-sided inverse", (a,))
        inverses.append(b)
    return FiniteGroup(n, t, identity, tuple(inverses), name)


def reference_is_hom_image(source: FiniteGroup, target: FiniteGroup,
                           image: Sequence[int]) -> Optional[tuple]:
    """Witness (a, b) where the hom law fails, or None."""
    St, Tt = source.table, target.table
    for a in source.elements():
        for b in source.elements():
            if image[St[a][b]] != Tt[image[a]][image[b]]:
                return (a, b)
    return None


# -- matched and braided pairs

def reference_matched_pair(mp: MatchedPair) -> VerificationReport:
    """All matched-pair axioms, exhaustively; first lexicographic witness per axiom."""
    G, M = mp.G, mp.Gamma
    Gt, Mt, a1, a2 = G.table, M.table, mp.act1, mp.act2
    rep = VerificationReport(subject="matched-pair")

    def act1_action() -> Optional[tuple]:
        for s in M.elements():
            if a1[G.identity][s] != s:
                return (G.identity, s)
        for g, h, s in itertools.product(G.elements(), G.elements(), M.elements()):
            if a1[g][a1[h][s]] != a1[Gt[g][h]][s]:
                return (g, h, s)
        return None

    def act2_action() -> Optional[tuple]:
        for g in G.elements():
            if a2[M.identity][g] != g:
                return (M.identity, g)
        for s, t, g in itertools.product(M.elements(), M.elements(), G.elements()):
            if a2[s][a2[t][g]] != a2[Mt[s][t]][g]:
                return (s, t, g)
        return None

    def unit1() -> Optional[tuple]:
        for g in G.elements():
            if a1[g][M.identity] != M.identity:
                return (g,)
        return None

    def unit2() -> Optional[tuple]:
        for s in M.elements():
            if a2[s][G.identity] != G.identity:
                return (s,)
        return None

    def match1() -> Optional[tuple]:
        # g |>1 (s t) = ((t |>2 g) |>1 s)(g |>1 t)
        for g, s, t in itertools.product(G.elements(), M.elements(), M.elements()):
            if a1[g][Mt[s][t]] != Mt[a1[a2[t][g]][s]][a1[g][t]]:
                return (g, s, t)
        return None

    def match2() -> Optional[tuple]:
        # s |>2 (g h) = ((h |>1 s) |>2 g)(s |>2 h)
        for s, g, h in itertools.product(M.elements(), G.elements(), G.elements()):
            if a2[s][Gt[g][h]] != Gt[a2[a1[h][s]][g]][a2[s][h]]:
                return (s, g, h)
        return None

    return run_checks(rep, [
        ("act1_is_left_action", act1_action),
        ("act2_is_left_action", act2_action),
        ("act1_fixes_unit", unit1),
        ("act2_fixes_unit", unit2),
        ("matching_relation_1", match1),
        ("matching_relation_2", match2),
    ])


def reference_zappa_szep(mp: MatchedPair) -> tuple[FiniteGroup, tuple[int, ...], tuple[int, ...]]:
    """The twisted product H on G x Gamma with the image tuples of its two
    subgroup embeddings, G -> H and Gamma -> H.

    (g, s)(g', s') = (g * (s |>2 g'^-1)^-1, (g'^-1 |>1 s) * s').
    """
    rep = reference_matched_pair(mp)
    if not rep.passed:
        raise NotMatched(rep)
    G, M = mp.G, mp.Gamma
    Gt, Ginv, Mt, a1, a2 = G.table, G.inverses, M.table, mp.act1, mp.act2
    n = G.order * M.order
    table = [[0] * n for _ in range(n)]
    for g in G.elements():
        for s in M.elements():
            row = table[g * M.order + s]
            for g2 in G.elements():
                gi = Ginv[g2]
                first_g = Gt[g][Ginv[a2[s][gi]]]
                s_twist = a1[gi][s]
                for s2 in M.elements():
                    row[g2 * M.order + s2] = first_g * M.order + Mt[s_twist][s2]
    H = reference_validate_group(table, G.identity * M.order + M.identity, f"{G.name}><{M.name}")
    embed_g = tuple(g * M.order + M.identity for g in G.elements())
    embed_m = tuple(G.identity * M.order + s for s in M.elements())
    assert reference_is_hom_image(G, H, embed_g) is None
    assert reference_is_hom_image(M, H, embed_m) is None
    return H, embed_g, embed_m


def reference_braiding(bmp: BraidedMatchedPair) -> VerificationReport:
    """Hom checks plus the five braiding axioms, exhaustive with witnesses."""
    mp = bmp.mp
    G, M = mp.G, mp.Gamma
    Gt, Mt, a1, a2 = G.table, M.table, mp.act1, mp.act2
    phi, psi = bmp.phi, bmp.psi
    rep = VerificationReport(subject="braided-matched-pair")

    pre = reference_matched_pair(mp)
    rep.add("underlying_matched_pair", None if pre.passed else tuple(pre.first_failure().witness))

    def phi_hom() -> Optional[tuple]:
        return reference_is_hom_image(M, G, phi)

    def psi_hom() -> Optional[tuple]:
        return reference_is_hom_image(M, G, psi)

    def braid1() -> Optional[tuple]:
        # (phi(s) |>1 t) s = (psi(t) |>1 s) t
        for s, t in itertools.product(M.elements(), M.elements()):
            if Mt[a1[phi[s]][t]][s] != Mt[a1[psi[t]][s]][t]:
                return (s, t)
        return None

    def braid2() -> Optional[tuple]:
        # (s |>2 g) phi(s) = phi(g |>1 s) g
        for s, g in itertools.product(M.elements(), G.elements()):
            if Gt[a2[s][g]][phi[s]] != Gt[phi[a1[g][s]]][g]:
                return (s, g)
        return None

    def braid3() -> Optional[tuple]:
        for s, g in itertools.product(M.elements(), G.elements()):
            if Gt[a2[s][g]][psi[s]] != Gt[psi[a1[g][s]]][g]:
                return (s, g)
        return None

    def braid4() -> Optional[tuple]:
        # s |>2 phi(t) = phi(psi(s) |>1 t)
        for s, t in itertools.product(M.elements(), M.elements()):
            if a2[s][phi[t]] != phi[a1[psi[s]][t]]:
                return (s, t)
        return None

    def braid5() -> Optional[tuple]:
        for s, t in itertools.product(M.elements(), M.elements()):
            if a2[s][psi[t]] != psi[a1[phi[s]][t]]:
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


# laws of the reference checklist that verify_braiding proves at
# braiding_axiom_2 and braiding_axiom_3 instead of reporting them
IMPLIED_BRAIDING_LAWS = ("braiding_axiom_4", "braiding_axiom_5")


def reported_braiding(bmp: BraidedMatchedPair) -> VerificationReport:
    """reference_braiding without IMPLIED_BRAIDING_LAWS, which is the report
    verify_braiding must give.  Every check before them is a premise of
    their proofs, so neither may be the first to fail."""
    rep = reference_braiding(bmp)
    first = rep.first_failure()
    assert first is None or first.name not in IMPLIED_BRAIDING_LAWS, first
    rep.checks = [c for c in rep.checks if c.name not in IMPLIED_BRAIDING_LAWS]
    return rep


def _one_sided_actions(mp: MatchedPair):
    Gt, Ginv, Mt, Minv = mp.G.table, mp.G.inverses, mp.Gamma.table, mp.Gamma.inverses
    a1, a2 = mp.act1, mp.act2

    def g_on_pair(g: int, h: int, t: int) -> tuple[int, int]:
        return (Gt[Gt[a2[t][g]][h]][Ginv[g]], a1[g][t])

    def pair_on_g(h: int, t: int, g: int) -> int:
        return a2[t][g]

    def s_on_pair(s: int, h: int, t: int) -> tuple[int, int]:
        return (a2[s][h], Mt[Mt[a1[h][s]][t]][Minv[s]])

    def pair_on_s(h: int, t: int, s: int) -> int:
        return a1[h][s]

    return g_on_pair, pair_on_g, s_on_pair, pair_on_s


def reference_center_pair(mp: MatchedPair) -> MatchedPair:
    """The induced matched pair (G><Gamma, G x Gamma); raises NotMatched unless mp is one."""
    G, M = mp.G, mp.Gamma
    GP, _, _ = reference_zappa_szep(mp)           # elements g*|Gamma| + s
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
    rep = reference_matched_pair(out)
    if not rep.passed:
        raise NotMatched(rep)
    return out


def reference_center_braiding(mp: MatchedPair) -> BraidedMatchedPair:
    """The induced pair with phi(h,t) = (e,t) and psi(h,t) = (h,e)."""
    cp = reference_center_pair(mp)
    G, M = mp.G, mp.Gamma
    GXM, GP = cp.Gamma, cp.G
    phi_img, psi_img = [], []
    for h in G.elements():
        for t in M.elements():
            phi_img.append(G.identity * M.order + t)
            psi_img.append(h * M.order + M.identity)
    phi, psi = tuple(phi_img), tuple(psi_img)
    assert reference_is_hom_image(GXM, GP, phi) is None
    assert reference_is_hom_image(GXM, GP, psi) is None
    return BraidedMatchedPair(cp, phi, psi)


def reference_crossed_category(cat: PointedCrossedCategory) -> VerificationReport:
    """Exhaustive checklist for the crossed-category axioms.

    Witnesses are lexicographically first in the loop order shown by each
    check's tuple.  Grading surjectivity is deliberately not part of the
    pass/fail outcome; it only gates center construction.
    """
    L, G, Gamma, mp, M = cat.Lambda, cat.G, cat.Gamma, cat.mp, cat.M
    Gt, Lt, a1, a2 = G.table, L.table, mp.act1, mp.act2
    J, X, act, deg = cat.jtable, cat.chitable, cat.action, cat.grading
    phi, iota = cat.phitable, cat.iotatable
    rep = VerificationReport(subject=f"category {cat.name}")

    def matched_pair_valid() -> Optional[tuple]:
        r = reference_matched_pair(mp)
        return None if r.passed else (r.first_failure().name,)

    def grading_hom() -> Optional[tuple]:
        for x, y in itertools.product(L.elements(), L.elements()):
            if deg[Lt[x][y]] != Gamma.table[deg[x]][deg[y]]:
                return (x, y)
        if deg[L.identity] != Gamma.identity:
            return (L.identity,)
        return None

    def action_identity() -> Optional[tuple]:
        for x in L.elements():
            if act[G.identity][x] != x:
                return (x,)
        return None

    def action_composition() -> Optional[tuple]:
        for g, h, x in itertools.product(G.elements(), G.elements(), L.elements()):
            if act[g][act[h][x]] != act[Gt[g][h]][x]:
                return (g, h, x)
        return None

    def action_fixes_unit() -> Optional[tuple]:
        for g in G.elements():
            if act[g][L.identity] != L.identity:
                return (g,)
        return None

    def axiom1_grading() -> Optional[tuple]:
        for g, x in itertools.product(G.elements(), L.elements()):
            if deg[act[g][x]] != a1[g][deg[x]]:
                return (g, x)
        return None

    def twisted_multiplicativity() -> Optional[tuple]:
        # ^g(x y) = ^{del(y) |>2 g} x . ^g y as labels; J is invertible only
        # between equal simples, so this is axiom 2 at the object level.
        for g, x, y in itertools.product(G.elements(), L.elements(), L.elements()):
            tw = a2[deg[y]][g]
            if act[g][Lt[x][y]] != Lt[act[tw][x]][act[g][y]]:
                return (g, x, y)
        return None

    def axiom2_cocycle() -> Optional[tuple]:
        for g, x, y, z in itertools.product(G.elements(), L.elements(), L.elements(), L.elements()):
            tw = a2[deg[z]][g]
            lhs = J[g][Lt[x][y]][z] + J[tw][x][y]
            rhs = J[g][x][Lt[y][z]] + J[g][y][z]
            if (lhs - rhs) % M:
                return (g, x, y, z)
        return None

    def axiom2_units() -> Optional[tuple]:
        e = L.identity
        for g, y in itertools.product(G.elements(), L.elements()):
            if (J[g][e][y] + phi[a2[deg[y]][g]]) % M:
                return ("left", g, y)
            if (J[g][y][e] + phi[g]) % M:
                return ("right", g, y)
        return None

    def chi_cocycle() -> Optional[tuple]:
        for g, h, k, x in itertools.product(G.elements(), G.elements(), G.elements(), L.elements()):
            lhs = X[Gt[g][h]][k][x] + X[g][h][act[k][x]]
            rhs = X[g][Gt[h][k]][x] + X[h][k][x]
            if (lhs - rhs) % M:
                return (g, h, k, x)
        return None

    def chi_units() -> Optional[tuple]:
        e = G.identity
        for g, x in itertools.product(G.elements(), L.elements()):
            if (X[g][e][x] + iota[x]) % M:
                return ("right", g, x)
            if (X[e][g][x] + iota[act[g][x]]) % M:
                return ("left", g, x)
        return None

    def axiom3_j() -> Optional[tuple]:
        for g, h, x, y in itertools.product(G.elements(), G.elements(), L.elements(), L.elements()):
            dy = deg[y]
            lhs = X[g][h][Lt[x][y]] + J[h][x][y] \
                + J[g][act[a2[dy][h]][x]][act[h][y]]
            rhs = J[Gt[g][h]][x][y] \
                + X[a2[a1[h][dy]][g]][a2[dy][h]][x] + X[g][h][y]
            if (lhs - rhs) % M:
                return (g, h, x, y)
        return None

    def axiom3_phi() -> Optional[tuple]:
        for g, h in itertools.product(G.elements(), G.elements()):
            if (X[g][h][L.identity] + phi[h] + phi[g] - phi[Gt[g][h]]) % M:
                return (g, h)
        return None

    def axiom3_iota_tensor() -> Optional[tuple]:
        for x, y in itertools.product(L.elements(), L.elements()):
            if (iota[Lt[x][y]] - J[G.identity][x][y] - iota[x] - iota[y]) % M:
                return (x, y)
        return None

    return run_checks(rep, [
        ("matched_pair_valid", matched_pair_valid),
        ("grading_is_homomorphism", grading_hom),
        ("action_identity", action_identity),
        ("action_composition", action_composition),
        ("action_fixes_unit", action_fixes_unit),
        ("axiom1_grading_compat", axiom1_grading),
        ("axiom2_object_compat", twisted_multiplicativity),
        ("axiom2_j_cocycle", axiom2_cocycle),
        ("axiom2_units", axiom2_units),
        ("chi_cocycle", chi_cocycle),
        ("chi_units", chi_units),
        ("axiom3_j_chi", axiom3_j),
        ("axiom3_phi", axiom3_phi),
        ("axiom3_iota_tensor", axiom3_iota_tensor),
    ])


# laws of the reference checklist that verify_crossed_category proves at
# axiom3_j_chi instead of reporting them
IMPLIED_CATEGORY_LAWS = ("axiom3_phi", "axiom3_iota_tensor")


def reported_crossed_category(cat: PointedCrossedCategory) -> VerificationReport:
    """reference_crossed_category without IMPLIED_CATEGORY_LAWS, which is the
    report verify_crossed_category must give.  Every check before them is
    a premise of their proofs, so neither may be the first to fail."""
    rep = reference_crossed_category(cat)
    first = rep.first_failure()
    assert first is None or first.name not in IMPLIED_CATEGORY_LAWS, (cat.name, first)
    rep.checks = [c for c in rep.checks if c.name not in IMPLIED_CATEGORY_LAWS]
    return rep


# -- the center

class ReferenceCenter(DerivedCenter):
    """The derived structure maps on `simples` (default: enumerate_center),
    packaged as a category.  The actor A of G >< Gamma is g * |Gamma| + s."""

    def __init__(self, cat: PointedCrossedCategory, section: Optional[Sequence[int]] = None,
                 simples: Optional[Sequence[CenterSimple]] = None):
        super().__init__(cat, section)
        self.simples = tuple(simples) if simples is not None else tuple(enumerate_center(cat))
        self.index = {z: i for i, z in enumerate(self.simples)}

    def find(self, z: CenterSimple) -> int:
        if z not in self.index:
            raise KeyError(f"simple {(z.g, z.label, z.chi)} not in the enumerated center")
        return self.index[z]

    # -- combined crossed structure on (G><Gamma, G x Gamma)
    def combined_act(self, A: int, z: CenterSimple) -> CenterSimple:
        g, s = divmod(A, self.cat.Gamma.order)
        return self.g_act(g, self.gamma_act(s, z))

    def j_combined(self, A: int, z1: CenterSimple, z2: CenterSimple) -> int:
        cat, (g, s) = self.cat, divmod(A, self.cat.Gamma.order)
        w1, w2 = self.gamma_act(cat.mp.act1[z2.g][s], z1), self.gamma_act(s, z2)
        return (self.j_gamma(s, z1, z2) + cat.jtable[g][w1.label][w2.label]) % cat.M

    def x_combined(self, A: int, B: int, z: CenterSimple) -> int:
        cat, order = self.cat, self.cat.Gamma.order
        (g, s), (g2, s2) = divmod(A, order), divmod(B, order)
        g2i = cat.G.inverses[g2]
        g_hat, s_hat = cat.G.inverses[cat.mp.act2[s][g2i]], cat.mp.act1[g2i][s]
        w = self.gamma_act(cat.Gamma.table[s_hat][s2], z)
        return (self.sigma(g2, s, self.gamma_act(s2, z)) + self.chi_gamma(s_hat, s2, z)
                + cat.chitable[g][g_hat][w.label]) % cat.M

    @cached_property
    def induced(self) -> BraidedMatchedPair:
        return reference_center_braiding(self.cat.mp)

    def as_category(self) -> PointedCrossedCategory:
        """Simples must form a group under tensor (checked by
        reference_validate_group); the grading is the (G-degree,
        Gamma-degree) pair and the action is the combined one."""
        cat, Zs, actors = self.cat, self.simples, self.induced.mp.G.elements()
        lam_z = reference_validate_group([[self.find(self.tensor(a, b)) for b in Zs] for a in Zs],
                                         name=f"Z({cat.name})-simples")
        action = [[self.find(self.combined_act(A, z)) for z in Zs] for A in actors]
        jt = [[[self.j_combined(A, a, b) for b in Zs] for a in Zs] for A in actors]
        xt = [[[self.x_combined(A, B, z) for z in Zs] for B in actors] for A in actors]
        return pointed_category(lam_z, self.induced.mp,
                                [z.g * cat.Gamma.order + cat.grading[z.label] for z in Zs],
                                action, cat.M, jtable=jt, chitable=xt, name=f"Z({cat.name})")


def reference_center_braided(cat: PointedCrossedCategory,
                             simples: Optional[Sequence[CenterSimple]] = None,
                             section: Optional[Sequence[int]] = None) -> VerificationReport:
    """Full verification of the braided structure on the center, exhaustive
    over the simples (`simples` overrides the enumeration): oracle
    equivalence, the induced pair's braiding, the combined crossed-category
    axioms (closure, group law and grading of the simples among them) and
    the three crossed-braiding axioms."""
    rep = VerificationReport(subject=f"center of {cat.name}")
    Z = ReferenceCenter(cat, section=section, simples=simples)
    M, gamma_ord = cat.M, cat.Gamma.order

    def oracle_equivalence() -> Optional[tuple]:
        oracle = relative_center_oracle(cat)
        mine = list(Z.simples)
        if [z.sort_key() for z in mine] == [z.sort_key() for z in oracle]:
            return None
        extra = [z.sort_key() for z in mine if z not in oracle]
        missing = [z.sort_key() for z in oracle if z not in mine]
        if extra or missing:
            return (tuple(extra[:1]), tuple(missing[:1]))
        # reordered or repeated: the first index where the lists differ
        for i in range(max(len(mine), len(oracle))):
            a = mine[i].sort_key() if i < len(mine) else None
            b = oracle[i].sort_key() if i < len(oracle) else None
            if a != b:
                return (i, a, b)

    def induced_pair_braided() -> Optional[tuple]:
        r = reference_braiding(Z.induced)
        return None if r.passed else (r.first_failure().name,)

    def center_category_axioms() -> Optional[tuple]:
        try:
            r = reference_crossed_category(Z.as_category())
        except (KeyError, ValidationError, GroupValidationError) as exc:
            return ("structure_tables_unbuildable", str(exc))
        if r.passed:
            return None
        c = r.first_failure()
        return (c.name,) + tuple(c.witness)

    phi_img, psi_img, cp = Z.induced.phi, Z.induced.psi, Z.induced.mp
    a1, a2 = cp.act1, cp.act2
    _act_by, _j_comb, _x_comb = Z.combined_act, Z.j_combined, Z.x_combined

    def _grade_idx(z: CenterSimple) -> int:
        return z.g * gamma_ord + cat.grading[z.label]

    def _b_exp(a: CenterSimple, b: CenterSimple) -> int:
        return Z.braiding(a, b)[1]

    def braiding_axiom_1() -> Optional[tuple]:
        for A, (i, z1), (k, z2) in itertools.product(cp.G.elements(), enumerate(Z.simples),
                                                     enumerate(Z.simples)):
            S1, S2 = _grade_idx(z1), _grade_idx(z2)
            lhs = (_b_exp(z1, z2) + _j_comb(A, _act_by(phi_img[S2], z1), z2)
                   - _x_comb(a2[S2][A], phi_img[S2], z1) + _x_comb(phi_img[a1[A][S2]], A, z1))
            rhs = (_j_comb(A, _act_by(psi_img[S1], z2), z1) - _x_comb(a2[S1][A], psi_img[S1], z2)
                   + _x_comb(psi_img[a1[A][S1]], A, z2) + _b_exp(_act_by(A, z1), _act_by(A, z2)))
            if (lhs - rhs) % M:
                return (A, i, k)
        return None

    def braiding_axiom_2() -> Optional[tuple]:
        for (i, z1), (k, z2), (l, z3) in itertools.product(enumerate(Z.simples), repeat=3):
            S1, S2, S3 = _grade_idx(z1), _grade_idx(z2), _grade_idx(z3)
            lhs = _b_exp(Z.tensor(z1, z2), z3) + _j_comb(phi_img[S3], z1, z2)
            rhs = (_x_comb(psi_img[S1], psi_img[S2], z3) + _b_exp(z1, _act_by(psi_img[S2], z3))
                   + _b_exp(z2, z3))
            if (lhs - rhs) % M:
                return (i, k, l)
        return None

    def braiding_axiom_3() -> Optional[tuple]:
        for (i, z1), (k, z2), (l, z3) in itertools.product(enumerate(Z.simples), repeat=3):
            S1, S2, S3 = _grade_idx(z1), _grade_idx(z2), _grade_idx(z3)
            lhs = _b_exp(z1, Z.tensor(z2, z3)) + _x_comb(phi_img[S2], phi_img[S3], z1)
            rhs = (_j_comb(psi_img[S1], z2, z3) + _b_exp(z1, z3)
                   + _b_exp(_act_by(phi_img[S3], z1), z2))
            if (lhs - rhs) % M:
                return (i, k, l)
        return None

    return run_checks(rep, [(name, _guarded(fn)) for name, fn in [
        ("oracle_equivalence", oracle_equivalence),
        ("induced_pair_braided", induced_pair_braided),
        ("center_category_axioms", center_category_axioms),
        ("braiding_axiom_1", braiding_axiom_1),
        ("braiding_axiom_2", braiding_axiom_2),
        ("braiding_axiom_3", braiding_axiom_3),
    ]])


def _guarded(fn):
    # corrupted simple lists may escape the enumerated set or trip the
    # idempotent guard mid-sweep; report that as the witness
    def run() -> Optional[tuple]:
        try:
            return fn()
        except (KeyError, UnsupportedConfiguration, GroupValidationError) as exc:
            return ("exception", type(exc).__name__, str(exc)[:120])
    return run


class ReferenceSwapLaws:
    """The five laws of the swap scalars sigma_{g,s}, each a restated law
    of the center viewed as a category (proofs at center_category_axioms in
    crossedcat/center.py), kept to name a failing swap law and to test that
    restatement.  Each law is a residue at its witness tuple, zero where it
    holds; `report` sweeps them in witness order."""

    def __init__(self, cat: PointedCrossedCategory,
                 simples: Optional[Sequence[CenterSimple]] = None):
        self.cat = cat
        self.Z = ReferenceCenter(cat, simples=simples)

    def j_compat(self, g: int, s: int, i: int, k: int) -> int:
        cat, Z, M, J = self.cat, self.Z, self.cat.M, self.cat.jtable
        Ginv, a1, a2 = cat.G.inverses, cat.mp.act1, cat.mp.act2
        g0, s0, z1, z2 = Ginv[a2[s][Ginv[g]]], a1[Ginv[g]][s], Z.simples[i], Z.simples[k]
        g_tw = a2[cat.grading[z2.label]][g]
        lhs = (Z.sigma(g, s, Z.tensor(z1, z2))
               + J[g][z1.label][z2.label]
               + Z.j_gamma(s, Z.g_act(g_tw, z1), Z.g_act(g, z2))) % M
        s0_tw = a1[z2.g][s0]
        rhs = (Z.j_gamma(s0, z1, z2)
               + J[g0][Z.gamma_act(s0_tw, z1).label][Z.gamma_act(s0, z2).label]
               + Z.sigma(g_tw, a1[Z.g_act(g, z2).g][s], z1)
               + Z.sigma(g, s, z2)) % M
        return (lhs - rhs) % M

    def phi_compat(self, g: int, s: int) -> int:
        unit = CenterSimple(self.cat.G.identity, self.cat.Lambda.identity,
                            (0,) * len(self.cat.neutral_labels))
        return self.Z.sigma(g, s, unit)

    def yang_baxter_gamma(self, g: int, s: int, s2: int, i: int) -> int:
        cat, Z, M = self.cat, self.Z, self.cat.M
        Ginv, a1, a2 = cat.G.inverses, cat.mp.act1, cat.mp.act2
        gi, z = Ginv[g], Z.simples[i]
        g_hat, s_hat1, s_hat2 = Ginv[a2[s2][gi]], a1[a2[s2][gi]][s], a1[gi][s2]
        lhs = (Z.sigma(g, cat.Gamma.table[s][s2], z)
               + Z.chi_gamma(s, s2, Z.g_act(g, z))) % M
        rhs = (Z.chi_gamma(s_hat1, s_hat2, z)
               + Z.sigma(g_hat, s, Z.gamma_act(s_hat2, z))
               + Z.sigma(g, s2, z)) % M
        return (lhs - rhs) % M

    def yang_baxter_g(self, g: int, g2: int, s: int, i: int) -> int:
        cat, Z, M, X = self.cat, self.Z, self.cat.M, self.cat.chitable
        Gt, Ginv, a1, a2 = cat.G.table, cat.G.inverses, cat.mp.act1, cat.mp.act2
        g0, s0, z = Ginv[a2[s][Ginv[g]]], a1[Ginv[g]][s], Z.simples[i]
        g0_2, s0_2 = Ginv[a2[s0][Ginv[g2]]], a1[Ginv[g2]][s0]
        lhs = (Z.sigma(Gt[g][g2], s, z) + X[g][g2][z.label]) % M
        rhs = (X[g0][g0_2][Z.gamma_act(s0_2, z).label]
               + Z.sigma(g2, s0, z)
               + Z.sigma(g, s, Z.g_act(g2, z))) % M
        return (lhs - rhs) % M

    def units(self, side: str, x: int, i: int) -> int:
        """sigma_{x,e} ("gamma-unit") or sigma_{e,x} ("g-unit") at simple i."""
        cat, z = self.cat, self.Z.simples[i]
        if side == "gamma-unit":
            return self.Z.sigma(x, cat.Gamma.identity, z)
        return self.Z.sigma(cat.G.identity, x, z)

    def report(self) -> VerificationReport:
        cat, Zs = self.cat, range(len(self.Z.simples))
        Gs, Ss, product = cat.G.elements(), cat.Gamma.elements(), itertools.product

        def first(law, domain) -> Callable[[], Optional[tuple]]:
            return lambda: next((w for w in domain if law(*w)), None)

        return run_checks(
            VerificationReport(subject=f"swap scalars of the center of {cat.name}"),
            [(name, _guarded(first(law, domain))) for name, law, domain in [
                ("sigma_j_compat", self.j_compat, product(Gs, Ss, Zs, Zs)),
                ("sigma_phi_compat", self.phi_compat, product(Gs, Ss)),
                ("sigma_yang_baxter_gamma", self.yang_baxter_gamma, product(Gs, Ss, Ss, Zs)),
                ("sigma_yang_baxter_g", self.yang_baxter_g, product(Gs, Gs, Ss, Zs)),
                ("sigma_units", self.units, itertools.chain(product(["gamma-unit"], Gs, Zs),
                                                            product(["g-unit"], Ss, Zs))),
            ]])


def reference_swap_laws(cat: PointedCrossedCategory,
                        simples: Optional[Sequence[CenterSimple]] = None) -> VerificationReport:
    """The report of the five swap-scalar laws, in the order the center
    report had them."""
    return ReferenceSwapLaws(cat, simples).report()

