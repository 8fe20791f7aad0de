"""The per-element verifier sweeps that the dense-table core replaced.

Test-only reference: `reference_crossed_category`, `ReferenceCenter` and
`reference_center_braided` are the previous `verify_crossed_category`,
`CenterStructure` and `verify_center_braided`, whose five swap-scalar
checks are now `ReferenceSwapLaws`; `reference_matched_pair`,
`reference_zappa_szep`, `reference_braiding`, `reference_center_pair` and
`reference_center_braiding` are the previous `verify_matched_pair`,
`zappa_szep`, `verify_braiding`, `center_pair` and `center_braiding`;
`reference_validate_group` and `reference_is_hom_image` are the previous
`validate_group` and `is_hom_image`, which swept every element where the
package now certifies a law on a generating set.  `reported_crossed_category`
and `reported_braiding` are the reference reports without the laws the
core proves from its other checks instead of reporting them.
Loop bodies are unchanged and call only each other, never the code they
are compared with, so that tests/test_reference_equivalence.py can require
the table-driven core to return the same (name, pass, witness) lists.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Optional, Sequence

from crossedcat.braided import BraidedMatchedPair
from crossedcat.center import CenterSimple, enumerate_center, relative_center_oracle
from crossedcat.errors import (AssocViolation, GroupValidationError, MalformedTable, NoIdentity,
                               NoInverse, NotMatched, UnsupportedConfiguration)
from crossedcat.groups import FiniteGroup, direct_product
from crossedcat.matched import MatchedPair, matched_pair
from crossedcat.pointed import PointedCrossedCategory, pointed_category
from crossedcat.report import VerificationReport, run_checks


# -- group laws

def reference_validate_group(table: Sequence[Sequence[int]], identity: Optional[int] = None,
                             name: str = "G") -> FiniteGroup:
    """Check all three group laws exhaustively and derive inverses.

    Raises MalformedTable / NoIdentity / AssocViolation / NoInverse, each
    with a concrete witness.
    """
    t = tuple(tuple(int(x) for x in row) for row in table)
    n = len(t)
    if n == 0:
        raise MalformedTable("empty table")
    for row in t:
        if len(row) != n:
            raise MalformedTable(f"table is not square: row of length {len(row)} in order-{n} table")
        for x in row:
            if not (0 <= x < n):
                raise MalformedTable(f"entry {x} out of range 0..{n - 1}")
    if identity is None:
        identity = next((e for e in range(n)
                         if all(t[e][a] == a and t[a][e] == a for a in range(n))), -1)
        if identity < 0:
            raise NoIdentity(-1, 0)
    elif not 0 <= identity < n:
        raise MalformedTable(f"identity {identity} out of range 0..{n - 1}")
    else:
        for a in range(n):
            if t[identity][a] != a or t[a][identity] != a:
                raise NoIdentity(identity, a)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    raise AssocViolation(a, b, c)
    inverses = []
    for a in range(n):
        b = next((b for b in range(n) if t[a][b] == identity and t[b][a] == identity), -1)
        if b < 0:
            raise NoInverse(a)
        inverses.append(b)
    return FiniteGroup(n, t, identity, tuple(inverses), name)


def reference_is_hom_image(source: FiniteGroup, target: FiniteGroup,
                           image: Sequence[int]) -> Optional[tuple]:
    """Witness (a, b) where the hom law fails, or None."""
    for a in source.elements():
        for b in source.elements():
            if image[source.mul(a, b)] != target.mul(image[a], image[b]):
                return (a, b)
    return None


# -- matched and braided pairs

def reference_matched_pair(mp: MatchedPair) -> VerificationReport:
    """All matched-pair axioms, exhaustively; first lexicographic witness per axiom."""
    G, M = mp.G, mp.Gamma
    rep = VerificationReport(subject="matched-pair")

    def act1_action() -> Optional[tuple]:
        for s in M.elements():
            if mp.a1(G.identity, s) != s:
                return (G.identity, s)
        for g, h, s in itertools.product(G.elements(), G.elements(), M.elements()):
            if mp.a1(g, mp.a1(h, s)) != mp.a1(G.mul(g, h), s):
                return (g, h, s)
        return None

    def act2_action() -> Optional[tuple]:
        for g in G.elements():
            if mp.a2(M.identity, g) != g:
                return (M.identity, g)
        for s, t, g in itertools.product(M.elements(), M.elements(), G.elements()):
            if mp.a2(s, mp.a2(t, g)) != mp.a2(M.mul(s, t), g):
                return (s, t, g)
        return None

    def unit1() -> Optional[tuple]:
        for g in G.elements():
            if mp.a1(g, M.identity) != M.identity:
                return (g,)
        return None

    def unit2() -> Optional[tuple]:
        for s in M.elements():
            if mp.a2(s, G.identity) != G.identity:
                return (s,)
        return None

    def match1() -> Optional[tuple]:
        # g |>1 (s t) = ((t |>2 g) |>1 s)(g |>1 t)
        for g, s, t in itertools.product(G.elements(), M.elements(), M.elements()):
            if mp.a1(g, M.mul(s, t)) != M.mul(mp.a1(mp.a2(t, g), s), mp.a1(g, t)):
                return (g, s, t)
        return None

    def match2() -> Optional[tuple]:
        # s |>2 (g h) = ((h |>1 s) |>2 g)(s |>2 h)
        for s, g, h in itertools.product(M.elements(), G.elements(), G.elements()):
            if mp.a2(s, G.mul(g, h)) != G.mul(mp.a2(mp.a1(h, s), g), mp.a2(s, h)):
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
    n = G.order * M.order
    table = [[0] * n for _ in range(n)]
    for g in G.elements():
        for s in M.elements():
            row = table[g * M.order + s]
            for g2 in G.elements():
                gi = G.inv(g2)
                first_g = G.mul(g, G.inv(mp.a2(s, gi)))
                s_twist = mp.a1(gi, s)
                for s2 in M.elements():
                    row[g2 * M.order + s2] = first_g * M.order + M.mul(s_twist, s2)
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
    phi, psi = bmp.phi, bmp.psi
    rep = VerificationReport(subject="braided-matched-pair")

    pre = reference_matched_pair(mp)
    rep.add("underlying_matched_pair", pre.passed,
            None if pre.passed else tuple(pre.first_failure().witness or ()))

    def phi_hom() -> Optional[tuple]:
        return reference_is_hom_image(M, G, phi)

    def psi_hom() -> Optional[tuple]:
        return reference_is_hom_image(M, G, psi)

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
    rep = VerificationReport(subject=f"category {cat.name}")

    def matched_pair_valid() -> Optional[tuple]:
        r = reference_matched_pair(mp)
        return None if r.passed else (r.first_failure().name,)

    def grading_hom() -> Optional[tuple]:
        for x, y in itertools.product(L.elements(), L.elements()):
            if cat.deg(L.mul(x, y)) != Gamma.mul(cat.deg(x), cat.deg(y)):
                return (x, y)
        if cat.deg(L.identity) != Gamma.identity:
            return (L.identity,)
        return None

    def action_identity() -> Optional[tuple]:
        for x in L.elements():
            if cat.act(G.identity, x) != x:
                return (x,)
        return None

    def action_composition() -> Optional[tuple]:
        for g, h, x in itertools.product(G.elements(), G.elements(), L.elements()):
            if cat.act(g, cat.act(h, x)) != cat.act(G.mul(g, h), x):
                return (g, h, x)
        return None

    def action_fixes_unit() -> Optional[tuple]:
        for g in G.elements():
            if cat.act(g, L.identity) != L.identity:
                return (g,)
        return None

    def axiom1_grading() -> Optional[tuple]:
        for g, x in itertools.product(G.elements(), L.elements()):
            if cat.deg(cat.act(g, x)) != mp.a1(g, cat.deg(x)):
                return (g, x)
        return None

    def twisted_multiplicativity() -> Optional[tuple]:
        # ^g(x y) = ^{del(y) |>2 g} x . ^g y as labels; J is invertible only
        # between equal simples, so this is axiom 2 at the object level.
        for g, x, y in itertools.product(G.elements(), L.elements(), L.elements()):
            tw = mp.a2(cat.deg(y), g)
            if cat.act(g, L.mul(x, y)) != L.mul(cat.act(tw, x), cat.act(g, y)):
                return (g, x, y)
        return None

    def axiom2_cocycle() -> Optional[tuple]:
        for g, x, y, z in itertools.product(G.elements(), L.elements(), L.elements(), L.elements()):
            tw = mp.a2(cat.deg(z), g)
            lhs = cat.j(g, L.mul(x, y), z) + cat.j(tw, x, y)
            rhs = cat.j(g, x, L.mul(y, z)) + cat.j(g, y, z)
            if (lhs - rhs) % M:
                return (g, x, y, z)
        return None

    def axiom2_units() -> Optional[tuple]:
        e = L.identity
        for g, y in itertools.product(G.elements(), L.elements()):
            if (cat.j(g, e, y) + cat.ph(mp.a2(cat.deg(y), g))) % M:
                return ("left", g, y)
            if (cat.j(g, y, e) + cat.ph(g)) % M:
                return ("right", g, y)
        return None

    def chi_cocycle() -> Optional[tuple]:
        for g, h, k, x in itertools.product(G.elements(), G.elements(), G.elements(), L.elements()):
            lhs = cat.x(G.mul(g, h), k, x) + cat.x(g, h, cat.act(k, x))
            rhs = cat.x(g, G.mul(h, k), x) + cat.x(h, k, x)
            if (lhs - rhs) % M:
                return (g, h, k, x)
        return None

    def chi_units() -> Optional[tuple]:
        e = G.identity
        for g, x in itertools.product(G.elements(), L.elements()):
            if (cat.x(g, e, x) + cat.io(x)) % M:
                return ("right", g, x)
            if (cat.x(e, g, x) + cat.io(cat.act(g, x))) % M:
                return ("left", g, x)
        return None

    def axiom3_j() -> Optional[tuple]:
        for g, h, x, y in itertools.product(G.elements(), G.elements(), L.elements(), L.elements()):
            dy = cat.deg(y)
            lhs = cat.x(g, h, L.mul(x, y)) + cat.j(h, x, y) \
                + cat.j(g, cat.act(mp.a2(dy, h), x), cat.act(h, y))
            rhs = cat.j(G.mul(g, h), x, y) \
                + cat.x(mp.a2(mp.a1(h, dy), g), mp.a2(dy, h), x) + cat.x(g, h, y)
            if (lhs - rhs) % M:
                return (g, h, x, y)
        return None

    def axiom3_phi() -> Optional[tuple]:
        for g, h in itertools.product(G.elements(), G.elements()):
            if (cat.x(g, h, L.identity) + cat.ph(h) + cat.ph(g) - cat.ph(G.mul(g, h))) % M:
                return (g, h)
        return None

    def axiom3_iota_tensor() -> Optional[tuple]:
        for x, y in itertools.product(L.elements(), L.elements()):
            if (cat.io(L.mul(x, y)) - cat.j(G.identity, x, y) - cat.io(x) - cat.io(y)) % M:
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

class ReferenceCenter:
    """The center with its tensor, two actions, swap scalars, and braiding.

    `section` maps each Gamma-degree to a chosen homogeneous label (default:
    least label per fiber).  All scalars are exponents mod cat.M.  The
    chains hold only with strict units, so `cat` must be unit-normal
    (phi = iota = 0); a category with a gauge of its units is refused.
    """

    def __init__(self, cat: PointedCrossedCategory, section: Optional[Sequence[int]] = None,
                 simples: Optional[Sequence[CenterSimple]] = None):
        if any(cat.phitable) or any(cat.iotatable):
            raise ValueError(f"{cat.name}: ReferenceCenter needs phi = iota = 0; gauge the "
                             "category to its unit-normal gauge first (tests/test_gauge.py, "
                             "_unit_normal_gauge)")
        self.cat = cat
        self.section = tuple(section) if section is not None else cat.least_section()
        for s in cat.Gamma.elements():
            if cat.deg(self.section[s]) != s:
                raise ValueError(f"section value {self.section[s]} has degree "
                                 f"{cat.deg(self.section[s])}, wanted {s}")
        # the strict-unit bookkeeping needs the unit fiber to pick the unit label
        if self.section[cat.Gamma.identity] != cat.Lambda.identity:
            raise ValueError("section must send the trivial degree to the unit label")
        self.simples = tuple(simples) if simples is not None else tuple(enumerate_center(cat))
        self.index = {(z.g, z.label, z.chi): i for i, z in enumerate(self.simples)}
        self.npos = {nu: i for i, nu in enumerate(cat.neutral_labels)}
        self._tensor_cache: dict = {}
        self._g_cache: dict = {}
        self._gamma_cache: dict = {}
        self._sigma_cache: dict = {}
        self._jg_cache: dict = {}
        self._xg_cache: dict = {}

    # -- small helpers
    def chi_at(self, z: CenterSimple, nu: int) -> int:
        return z.chi[self.npos[nu]]

    def grade(self, z: CenterSimple) -> tuple[int, int]:
        return (z.g, self.cat.deg(z.label))

    def find(self, z: CenterSimple) -> int:
        key = (z.g, z.label, z.chi)
        if key not in self.index:
            raise KeyError(f"simple {key} not in the enumerated center")
        return self.index[key]

    @cached_property
    def unit(self) -> CenterSimple:
        cat = self.cat
        return CenterSimple(cat.G.identity, cat.Lambda.identity, (0,) * len(cat.neutral_labels))

    # -- tensor: half-braidings compose through the acted argument
    def tensor(self, z1: CenterSimple, z2: CenterSimple) -> CenterSimple:
        key = (z1, z2)
        hit = self._tensor_cache.get(key)
        if hit is not None:
            return hit
        cat = self.cat
        L, M = cat.Lambda, cat.M
        g = cat.G.mul(z1.g, z2.g)
        label = L.mul(z1.label, z2.label)
        chi = tuple(
            (cat.x(z1.g, z2.g, nu) + self.chi_at(z1, cat.act(z2.g, nu)) + self.chi_at(z2, nu)) % M
            for nu in cat.neutral_labels)
        out = CenterSimple(g, label, chi)
        self._tensor_cache[key] = out
        return out

    # -- G-action.  Chain for the new half-braiding at nu:
    #    ^g lam . nu -> ^g(lam . ^{g^-1} nu)            J[g][lam][a(g^-1)nu]
    #    -> ^g(^h(^{g^-1} nu) . lam)                    chi(a(g^-1) nu)
    #    -> ^{(t|>2 g) h g^-1} nu . ^g lam              -J[g][a(h g^-1)nu][lam]
    def g_act(self, g: int, z: CenterSimple) -> CenterSimple:
        key = (g, z)
        hit = self._g_cache.get(key)
        if hit is not None:
            return hit
        cat = self.cat
        G, L, M, mp = cat.G, cat.Lambda, cat.M, cat.mp
        t = cat.deg(z.label)
        gi = G.inv(g)
        new_g = G.mul(G.mul(mp.a2(t, g), z.g), gi)
        label = cat.act(g, z.label)
        hgi = G.mul(z.g, gi)
        chi = []
        for nu in cat.neutral_labels:
            nu_back = cat.act(gi, nu)
            e = cat.j(g, z.label, nu_back) + self.chi_at(z, nu_back) \
                - cat.j(g, cat.act(hgi, nu), z.label)
            chi.append(e % M)
        out = CenterSimple(new_g, label, tuple(chi))
        self._g_cache[key] = out
        return out

    # -- Gamma-action by the retract of zeta_s (.) zeta_s^dual.  Chain at nu:
    #    relabel zeta^-1 nu = (zeta^-1 nu zeta) zeta^-1, move the neutral part
    #    across lam with chi, then recombine with J twice.
    def gamma_act(self, s: int, z: CenterSimple) -> CenterSimple:
        key = (s, z)
        hit = self._gamma_cache.get(key)
        if hit is not None:
            return hit
        cat = self.cat
        L, M, mp = cat.Lambda, cat.M, cat.mp
        h = z.g
        zeta = self.section[s]
        # the retract idempotent evaluates to chi(unit) * phi[h]^-1, and phi is
        # zero; a root idempotent must be the identity scalar, anything else is
        # a modeling error surfaced immediately
        if self.chi_at(z, L.identity) % M:
            raise UnsupportedConfiguration(
                f"retract idempotent is not the identity on {z} (chi at unit = "
                f"{self.chi_at(z, L.identity)}, phi[{h}] = 0)")
        new_g = mp.a2(s, h)
        label = L.mul(L.mul(cat.act(h, zeta), z.label), L.inv(zeta))
        chi = []
        for nu in cat.neutral_labels:
            conj = L.mul(L.mul(L.inv(zeta), nu), zeta)
            e = self.chi_at(z, conj) + cat.j(h, zeta, conj) - cat.j(h, nu, zeta)
            chi.append(e % M)
        out = CenterSimple(new_g, label, tuple(chi))
        self._gamma_cache[key] = out
        return out

    def combined_act(self, g: int, s: int, z: CenterSimple) -> CenterSimple:
        return self.g_act(g, self.gamma_act(s, z))

    # -- swap scalar sigma_{g,s}: gamma(s) o g-action  ~  g0-action o gamma(s0)
    #    with s0 = g^-1 |>1 s and g0 = (s |>2 g^-1)^-1.
    def sigma(self, g: int, s: int, z: CenterSimple) -> int:
        key = (g, s, z)
        hit = self._sigma_cache.get(key)
        if hit is not None:
            return hit
        cat = self.cat
        G, L, M, mp = cat.G, cat.Lambda, cat.M, cat.mp
        t = cat.deg(z.label)
        gi = G.inv(g)
        s0 = mp.a1(gi, s)
        g0 = G.inv(mp.a2(s, gi))
        zp = self.g_act(g, z)           # the acted simple carrying chi'
        h_p = zp.g                       # (t |>2 g) h g^-1
        zeta_s, zeta_0 = self.section[s], self.section[s0]
        omega = cat.act(g, zeta_0)
        nu0 = L.mul(L.inv(zeta_s), omega)
        lhs = self.chi_at(zp, nu0) + cat.j(h_p, zeta_s, nu0)
        a_h_zeta0 = cat.act(z.g, zeta_0)
        canon_rhs = -cat.j(g0, L.mul(a_h_zeta0, z.label), L.inv(zeta_0)) \
            - cat.j(g, a_h_zeta0, z.label) + cat.x(mp.a2(t, g), z.g, zeta_0)
        out = (lhs - canon_rhs + cat.x(h_p, g, zeta_0) - cat.j(g0, zeta_0, L.inv(zeta_0))) % M
        self._sigma_cache[key] = out
        return out

    # -- crossed-structure scalars of the Gamma-action
    def j_gamma(self, s: int, z1: CenterSimple, z2: CenterSimple) -> int:
        key = (s, z1, z2)
        hit = self._jg_cache.get(key)
        if hit is not None:
            return hit
        cat = self.cat
        L, M, mp = cat.Lambda, cat.M, cat.mp
        s_tw = mp.a1(z2.g, s)
        nu_star = L.mul(L.inv(self.section[s_tw]), cat.act(z2.g, self.section[s]))
        out = (self.chi_at(z1, nu_star) + cat.j(z1.g, self.section[s_tw], nu_star)
               + cat.x(z1.g, z2.g, self.section[s])) % M
        self._jg_cache[key] = out
        return out

    def chi_gamma(self, s: int, s2: int, z: CenterSimple) -> int:
        key = (s, s2, z)
        hit = self._xg_cache.get(key)
        if hit is not None:
            return hit
        cat = self.cat
        L, M = cat.Lambda, cat.M
        ss2 = cat.Gamma.mul(s, s2)
        nu = L.mul(L.inv(self.section[ss2]), L.mul(self.section[s], self.section[s2]))
        out = (cat.j(z.g, self.section[s], self.section[s2])
               - cat.j(z.g, self.section[ss2], nu) - self.chi_at(z, nu)) % M
        self._xg_cache[key] = out
        return out

    # -- combined crossed structure on (G><Gamma, G x Gamma)
    def j_combined(self, g: int, s: int, z1: CenterSimple, z2: CenterSimple) -> int:
        cat = self.cat
        s_tw = cat.mp.a1(z2.g, s)
        w1 = self.gamma_act(s_tw, z1)
        w2 = self.gamma_act(s, z2)
        return (self.j_gamma(s, z1, z2) + cat.j(g, w1.label, w2.label)) % cat.M

    def x_combined(self, g: int, s: int, g2: int, s2: int, z: CenterSimple) -> int:
        cat = self.cat
        G, Gamma, mp = cat.G, cat.Gamma, cat.mp
        g_hat = G.inv(mp.a2(s, G.inv(g2)))
        s_hat = mp.a1(G.inv(g2), s)
        part_sigma = self.sigma(g2, s, self.gamma_act(s2, z))
        part_chi_gamma = self.chi_gamma(s_hat, s2, z)
        w = self.gamma_act(Gamma.mul(s_hat, s2), z)
        part_chi_g = cat.x(g, g_hat, w.label)
        return (part_sigma + part_chi_gamma + part_chi_g) % cat.M

    # -- braiding.  Chain: unpack ^{u} z1, move zeta_u^-1 . mu2 across lam1
    #    with chi1, recombine with J; lands on ^{h1} z2 (x) z1.
    def braiding(self, z1: CenterSimple, z2: CenterSimple) -> tuple[CenterSimple, int]:
        cat = self.cat
        L = cat.Lambda
        u = cat.deg(z2.label)
        zeta = self.section[u]
        nu_b = L.mul(L.inv(zeta), z2.label)
        exponent = (self.chi_at(z1, nu_b) + cat.j(z1.g, zeta, nu_b)) % cat.M
        target = self.tensor(self.g_act(z1.g, z2), z1)
        return target, exponent

    # -- the center as a pointed crossed category over the induced pair
    @cached_property
    def induced(self) -> BraidedMatchedPair:
        return reference_center_braiding(self.cat.mp)

    def as_category(self) -> PointedCrossedCategory:
        """Package the center's tables as a pointed crossed category.

        Simples must form a group under tensor (checked by reference_validate_group);
        the grading is the (G-degree, Gamma-degree) pair and the action is
        the combined one.
        """
        cat = self.cat
        bmp = self.induced
        cp = bmp.mp
        n = len(self.simples)
        gamma_ord = cat.Gamma.order
        tensor_table = [[self.find(self.tensor(a, b)) for b in self.simples] for a in self.simples]
        lam_z = reference_validate_group(tensor_table, name=f"Z({cat.name})-simples")
        grading = [z.g * gamma_ord + cat.deg(z.label) for z in self.simples]
        action = [[0] * n for _ in range(cp.G.order)]
        jt = [[[0] * n for _ in range(n)] for _ in range(cp.G.order)]
        xt = [[[0] * n for _ in range(cp.G.order)] for _ in range(cp.G.order)]
        for g in cat.G.elements():
            for s in cat.Gamma.elements():
                A = g * gamma_ord + s
                for i, z in enumerate(self.simples):
                    action[A][i] = self.find(self.combined_act(g, s, z))
                for i, a in enumerate(self.simples):
                    for k, b in enumerate(self.simples):
                        jt[A][i][k] = self.j_combined(g, s, a, b)
        for g in cat.G.elements():
            for s in cat.Gamma.elements():
                A = g * gamma_ord + s
                for g2 in cat.G.elements():
                    for s2 in cat.Gamma.elements():
                        A2 = g2 * gamma_ord + s2
                        xt[A][A2] = [self.x_combined(g, s, g2, s2, z) for z in self.simples]
        return pointed_category(lam_z, cp, grading, action, cat.M, jtable=jt, chitable=xt,
                                name=f"Z({cat.name})")


def reference_center_braided(cat: PointedCrossedCategory,
                             simples: Optional[Sequence[CenterSimple]] = None,
                             section: Optional[Sequence[int]] = None) -> VerificationReport:
    """Full verification of the braided structure on the center.

    Checks, exhaustively over enumerated simples: oracle equivalence, the
    induced pair's braiding, the combined crossed-category axioms (closure,
    group structure and grading of the simples among them), the three
    crossed-braiding axioms.  `simples` overrides the enumeration (used by
    mutation tests).
    """
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
        except (KeyError, GroupValidationError) as exc:
            return ("structure_tables_unbuildable", str(exc))
        if r.passed:
            return None
        c = r.first_failure()
        return (c.name,) + tuple(c.witness or ())

    bmp = Z.induced
    phi_img, psi_img = bmp.phi, bmp.psi
    cp = bmp.mp

    def _act_by(A: int, z: CenterSimple) -> CenterSimple:
        return Z.combined_act(A // gamma_ord, A % gamma_ord, z)

    def _grade_idx(z: CenterSimple) -> int:
        gz, sz = Z.grade(z)
        return gz * gamma_ord + sz

    def _j_comb(A: int, a: CenterSimple, b: CenterSimple) -> int:
        return Z.j_combined(A // gamma_ord, A % gamma_ord, a, b)

    def _x_comb(A: int, B: int, z: CenterSimple) -> int:
        return Z.x_combined(A // gamma_ord, A % gamma_ord, B // gamma_ord, B % gamma_ord, z)

    def _b_exp(a: CenterSimple, b: CenterSimple) -> int:
        return Z.braiding(a, b)[1]

    def braiding_axiom_1() -> Optional[tuple]:
        for A in cp.G.elements():
            for i, z1 in enumerate(Z.simples):
                for k, z2 in enumerate(Z.simples):
                    S1, S2 = _grade_idx(z1), _grade_idx(z2)
                    lhs = (_b_exp(z1, z2)
                           + _j_comb(A, _act_by(phi_img[S2], z1), z2)
                           - _x_comb(cp.a2(S2, A), phi_img[S2], z1)
                           + _x_comb(phi_img[cp.a1(A, S2)], A, z1)) % M
                    rhs = (_j_comb(A, _act_by(psi_img[S1], z2), z1)
                           - _x_comb(cp.a2(S1, A), psi_img[S1], z2)
                           + _x_comb(psi_img[cp.a1(A, S1)], A, z2)
                           + _b_exp(_act_by(A, z1), _act_by(A, z2))) % M
                    if lhs != rhs:
                        return (A, i, k)
        return None

    def braiding_axiom_2() -> Optional[tuple]:
        for i, z1 in enumerate(Z.simples):
            for k, z2 in enumerate(Z.simples):
                for l, z3 in enumerate(Z.simples):
                    S1, S2, S3 = _grade_idx(z1), _grade_idx(z2), _grade_idx(z3)
                    lhs = (_b_exp(Z.tensor(z1, z2), z3) + _j_comb(phi_img[S3], z1, z2)) % M
                    rhs = (_x_comb(psi_img[S1], psi_img[S2], z3)
                           + _b_exp(z1, _act_by(psi_img[S2], z3))
                           + _b_exp(z2, z3)) % M
                    if lhs != rhs:
                        return (i, k, l)
        return None

    def braiding_axiom_3() -> Optional[tuple]:
        for i, z1 in enumerate(Z.simples):
            for k, z2 in enumerate(Z.simples):
                for l, z3 in enumerate(Z.simples):
                    S1, S2, S3 = _grade_idx(z1), _grade_idx(z2), _grade_idx(z3)
                    lhs = (_b_exp(z1, Z.tensor(z2, z3)) + _x_comb(phi_img[S2], phi_img[S3], z1)) % M
                    rhs = (_j_comb(psi_img[S1], z2, z3)
                           + _b_exp(z1, z3)
                           + _b_exp(_act_by(phi_img[S3], z1), z2)) % M
                    if lhs != rhs:
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
    """The five laws of the swap scalars sigma_{g,s}, which the center
    report checked until each was found to restate a law of the center
    viewed as a category (the proofs are at center_category_axioms in
    crossedcat/center.py).  Kept to name a failing swap law when a center
    fails, and to test that restatement.  Each law is a residue at its
    witness tuple, zero where the law holds; `report` sweeps them in
    witness order.
    """

    def __init__(self, cat: PointedCrossedCategory,
                 simples: Optional[Sequence[CenterSimple]] = None):
        self.cat = cat
        self.Z = ReferenceCenter(cat, simples=simples)

    def j_compat(self, g: int, s: int, i: int, k: int) -> int:
        cat, Z, G, M = self.cat, self.Z, self.cat.G, self.cat.M
        g0 = G.inv(cat.mp.a2(s, G.inv(g)))
        s0 = cat.mp.a1(G.inv(g), s)
        z1, z2 = Z.simples[i], Z.simples[k]
        g_tw = cat.mp.a2(cat.deg(z2.label), g)
        lhs = (Z.sigma(g, s, Z.tensor(z1, z2))
               + cat.j(g, z1.label, z2.label)
               + Z.j_gamma(s, Z.g_act(g_tw, z1), Z.g_act(g, z2))) % M
        s0_tw = cat.mp.a1(z2.g, s0)
        rhs = (Z.j_gamma(s0, z1, z2)
               + cat.j(g0, Z.gamma_act(s0_tw, z1).label, Z.gamma_act(s0, z2).label)
               + Z.sigma(g_tw, _sigma_first_index(cat, g, s, z2), z1)
               + Z.sigma(g, s, z2)) % M
        return (lhs - rhs) % M

    def phi_compat(self, g: int, s: int) -> int:
        return self.Z.sigma(g, s, self.Z.unit)

    def yang_baxter_gamma(self, g: int, s: int, s2: int, i: int) -> int:
        cat, Z, G, M = self.cat, self.Z, self.cat.G, self.cat.M
        gi = G.inv(g)
        g_hat = G.inv(cat.mp.a2(s2, gi))
        s_hat1 = cat.mp.a1(cat.mp.a2(s2, gi), s)
        s_hat2 = cat.mp.a1(gi, s2)
        z = Z.simples[i]
        lhs = (Z.sigma(g, cat.Gamma.mul(s, s2), z)
               + Z.chi_gamma(s, s2, Z.g_act(g, z))) % M
        rhs = (Z.chi_gamma(s_hat1, s_hat2, z)
               + Z.sigma(g_hat, s, Z.gamma_act(s_hat2, z))
               + Z.sigma(g, s2, z)) % M
        return (lhs - rhs) % M

    def yang_baxter_g(self, g: int, g2: int, s: int, i: int) -> int:
        cat, Z, G, M = self.cat, self.Z, self.cat.G, self.cat.M
        g0 = G.inv(cat.mp.a2(s, G.inv(g)))
        s0 = cat.mp.a1(G.inv(g), s)
        g0_2 = G.inv(cat.mp.a2(s0, G.inv(g2)))
        s0_2 = cat.mp.a1(G.inv(g2), s0)
        z = Z.simples[i]
        lhs = (Z.sigma(G.mul(g, g2), s, z) + cat.x(g, g2, z.label)) % M
        rhs = (cat.x(g0, g0_2, Z.gamma_act(s0_2, z).label)
               + Z.sigma(g2, s0, z)
               + Z.sigma(g, s, Z.g_act(g2, z))) % M
        return (lhs - rhs) % M

    def units(self, side: str, x: int, i: int) -> int:
        """sigma_{x,e} ("gamma-unit") or sigma_{e,x} ("g-unit") at simple i."""
        cat, Z = self.cat, self.Z
        z = Z.simples[i]
        if side == "gamma-unit":
            return Z.sigma(x, cat.Gamma.identity, z)
        return Z.sigma(cat.G.identity, x, z)

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


def _sigma_first_index(cat: PointedCrossedCategory, g: int, s: int, z2: CenterSimple) -> int:
    """Gamma-index of the left sigma factor in the J-compatibility condition."""
    # (g |>1^G grade(z2)) |>2^Gamma s = ((t2 |>2 g) h2 g^-1) |>1 s for grade (h2, t2)
    G, mp = cat.G, cat.mp
    t2 = cat.deg(z2.label)
    h_new = G.mul(G.mul(mp.a2(t2, g), z2.g), G.inv(g))
    return mp.a1(h_new, s)
