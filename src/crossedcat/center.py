"""The crossed center of a pointed crossed category.

A center simple is a triple (g, label, chi): a G-degree, a simple label
whose conjugation matches the g-action on the neutral subgroup N = ker del,
and a root-valued character on N.  Because the ambient category suppresses
canonical isomorphisms, the character law carries the J-cocycle:

    chi(n1 n2) = J[g][n1][n2] + chi(n1) + chi(n2)      (exponents mod M)

All structure maps below were obtained by composing the defining morphism
chains in the skeletal model, peeling actions off tensors with J, collapsing
action chains with chi-of-the-category, and moving neutral labels across a
simple with its half-braiding.  Each helper documents its chain; the
exhaustive verifier is the arbiter for every one of them.

Naturality conditions are not separate checks: between simples every hom
space is scalar, so naturality squares commute identically.  Shipped
fixtures keep iota = 1 (an explicit restriction, not a theorem); the
verifier itself accepts any table satisfying the axioms.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .braided import BraidedMatchedPair, center_braiding as induced_braiding, verify_braiding
from .errors import (GroupValidationError, NonSingularityViolated, UnsupportedConfiguration,
                     WrongSpecialization)
from .groups import twisted_characters, validate_group
from .pointed import PointedCrossedCategory, verify_crossed_category
from .records import Record
from .report import VerificationReport, run_checks


class CenterSimple(Record):
    """g-degree, underlying label, and half-braiding exponents over sorted N."""

    g: int
    label: int
    chi: tuple[int, ...]

    def sort_key(self) -> tuple:
        return (self.g, self.label, self.chi)


def _conjugation_support(cat: PointedCrossedCategory, g: int, label: int) -> list[int]:
    L = cat.Lambda
    return [nu for nu in cat.neutral_labels
            if L.mul(L.mul(label, nu), L.inv(label)) == cat.act(g, nu)]


def _characters_for(cat: PointedCrossedCategory, g: int) -> list[tuple[int, ...]]:
    """Root-valued solutions of the twisted character law on N for degree g.

    Raises UnsupportedConfiguration when a nontrivial J|_N admits no
    solution at all (a cocycle obstruction outside our scope).
    """
    members = cat.neutral_labels
    solutions = twisted_characters(cat.Lambda, members, cat.M, cat.jtable[g])
    if not solutions and any(cat.j(g, a, b) for a in members for b in members):
        raise UnsupportedConfiguration(
            f"no root-valued half-braiding exists at degree {g}: J restricted to N is obstructed")
    return solutions


def enumerate_center(cat: PointedCrossedCategory) -> list[CenterSimple]:
    """All center simples, ordered lexicographically by (g, label, chi)."""
    if not cat.is_nonsingular():
        missing = next(s for s in cat.Gamma.elements() if not cat.fibers[s])
        raise NonSingularityViolated(missing)
    out: list[CenterSimple] = []
    chars_by_degree = {g: _characters_for(cat, g) for g in cat.G.elements()}
    for g in cat.G.elements():
        for label in cat.Lambda.elements():
            if len(_conjugation_support(cat, g, label)) != len(cat.neutral_labels):
                continue
            for chi in chars_by_degree[g]:
                out.append(CenterSimple(g, label, chi))
    out.sort(key=CenterSimple.sort_key)
    return out


def relative_center_oracle(cat: PointedCrossedCategory) -> list[CenterSimple]:
    """Brute-force oracle: try every function N -> mu_M u {0} at every (g, label).

    Keeps the functions that are componentwise invertible, land in the right
    hom spaces (conjugation constraint, else the component would be the zero
    map), and satisfy the character law verbatim.  Independent of
    enumerate_center's backtracking route.
    """
    if not cat.is_nonsingular():
        missing = next(s for s in cat.Gamma.elements() if not cat.fibers[s])
        raise NonSingularityViolated(missing)
    L, M = cat.Lambda, cat.M
    members = list(cat.neutral_labels)
    pos = {x: i for i, x in enumerate(members)}
    values = [None] + list(range(M))  # None encodes the zero scalar
    out: list[CenterSimple] = []
    for g in cat.G.elements():
        for label in L.elements():
            support = set(_conjugation_support(cat, g, label))
            for assignment in itertools.product(values, repeat=len(members)):
                ok = True
                for nu, v in zip(members, assignment):
                    if v is None or nu not in support:
                        ok = False  # not an isomorphism on this component
                        break
                if not ok:
                    continue
                for a in members:
                    for b in members:
                        lhs = assignment[pos[L.mul(a, b)]]
                        rhs = (cat.j(g, a, b) + assignment[pos[a]] + assignment[pos[b]]) % M
                        if lhs != rhs:
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    out.append(CenterSimple(g, label, tuple(assignment)))
    out.sort(key=CenterSimple.sort_key)
    return out


# -- structure maps --------------------------------------------------------------

class CenterStructure:
    """The center with its tensor, two actions, swap scalars, and braiding.

    `section` maps each Gamma-degree to a chosen homogeneous label (default:
    least label per fiber).  All scalars are exponents mod cat.M.

    The methods on CenterSimple values are the defining chains.  Each is
    evaluated once per entry into a dense integer table indexed by *points*:
    the simples first, then every object the structure maps lead to outside
    the simple list.  A correct center has no such escapes; a corrupted
    simple list keeps them as points, so every sweep still sees exactly the
    values the chains give, and `structure_closure` reports the escape.
    """

    def __init__(self, cat: PointedCrossedCategory, section: Optional[Sequence[int]] = None,
                 simples: Optional[Sequence[CenterSimple]] = None):
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
        (self.points, self.tensor_table, self.g_action_table, self._gamma_table,
         self._unsupported) = self._close()

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
        chi = tuple(cat.io(nu) for nu in cat.neutral_labels)
        return CenterSimple(cat.G.identity, cat.Lambda.identity, chi)

    # -- tensor: half-braidings compose through the acted argument
    def tensor(self, z1: CenterSimple, z2: CenterSimple) -> CenterSimple:
        cat = self.cat
        L, M = cat.Lambda, cat.M
        g = cat.G.mul(z1.g, z2.g)
        label = L.mul(z1.label, z2.label)
        chi = tuple(
            (cat.x(z1.g, z2.g, nu) + self.chi_at(z1, cat.act(z2.g, nu)) + self.chi_at(z2, nu)) % M
            for nu in cat.neutral_labels)
        return CenterSimple(g, label, chi)

    # -- G-action.  Chain for the new half-braiding at nu:
    #    ^g lam . nu -> ^g(lam . ^{g^-1} nu)            J[g][lam][a(g^-1)nu]
    #    -> ^g(^h(^{g^-1} nu) . lam)                    chi(a(g^-1) nu)
    #    -> ^{(t|>2 g) h g^-1} nu . ^g lam              -J[g][a(h g^-1)nu][lam]
    def g_act(self, g: int, z: CenterSimple) -> CenterSimple:
        cat = self.cat
        G, M, mp = cat.G, cat.M, cat.mp
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
        return CenterSimple(new_g, label, tuple(chi))

    # -- Gamma-action by the retract of zeta_s (.) zeta_s^dual.  Chain at nu:
    #    relabel zeta^-1 nu = (zeta^-1 nu zeta) zeta^-1, move the neutral part
    #    across lam with chi, then recombine with J twice.
    def gamma_act(self, s: int, z: CenterSimple) -> CenterSimple:
        cat = self.cat
        L, M, mp = cat.Lambda, cat.M, cat.mp
        h = z.g
        zeta = self.section[s]
        # the retract idempotent evaluates to chi(unit) * phi[h]^-1; a root
        # idempotent must be the identity scalar, anything else is a modeling
        # error surfaced immediately
        if (self.chi_at(z, L.identity) - cat.ph(h)) % M:
            raise UnsupportedConfiguration(
                f"retract idempotent is not the identity on {z} (chi at unit = "
                f"{self.chi_at(z, L.identity)}, phi[{h}] = {cat.ph(h)})")
        new_g = mp.a2(s, h)
        label = L.mul(L.mul(cat.act(h, zeta), z.label), L.inv(zeta))
        chi = []
        for nu in cat.neutral_labels:
            conj = L.mul(L.mul(L.inv(zeta), nu), zeta)
            e = self.chi_at(z, conj) + cat.j(h, zeta, conj) - cat.j(h, nu, zeta)
            chi.append(e % M)
        return CenterSimple(new_g, label, tuple(chi))

    # -- swap scalar sigma_{g,s}: gamma(s) o g-action  ~  g0-action o gamma(s0)
    #    with s0 = g^-1 |>1 s and g0 = (s |>2 g^-1)^-1.
    def sigma(self, g: int, s: int, z: CenterSimple) -> int:
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
        return (lhs - canon_rhs) % M

    # -- crossed-structure scalars of the Gamma-action
    def j_gamma(self, s: int, z1: CenterSimple, z2: CenterSimple) -> int:
        cat = self.cat
        L, M, mp = cat.Lambda, cat.M, cat.mp
        s_tw = mp.a1(z2.g, s)
        nu_star = L.mul(L.inv(self.section[s_tw]), cat.act(z2.g, self.section[s]))
        return (self.chi_at(z1, nu_star) + cat.j(z1.g, self.section[s_tw], nu_star)) % M

    def chi_gamma(self, s: int, s2: int, z: CenterSimple) -> int:
        cat = self.cat
        L, M = cat.Lambda, cat.M
        ss2 = cat.Gamma.mul(s, s2)
        nu = L.mul(L.inv(self.section[ss2]), L.mul(self.section[s], self.section[s2]))
        return (cat.j(z.g, self.section[s], self.section[s2])
                - cat.j(z.g, self.section[ss2], nu) - self.chi_at(z, nu)) % M

    # -- braiding.  Chain: unpack ^{u} z1, move zeta_u^-1 . mu2 across lam1
    #    with chi1, recombine with J; lands on ^{h1} z2 (x) z1.
    def braid_exponent(self, z1: CenterSimple, z2: CenterSimple) -> int:
        cat = self.cat
        L = cat.Lambda
        zeta = self.section[cat.deg(z2.label)]
        nu_b = L.mul(L.inv(zeta), z2.label)
        return (self.chi_at(z1, nu_b) + cat.j(z1.g, zeta, nu_b)) % cat.M

    # -- dense tables over points
    def _close(self) -> tuple:
        """Points closed under both actions and under tensoring with a simple
        on the right, with those maps as tables: tensor [point][simple],
        G-action [g][point], Gamma-action [s][point] -> point.

        A point whose retract idempotent fails has no Gamma-action image; its
        entries stay None and the first such error is kept.
        """
        cat = self.cat
        points = list(self.simples)
        where = {z: i for i, z in enumerate(points)}

        def intern(z: CenterSimple) -> int:
            if z not in where:
                where[z] = len(points)
                points.append(z)
            return where[z]

        g_rows, gamma_rows, tensor_rows = [], [], []
        unsupported = None
        for z in points:  # grows while it is walked
            g_rows.append([intern(self.g_act(g, z)) for g in cat.G.elements()])
            try:
                gamma_rows.append([intern(self.gamma_act(s, z)) for s in cat.Gamma.elements()])
            except UnsupportedConfiguration as exc:
                gamma_rows.append([None] * cat.Gamma.order)
                unsupported = unsupported or str(exc)
            tensor_rows.append(tuple(intern(self.tensor(z, w)) for w in self.simples))
        return (tuple(points), tuple(tensor_rows), tuple(zip(*g_rows)), tuple(zip(*gamma_rows)),
                unsupported)

    @property
    def gamma_action_table(self) -> tuple[tuple[int, ...], ...]:
        """[s][point] -> point; raises when some point has no Gamma-action."""
        if self._unsupported is not None:
            raise UnsupportedConfiguration(self._unsupported)
        return self._gamma_table

    @cached_property
    def grade_table(self) -> tuple[int, ...]:
        """[point] -> (G-degree, Gamma-degree) encoded g * |Gamma| + s."""
        cat = self.cat
        return tuple(z.g * cat.Gamma.order + cat.grading[z.label] for z in self.points)

    @cached_property
    def action_table(self) -> tuple[tuple[int, ...], ...]:
        """[A][point] -> point for A = g * |Gamma| + s acting as g o s."""
        GA, SA = self.g_action_table, self.gamma_action_table
        return tuple(tuple(GA[g][p] for p in SA[s])
                     for g in self.cat.G.elements() for s in self.cat.Gamma.elements())

    @cached_property
    def braid_table(self) -> tuple[tuple[int, ...], ...]:
        """[point][point] -> exponent of the braiding coefficient."""
        P = self.points
        return tuple(tuple(self.braid_exponent(a, b) for b in P) for a in P)

    @cached_property
    def sigma_table(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """[g][s][point] -> swap scalar."""
        cat = self.cat
        return tuple(tuple(tuple(self.sigma(g, s, z) for z in self.points)
                           for s in cat.Gamma.elements()) for g in cat.G.elements())

    @cached_property
    def j_gamma_table(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """[s][point][point] -> J-scalar of the Gamma-action."""
        P = self.points
        return tuple(tuple(tuple(self.j_gamma(s, a, b) for b in P) for a in P)
                     for s in self.cat.Gamma.elements())

    @cached_property
    def chi_gamma_table(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """[s][s2][point] -> chi-scalar of the Gamma-action."""
        Gam = self.cat.Gamma.elements()
        return tuple(tuple(tuple(self.chi_gamma(s, s2, z) for z in self.points) for s2 in Gam)
                     for s in Gam)

    # -- combined crossed structure on (G><Gamma, G x Gamma)
    @cached_property
    def j_table(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """[A][point][simple] -> J of the combined action: the Gamma part's J,
        then J of the category at the two Gamma-acted labels."""
        cat = self.cat
        M, J, a1 = cat.M, cat.jtable, cat.mp.act1
        SA, JG = self.gamma_action_table, self.j_gamma_table
        label = [z.label for z in self.points]
        members, points = range(len(self.simples)), range(len(self.points))
        out = []
        for g in cat.G.elements():
            for s in cat.Gamma.elements():
                Jg, JGs = J[g], JG[s]
                # per simple k: the Gamma-action on the first argument, twisted
                # by k's G-degree, and the label of k acted on by s
                twisted = [SA[a1[z.g][s]] for z in self.simples]
                right = [label[SA[s][k]] for k in members]
                out.append(tuple(tuple((JGs[p][k] + Jg[label[twisted[k][p]]][right[k]]) % M
                                       for k in members) for p in points))
        return tuple(out)

    @cached_property
    def chi_table(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """[A][A2][simple] -> chi of the combined action, from sigma, the
        Gamma part's chi and chi of the category."""
        cat = self.cat
        G, Gamma, M, mp, X = cat.G, cat.Gamma, cat.M, cat.mp, cat.chitable
        SA, SG, XG = self.gamma_action_table, self.sigma_table, self.chi_gamma_table
        label = [z.label for z in self.points]
        members = range(len(self.simples))
        # per (s, g2, s2): g_hat, sigma plus the Gamma part's chi, and the
        # label that chi of the category is taken at
        pre = {s: [] for s in Gamma.elements()}
        for s in Gamma.elements():
            for g2 in G.elements():
                g2i = G.inv(g2)
                g_hat, s_hat = G.inv(mp.a2(s, g2i)), mp.a1(g2i, s)
                for s2 in Gamma.elements():
                    sig, act2, act12 = SG[g2][s], SA[s2], SA[Gamma.mul(s_hat, s2)]
                    xg = XG[s_hat][s2]
                    pre[s].append((g_hat, [sig[act2[i]] + xg[i] for i in members],
                                   [label[act12[i]] for i in members]))
        return tuple(tuple(tuple((part[i] + X[g][g_hat][lab[i]]) % M for i in members)
                           for g_hat, part, lab in pre[s])
                     for g in G.elements() for s in Gamma.elements())

    # -- the center as a pointed crossed category over the induced pair
    @cached_property
    def induced(self) -> BraidedMatchedPair:
        return induced_braiding(self.cat.mp)

    def as_category(self, name: Optional[str] = None) -> PointedCrossedCategory:
        """Package the center's tables as a pointed crossed category.

        Simples must form a group under tensor (checked by validate_group);
        the grading is the (G-degree, Gamma-degree) pair and the action is
        the combined one.
        """
        cat = self.cat
        n = len(self.simples)
        self.require_members(p for row in self.tensor_table[:n] for p in row)
        self.require_members(p for row in self.action_table for p in row[:n])
        lam_z = validate_group(self.tensor_table[:n], name=f"Z({cat.name})-simples")
        cp = self.induced.mp
        # every table is already reduced mod M, so the record is built as is
        return PointedCrossedCategory(
            lam_z, cp.Gamma, cp.G, cp, self.grade_table[:n],
            tuple(row[:n] for row in self.action_table), cat.M,
            tuple(plane[:n] for plane in self.j_table),
            tuple(cat.ph(A // cat.Gamma.order) for A in cp.G.elements()), self.chi_table,
            tuple(cat.io(z.label) for z in self.simples), name or f"Z({cat.name})")

    def require_members(self, points: Iterable[int]) -> None:
        """Raise `find`'s KeyError for the first of `points` that is not a simple."""
        n = len(self.simples)
        for p in points:
            if p >= n:
                self.find(self.points[p])


# -- verification ------------------------------------------------------------------

def verify_center_braided(cat: PointedCrossedCategory,
                          simples: Optional[Sequence[CenterSimple]] = None,
                          section: Optional[Sequence[int]] = None) -> VerificationReport:
    """Full verification of the braided structure on the center.

    Checks, exhaustively over enumerated simples: oracle equivalence, group
    structure of the simples, grade bookkeeping against the induced matched
    pair, the combined crossed-category axioms, the swap-scalar conditions
    including both Yang-Baxter shapes, the three crossed-braiding axioms,
    well-typed braidings, and duals.  Sweeps run over the dense tables of
    CenterStructure, in the order of each witness tuple.  `simples`
    overrides the enumeration (used by mutation tests).

    Precondition: `cat` passes verify_crossed_category.  Callers verify it
    first, as the CLI's `verify center` and `center` commands both do.
    """
    rep = VerificationReport(subject=f"center of {cat.name}")
    Z = CenterStructure(cat, section=section, simples=simples)
    G, Gamma, M, mp = cat.G, cat.Gamma, cat.M, cat.mp
    Gt, Ginv, Gam, a1, a2 = G.table, G.inverses, Gamma.table, mp.act1, mp.act2
    J, X, gamma_ord = cat.jtable, cat.chitable, Gamma.order
    Zs = range(len(Z.simples))

    def g0_s0(g: int, s: int) -> tuple[int, int]:
        # the swap sigma_{g,s} lands on g0-action o gamma(s0)
        return Ginv[a2[s][Ginv[g]]], a1[Ginv[g]][s]

    def oracle_equivalence() -> Optional[tuple]:
        oracle = relative_center_oracle(cat)
        mine = list(Z.simples)
        if [z.sort_key() for z in mine] != [z.sort_key() for z in oracle]:
            extra = [z.sort_key() for z in mine if z not in oracle]
            missing = [z.sort_key() for z in oracle if z not in mine]
            return (tuple(extra[:1]), tuple(missing[:1]))
        return None

    def unit_is_simple() -> Optional[tuple]:
        try:
            Z.find(Z.unit)
        except KeyError:
            return (Z.unit.sort_key(),)
        return None

    def char_law() -> Optional[tuple]:
        L = cat.Lambda
        for i, z in enumerate(Z.simples):
            for a in cat.neutral_labels:
                for b in cat.neutral_labels:
                    want = (cat.j(z.g, a, b) + Z.chi_at(z, a) + Z.chi_at(z, b)) % M
                    if Z.chi_at(z, L.mul(a, b)) != want:
                        return (i, a, b)
            for nu in cat.neutral_labels:
                if L.mul(L.mul(z.label, nu), L.inv(z.label)) != cat.act(z.g, nu):
                    return (i, nu)
        return None

    def closure() -> Optional[tuple]:
        try:
            Z.require_members(p for row in Z.tensor_table[:len(Zs)] for p in row)
            GA, SA = Z.g_action_table, Z.gamma_action_table
            Z.require_members(p for g in G.elements() for s in Gamma.elements() for i in Zs
                              for p in (GA[g][i], SA[s][i]))
        except KeyError as exc:
            return (str(exc),)
        return None

    def grade_covariance() -> Optional[tuple]:
        act, grade, T = Z.action_table, Z.grade_table, Z.tensor_table
        cpa1 = Z.induced.mp.act1
        for g in G.elements():
            for s in Gamma.elements():
                A = g * gamma_ord + s
                actA, cpA = act[A], cpa1[A]
                for i in Zs:
                    if grade[actA[i]] != cpA[grade[i]]:
                        return ("action", g, s, i)
        for i in Zs:
            ga, sa = divmod(grade[i], gamma_ord)
            for k in Zs:
                gb, sb = divmod(grade[k], gamma_ord)
                if grade[T[i][k]] != Gt[ga][gb] * gamma_ord + Gam[sa][sb]:
                    return ("tensor", i, k)
        return None

    def induced_pair_braided() -> Optional[tuple]:
        r = verify_braiding(Z.induced)
        return None if r.passed else (r.first_failure().name,)

    def sigma_wellformed() -> Optional[tuple]:
        # both composites around sigma must land on the same simple
        GA, SA = Z.g_action_table, Z.gamma_action_table
        for g in G.elements():
            for s in Gamma.elements():
                g0, s0 = g0_s0(g, s)
                SAs, GAg, GAg0, SAs0 = SA[s], GA[g], GA[g0], SA[s0]
                for i in Zs:
                    if SAs[GAg[i]] != GAg0[SAs0[i]]:
                        return (g, s, i)
        return None

    def sigma_j_compat() -> Optional[tuple]:
        GA, SA, T = Z.g_action_table, Z.gamma_action_table, Z.tensor_table
        SG, JG, P = Z.sigma_table, Z.j_gamma_table, Z.points
        label = [z.label for z in P]
        deg_g = [z.g for z in P]
        deg_s = [cat.grading[z.label] for z in P]
        for g in G.elements():
            for s in Gamma.elements():
                g0, s0 = g0_s0(g, s)
                SGgs, JGs, JGs0, Jg, Jg0 = SG[g][s], JG[s], JG[s0], J[g], J[g0]
                GAg, SAs0 = GA[g], SA[s0]
                for i in Zs:
                    Ti, Jgi, JGs0i = T[i], Jg[label[i]], JGs0[i]
                    for k in Zs:
                        g_tw = a2[deg_s[k]][g]
                        lhs = SGgs[Ti[k]] + Jgi[label[k]] + JGs[GA[g_tw][i]][GAg[k]]
                        # sigma's first factor: (g |>1^G grade(z2)) |>2^Gamma s
                        rhs = JGs0i[k] + Jg0[label[SA[a1[deg_g[k]][s0]][i]]][label[SAs0[k]]] \
                            + SG[g_tw][a1[deg_g[GAg[k]]][s]][i] + SGgs[k]
                        if (lhs - rhs) % M:
                            return (g, s, i, k)
        return None

    def sigma_phi_compat() -> Optional[tuple]:
        # the unit may be missing from a corrupted simple list, so its swap
        # scalars come from the chain itself rather than from sigma_table
        unit = Z.unit
        for g in G.elements():
            for s in Gamma.elements():
                g0, _ = g0_s0(g, s)
                if (Z.sigma(g, s, unit) + cat.ph(g) - cat.ph(g0)) % M:
                    return (g, s)
        return None

    def sigma_yang_baxter_gamma() -> Optional[tuple]:
        GA, SA, SG, XG = Z.g_action_table, Z.gamma_action_table, Z.sigma_table, Z.chi_gamma_table
        for g in G.elements():
            gi, SGg, GAg = Ginv[g], SG[g], GA[g]
            for s in Gamma.elements():
                for s2 in Gamma.elements():
                    g_hat = Ginv[a2[s2][gi]]
                    s_hat1, s_hat2 = a1[a2[s2][gi]][s], a1[gi][s2]
                    left, right, last = SGg[Gam[s][s2]], XG[s][s2], SGg[s2]
                    hat, sig_hat, acted = XG[s_hat1][s_hat2], SG[g_hat][s], SA[s_hat2]
                    for i in Zs:
                        if (left[i] + right[GAg[i]] - hat[i] - sig_hat[acted[i]] - last[i]) % M:
                            return (g, s, s2, i)
        return None

    def sigma_yang_baxter_g() -> Optional[tuple]:
        GA, SA, SG = Z.g_action_table, Z.gamma_action_table, Z.sigma_table
        label = [z.label for z in Z.points]
        for g in G.elements():
            for g2 in G.elements():
                Xgg2, SGgg2, GAg2 = X[g][g2], SG[Gt[g][g2]], GA[g2]
                for s in Gamma.elements():
                    g0, s0 = g0_s0(g, s)
                    g0_2, s0_2 = g0_s0(g2, s0)
                    left, X0, acted, mid, outer = \
                        SGgg2[s], X[g0][g0_2], SA[s0_2], SG[g2][s0], SG[g][s]
                    for i in Zs:
                        if (left[i] + Xgg2[label[i]] - X0[label[acted[i]]] - mid[i]
                                - outer[GAg2[i]]) % M:
                            return (g, g2, s, i)
        return None

    def sigma_units() -> Optional[tuple]:
        SA, SG = Z.gamma_action_table, Z.sigma_table
        iota = [cat.io(z.label) for z in Z.points]
        for g in G.elements():
            for i in Zs:
                if SG[g][Gamma.identity][i]:
                    return ("gamma-unit", g, i)
        for s in Gamma.elements():
            for i in Zs:
                if SG[G.identity][s][i] != (iota[SA[s][i]] - iota[i]) % M:
                    return ("g-unit", s, i)
        return None

    zcat_box: list = []

    def _zcat() -> PointedCrossedCategory:
        if not zcat_box:
            zcat_box.append(Z.as_category())
        return zcat_box[0]

    def center_category_axioms() -> Optional[tuple]:
        try:
            r = verify_crossed_category(_zcat())
        except (KeyError, GroupValidationError) as exc:
            return ("structure_tables_unbuildable", str(exc))
        if r.passed:
            return None
        c = r.first_failure()
        return (c.name,) + tuple(c.witness or ())

    bmp = Z.induced
    phi_img, psi_img = bmp.phi.image, bmp.psi.image
    cpa1, cpa2 = bmp.mp.act1, bmp.mp.act2

    def braiding_welltyped() -> Optional[tuple]:
        # coefficients are roots of unity by construction (integer exponents),
        # so each braiding is invertible; its two ends must be simples of
        # one grade
        GA, SA, T, grade = Z.g_action_table, Z.gamma_action_table, Z.tensor_table, Z.grade_table
        n = len(Zs)
        for i, z1 in enumerate(Z.simples):
            for k, z2 in enumerate(Z.simples):
                src = T[SA[cat.grading[z2.label]][i]][k]
                tgt = T[GA[z1.g][k]][i]
                if grade[src] != grade[tgt]:
                    return ("grade", i, k)
                if src >= n or tgt >= n:
                    return ("membership", i, k)
        return None

    def braiding_axiom_1() -> Optional[tuple]:
        B, act, grade, Jc, Xc = Z.braid_table, Z.action_table, Z.grade_table, Z.j_table, Z.chi_table
        for A in bmp.mp.G.elements():
            JA, actA, cpA = Jc[A], act[A], cpa1[A]
            for i in Zs:
                S1 = grade[i]
                Bi, ai = B[i], actA[i]
                right1 = Xc[cpa2[S1][A]][psi_img[S1]]
                right2 = Xc[psi_img[cpA[S1]]][A]
                act_psi = act[psi_img[S1]]
                for k in Zs:
                    S2 = grade[k]
                    lhs = Bi[k] + JA[act[phi_img[S2]][i]][k] \
                        - Xc[cpa2[S2][A]][phi_img[S2]][i] + Xc[phi_img[cpA[S2]]][A][i]
                    rhs = JA[act_psi[k]][i] - right1[k] + right2[k] + B[ai][actA[k]]
                    if (lhs - rhs) % M:
                        return (A, i, k)
        return None

    def braiding_axiom_2() -> Optional[tuple]:
        B, act, grade, T = Z.braid_table, Z.action_table, Z.grade_table, Z.tensor_table
        Jc, Xc = Z.j_table, Z.chi_table
        phi_of = [phi_img[grade[l]] for l in Zs]
        for i in Zs:
            S1, Bi, Ti = grade[i], B[i], T[i]
            for k in Zs:
                S2, Bk, Bik = grade[k], B[k], B[Ti[k]]
                X12, act2 = Xc[psi_img[S1]][psi_img[S2]], act[psi_img[S2]]
                for l in Zs:
                    if (Bik[l] + Jc[phi_of[l]][i][k] - X12[l] - Bi[act2[l]] - Bk[l]) % M:
                        return (i, k, l)
        return None

    def braiding_axiom_3() -> Optional[tuple]:
        B, act, grade, T = Z.braid_table, Z.action_table, Z.grade_table, Z.tensor_table
        Jc, Xc = Z.j_table, Z.chi_table
        phi_of = [phi_img[grade[l]] for l in Zs]
        for i in Zs:
            Bi, Jpsi = B[i], Jc[psi_img[grade[i]]]
            for k in Zs:
                Tk, Xk, Jk = T[k], Xc[phi_of[k]], Jpsi[k]
                for l in Zs:
                    if (Bi[Tk[l]] + Xk[phi_of[l]][i] - Jk[l] - Bi[l]
                            - B[act[phi_of[l]][i]][k]) % M:
                        return (i, k, l)
        return None

    def duals_center() -> Optional[tuple]:
        # ^A z has left dual ^{grade(z) ~|>2 A}(z dual): label equation in the
        # group of simples, plus the underlying-category sweep.
        try:
            zcat = _zcat()
        except (KeyError, GroupValidationError) as exc:
            return ("structure_tables_unbuildable", str(exc))
        L_z = zcat.Lambda
        for A in bmp.mp.G.elements():
            for i in range(L_z.order):
                if zcat.act(cpa2[zcat.deg(i)][A], L_z.inv(i)) != L_z.inv(zcat.act(A, i)):
                    return (A, i)
        L = cat.Lambda
        for lam in L.elements():
            for g in G.elements():
                # the left dual of ^g lam is ^{deg(lam) |>2 g}(lam^-1)
                if cat.act(a2[cat.grading[lam]][g], L.inv(lam)) != L.inv(cat.act(g, lam)):
                    return ("underlying", lam, g)
        return None

    def guarded(fn):
        # corrupted simple lists may trip the idempotent guard or leave the
        # simples unclosed; report that as the witness
        def run() -> Optional[tuple]:
            try:
                return fn()
            except (KeyError, UnsupportedConfiguration, GroupValidationError) as exc:
                return ("exception", type(exc).__name__, str(exc)[:120])
        return run

    return run_checks(rep, [(name, guarded(fn)) for name, fn in [
        ("oracle_equivalence", oracle_equivalence),
        ("unit_is_simple", unit_is_simple),
        ("half_braiding_law", char_law),
        ("structure_closure", closure),
        ("grade_covariance", grade_covariance),
        ("induced_pair_braided", induced_pair_braided),
        ("sigma_wellformed", sigma_wellformed),
        ("sigma_j_compat", sigma_j_compat),
        ("sigma_phi_compat", sigma_phi_compat),
        ("sigma_yang_baxter_gamma", sigma_yang_baxter_gamma),
        ("sigma_yang_baxter_g", sigma_yang_baxter_g),
        ("sigma_units", sigma_units),
        ("center_category_axioms", center_category_axioms),
        ("braiding_welltyped", braiding_welltyped),
        ("braiding_axiom_1", braiding_axiom_1),
        ("braiding_axiom_2", braiding_axiom_2),
        ("braiding_axiom_3", braiding_axiom_3),
        ("duals", duals_center),
    ]])


# -- degenerate specializations ----------------------------------------------------

def graded_center(cat: PointedCrossedCategory) -> CenterStructure:
    """The center when G is trivial: all simples in degree e, adjoint pattern."""
    if cat.G.order != 1:
        raise WrongSpecialization(f"G has order {cat.G.order}, expected trivial")
    Z = CenterStructure(cat)
    assert all(z.g == cat.G.identity for z in Z.simples)
    _assert_turaev_pattern(Z, surviving="Gamma")
    return Z


def equivariant_center(cat: PointedCrossedCategory) -> CenterStructure:
    """The center when Gamma is trivial: no grading beyond e, adjoint pattern."""
    if cat.Gamma.order != 1:
        raise WrongSpecialization(f"Gamma has order {cat.Gamma.order}, expected trivial")
    Z = CenterStructure(cat)
    assert all(cat.deg(z.label) == cat.Gamma.identity for z in Z.simples)
    _assert_turaev_pattern(Z, surviving="G")
    return Z


def _assert_turaev_pattern(Z: CenterStructure, surviving: str) -> None:
    """With one side trivial the induced pair is the adjoint/trivial pair on
    the surviving group and {phi, psi} degenerate to {projection, trivial}."""
    bmp = Z.induced
    cp = bmp.mp
    K = Z.cat.Gamma if surviving == "Gamma" else Z.cat.G
    n = K.order
    for a in range(n):
        for x in range(n):
            if cp.a1(a, x) != K.conj(a, x) or cp.a2(x, a) != a:
                raise AssertionError(f"induced pair is not the adjoint pattern at ({a},{x})")
    r = verify_braiding(bmp)
    if not r.passed:
        raise AssertionError(f"induced braiding fails: {r.first_failure()}")
