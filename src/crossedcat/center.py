"""The crossed center of a pointed crossed category.

A center simple is a triple (g, label, chi): a G-degree, a simple label
whose conjugation matches the g-action on the neutral subgroup N = ker del,
and a root-valued character on N.  Because the ambient category suppresses
canonical isomorphisms, the character law carries the J-cocycle:

    chi(n1 n2) = J[g][n1][n2] + chi(n1) + chi(n2)      (exponents mod M)

These are the invertible simples; a degree whose law has no solution has
none.  The structure maps are built in the unit-normal gauge, where phi
and iota vanish and the units are strict (unit_normal); a simple
(g, label, chi) of the input is (g, label, chi + u0[g]|_N) there.
Enumeration, the oracle and every simple a witness prints stay in the
input's gauge.

Each map composes its defining morphism chain in the skeletal model
(peeling actions off tensors with J, collapsing action chains with chi,
moving neutral labels across a simple with its half-braiding), written
once next to the code that evaluates it into a table; the exhaustive
verifier is the arbiter for every one of them.  Naturality squares
commute identically, as every hom space between simples is scalar.  The
chains are not covariant under a gauge at (g, x) with g != e and x
outside N, so verify_center_braided rejects some valid categories of
that family (tests/test_gauge.py).
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .braided import BraidedMatchedPair, center_braiding as induced_braiding, verify_braiding
from .errors import GroupValidationError, NonSingularityViolated, UnsupportedConfiguration
from .groups import twisted_characters, validate_group
from .pointed import PointedCrossedCategory, pointed_category, verify_crossed_category
from .records import Record
from .report import VerificationReport, run_checks


class CenterSimple(Record):
    """g-degree, underlying label, and half-braiding exponents over sorted N."""

    g: int
    label: int
    chi: tuple[int, ...]

    def sort_key(self) -> tuple:
        return (self.g, self.label, self.chi)


def enumerate_center(cat: PointedCrossedCategory) -> list[CenterSimple]:
    """All center simples, ordered lexicographically by (g, label, chi).
    A degree whose J|_N admits no character has no simple."""
    if not cat.is_nonsingular():
        missing = next(s for s in cat.Gamma.elements() if not cat.fibers[s])
        raise NonSingularityViolated(missing)
    L, N, out = cat.Lambda, cat.neutral_labels, []
    for g in cat.G.elements():
        chars = twisted_characters(L, N, cat.M, cat.jtable[g])
        for label in L.elements():
            if any(L.mul(L.mul(label, nu), L.inv(label)) != cat.act(g, nu) for nu in N):
                continue
            for chi in chars:
                out.append(CenterSimple(g, label, chi))
    out.sort(key=CenterSimple.sort_key)
    return out


def relative_center_oracle(cat: PointedCrossedCategory) -> list[CenterSimple]:
    """Brute-force oracle: try every function N -> mu_M at every (g, label)
    whose label has full conjugation support, and keep those that satisfy
    the character law verbatim.  Off the support a component would land in
    a zero hom space, so such a label has no invertible half-braiding.  The
    oracle shares no code with enumerate_center: the conjugation test
    lam nu lam^-1 = ^g nu runs over the Cayley table, and the character law
    is checked entry by entry instead of solved by twisted_characters'
    generator backtracking.
    """
    if not cat.is_nonsingular():
        missing = next(s for s in cat.Gamma.elements() if not cat.fibers[s])
        raise NonSingularityViolated(missing)
    L, M = cat.Lambda, cat.M
    Lt, Linv = L.table, L.inverses
    members = list(cat.neutral_labels)
    pos = {x: i for i, x in enumerate(members)}
    out: list[CenterSimple] = []
    for g in cat.G.elements():
        actg = cat.action[g]
        for label in L.elements():
            Llab, linv = Lt[label], Linv[label]
            if any(Lt[Llab[nu]][linv] != actg[nu] for nu in members):
                continue
            for assignment in itertools.product(range(M), repeat=len(members)):
                if all(assignment[pos[L.mul(a, b)]]
                       == (cat.j(g, a, b) + assignment[pos[a]] + assignment[pos[b]]) % M
                       for a in members for b in members):
                    out.append(CenterSimple(g, label, assignment))
    out.sort(key=CenterSimple.sort_key)
    return out


def unit_normal(cat: PointedCrossedCategory) -> tuple[PointedCrossedCategory, tuple]:
    """`cat` gauged to strict units, and the gauge u0 that does it:
    u0[g][e_L] = -phi[g], u0[e_G][x] = -iota[x], zero elsewhere (the two
    agree at (e, e) under verify_crossed_category, by axiom3_phi).  A cochain
    u rescales the identification of ^g x with its label by u[g][x]:

        J'[g][x][y]    = J[g][x][y] + u[g][xy] - u[del(y) |>2 g][x] - u[g][y]
        chi'[g][h][x]  = chi[g][h][x] + u[gh][x] - u[g][^h x] - u[h][x]
        phi'[g] = phi[g] + u[g][e_L],   iota'[x] = iota[x] + u[e_G][x]

    So phi' = iota' = 0, and axiom2_units, chi_units, axiom3_phi and
    axiom3_iota_tensor then make J' and chi' vanish wherever e_G or e_L is
    an argument.  Returns `cat` itself when u0 = 0.
    """
    G, L, M = cat.G, cat.Lambda, cat.M
    Gs, Ls, eG, eL = G.elements(), L.elements(), G.identity, L.identity
    u = tuple(tuple(-cat.ph(g) % M if x == eL else -cat.io(x) % M if g == eG else 0
                    for x in Ls) for g in Gs)
    if not any(map(any, u)):
        return cat, u
    Gt, Lt, act, deg, a2 = G.table, L.table, cat.action, cat.grading, cat.mp.act2
    j = [[[cat.j(g, x, y) + u[g][Lt[x][y]] - u[a2[deg[y]][g]][x] - u[g][y] for y in Ls]
          for x in Ls] for g in Gs]
    chi = [[[cat.x(g, h, x) + u[Gt[g][h]][x] - u[g][act[h][x]] - u[h][x] for x in Ls]
            for h in Gs] for g in Gs]
    return pointed_category(L, cat.mp, deg, act, M, jtable=j, chitable=chi,
                            phitable=[cat.ph(g) + u[g][eL] for g in Gs],
                            iotatable=[cat.io(x) + u[eG][x] for x in Ls], name=cat.name), u


# -- structure maps --------------------------------------------------------------

class CenterStructure:
    """The center with its tensor, two actions, swap scalars, and braiding,
    built on `cat` gauged by unit_normal.

    `section` maps each Gamma-degree to a chosen homogeneous label (default:
    least label per fiber).  All scalars are exponents mod cat.M.
    `input_simples` is the caller's list (default: enumerate_center of the
    input), and `simples` that list moved into the gauge by chi + u0[g]|_N,
    in its order, so that a witness index names the caller's simple.

    The comments of _close and _g_images and the table docstrings give the
    defining chains, each evaluated into a dense integer table indexed by
    *points*: the simples, then every object the structure maps lead to
    outside them.  A correct center has no such escapes; a corrupted simple
    list keeps them as points, so every sweep sees exactly the values the
    chains give, and `as_category` reports the escape.
    """

    def __init__(self, cat: PointedCrossedCategory, section: Optional[Sequence[int]] = None,
                 simples: Optional[Sequence[CenterSimple]] = None):
        normal, self.u0 = unit_normal(cat)
        self.section = tuple(section) if section is not None else cat.least_section()
        for s in cat.Gamma.elements():
            if cat.deg(self.section[s]) != s:
                raise ValueError(f"section value {self.section[s]} has degree "
                                 f"{cat.deg(self.section[s])}, wanted {s}")
        # the strict-unit bookkeeping needs the unit fiber to pick the unit label
        if self.section[cat.Gamma.identity] != cat.Lambda.identity:
            raise ValueError("section must send the trivial degree to the unit label")
        self.input_simples = tuple(simples) if simples is not None \
            else tuple(enumerate_center(cat))
        self.cat = normal
        self.npos = {nu: i for i, nu in enumerate(cat.neutral_labels)}
        self.simples = self.input_simples if normal is cat \
            else tuple(self._moved(z, 1) for z in self.input_simples)
        self.points, self.tensor_table, self.g_action_table, self._gamma_table = self._close()

    @cached_property
    def unit(self) -> CenterSimple:
        """(e, e_L, iota|_N), and iota is zero in this gauge."""
        return CenterSimple(self.cat.G.identity, self.cat.Lambda.identity, (0,) * len(self.npos))

    def _moved(self, z: CenterSimple, sign: int) -> CenterSimple:
        """z moved into the unit-normal gauge (sign 1) or back to the input's (-1)."""
        u, M = self.u0[z.g], self.cat.M
        return CenterSimple(z.g, z.label, tuple((c + sign * u[nu]) % M
                                                for c, nu in zip(z.chi, self.cat.neutral_labels)))

    @cached_property
    def _unsupported(self) -> Optional[str]:
        """Why there is no Gamma-action, or None.  The retract idempotent on a
        point evaluates to its chi at e_L (phi is zero here), and a root
        idempotent must be the identity.  Both actions keep chi at e_L and
        tensor adds it (J and chi are zero at e_L here), so the first point
        that breaks the guard is the first simple that does.  It is named
        as passed, with the input's phi[g] = -u0[g][e_L]."""
        M, eL = self.cat.M, self.cat.Lambda.identity
        e = self.npos[eL]
        for given, z in zip(self.input_simples, self.simples):
            if z.chi[e] % M:
                return (f"retract idempotent is not the identity on {given} (chi at unit = "
                        f"{given.chi[e]}, phi[{z.g}] = {-self.u0[z.g][eL] % M})")
        return None

    @cached_property
    def _g_terms(self) -> tuple:
        """Per element x of G: the labels ^x nu over N and their positions;
        per g: g, g^-1, ^g, J[g], and the labels ^{g^-1} nu with their positions."""
        cat = self.cat
        G, act, npos = cat.G, cat.action, self.npos
        on_n = [[act[x][nu] for nu in cat.neutral_labels] for x in G.elements()]
        pos_n = [[npos[v] for v in row] for row in on_n]
        g_terms = [(g, G.inverses[g], act[g], cat.jtable[g], on_n[G.inverses[g]],
                    pos_n[G.inverses[g]]) for g in G.elements()]
        return on_n, pos_n, g_terms

    # -- G-action.  Chain for the new half-braiding at nu:
    #    ^g lam . nu -> ^g(lam . ^{g^-1} nu)            J[g][lam][a(g^-1)nu]
    #    -> ^g(^h(^{g^-1} nu) . lam)                    chi(a(g^-1) nu)
    #    -> ^{(t|>2 g) h g^-1} nu . ^g lam              -J[g][a(h g^-1)nu][lam]
    def _g_images(self, z: CenterSimple) -> list[tuple]:
        """The (g, label, chi) key of ^g z for each g of G, in order."""
        cat = self.cat
        Gt, M = cat.G.table, cat.M
        on_n, _, g_terms = self._g_terms
        h, lab, chi = z.g, z.label, z.chi
        a2t, Gh = cat.mp.act2[cat.grading[lab]], Gt[h]
        return [(Gt[Gt[a2t[g]][h]][gi], actg[lab],
                 tuple((Jg[lab][b] + chi[p] - Jg[f][lab]) % M
                       for b, p, f in zip(back, back_pos, on_n[Gh[gi]])))
                for g, gi, actg, Jg, back, back_pos in g_terms]

    # -- swap scalar sigma_{g,s}: gamma(s) o g-action  ~  g0-action o gamma(s0)
    #    with s0 = g^-1 |>1 s and g0 = (s |>2 g^-1)^-1.
    def _sigma_row(self, g: int, s: int, zs: Sequence[CenterSimple],
                   acted: Sequence[CenterSimple]) -> list[int]:
        """sigma_{g,s} at each z of zs, where acted holds ^g z."""
        cat = self.cat
        L, M, mp, J, X = cat.Lambda, cat.M, cat.mp, cat.jtable, cat.chitable
        Lt, Linv, act, deg, a2 = L.table, L.inverses, cat.action, cat.grading, mp.act2
        gi = cat.G.inverses[g]
        s0 = mp.act1[gi][s]
        g0 = cat.G.inverses[a2[s][gi]]
        zeta_s, zeta_0 = self.section[s], self.section[s0]
        nu0 = Lt[Linv[zeta_s]][act[g][zeta_0]]   # zeta_s^-1 . ^g zeta_0
        npos, zeta_0i, Jg, Jg0 = self.npos, Linv[zeta_0], J[g], J[g0]
        out = []
        for z, zp in zip(zs, acted):
            # zp carries chi' on degree h' = (t |>2 g) h g^-1
            lhs = zp.chi[npos[nu0]] + J[zp.g][zeta_s][nu0]
            a_h_zeta0 = act[z.g][zeta_0]
            canon_rhs = -Jg0[Lt[a_h_zeta0][z.label]][zeta_0i] - Jg[a_h_zeta0][z.label] \
                + X[a2[deg[z.label]][g]][z.g][zeta_0]
            out.append((lhs - canon_rhs) % M)
        return out

    # -- dense tables over points
    def _close(self) -> tuple:
        """Points closed under both actions and under tensoring with a simple
        on the right, with those maps as tables: tensor [point][simple],
        G-action [g][point], Gamma-action [s][point] -> point.

        Each row evaluates its chain from terms found once per simple, per g
        or per s (the G-action's in _g_images); points are interned on
        (g, label, chi) tuples, and a CenterSimple is built only for a new
        point.  The retract guard is decided from the simples (_unsupported).
        """
        cat = self.cat
        G, L, M, npos, sec = cat.G, cat.Lambda, cat.M, self.npos, self.section
        Gt, Lt, Linv = G.table, L.table, L.inverses
        act, J, X, a2 = cat.action, cat.jtable, cat.chitable, cat.mp.act2
        N = cat.neutral_labels
        _, pos_n, _ = self._g_terms
        x_n = [[[Xgh[nu] for nu in N] for Xgh in Xg] for Xg in X]
        # per s: zeta_s, zeta_s^-1, and the labels zeta_s^-1 nu zeta_s with their positions
        s_terms = []
        for s in cat.Gamma.elements():
            zeta = sec[s]
            conj = [Lt[Lt[Linv[zeta]][nu]][zeta] for nu in N]
            s_terms.append((s, zeta, Linv[zeta], conj, [npos[c] for c in conj]))
        columns = [(w.g, w.label, w.chi, pos_n[w.g]) for w in self.simples]

        points = list(self.simples)
        where = {(z.g, z.label, z.chi): i for i, z in enumerate(points)}

        def intern(key: tuple) -> int:
            i = where.get(key)
            if i is None:
                i = where[key] = len(points)
                points.append(CenterSimple(*key))
            return i

        # a row per actor, so that an empty simple list still gets every row
        g_table = [[] for _ in G.elements()]
        gamma_table = [[] for _ in cat.Gamma.elements()]
        tensor_rows = []
        for z in points:  # grows while it is walked
            h, lab, chi = z.g, z.label, z.chi
            for row, key in zip(g_table, self._g_images(z)):
                row.append(intern(key))
            # Gamma-action by the retract of zeta_s (.) zeta_s^dual.  Chain at
            # nu: relabel zeta^-1 nu = (zeta^-1 nu zeta) zeta^-1, move the
            # neutral part across lam with chi, then recombine with J twice:
            #   chi'(nu) = chi(zeta^-1 nu zeta) + J[h][zeta][zeta^-1 nu zeta]
            #              - J[h][nu][zeta]   on  (s |>2 h, ^h zeta . lam . zeta^-1)
            Jh, acth = J[h], act[h]
            for row, (s, zeta, zetai, conj, cpos) in zip(gamma_table, s_terms):
                row.append(intern((
                    a2[s][h], Lt[Lt[acth[zeta]][lab]][zetai],
                    tuple((chi[p] + Jh[zeta][c] - Jh[nu][zeta]) % M
                          for nu, c, p in zip(N, conj, cpos)))))
            # tensor: half-braidings compose through the acted argument,
            #   chi(nu) = X[h1][h2][nu] + chi1(^{h2} nu) + chi2(nu)
            #   on (h1 h2, lam1 . lam2)
            Lab, Xh, Gh = Lt[lab], x_n[h], Gt[h]
            tensor_rows.append(tuple(intern((
                Gh[wg], Lab[wl],
                tuple((a + chi[p] + b) % M for a, p, b in zip(Xh[wg], wpos, wchi))))
                for wg, wl, wchi, wpos in columns))
        return (tuple(points), tuple(tensor_rows), tuple(map(tuple, g_table)),
                tuple(map(tuple, gamma_table)))

    @cached_property
    def zero(self) -> bool:
        """True when the unit-normal category is zero and so is the chi of
        every point, as on every Vec center.  Every scalar table entry is a
        signed sum of these, so each reads 0, and the retract guard
        (_unsupported) cannot fire, so no table read raises."""
        return self.cat.zero and not any(any(z.chi) for z in self.points)

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
        """[point][point] -> exponent of the braiding coefficient.

        Chain at (z1, z2): unpack ^{u} z1, move nu_b = zeta_u^-1 . lam2
        across lam1 with chi1, recombine with J; lands on ^{h1} z2 (x) z1.
        The exponent chi1(nu_b) + J[h1][zeta_u][nu_b] reads z2 only through
        (zeta_u, nu_b), which are found once per column.
        """
        cat = self.cat
        Lt, Linv, J, M = cat.Lambda.table, cat.Lambda.inverses, cat.jtable, cat.M
        cols = []
        for b in self.points:
            zeta = self.section[cat.grading[b.label]]
            nu_b = Lt[Linv[zeta]][b.label]
            cols.append((zeta, nu_b, self.npos[nu_b]))
        rows = [(a.chi, J[a.g]) for a in self.points]
        return tuple(tuple((chi[pos] + Ja[zeta][nu_b]) % M for zeta, nu_b, pos in cols)
                     for chi, Ja in rows)

    @cached_property
    def sigma_table(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """[g][s][point] -> swap scalar, with each acted point read from
        g_action_table."""
        P, GA = self.points, self.g_action_table
        out = []
        for g in self.cat.G.elements():
            acted = [P[q] for q in GA[g]]
            out.append(tuple(tuple(self._sigma_row(g, s, P, acted))
                             for s in self.cat.Gamma.elements()))
        return tuple(out)

    @cached_property
    def j_gamma_table(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """[s][point][point] -> J-scalar of the Gamma-action.

        Chain at (s, z1, z2), with s_tw = h2 |>1 s and
        nu* = zeta_{s_tw}^-1 . ^{h2} zeta_s: chi1(nu*) + J[h1][zeta_{s_tw}][nu*].
        z2 enters only through (zeta_{s_tw}, nu*), found once per column.
        """
        cat = self.cat
        Lt, Linv, J, M = cat.Lambda.table, cat.Lambda.inverses, cat.jtable, cat.M
        a1, act, sec, P = cat.mp.act1, cat.action, self.section, self.points
        rows = [(a.chi, J[a.g]) for a in P]
        out = []
        for s in cat.Gamma.elements():
            cols = []
            for b in P:
                zeta_tw = sec[a1[b.g][s]]
                nu_star = Lt[Linv[zeta_tw]][act[b.g][sec[s]]]
                cols.append((zeta_tw, nu_star, self.npos[nu_star]))
            out.append(tuple(tuple((chi[pos] + Ja[zeta][nu]) % M for zeta, nu, pos in cols)
                             for chi, Ja in rows))
        return tuple(out)

    @cached_property
    def chi_gamma_table(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """[s][s2][point] -> chi-scalar of the Gamma-action.

        Chain at (s, s2, z), with nu = zeta_{s s2}^-1 . zeta_s . zeta_s2:
        J[h][zeta_s][zeta_s2] - J[h][zeta_{s s2}][nu] - chi(nu).  (s, s2)
        enters only through the three section labels and nu, found once
        per pair.
        """
        cat = self.cat
        Lt, Linv, Gam, J, M = cat.Lambda.table, cat.Lambda.inverses, cat.Gamma.table, \
            cat.jtable, cat.M
        sec, rows = self.section, [(z.chi, J[z.g]) for z in self.points]
        out = []
        for s in cat.Gamma.elements():
            plane = []
            for s2 in cat.Gamma.elements():
                zs, zs2, zss2 = sec[s], sec[s2], sec[Gam[s][s2]]
                nu = Lt[Linv[zss2]][Lt[zs][zs2]]
                pos = self.npos[nu]
                plane.append(tuple((Jz[zs][zs2] - Jz[zss2][nu] - chi[pos]) % M
                                   for chi, Jz in rows))
            out.append(tuple(plane))
        return tuple(out)

    # -- combined crossed structure on (G><Gamma, G x Gamma)
    @cached_property
    def j_table(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """[A][point][simple] -> J of the combined action: the Gamma part's J,
        then J of the category at the two Gamma-acted labels."""
        cat = self.cat
        if self.zero:
            plane = ((0,) * len(self.simples),) * len(self.points)
            return (plane,) * (cat.G.order * cat.Gamma.order)
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
        if self.zero:
            plane = ((0,) * len(self.simples),) * (G.order * Gamma.order)
            return (plane,) * (G.order * Gamma.order)
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

        Every tensor and combined-action image of a simple must be a simple
        (require_members' KeyError otherwise), and the simples must form a group
        under tensor (checked by validate_group); the grading is the
        (G-degree, Gamma-degree) pair and the action is the combined one.
        """
        cat = self.cat
        n = len(self.simples)
        self.require_members(p for row in self.tensor_table[:n] for p in row)
        self.require_members(p for row in self.action_table for p in row[:n])
        lam_z = validate_group(self.tensor_table[:n], name=f"Z({cat.name})-simples")
        cp = self.induced.mp
        # every table is already reduced mod M, so the record is built as is;
        # phi_Z[(g, s)] = phi[g] and iota_Z[z] = iota[label], zero in this gauge
        return PointedCrossedCategory(
            lam_z, cp.Gamma, cp.G, cp, self.grade_table[:n],
            tuple(row[:n] for row in self.action_table), cat.M,
            tuple(plane[:n] for plane in self.j_table), (0,) * cp.G.order, self.chi_table,
            (0,) * n, name or f"Z({cat.name})")

    def require_members(self, points: Iterable[int]) -> None:
        """Raise a KeyError naming the first of `points` that is not a simple,
        in the input's gauge."""
        n = len(self.simples)
        for p in points:
            if p >= n:
                z = self._moved(self.points[p], -1)
                raise KeyError(f"simple {(z.g, z.label, z.chi)} not in the enumerated center")


# -- verification ------------------------------------------------------------------

def verify_center_braided(cat: PointedCrossedCategory,
                          simples: Optional[Sequence[CenterSimple]] = None,
                          section: Optional[Sequence[int]] = None) -> VerificationReport:
    """Full verification of the braided structure on the center.

    Checks, exhaustively over enumerated simples, in report order: oracle
    equivalence; the induced pair's braiding; the swap scalars (J- and
    phi-compatible, both Yang-Baxter shapes, units); the center viewed as a
    crossed category, which includes the closure and group law of the
    simples, their grading and their dual law; the three crossed-braiding
    axioms.  Oracle equivalence compares simples in the input's gauge; the
    other sweeps run over the dense tables of CenterStructure, in the
    unit-normal gauge and in the order of each witness tuple.  `simples`
    overrides the enumeration (used by mutation tests).

    Precondition: `cat` passes verify_crossed_category, as the CLI's
    `verify center` and `center` commands check first.

    Zero support: eight checks (sigma_j_compat, sigma_phi_compat, both
    Yang-Baxter shapes, sigma_units and the three braiding axioms) read
    nothing but scalar tables.  When CenterStructure.zero holds, as on
    every Vec center, each of their equations reads 0 = 0 and no table read
    can raise (the proof is at that flag), so they pass unread, and the
    combined J and chi tables are shared zero planes.

    Three laws are implied by oracle equivalence and are not reported.  The
    oracle emits exactly the (g, label, chi) whose label has full
    conjugation support and whose chi obeys the character law, so a simple
    breaking either law is missing from it.  Under the precondition the
    unit, (e, e_L, 0) in the unit-normal gauge, is among them: conjugation
    by e_L is the e-action by action_identity, and with iota zero
    axiom3_iota_tensor gives J[e] = 0, which chi = 0 obeys.  So a simple
    list without the unit fails oracle equivalence too.  Four more laws are
    implied by center_category_axioms; the proofs are at that check.
    """
    rep = VerificationReport(subject=f"center of {cat.name}")
    Z = CenterStructure(cat, section=section, simples=simples)
    G, Gamma, M, mp = cat.G, cat.Gamma, cat.M, cat.mp
    Gt, Ginv, Gam, a1, a2 = G.table, G.inverses, Gamma.table, mp.act1, mp.act2
    J, X = Z.cat.jtable, Z.cat.chitable
    Zs = range(len(Z.simples))

    def g0_s0(g: int, s: int) -> tuple[int, int]:
        # the swap sigma_{g,s} lands on g0-action o gamma(s0)
        return Ginv[a2[s][Ginv[g]]], a1[Ginv[g]][s]

    def oracle_equivalence() -> Optional[tuple]:
        oracle = relative_center_oracle(cat)
        mine = list(Z.input_simples)
        if [z.sort_key() for z in mine] != [z.sort_key() for z in oracle]:
            extra = [z.sort_key() for z in mine if z not in oracle]
            missing = [z.sort_key() for z in oracle if z not in mine]
            return (tuple(extra[:1]), tuple(missing[:1]))
        return None

    def induced_pair_braided() -> Optional[tuple]:
        r = verify_braiding(Z.induced)
        return None if r.passed else (r.first_failure().name,)

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
        # sigma_{g,s} at the unit is phi[g0] - phi[g], zero in this gauge; the
        # unit may be missing from a corrupted list, so its row comes from the chains
        unit = Z.unit
        acted = Z._g_images(unit)
        return next(((g, s) for g in G.elements() for s in Gamma.elements()
                     if Z._sigma_row(g, s, (unit,), (CenterSimple(*acted[g]),))[0]), None)

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
        # sigma_{e,s} at z is iota(^s z) - iota(z), zero in this gauge
        SG, eG, eS = Z.sigma_table, G.identity, Gamma.identity
        return next((("gamma-unit", g, i) for g in G.elements() for i in Zs if SG[g][eS][i]),
                    None) or next((("g-unit", s, i) for s in Gamma.elements() for i in Zs
                                   if SG[eG][s][i]), None)

    def center_category_axioms() -> Optional[tuple]:
        # This check implies four laws on the center, which are not checks.
        # GA, SA and T are the G-action, Gamma-action and tensor tables.
        # - Closure of the simples under T, GA and SA: as_category requires
        #   every T image and every combined-action image to be a simple.
        #   SA[e] is the identity on every point (or SA raises the retract
        #   guard's exception), as J[h][e][nu] = J[h][nu][e] = 0 here and the
        #   section sends e to e_L; so the (g, e) action row is GA[g].
        #   GA[e] keeps (h, label) and shifts chi by an amount that depends
        #   on (h, label) alone, so it is injective; it fixes every simple
        #   unless action_identity fails.  So an SA[s][i] that is not a
        #   simple leaves the simples in the (e, s) row too.
        # - Grade covariance: axiom1_grading_compat and
        #   grading_is_homomorphism sweep its equations over the same grade,
        #   action and tensor tables.
        # - Well-formed swaps, SA[s] GA[g] = GA[g0] SA[s0] on the simples:
        #   action_composition at ((e, s), (g, e), i), since
        #   (e, s)(g, e) = (g0, s0) in G >< Gamma and SA[e] and (unless
        #   action_identity fails) GA[e] fix the simples.
        # - Well-typed braidings: both ends are simples by closure, and
        #   grade(source) = ((e, t2) |> S1) S2 equals
        #   grade(target) = ((h1, e) |> S2) S1 by the grading checks and
        #   induced_pair_braided's braiding_axiom_1 at (S2, S1), since
        #   phi(h, t) = (e, t) and psi(h, t) = (h, e).
        try:
            r = verify_crossed_category(Z.as_category())
        except (KeyError, GroupValidationError) as exc:
            return ("structure_tables_unbuildable", str(exc))
        if r.passed:
            return None
        c = r.first_failure()
        return (c.name,) + tuple(c.witness or ())

    bmp = Z.induced
    phi_img, psi_img = bmp.phi.image, bmp.psi.image
    cpa1, cpa2 = bmp.mp.act1, bmp.mp.act2

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

    def guarded(fn):
        # corrupted simple lists may trip the idempotent guard or leave the
        # simples unclosed; report that as the witness
        def run() -> Optional[tuple]:
            try:
                return fn()
            except (KeyError, UnsupportedConfiguration, GroupValidationError) as exc:
                return ("exception", type(exc).__name__, str(exc)[:120])
        return run

    def scalar(fn):
        # a check that reads only scalar data passes unread on zero data
        return (lambda: None) if Z.zero else fn

    return run_checks(rep, [(name, guarded(fn)) for name, fn in [
        ("oracle_equivalence", oracle_equivalence),
        ("induced_pair_braided", induced_pair_braided),
        ("sigma_j_compat", scalar(sigma_j_compat)),
        ("sigma_phi_compat", scalar(sigma_phi_compat)),
        ("sigma_yang_baxter_gamma", scalar(sigma_yang_baxter_gamma)),
        ("sigma_yang_baxter_g", scalar(sigma_yang_baxter_g)),
        ("sigma_units", scalar(sigma_units)),
        ("center_category_axioms", center_category_axioms),
        ("braiding_axiom_1", scalar(braiding_axiom_1)),
        ("braiding_axiom_2", scalar(braiding_axiom_2)),
        ("braiding_axiom_3", scalar(braiding_axiom_3)),
    ]])

