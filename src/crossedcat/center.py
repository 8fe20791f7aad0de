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
verifier is the arbiter for every one of them.  The swap scalars are the
center's composition isomorphisms between a Gamma- and a G-actor, so
their laws are checked as laws of the center viewed as a category.
Naturality squares commute identically, as every hom space between
simples is scalar.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .braided import (BRAIDING_AXIOMS, BraidedMatchedPair, braiding_witnesses,
                      center_braiding as induced_braiding, verify_braiding)
from .errors import GroupValidationError, ValidationError
from .groups import character_tries, frozen, in_range, twisted_characters, validate_group
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


# the most candidates a search for the simples may try: exponent tuples for
# enumerate_center, functions N -> mu_M for relative_center_oracle.  On
# Python 3.11 (2 vCPUs) the first ran at 136-330 thousand tries a second and
# the second at 390-580 thousand, so a search at the bound takes 3-15 s;
# every fixture needs at most 768 tries (the oracle on cat-equivariant-s3)
MAX_CENTER_TRIES = 2_000_000


def oracle_tries(cat: PointedCrossedCategory) -> int:
    """|G| |Lambda| M^|N|: the oracle's tries if every label had full
    conjugation support."""
    return cat.G.order * cat.Lambda.order * cat.M ** len(cat.neutral_labels)


def enumeration_tries(cat: PointedCrossedCategory) -> int:
    """|G| M^k, k the number of generators of N that twisted_characters
    backtracks over: enumerate_center's tries."""
    return cat.G.order * character_tries(cat.Lambda, cat.neutral_labels, cat.M)


def _searchable(cat: PointedCrossedCategory, search: str, tries: int) -> None:
    """The preconditions of a search for the simples, nonsingularity and the
    size bound; each raises ValidationError."""
    cat.least_section()
    if tries > MAX_CENTER_TRIES:
        raise ValidationError(f"center too large to enumerate: {search} would try {tries} "
                              f"candidates, over the limit of {MAX_CENTER_TRIES}")


def enumerate_center(cat: PointedCrossedCategory) -> list[CenterSimple]:
    """All center simples, ordered lexicographically by (g, label, chi).
    A degree whose J|_N admits no character has no simple."""
    _searchable(cat, "enumerate_center", enumeration_tries(cat))
    L, N, out = cat.Lambda, cat.neutral_labels, []
    for g, actg in zip(cat.G.elements(), cat.action):
        chars = twisted_characters(L, N, cat.M, cat.jtable[g])
        for label in L.elements():
            if any(L.conj(label, nu) != actg[nu] for nu in N):
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
    oracle shares only its preconditions with enumerate_center, the
    nonsingularity check of cat.least_section and a size bound, here on its
    own tries: the conjugation test lam nu lam^-1 = ^g nu runs over the
    Cayley table, and the character law is checked entry by entry instead
    of solved by twisted_characters' generator backtracking.
    """
    _searchable(cat, "relative_center_oracle", oracle_tries(cat))
    L, M = cat.Lambda, cat.M
    Lt, Linv = L.table, L.inverses
    members = list(cat.neutral_labels)
    pos = {x: i for i, x in enumerate(members)}
    out: list[CenterSimple] = []
    for g in cat.G.elements():
        actg, Jg = cat.action[g], cat.jtable[g]
        for label in L.elements():
            Llab, linv = Lt[label], Linv[label]
            if any(Lt[Llab[nu]][linv] != actg[nu] for nu in members):
                continue
            for assignment in itertools.product(range(M), repeat=len(members)):
                if all(assignment[pos[Lt[a][b]]]
                       == (Jg[a][b] + assignment[pos[a]] + assignment[pos[b]]) % M
                       for a in members for b in members):
                    out.append(CenterSimple(g, label, assignment))
    out.sort(key=CenterSimple.sort_key)
    return out


def unit_normal(cat: PointedCrossedCategory) -> tuple[PointedCrossedCategory, tuple]:
    """`cat` gauged to strict units, and the gauge u0 that does it:
    u0[g][e_L] = -phi[g], u0[e_G][x] = -iota[x], zero elsewhere (the two
    agree at (e, e) under verify_crossed_category, by the unit law at
    axiom3_j_chi).  A cochain u rescales the identification of ^g x with its
    label by u[g][x]:

        J'[g][x][y]    = J[g][x][y] + u[g][xy] - u[del(y) |>2 g][x] - u[g][y]
        chi'[g][h][x]  = chi[g][h][x] + u[gh][x] - u[g][^h x] - u[h][x]
        phi'[g] = phi[g] + u[g][e_L],   iota'[x] = iota[x] + u[e_G][x]

    So phi' = iota' = 0, and axiom2_units, chi_units and axiom3_j_chi at
    units (comment there) then make J' and chi' vanish wherever e_G or e_L
    is an argument.  Returns `cat` itself when u0 = 0.
    """
    G, L, M, phi, iota = cat.G, cat.Lambda, cat.M, cat.phitable, cat.iotatable
    Gs, Ls, eG, eL = G.elements(), L.elements(), G.identity, L.identity
    u = tuple(tuple(-phi[g] % M if x == eL else -iota[x] % M if g == eG else 0
                    for x in Ls) for g in Gs)
    if not any(map(any, u)):
        return cat, u
    Gt, Lt, act, deg, a2 = G.table, L.table, cat.action, cat.grading, cat.mp.act2
    J, X = cat.jtable, cat.chitable
    j = [[[J[g][x][y] + u[g][Lt[x][y]] - u[a2[deg[y]][g]][x] - u[g][y] for y in Ls]
          for x in Ls] for g in Gs]
    chi = [[[X[g][h][x] + u[Gt[g][h]][x] - u[g][act[h][x]] - u[h][x] for x in Ls]
            for h in Gs] for g in Gs]
    return pointed_category(L, cat.mp, deg, act, M, jtable=j, chitable=chi,
                            phitable=[phi[g] + u[g][eL] for g in Gs],
                            iotatable=[iota[x] + u[eG][x] for x in Ls], name=cat.name), u


# -- structure maps --------------------------------------------------------------

class CenterStructure:
    """The center with its tensor, two actions, swap scalars, and braiding,
    built on `cat` gauged by unit_normal.

    `section` maps each Gamma-degree to a chosen homogeneous label, the unit
    label at the trivial degree (default: cat.least_section, the least label
    of every other fiber); a label is split by it only in half_braiding,
    which the other tables read.  All scalars are exponents mod cat.M.
    `input_simples` is the caller's list (default: enumerate_center of the
    input), and `simples` that list moved into the gauge by chi + u0[g]|_N,
    in its order, so that a witness index names the caller's simple.

    The comments and docstrings of _close and the tables give the defining
    chains, each evaluated into a dense integer table indexed by *points*:
    the simples, then every object the structure maps lead to outside
    them.  A correct center has no such escapes; a corrupted simple list
    keeps them as points, so every sweep sees exactly the values the chains
    give, and `as_category` reports the escape.
    """

    def __init__(self, cat: PointedCrossedCategory, section: Optional[Sequence[int]] = None,
                 simples: Optional[Sequence[CenterSimple]] = None):
        normal, self.u0 = unit_normal(cat)
        self.section = cat.least_section() if section is None else frozen(section, 1, "section")
        if len(self.section) != cat.Gamma.order or not in_range(self.section, cat.Lambda.order):
            raise ValidationError("section must map all of Gamma into Lambda")
        for s in cat.Gamma.elements():
            if cat.grading[self.section[s]] != s:
                raise ValidationError(f"section value {self.section[s]} has degree "
                                      f"{cat.grading[self.section[s]]}, wanted {s}")
        # the strict-unit bookkeeping needs the unit fiber to pick the unit label
        if self.section[cat.Gamma.identity] != cat.Lambda.identity:
            raise ValidationError("section must send the trivial degree to the unit label")
        self.input_simples = tuple(simples) if simples is not None \
            else tuple(enumerate_center(cat))
        self.cat = normal
        self.npos = {nu: i for i, nu in enumerate(cat.neutral_labels)}
        self.simples = self.input_simples if normal is cat \
            else tuple(self._moved(z, 1) for z in self.input_simples)
        (self.points, self.tensor_table, self.g_action_table, self.gamma_action_table,
         self.half_braiding) = self._close()

    def _moved(self, z: CenterSimple, sign: int) -> CenterSimple:
        """z moved into the unit-normal gauge (sign 1) or back to the input's (-1)."""
        u, M = self.u0[z.g], self.cat.M
        return CenterSimple(z.g, z.label, tuple((c + sign * u[nu]) % M
                                                for c, nu in zip(z.chi, self.cat.neutral_labels)))

    # -- dense tables over points
    def _close(self) -> tuple:
        """Points closed under both actions and under tensoring with a simple
        on the right, with those maps as tables: tensor [point][simple],
        G-action [g][point], Gamma-action [s][point] -> point, and the
        half_braiding row of each point.

        half_braiding is HB[point][x]: the point's half-braiding extended to
        every label x, the one place where the section splits a label.  With
        x = zeta . nu, zeta = section[del x] and nu in N, move nu across lam
        with chi, then recombine zeta . nu with J: HB[z][x] = chi(nu) +
        J[h][zeta][nu].  The tables read it as follows:
        - braid_table[z1][z2] = HB[z1][lam2]: unpack ^{del lam2} z1; the
          chain lands on ^{h1} z2 (x) z1;
        - j_gamma_table[s][z1][z2] = HB[z1][^{h2} zeta_s] + X[h1][h2][zeta_s],
          split at section[h2 |>1 s] by axiom1_grading_compat; the X term
          composes the half-braidings of z1 (x) z2 at zeta_s, as tensor does on N;
        - chi_gamma_table[s][s2][z] = J[h][zeta_s][zeta_s2] - HB[z][zeta_s zeta_s2];
        - sigma_table[g][s][z] has left side HB[^g z][^g zeta_0] + X[h'][g][zeta_0]
          - J[g0][zeta_0][zeta_0^-1], of degree s, with h' the G-degree of
          ^g z: the same tensor term for ^g z, and the duality isomorphism
          ^{g0}(zeta_0^dual) ~ (^{g0} zeta_0)^dual that the retract needs;
        - the Gamma-action's chi'(nu) = HB[z][nu zeta_s] - J[h][nu][zeta_s]:
          relabel zeta^-1 nu = (zeta^-1 nu zeta) zeta^-1, move the neutral
          part across lam with chi, and recombine with J twice.

        Each row evaluates its chain from terms found once per simple, per g,
        per s or per label; points are interned on (g, label, chi) tuples,
        and a CenterSimple is built only for a new point.  The tests compare
        every table with chains composed by the rewriting system of words.py
        (tests/derived_center.py): each is a path between explicit words,
        so none can skip a structural isomorphism, such as the G-action's
        nu ~ ^g(^{g^-1} nu) and ^{g'}(^h b) ~ ^{g'h g^-1} nu.
        """
        cat = self.cat
        G, L, M, npos, sec = cat.G, cat.Lambda, cat.M, self.npos, self.section
        Gt, Lt, Linv = G.table, L.table, L.inverses
        act, J, X, a2 = cat.action, cat.jtable, cat.chitable, cat.mp.act2
        N = cat.neutral_labels
        on_n = [[act[x][nu] for nu in N] for x in G.elements()]
        pos_n = [[npos[v] for v in row] for row in on_n]
        x_n = [[[Xgh[nu] for nu in N] for Xgh in Xg] for Xg in X]
        # per g: g^-1, ^g, J[g], the labels ^{g^-1} nu with their positions,
        # and X[g][g^-1] on N
        g_terms = [(g, gi, act[g], J[g], on_n[gi], pos_n[gi], x_n[g][gi])
                   for g, gi in zip(G.elements(), G.inverses)]
        # per s: zeta_s, zeta_s^-1, and the labels nu zeta_s
        s_terms = [(s, zeta, Linv[zeta], [Lt[nu][zeta] for nu in N])
                   for s, zeta in zip(cat.Gamma.elements(), sec)]
        # per label x: half_braiding's split x = zeta . nu, and nu's position
        zetas = [sec[d] for d in cat.grading]
        nus = [Lt[Linv[zeta]][x] for x, zeta in enumerate(zetas)]
        splits = [(zeta, nu, npos[nu]) for zeta, nu in zip(zetas, nus)]
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
        tensor_rows, hb_rows = [], []
        for z in points:  # grows while it is walked
            h, lab, chi = z.g, z.label, z.chi
            Jh, acth = J[h], act[h]
            hb = tuple((chi[p] + Jh[zeta][nu]) % M for zeta, nu, p in splits)
            hb_rows.append(hb)
            # G-action.  Chain for the new half-braiding at nu, with
            # b = ^{g^-1} nu and g' = t |>2 g:
            #    ^g lam . nu -> ^g lam . ^g(b)                  -X[g][g^-1][nu]
            #    -> ^g(lam . b)                                 J[g][lam][b]
            #    -> ^g(^h b . lam)                              chi(b)
            #    -> ^{g'}(^h b) . ^g lam                        -J[g][a(h g^-1)nu][lam]
            #    -> ^{g'h} b . ^g lam                           X[g'][h][b]
            #    -> ^{g' h g^-1} nu . ^g lam                    X[g'h][g^-1][nu]
            a2t, Gh = a2[cat.grading[lab]], Gt[h]
            for row, (g, gi, actg, Jg, back, back_pos, x_back) in zip(g_table, g_terms):
                gp = a2t[g]
                Xa, Xb = X[gp][h], X[Gt[gp][h]][gi]
                row.append(intern((Gt[Gt[gp][h]][gi], actg[lab], tuple(
                    (Jg[lab][b] + chi[p] - Jg[f][lab] + Xa[b] + Xb[nu] - xb) % M
                    for nu, b, p, f, xb in zip(N, back, back_pos, on_n[Gh[gi]], x_back)))))
            # Gamma-action by the retract of zeta_s (.) zeta_s^dual, on
            # (s |>2 h, ^h zeta . lam . zeta^-1): chi'(nu) = HB[z][nu zeta] - J[h][nu][zeta]
            for row, (s, zeta, zetai, nu_zeta) in zip(gamma_table, s_terms):
                row.append(intern((
                    a2[s][h], Lt[Lt[acth[zeta]][lab]][zetai],
                    tuple((hb[x] - Jh[nu][zeta]) % M for nu, x in zip(N, nu_zeta)))))
            # tensor: half-braidings compose through the acted argument,
            #   chi(nu) = X[h1][h2][nu] + chi1(^{h2} nu) + chi2(nu)
            #   on (h1 h2, lam1 . lam2)
            Lab, Xh = Lt[lab], x_n[h]
            tensor_rows.append(tuple(intern((
                Gh[wg], Lab[wl],
                tuple((a + chi[p] + b) % M for a, p, b in zip(Xh[wg], wpos, wchi))))
                for wg, wl, wchi, wpos in columns))
        return (tuple(points), tuple(tensor_rows), tuple(map(tuple, g_table)),
                tuple(map(tuple, gamma_table)), tuple(hb_rows))

    @cached_property
    def zero(self) -> bool:
        """True when the unit-normal category is zero and so is the chi of
        every point, as on every Vec center.  Every scalar table entry is a
        signed sum of these, so each reads 0."""
        return self.cat.zero and not any(any(z.chi) for z in self.points)

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
        """[point][point] -> exponent of the braiding coefficient,
        HB[z1][lam2] (half_braiding)."""
        labels = [b.label for b in self.points]
        return tuple(tuple(hb[x] for x in labels) for hb in self.half_braiding)

    # -- swap scalar sigma_{g,s}: gamma(s) o g-action  ~  g0-action o gamma(s0)
    #    with s0 = g^-1 |>1 s and g0 = (s |>2 g^-1)^-1.
    @cached_property
    def sigma_table(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """[g][s][point] -> swap scalar: the left side at the acted point read
        from g_action_table (half_braiding), minus the canonical right side."""
        cat = self.cat
        L, M, mp, J, X = cat.Lambda, cat.M, cat.mp, cat.jtable, cat.chitable
        Lt, Linv, act, deg, a2 = L.table, L.inverses, cat.action, cat.grading, mp.act2
        P, GA, HB, Ginv = self.points, self.g_action_table, self.half_braiding, cat.G.inverses
        out = []
        for g in cat.G.elements():
            gi, Jg = Ginv[g], J[g]
            rows = []
            for s in cat.Gamma.elements():
                Jg0 = J[Ginv[a2[s][gi]]]
                zeta_0 = self.section[mp.act1[gi][s]]
                x, zeta_0i, row = act[g][zeta_0], Linv[zeta_0], []
                dual = Jg0[zeta_0][zeta_0i]
                for z, q in zip(P, GA[g]):
                    a_h_zeta0 = act[z.g][zeta_0]
                    canon_rhs = -Jg0[Lt[a_h_zeta0][z.label]][zeta_0i] - Jg[a_h_zeta0][z.label] \
                        + X[a2[deg[z.label]][g]][z.g][zeta_0]
                    row.append((HB[q][x] - canon_rhs + X[P[q].g][g][zeta_0] - dual) % M)
                rows.append(tuple(row))
            out.append(tuple(rows))
        return tuple(out)

    @cached_property
    def j_gamma_table(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """[s][point][point] -> J-scalar of the Gamma-action,
        HB[z1][^{h2} zeta_s] + X[h1][h2][zeta_s] (half_braiding)."""
        act, X, M, HB = self.cat.action, self.cat.chitable, self.cat.M, self.half_braiding
        degrees = [z.g for z in self.points]
        out = []
        for zeta in self.section:
            cols = [(act[h2][zeta], h2) for h2 in degrees]
            out.append(tuple(tuple((hb[x] + X[h1][h2][zeta]) % M for x, h2 in cols)
                             for h1, hb in zip(degrees, HB)))
        return tuple(out)

    @cached_property
    def chi_gamma_table(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """[s][s2][point] -> chi-scalar of the Gamma-action,
        J[h][zeta_s][zeta_s2] - HB[z][zeta_s zeta_s2] (half_braiding)."""
        cat = self.cat
        Lt, J, M, zetas = cat.Lambda.table, cat.jtable, cat.M, self.section
        rows = [(J[z.g], hb) for z, hb in zip(self.points, self.half_braiding)]
        out = []
        for zs in zetas:
            plane = []
            for zs2 in zetas:
                x = Lt[zs][zs2]
                plane.append(tuple((Jz[zs][zs2] - hb[x]) % M for Jz, hb in rows))
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
        Ginv, a1, a2 = G.inverses, mp.act1, mp.act2
        label = [z.label for z in self.points]
        members = range(len(self.simples))
        # per (s, g2, s2): g_hat, sigma plus the Gamma part's chi, and the
        # label that chi of the category is taken at
        pre = {s: [] for s in Gamma.elements()}
        for s in Gamma.elements():
            for g2 in G.elements():
                g2i = Ginv[g2]
                g_hat, s_hat = Ginv[a2[s][g2i]], a1[g2i][s]
                for s2 in Gamma.elements():
                    sig, act2, act12 = SG[g2][s], SA[s2], SA[Gamma.table[s_hat][s2]]
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

    def as_category(self) -> PointedCrossedCategory:
        """Package the center's tables as a pointed crossed category.

        Every tensor and combined-action image of a simple must be a simple
        (require_members' ValidationError otherwise), and the simples must
        form a group under tensor (checked by validate_group); the grading is
        the (G-degree, Gamma-degree) pair and the action is the combined one.
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
            lam_z, cp, self.grade_table[:n],
            tuple(row[:n] for row in self.action_table), cat.M,
            tuple(plane[:n] for plane in self.j_table), (0,) * cp.G.order, self.chi_table,
            (0,) * n, f"Z({cat.name})")

    def require_members(self, points: Iterable[int]) -> None:
        """Raise a ValidationError naming the first of `points` that is not a
        simple, in the input's gauge."""
        n = len(self.simples)
        for p in points:
            if p >= n:
                z = self._moved(self.points[p], -1)
                raise ValidationError(
                    f"simple {(z.g, z.label, z.chi)} not in the enumerated center")


# -- verification ------------------------------------------------------------------

def verify_center_braided(cat: PointedCrossedCategory,
                          simples: Optional[Sequence[CenterSimple]] = None,
                          section: Optional[Sequence[int]] = None) -> VerificationReport:
    """Full verification of the braided structure on the center.

    Checks, exhaustively over enumerated simples, in report order: oracle
    equivalence; the induced pair's braiding; the center viewed as a
    crossed category, which includes the closure and group law of the
    simples, their grading, their dual law and the swap scalars' laws; the
    three crossed-braiding axioms.  Oracle equivalence compares simples in
    the input's gauge; the other sweeps run over the dense tables of
    CenterStructure, in the unit-normal gauge and in the order of each
    witness tuple.  `simples` overrides the enumeration (used by mutation
    tests).  The oracle runs first, so its size bound (a ValidationError)
    refuses before the enumeration searches and before CenterStructure
    builds any table.

    The three braiding axioms are braided.braiding_witnesses on
    CenterStructure's tables, certified on generators once
    induced_pair_braided and center_category_axioms pass, as their closure
    proofs use laws of the induced pair and of the center as a category.

    Precondition: `cat` passes verify_crossed_category, as the CLI's
    `verify center` and `center` commands check first.

    Zero support: the three braiding axioms read nothing but scalar
    tables.  When CenterStructure.zero holds, as on every Vec center, each
    of their equations reads 0 = 0, so they pass with no table built, and
    the combined J and chi tables are shared zero planes.

    Four laws are implied by oracle equivalence and are not reported.  The
    oracle emits exactly the (g, label, chi) whose label has full
    conjugation support and whose chi obeys the character law, so a simple
    breaking either law is missing from it.  Under the precondition the
    unit, (e, e_L, 0) in the unit-normal gauge, is among them: conjugation
    by e_L is the e-action by action_identity, and with iota zero
    axiom3_j_chi at (e, e) gives J[e] = 0 (comment there), which chi = 0
    obeys.  So a simple list without the unit fails oracle equivalence too.
    So does one with a simple whose retract idempotent (zeta_s (.) z (.)
    zeta_s^dual onto ^s z) is not the identity, that is whose chi at e_L
    is not 0 in the unit-normal gauge: axiom2_units "right" at (g, e_L)
    gives J[g][e_L][e_L] = -phi[g], so the character law at (e_L, e_L)
    gives every oracle simple chi(e_L) = phi[g], which u0[g][e_L] = -phi[g]
    moves to 0.  The Gamma-action's formula in _close is computed on every
    point all the same.
    Four more laws and the five laws of the swap scalars are implied by
    center_category_axioms; the proofs are at that check.
    """
    rep = VerificationReport(subject=f"center of {cat.name}")
    expected = [z.sort_key() for z in relative_center_oracle(cat)]
    Z = CenterStructure(cat, section=section, simples=simples)

    def oracle_equivalence() -> Optional[tuple]:
        keys = [z.sort_key() for z in Z.input_simples]
        if keys == expected:
            return None
        extra = [k for k in keys if k not in expected]
        missing = [k for k in expected if k not in keys]
        if extra or missing:
            return (tuple(extra[:1]), tuple(missing[:1]))
        # the same simples, reordered or one repeated: the first index where
        # the lists differ, with both keys there (None past a list's end)
        i = next((i for i, (a, b) in enumerate(zip(keys, expected)) if a != b),
                 min(len(keys), len(expected)))
        return (i, *(k[i] if i < len(k) else None for k in (keys, expected)))

    def induced_pair_braided() -> Optional[tuple]:
        r = verify_braiding(Z.induced)
        return None if r.passed else (r.first_failure().name,)

    center = None  # the center as a category, once center_category_axioms builds it

    def center_category_axioms() -> Optional[tuple]:
        # This check implies four laws on the center, which are not checks.
        # GA, SA and T are the G-action, Gamma-action and tensor tables.
        # - Closure of the simples under T, GA and SA: as_category requires
        #   every T image and every combined-action image to be a simple.
        #   SA[e] is the identity on every point, as J[h][e][nu] =
        #   J[h][nu][e] = 0 here and the section sends e to e_L; so the
        #   (g, e) action row is GA[g].
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
        # It implies the five laws of the swap scalars sigma too.  Write
        # the actor (g, s) of G >< Gamma for g * |Gamma| + s, and X_Z for
        # chi_table.  X_Z[(e, s)][(g, e)][i] = sigma_{g,s}(i), as SA[e] is
        # the identity, chi_gamma_table[s][e][i] = -chi_i(e_L) = 0 (or
        # oracle_equivalence fails) and X[e][.] = 0 by chi_units with
        # iota = 0; likewise j_table is J[g] at (g, e) and j_gamma_table[s]
        # at (e, s).  So each law is a law of the center:
        # - sigma is monoidal at (g, s; i, k): axiom3_j_chi at
        #   ((e, s), (g, e); i, k);
        # - sigma is 0 at the unit: axiom3_j_chi at ((e, s), (g, e); e, e)
        #   with axiom2_units "right", phi_Z = 0 (comment at axiom3_j_chi);
        # - the Gamma Yang-Baxter shape at (g, s, s2; i): chi_cocycle at
        #   ((e, s), (e, s2), (g, e); i);
        # - the G Yang-Baxter shape at (g, g2, s; i): chi_cocycle at
        #   ((e, s), (g, e), (g2, e); i);
        # - sigma_{e,s} = sigma_{g,e} = 0: chi_units "right" at ((e, s); i)
        #   and "left" at ((g, e); i), iota_Z = 0.  The Yang-Baxter shapes
        #   use these for the sigma_{e,s} in X_Z[(e, s)][(e, s2)] and the
        #   sigma_{g2,e} in X_Z[(g, e)][(g2, e)].
        nonlocal center
        try:
            center = Z.as_category()
        except (ValidationError, GroupValidationError) as exc:
            return ("structure_tables_unbuildable", str(exc))
        r = verify_crossed_category(center)
        if r.passed:
            return None
        c = r.first_failure()
        return (c.name,) + tuple(c.witness)

    run_checks(rep, [
        ("oracle_equivalence", oracle_equivalence),
        ("induced_pair_braided", induced_pair_braided),
        ("center_category_axioms", center_category_axioms),
    ])
    if Z.zero:
        braidings = [(name, None) for name in BRAIDING_AXIOMS]
    else:
        premises = rep.all_passed("induced_pair_braided", "center_category_axioms")
        braidings = braiding_witnesses(
            len(Z.simples), Z.braid_table, Z.tensor_table, Z.action_table, Z.grade_table,
            Z.j_table, Z.chi_table, Z.induced, cat.M, center.Lambda.identity if premises else None)
    for name, witness in braidings:
        rep.add(name, witness)
    return rep

