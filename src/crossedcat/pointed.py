"""Skeletal pointed crossed tensor categories with root-of-unity scalar data.

Simple objects are the elements of a group Lambda; tensor product is the
group product, associator and units are strict, every simple has dimension
one and trivial pivotal scalar.  All remaining structure is scalar-valued:

    J[g][x][y]   component of the tensor-compatibility iso
                 ^{del(y) |>2 g} x . ^g y  ~  ^g (x y)
    phi[g]       unit compatibility  1 ~ ^g 1
    chi[g][h][x] action composition  ^g(^h x) ~ ^{gh} x
    iota[x]      unit of the action  x ~ ^e x

Scalars are stored as integer exponents of zeta_M, so every verifier
equation is an exact congruence mod M.  Structure scalars are invertible
by construction (zero is not representable in the tables).
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

from .errors import ValidationError
from .groups import (FiniteGroup, Table, action_law_witness, certified_sweep, frozen,
                     in_range, is_hom_image, twisted_hom_witness, unit_witness)
from .matched import MatchedPair, verify_matched_pair
from .records import Record
from .report import VerificationReport, run_checks

Exp3 = tuple[tuple[tuple[int, ...], ...], ...]


def _reduced(t: Exp3, M: int) -> Exp3:
    """t with its exponents reduced mod M; a row already in 0..M-1 is kept."""
    return tuple(tuple(row if in_range(row, M) else tuple(v % M for v in row) for row in plane)
                 for plane in t)


class PointedCrossedCategory(Record):
    """A category in the skeletal model above, with its scalar tables.

    Every table holds ints in the shape the groups give, and every J, phi,
    chi and iota entry is stored reduced to 0..M-1: pointed_category checks
    entries and shapes and reduces exponents, CenterStructure.as_category
    builds its tables so, and the JSON loader rejects any other exponent.
    """

    Lambda: FiniteGroup
    mp: MatchedPair
    grading: tuple[int, ...]        # del: Lambda -> Gamma
    action: Table                   # [g][lam] -> lam
    M: int
    jtable: Exp3                    # [g][x][y] exponent
    phitable: tuple[int, ...]       # [g]
    chitable: Exp3                  # [g][h][x]
    iotatable: tuple[int, ...]      # [x]
    name: str

    @property
    def G(self) -> FiniteGroup:
        return self.mp.G

    @property
    def Gamma(self) -> FiniteGroup:
        return self.mp.Gamma

    @cached_property
    def zero(self) -> bool:
        """True when J, chi, phi and iota hold no nonzero exponent.  Each
        distinct J or chi plane is scanned once: the center of a Vec category,
        viewed as a category, repeats one zero plane."""
        planes = {id(p): p for p in (*self.jtable, *self.chitable)}.values()
        return not (any(self.phitable) or any(self.iotatable)
                    or any(any(map(any, p)) for p in planes))

    @cached_property
    def neutral_labels(self) -> tuple[int, ...]:
        e = self.Gamma.identity
        return tuple(l for l in self.Lambda.elements() if self.grading[l] == e)

    @cached_property
    def fibers(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {s: [] for s in self.Gamma.elements()}
        for l in self.Lambda.elements():
            out[self.grading[l]].append(l)
        return {s: tuple(v) for s, v in out.items()}

    def least_section(self) -> tuple[int, ...]:
        """Least label in each grading fiber; the default family zeta.  The one
        nonsingularity check: raises ValidationError at the first degree
        with no label."""
        missing = next((s for s in self.Gamma.elements() if not self.fibers[s]), None)
        if missing is not None:
            raise ValidationError(f"grading not surjective: no simple of degree {missing}")
        return tuple(min(self.fibers[s]) for s in self.Gamma.elements())


def pointed_category(Lambda: FiniteGroup, mp: MatchedPair, grading: Sequence[int],
                     action: Sequence[Sequence[int]], M: int,
                     jtable=None, phitable=None, chitable=None, iotatable=None,
                     name: str = "cat") -> PointedCrossedCategory:
    """Assemble a category, expanding omitted scalar tables to all-ones and
    reducing exponents mod M; raises ValidationError unless every table holds
    integers, grading maps Lambda into Gamma, action is |G| x |Lambda| with
    entries in range, and J, chi, phi and iota have the shapes the groups
    give.  The axioms are verify_crossed_category's."""
    n, ng = Lambda.order, mp.G.order
    deg, act = frozen(grading, 1, "grading"), frozen(action, 2, "action")
    if len(deg) != n or not in_range(deg, mp.Gamma.order):
        raise ValidationError("grading must map Lambda into Gamma")
    if len(act) != ng or any(len(row) != n for row in act):
        raise ValidationError("action must be |G| x |Lambda|")
    if not all(in_range(row, n) for row in act):
        raise ValidationError("action entry out of range")
    j = (((0,) * n,) * n,) * ng if jtable is None else _reduced(frozen(jtable, 3, "J"), M)
    chi = (((0,) * n,) * ng,) * ng if chitable is None else _reduced(frozen(chitable, 3, "chi"), M)
    phi = (0,) * ng if phitable is None else tuple(v % M for v in frozen(phitable, 1, "phi"))
    iota = (0,) * n if iotatable is None else tuple(v % M for v in frozen(iotatable, 1, "iota"))
    for what, table, (a, b, c) in (("J", j, (ng, n, n)), ("chi", chi, (ng, ng, n))):
        if len(table) != a or any(len(p) != b or any(len(r) != c for r in p) for p in table):
            raise ValidationError(f"{what} must be {a}x{b}x{c}")
    for what, table, a in (("phi", phi, ng), ("iota", iota, n)):
        if len(table) != a:
            raise ValidationError(f"{what} must have length {a}")
    return PointedCrossedCategory(Lambda, mp, deg, act, M, j, phi, chi, iota, name)


def vec_gamma(mp: MatchedPair, M: int, name: Optional[str] = None) -> PointedCrossedCategory:
    """Graded vector spaces over Gamma: Lambda = Gamma, identity grading,
    the G-action is |>1 on labels, and every structure scalar is one.
    Raises ValidationError, as zappa_szep does, unless mp is a matched pair."""
    rep = verify_matched_pair(mp)
    if not rep.passed:
        raise ValidationError(f"matched-pair verification failed: {rep.first_failure()}")
    Gamma = mp.Gamma
    return pointed_category(Gamma, mp, tuple(Gamma.elements()), mp.act1, M,
                            name=name or f"Vec[{Gamma.name}]")


def verify_crossed_category(cat: PointedCrossedCategory) -> VerificationReport:
    """Exhaustive checklist for the crossed-category axioms.

    Each axiom is one nest of loops over the dense tables, with row lookups
    hoisted out of the inner loops.  Loops nest in the order of the
    witness tuple, so every witness is the lexicographically first failing
    tuple.  grading_is_homomorphism, action_composition, action_fixes_unit
    and axiom2_object_compat are the shared sweeps of groups.py, which
    certify a law on generators first and carry its closure proof;
    axiom2_j_cocycle and chi_cocycle keep their sweeps here and are
    certified on their last group argument, and axiom3_j_chi on y, each by
    groups.certified_sweep with its closure proof at the sweep.  The
    sweeps index the tables by the shapes that pointed_category checks.
    Grading surjectivity is deliberately not part of the pass/fail outcome;
    it only gates center construction.

    The model fixes the pivotal scalar delta = 1 and the dimension d = 1 on
    every simple, so the pivotal compatibility ^g delta = delta holds
    identically and is not a check.  A law that the other checks imply is
    not reported either; its proof stays as a comment (see axiom2_object_compat
    and axiom3_j_chi).

    Zero support: when PointedCrossedCategory.zero holds, the five checks
    that read only J, chi, phi and iota pass unread, since each of their
    equations is a signed sum of entries of those tables and reads 0 = 0.
    """
    rep = VerificationReport(subject=f"category {cat.name}")
    L, G, Gamma, mp, M = cat.Lambda, cat.G, cat.Gamma, cat.mp, cat.M
    Lt, Gt = L.table, G.table
    act, deg, a1, a2 = cat.action, cat.grading, mp.act1, mp.act2
    J, X, phi, iota = cat.jtable, cat.chitable, cat.phitable, cat.iotatable
    Ls, Gs, eL, eG = L.elements(), G.elements(), L.identity, G.identity

    def matched_pair_valid() -> Optional[tuple]:
        r = verify_matched_pair(mp)
        return None if r.passed else (r.first_failure().name,)

    def action_identity() -> Optional[tuple]:
        return next(((x,) for x in Ls if act[eG][x] != x), None)

    def axiom1_grading() -> Optional[tuple]:
        return next(((g, x) for g in Gs for x in Ls if deg[act[g][x]] != a1[g][deg[x]]), None)

    # twist[g][y] = del(y) |>2 g, the degree-twisted actor; act_on[x][g] = ^g x
    twist = [[a2[deg[y]][g] for y in Ls] for g in Gs]
    act_on = [[act[g][x] for g in Gs] for x in Ls]

    def twisted_multiplicativity() -> Optional[tuple]:
        # ^g(x y) = ^{del(y) |>2 g} x . ^g y as labels; J is invertible only
        # between equal simples, so this is axiom 2 at the object level.
        # It implies the dual law, the left dual of ^g x is
        # ^{del(x) |>2 g}(x^-1), so that law is not a check: at
        # (g, x^-1, x) it reads e = ^g(x^-1 x) = ^{del(x) |>2 g}(x^-1) . ^g x
        # once action_fixes_unit gives ^g e = e, and both checks come first.
        #
        # The certificate needs y |>' g = del(y) |>2 g to be a left action of
        # Lambda, which it is once del is a homomorphism and |>2 a left action.
        gated = rep.all_passed("grading_is_homomorphism", "matched_pair_valid")
        return twisted_hom_witness(Lt, act, [a2[d] for d in deg], eL if gated else None)

    def axiom2_cocycle() -> Optional[tuple]:
        # J[g][xy][z] + J[del(z) |>2 g][x][y] = J[g][x][yz] + J[g][y][z].
        # Certified on z (certified_sweep).  This law and chi_cocycle say
        # D = 0, where for a 2-cochain c of a group K with values in a right
        # K-module, F.z being F acted on by z,
        #   D(x, y, z) = c(xy, z) + c(x, y).z - c(x, yz) - c(y, z),
        # so D is minus the coboundary of c.  Every 2-cochain's D obeys
        #   D(y, z, w) - D(xy, z, w) + D(x, yz, w) - D(x, y, zw) + D(x, y, z).w = 0
        # (the coboundary of a coboundary is zero, which takes associativity
        # of K and (F.z).w = F.(zw) only).  So if D(x, y, z) and D(x, y, w)
        # vanish for every (x, y), so does D(x, y, zw): the last arguments at
        # which D vanishes everywhere are closed under products.  Here
        # K = Lambda, c(x, y) = (g -> J[g][x][y]) and (F.z)(g) =
        # F(del(z) |>2 g), a right action once del is a homomorphism and |>2
        # a left action, the gate of axiom2_object_compat.
        def sweep(zs: Sequence[int]) -> Optional[tuple]:
            for g in Gs:
                Jg, twg = J[g], twist[g]
                for x in Ls:
                    Lx, Jgx, Jx = Lt[x], Jg[x], [J[t][x] for t in twg]
                    for y in Ls:
                        Jgxy, Ly, Jgy = Jg[Lx[y]], Lt[y], Jg[y]
                        for z in zs:
                            if (Jgxy[z] + Jx[z][y] - Jgx[Ly[z]] - Jgy[z]) % M:
                                return (g, x, y, z)
            return None

        gated = rep.all_passed("grading_is_homomorphism", "matched_pair_valid")
        return certified_sweep(sweep, Lt, eL if gated else None)

    def axiom2_units() -> Optional[tuple]:
        for g in Gs:
            Jg, twg, ph = J[g], twist[g], phi[g]
            for y in Ls:
                if (Jg[eL][y] + phi[twg[y]]) % M:
                    return ("left", g, y)
                if (Jg[y][eL] + ph) % M:
                    return ("right", g, y)
        return None

    def chi_cocycle() -> Optional[tuple]:
        # X[gh][k][x] + X[g][h][^k x] = X[g][hk][x] + X[h][k][x], certified
        # on k by axiom2_j_cocycle's proof with K = G, c(g, h) =
        # (x -> X[g][h][x]) and (F.k)(x) = F(^k x), a right action once the
        # action composes
        def sweep(ks: Sequence[int]) -> Optional[tuple]:
            for g in Gs:
                Xg, Gg = X[g], Gt[g]
                for h in Gs:
                    Xgh, Xgh_, Xh, Gh = Xg[h], X[Gg[h]], X[h], Gt[h]
                    for k in ks:
                        A, B, C, actk = Xgh_[k], Xg[Gh[k]], Xh[k], act[k]
                        for x in Ls:
                            if (A[x] + Xgh[actk[x]] - B[x] - C[x]) % M:
                                return (g, h, k, x)
            return None

        return certified_sweep(sweep, Gt, eG if rep.all_passed("action_composition") else None)

    def chi_units() -> Optional[tuple]:
        for g in Gs:
            Xge, Xeg, actg = X[g][eG], X[eG][g], act[g]
            for x in Ls:
                if (Xge[x] + iota[x]) % M:
                    return ("right", g, x)
                if (Xeg[x] + iota[actg[x]]) % M:
                    return ("left", g, x)
        return None

    def axiom3_j() -> Optional[tuple]:
        # X[g][h][xy] + J[h][x][y] + J[g][^{t} x][^h y]
        #   = J[gh][x][y] + X[(h |>1 del(y)) |>2 g][t][x] + X[g][h][y],  t = del(y) |>2 h
        #
        # chi_{g,h}: T_g T_h => T_gh is monoidal at (x, y).  Certified on y
        # (certified_sweep): with p = (g, h), p.y = ((h |>1 del(y)) |>2 g, t)
        # and D_p(x, y) the left side minus the right side,
        #   D_p(xy, z) + D_{p.z}(x, y) = D_p(x, yz) + D_p(y, z),
        # so the y at which D vanishes for every (p, x) are closed under
        # products.  In that sum the chi terms cancel in pairs, as
        # (p.z).y = p.(yz) by matched_pair_valid (|>2 is a left action, and
        # the matching relation at h |>1 del(y) del(z)) and
        # grading_is_homomorphism; the J[gh] terms form the cocycle law at gh,
        # as p.z multiplies to del(z) |>2 gh by the other matching relation;
        # the J[h] and J[g] terms form it at h on (x, y, z) and at g on
        # (^{h.yz} x, ^{h.z} y, ^h z), h.y = del(y) |>2 h, once
        # axiom2_object_compat splits ^{h.z}(xy) and ^h(yz) and
        # axiom1_grading_compat gives del(^h z) = h |>1 del(z); all three
        # hold by axiom2_j_cocycle.
        #
        # Two laws of the unit maps are this one at units, so they are not
        # checks.  The proofs use grading_is_homomorphism (del(e_L) is the
        # unit), matched_pair_valid (either action fixes the other group's
        # unit and the unit acts trivially), action_identity and
        # action_fixes_unit.
        # - X[g][h][e_L] + phi[h] + phi[g] = phi[gh]: at (g, h, e_L, e_L),
        #   t = h and every label is e_L, so this reads
        #   J[h][e_L][e_L] + J[g][e_L][e_L] = J[gh][e_L][e_L] + X[g][h][e_L],
        #   and axiom2_units ("right") gives J[k][e_L][e_L] = -phi[k].
        # - iota[xy] = J[e][x][y] + iota[x] + iota[y]: at (e, e, x, y),
        #   t = e and both actions are the identity, so this reads
        #   X[e][e][xy] + J[e][x][y] = X[e][e][x] + X[e][e][y], and
        #   chi_units ("right") gives X[e][e][z] = -iota[z].
        # With chi_units ("right", e, e_L) the first at (e, e) gives the unit
        # law iota[e_L] = phi[e].
        def sweep(ys: Sequence[int]) -> Optional[tuple]:
            for g in Gs:
                Jg, Xg, Gg, a2g = J[g], X[g], Gt[g], [row[g] for row in a2]
                for h in Gs:
                    Xgh, Jh, Jgh, acth, twh, a1h = Xg[h], J[h], J[Gg[h]], act[h], twist[h], a1[h]
                    Xu = [X[a2g[a1h[deg[y]]]][twh[y]] for y in ys]
                    for x in Ls:
                        Lx, Jhx, Jghx, ax = Lt[x], Jh[x], Jgh[x], act_on[x]
                        for y, Xuy in zip(ys, Xu):
                            if (Xgh[Lx[y]] + Jhx[y] + Jg[ax[twh[y]]][acth[y]]
                                    - Jghx[y] - Xuy[x] - Xgh[y]) % M:
                                return (g, h, x, y)
            return None

        gated = rep.all_passed("matched_pair_valid", "grading_is_homomorphism",
                               "axiom1_grading_compat", "axiom2_object_compat",
                               "axiom2_j_cocycle")
        return certified_sweep(sweep, Lt, eL if gated else None)

    def scalar(fn):
        # a check that reads only J, chi, phi and iota passes unread on zero data
        return (lambda: None) if cat.zero else fn

    return run_checks(rep, [
        ("matched_pair_valid", matched_pair_valid),
        # the law at (e, e) reads del(e) = del(e)^2, so del(e) is the unit
        ("grading_is_homomorphism", lambda: is_hom_image(L, Gamma, deg)),
        ("action_identity", action_identity),
        ("action_composition", lambda: action_law_witness(Gt, act, eG)),
        ("action_fixes_unit", lambda: unit_witness(act, eL)),
        ("axiom1_grading_compat", axiom1_grading),
        ("axiom2_object_compat", twisted_multiplicativity),
        ("axiom2_j_cocycle", scalar(axiom2_cocycle)),
        ("axiom2_units", scalar(axiom2_units)),
        ("chi_cocycle", scalar(chi_cocycle)),
        ("chi_units", scalar(chi_units)),
        ("axiom3_j_chi", scalar(axiom3_j)),
    ])
