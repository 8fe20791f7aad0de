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
never with center.py's chains.

Each law is stated once here, as its residue at its witness tuple: zero
(or False) where it holds.  The group laws are `GroupLaws`, the
homomorphism law `homomorphism`; the laws of a matched pair, a braided
pair, a crossed category, the center's braiding and the swap scalars are
`PairLaws`, `BraidedPairLaws`, `CategoryLaws`, `BraidingLaws` and
`ReferenceSwapLaws`.  Every reference check of a law, and every group-law
witness raised, is `first` over one of those statements in witness order;
a check that gates on another report reads that report's first failure,
and `oracle_equivalence` finds its first difference with `first` too.  The
certificate, restatement, relabeling and branching tests read the same
statements rather than write a law out again.  The statements call only
each other, never the code they are compared with, so that
tests/test_reference_equivalence.py can require the table-driven core to
return the same (name, pass, witness) lists.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from crossedcat.braided import BraidedMatchedPair
from crossedcat.center import CenterSimple, enumerate_center, relative_center_oracle
from crossedcat.errors import GroupValidationError, ValidationError
from crossedcat.groups import FiniteGroup, direct_product
from crossedcat.matched import MatchedPair, matched_pair
from crossedcat.pointed import PointedCrossedCategory, pointed_category
from crossedcat.report import VerificationReport, run_checks
from derived_center import DerivedCenter


def first(law: Callable[..., object], domain: Iterable[tuple]) -> Callable[[], Optional[tuple]]:
    """The check that sweeps `domain` in order: the first tuple at which
    `law`'s residue is nonzero (or True), or None."""
    def check() -> Optional[tuple]:
        for w in domain:
            if law(*w):
                return w
        return None
    return check


class Laws:
    """The laws of a record, each an attribute named as its check (a
    method, or a function bound at construction) that returns its residue
    at a witness tuple: zero (or False) where it holds.  AXES lists the
    checks in report order, each with its witness axes: one tuple per part
    of its sweep, the parts swept in turn.  An axis is a group of the
    record, swept in element order; "<group>.identity", its identity alone;
    or a tuple of side tags, which vary fastest."""

    AXES: dict[str, list[tuple]] = {}

    def __init__(self, **groups: FiniteGroup):
        self.axis = {}
        for name, H in groups.items():
            self.axis[name], self.axis[f"{name}.identity"] = H.elements(), (H.identity,)

    def domain(self, name: str) -> Iterator[tuple]:
        """The witness tuples of check `name`, in sweep order."""
        return itertools.chain(*map(self._part, self.AXES[name]))

    def _part(self, axes: tuple) -> Iterator[tuple]:
        # sweep with the tag axes fastest, then put each tuple in witness order
        tags = [i for i, a in enumerate(axes) if isinstance(a, tuple)]
        if not tags:
            return itertools.product(*map(self.axis.__getitem__, axes))
        order = [i for i in range(len(axes)) if i not in tags] + tags
        tuples = itertools.product(*[self.axis.get(axes[i], axes[i]) for i in order])
        return map(itemgetter(*map(order.index, range(len(axes)))), tuples)

    def checks(self) -> list[tuple[str, Callable[[], Optional[tuple]]]]:
        """(name, `first` over its domain) per check, in report order."""
        return [(name, first(getattr(self, name), self.domain(name))) for name in self.AXES]


# -- group laws

class GroupLaws:
    """The group laws of the Cayley table t with identity e, each its
    residue at its witness tuple: False where it holds."""

    def __init__(self, t: Sequence[Sequence[int]], e: Optional[int]):
        self.t, self.e = t, e

    def identity(self, e: int, a: int) -> bool:
        return self.t[e][a] != a or self.t[a][e] != a

    def associativity(self, a: int, b: int, c: int) -> bool:
        t = self.t
        return t[t[a][b]][c] != t[a][t[b][c]]

    def inverse_of(self, a: int) -> Optional[tuple]:
        t, e = self.t, self.e
        return first(lambda b: t[a][b] == e and t[b][a] == e, zip(range(len(t))))()

    def inverse(self, a: int) -> bool:
        return self.inverse_of(a) is None


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
    Ts, product = range(n), itertools.product
    if identity is None:
        # the first e at which the identity law holds everywhere
        unit = GroupLaws(t, None).identity
        found = first(lambda e: first(unit, product([e], Ts))() is None, zip(Ts))()
        if found is None:
            raise GroupValidationError("element -1 is not an identity (fails at 0)", (-1, 0))
        identity = found[0]
    elif not 0 <= identity < n:
        raise ValidationError(f"identity {identity} out of range 0..{n - 1}")
    laws = GroupLaws(t, identity)
    for law, domain, message in [
            (laws.identity, product([identity], Ts), "element {} is not an identity (fails at {})"),
            (laws.associativity, product(Ts, Ts, Ts), "associativity fails at (a,b,c)=({},{},{})"),
            (laws.inverse, zip(Ts), "element {} has no two-sided inverse")]:
        witness = first(law, domain)()
        if witness is not None:
            raise GroupValidationError(message.format(*witness), witness)
    return FiniteGroup(n, t, identity, tuple(laws.inverse_of(a)[0] for a in Ts), name)


def homomorphism(source: FiniteGroup, target: FiniteGroup,
                 image: Sequence[int]) -> Callable[[int, int], bool]:
    """The homomorphism law of the map `image` from source to target: its
    residue at (a, b), False where it holds."""
    St, Tt = source.table, target.table
    return lambda a, b: image[St[a][b]] != Tt[image[a]][image[b]]


def reference_is_hom_image(source: FiniteGroup, target: FiniteGroup,
                           image: Sequence[int]) -> Optional[tuple]:
    """Witness (a, b) where the hom law fails, or None."""
    domain = itertools.product(source.elements(), repeat=2)
    return first(homomorphism(source, target, image), domain)()


# -- matched and braided pairs

class PairLaws(Laws):
    """The six matched-pair laws of `mp`.  Each law of one action mirrors
    the other's, so each is stated once, for K acting on X by `act`, with X
    acting back on K by `back`, and bound once per side."""

    AXES = {
        "act1_is_left_action": [("G.identity", "Gamma"), ("G", "G", "Gamma")],
        "act2_is_left_action": [("Gamma.identity", "G"), ("Gamma", "Gamma", "G")],
        "act1_fixes_unit": [("G",)],
        "act2_fixes_unit": [("Gamma",)],
        "matching_relation_1": [("G", "Gamma", "Gamma")],
        "matching_relation_2": [("Gamma", "G", "G")],
    }

    def __init__(self, mp: MatchedPair):
        super().__init__(G=mp.G, Gamma=mp.Gamma)
        G, M = mp.G, mp.Gamma
        self.act1_is_left_action, self.act1_fixes_unit, self.matching_relation_1 = self.one_side(
            G.table, M.table, M.identity, mp.act1, mp.act2)
        self.act2_is_left_action, self.act2_fixes_unit, self.matching_relation_2 = self.one_side(
            M.table, G.table, G.identity, mp.act2, mp.act1)

    @staticmethod
    def one_side(Kt, Xt, eX, act, back) -> tuple[Callable[..., bool], ...]:
        def left_action(k: int, l: int, x: Optional[int] = None) -> bool:
            # k |> (l |> x) = kl |> x; at (e, x), two arguments, e fixes x
            if x is None:
                return act[k][l] != l
            return act[k][act[l][x]] != act[Kt[k][l]][x]

        def fixes_unit(k: int) -> bool:
            return act[k][eX] != eX

        def matching_relation(k: int, x: int, y: int) -> bool:
            # k |> (x y) = ((y |>back k) |> x)(k |> y)
            return act[k][Xt[x][y]] != Xt[act[back[y][k]][x]][act[k][y]]

        return left_action, fixes_unit, matching_relation


def reference_matched_pair(mp: MatchedPair) -> VerificationReport:
    """All matched-pair axioms, exhaustively; first lexicographic witness per
    axiom (PairLaws).  Each record is swept once: its checks are kept on it
    under the reference's own attribute, as verify_matched_pair keeps its
    own, and each call returns a fresh report."""
    checks = getattr(mp, "_reference_verdict", None)
    if checks is None:
        rep = run_checks(VerificationReport(subject="matched-pair"), PairLaws(mp).checks())
        checks = tuple(rep.checks)
        object.__setattr__(mp, "_reference_verdict", checks)
    return VerificationReport(subject="matched-pair", checks=list(checks))


def reference_zappa_szep(mp: MatchedPair) -> tuple[FiniteGroup, tuple[int, ...], tuple[int, ...]]:
    """The twisted product H on G x Gamma with the image tuples of its two
    subgroup embeddings, G -> H and Gamma -> H.

    (g, s)(g', s') = (g * (s |>2 g'^-1)^-1, (g'^-1 |>1 s) * s').
    """
    rep = reference_matched_pair(mp)
    if not rep.passed:
        raise ValidationError(f"matched-pair verification failed: {rep.first_failure()}")
    G, M = mp.G, mp.Gamma
    Gt, Ginv, Mt, a1, a2 = G.table, G.inverses, M.table, mp.act1, mp.act2
    n, m = G.order * M.order, M.order
    table = [[0] * n for _ in range(n)]
    for g, s, g2, s2 in itertools.product(G.elements(), M.elements(), G.elements(), M.elements()):
        gi = Ginv[g2]
        table[g * m + s][g2 * m + s2] = Gt[g][Ginv[a2[s][gi]]] * m + Mt[a1[gi][s]][s2]
    H = reference_validate_group(table, G.identity * M.order + M.identity, f"{G.name}><{M.name}")
    embed_g = tuple(g * M.order + M.identity for g in G.elements())
    embed_m = tuple(G.identity * M.order + s for s in M.elements())
    assert reference_is_hom_image(G, H, embed_g) is None
    assert reference_is_hom_image(M, H, embed_m) is None
    return H, embed_g, embed_m


class BraidedPairLaws(Laws):
    """The laws of the braided pair `bmp` on its matched pair: phi and psi
    are homomorphisms Gamma -> G (`homomorphism`), and the five braiding
    axioms."""

    AXES = {
        "phi_is_homomorphism": [("Gamma", "Gamma")],
        "psi_is_homomorphism": [("Gamma", "Gamma")],
        "braiding_axiom_1": [("Gamma", "Gamma")],
        "braiding_axiom_2": [("Gamma", "G")],
        "braiding_axiom_3": [("Gamma", "G")],
        "braiding_axiom_4": [("Gamma", "Gamma")],
        "braiding_axiom_5": [("Gamma", "Gamma")],
    }

    def __init__(self, bmp: BraidedMatchedPair):
        mp, phi, psi = bmp.mp, bmp.phi, bmp.psi
        super().__init__(G=mp.G, Gamma=mp.Gamma)
        Gt, Mt, a1, a2 = mp.G.table, mp.Gamma.table, mp.act1, mp.act2
        self.phi_is_homomorphism = homomorphism(mp.Gamma, mp.G, phi)
        self.psi_is_homomorphism = homomorphism(mp.Gamma, mp.G, psi)

        def braiding_axiom_1(s: int, t: int) -> bool:
            # (phi(s) |>1 t) s = (psi(t) |>1 s) t
            return Mt[a1[phi[s]][t]][s] != Mt[a1[psi[t]][s]][t]

        def compatible(f: Sequence[int]) -> Callable[[int, int], bool]:
            # axioms 2 and 3, f = phi and psi: (s |>2 g) f(s) = f(g |>1 s) g
            return lambda s, g: Gt[a2[s][g]][f[s]] != Gt[f[a1[g][s]]][g]

        def crossed(f: Sequence[int], h: Sequence[int]) -> Callable[[int, int], bool]:
            # axioms 4 and 5, (f, h) = (phi, psi) and (psi, phi): s |>2 f(t) = f(h(s) |>1 t)
            return lambda s, t: a2[s][f[t]] != f[a1[h[s]][t]]

        self.braiding_axiom_1 = braiding_axiom_1
        self.braiding_axiom_2, self.braiding_axiom_3 = compatible(phi), compatible(psi)
        self.braiding_axiom_4, self.braiding_axiom_5 = crossed(phi, psi), crossed(psi, phi)


def reference_braiding(bmp: BraidedMatchedPair) -> VerificationReport:
    """Hom checks plus the five braiding axioms, exhaustive with witnesses
    (BraidedPairLaws)."""
    pre = reference_matched_pair(bmp.mp)
    rep = VerificationReport(subject="braided-matched-pair")
    rep.add("underlying_matched_pair", None if pre.passed else tuple(pre.first_failure().witness))
    return run_checks(rep, BraidedPairLaws(bmp).checks())


# laws of the reference checklist that verify_braiding proves at
# braiding_axiom_2 and braiding_axiom_3 instead of reporting them
IMPLIED_BRAIDING_LAWS = ("braiding_axiom_4", "braiding_axiom_5")


def reported_braiding(bmp: BraidedMatchedPair) -> VerificationReport:
    """reference_braiding without IMPLIED_BRAIDING_LAWS: verify_braiding's report."""
    return _without(reference_braiding(bmp), IMPLIED_BRAIDING_LAWS)


def _without(rep: VerificationReport, implied: tuple[str, ...]) -> VerificationReport:
    """rep without the checks `implied`.  Every check before them is a
    premise of their proofs, so neither may be the first to fail."""
    failed = rep.first_failure()
    assert failed is None or failed.name not in implied, (rep.subject, failed)
    rep.checks = [c for c in rep.checks if c.name not in implied]
    return rep


def reference_center_pair(mp: MatchedPair) -> MatchedPair:
    """The induced matched pair (G><Gamma, G x Gamma); raises ValidationError unless mp is one."""
    G, M, m = mp.G, mp.Gamma, mp.Gamma.order
    GP, _, _ = reference_zappa_szep(mp)           # elements g*|Gamma| + s
    GXM = direct_product(G, M)          # elements h*|Gamma| + t
    Gt, Ginv, Mt, Minv = G.table, G.inverses, M.table, M.inverses
    a1, a2 = [[0] * GXM.order for _ in GP.elements()], [[0] * GP.order for _ in GXM.elements()]
    for g, s, h, t in itertools.product(G.elements(), M.elements(), G.elements(), M.elements()):
        # (g, s) acts on the pair (h, t) as s, then g, each one-sided
        h1, t1 = mp.act2[s][h], Mt[Mt[mp.act1[h][s]][t]][Minv[s]]
        a1[g * m + s][h * m + t] = Gt[Gt[mp.act2[t1][g]][h1]][Ginv[g]] * m + mp.act1[g][t1]
        a2[h * m + t][g * m + s] = mp.act2[t1][g] * m + mp.act1[h][s]
    out = matched_pair(GP, GXM, a1, a2)
    rep = reference_matched_pair(out)
    if not rep.passed:
        raise ValidationError(f"matched-pair verification failed: {rep.first_failure()}")
    return out


def reference_center_braiding(mp: MatchedPair) -> BraidedMatchedPair:
    """The induced pair with phi(h,t) = (e,t) and psi(h,t) = (h,e)."""
    cp = reference_center_pair(mp)
    G, M = mp.G, mp.Gamma
    GXM, GP = cp.Gamma, cp.G
    phi = tuple(G.identity * M.order + t for h in G.elements() for t in M.elements())
    psi = tuple(h * M.order + M.identity for h in G.elements() for t in M.elements())
    assert reference_is_hom_image(GXM, GP, phi) is None
    assert reference_is_hom_image(GXM, GP, psi) is None
    return BraidedMatchedPair(cp, phi, psi)


class CategoryLaws(Laws):
    """The crossed-category laws of `cat`.  `report` sweeps them in witness
    order; grading surjectivity is deliberately not a law, it only gates
    center construction."""

    AXES = {
        "grading_is_homomorphism": [("Lambda", "Lambda")],
        "action_identity": [("Lambda",)],
        "action_composition": [("G", "G", "Lambda")],
        "action_fixes_unit": [("G",)],
        "axiom1_grading_compat": [("G", "Lambda")],
        "axiom2_object_compat": [("G", "Lambda", "Lambda")],
        "axiom2_j_cocycle": [("G", "Lambda", "Lambda", "Lambda")],
        "axiom2_units": [(("left", "right"), "G", "Lambda")],
        "chi_cocycle": [("G", "G", "G", "Lambda")],
        "chi_units": [(("right", "left"), "G", "Lambda")],
        "axiom3_j_chi": [("G", "G", "Lambda", "Lambda")],
        "axiom3_phi": [("G", "G")],
        "axiom3_iota_tensor": [("Lambda", "Lambda")],
    }

    def __init__(self, cat: PointedCrossedCategory):
        super().__init__(G=cat.G, Gamma=cat.Gamma, Lambda=cat.Lambda)
        self.cat, self.M = cat, cat.M
        self.Lt, self.Gt, self.a1, self.a2 = cat.Lambda.table, cat.G.table, cat.mp.act1, cat.mp.act2
        self.J, self.X, self.act, self.deg = cat.jtable, cat.chitable, cat.action, cat.grading
        self.phi, self.iota = cat.phitable, cat.iotatable

    def grading_is_homomorphism(self, x: int, y: int) -> bool:
        # del(e) = del(e) del(e) forces del(e) = e, so the unit needs no tuple
        deg = self.deg
        return deg[self.Lt[x][y]] != self.cat.Gamma.table[deg[x]][deg[y]]

    def action_identity(self, x: int) -> bool:
        return self.act[self.cat.G.identity][x] != x

    def action_composition(self, g: int, h: int, x: int) -> bool:
        act = self.act
        return act[g][act[h][x]] != act[self.Gt[g][h]][x]

    def action_fixes_unit(self, g: int) -> bool:
        eL = self.cat.Lambda.identity
        return self.act[g][eL] != eL

    def axiom1_grading_compat(self, g: int, x: int) -> bool:
        return self.deg[self.act[g][x]] != self.a1[g][self.deg[x]]

    def axiom2_object_compat(self, g: int, x: int, y: int) -> bool:
        # ^g(x y) = ^{del(y) |>2 g} x . ^g y as labels; J is invertible only
        # between equal simples, so this is axiom 2 at the object level.
        act, Lt = self.act, self.Lt
        return act[g][Lt[x][y]] != Lt[act[self.a2[self.deg[y]][g]][x]][act[g][y]]

    def axiom2_j_cocycle(self, g: int, x: int, y: int, z: int) -> int:
        J, Lt = self.J, self.Lt
        lhs = J[g][Lt[x][y]][z] + J[self.a2[self.deg[z]][g]][x][y]
        rhs = J[g][x][Lt[y][z]] + J[g][y][z]
        return (lhs - rhs) % self.M

    def axiom2_units(self, side: str, g: int, y: int) -> int:
        eL = self.cat.Lambda.identity
        if side == "left":
            return (self.J[g][eL][y] + self.phi[self.a2[self.deg[y]][g]]) % self.M
        return (self.J[g][y][eL] + self.phi[g]) % self.M

    def chi_cocycle(self, g: int, h: int, k: int, x: int) -> int:
        X, Gt = self.X, self.Gt
        lhs = X[Gt[g][h]][k][x] + X[g][h][self.act[k][x]]
        rhs = X[g][Gt[h][k]][x] + X[h][k][x]
        return (lhs - rhs) % self.M

    def chi_units(self, side: str, g: int, x: int) -> int:
        eG = self.cat.G.identity
        if side == "right":
            return (self.X[g][eG][x] + self.iota[x]) % self.M
        return (self.X[eG][g][x] + self.iota[self.act[g][x]]) % self.M

    def axiom3_j_chi(self, g: int, h: int, x: int, y: int) -> int:
        J, X, act, a2, dy = self.J, self.X, self.act, self.a2, self.deg[y]
        lhs = X[g][h][self.Lt[x][y]] + J[h][x][y] + J[g][act[a2[dy][h]][x]][act[h][y]]
        rhs = J[self.Gt[g][h]][x][y] + X[a2[self.a1[h][dy]][g]][a2[dy][h]][x] + X[g][h][y]
        return (lhs - rhs) % self.M

    def axiom3_phi(self, g: int, h: int) -> int:
        phi, eL = self.phi, self.cat.Lambda.identity
        return (self.X[g][h][eL] + phi[h] + phi[g] - phi[self.Gt[g][h]]) % self.M

    def axiom3_iota_tensor(self, x: int, y: int) -> int:
        iota, eG = self.iota, self.cat.G.identity
        return (iota[self.Lt[x][y]] - self.J[eG][x][y] - iota[x] - iota[y]) % self.M

    def report(self) -> VerificationReport:
        def matched_pair_valid() -> Optional[tuple]:
            r = reference_matched_pair(self.cat.mp)
            return None if r.passed else (r.first_failure().name,)

        return run_checks(VerificationReport(subject=f"category {self.cat.name}"),
                          [("matched_pair_valid", matched_pair_valid), *self.checks()])


def reference_crossed_category(cat: PointedCrossedCategory) -> VerificationReport:
    """The exhaustive checklist of the crossed-category axioms, each law's
    witness the first in its sweep's order (CategoryLaws)."""
    return CategoryLaws(cat).report()


# laws of the reference checklist that verify_crossed_category proves at
# axiom3_j_chi instead of reporting them
IMPLIED_CATEGORY_LAWS = ("axiom3_phi", "axiom3_iota_tensor")


def reported_crossed_category(cat: PointedCrossedCategory) -> VerificationReport:
    """reference_crossed_category without IMPLIED_CATEGORY_LAWS:
    verify_crossed_category's report."""
    return _without(reference_crossed_category(cat), IMPLIED_CATEGORY_LAWS)


# -- the center

class BraidingLaws:
    """The three crossed-braiding axioms of a braided category over the
    braided pair `bmp`, each its residue at its witness tuple: zero where
    it holds.  The category's maps are callables on its simples, so that
    one statement reads CenterStructure's tables and ReferenceCenter's
    derived maps alike: B(a, b) the braiding's exponent, T(a, b) the
    tensor, act(A, a) the action, grade(a) the degree, J(A, a, b) and
    X(A, B, a) the scalars; witnesses index `simples`."""

    def __init__(self, simples: Sequence, B: Callable, T: Callable, act: Callable,
                 grade: Callable, J: Callable, X: Callable, bmp: BraidedMatchedPair, M: int):
        self.simples, self.bmp, self.M = simples, bmp, M
        self.B, self.T, self.act, self.grade, self.J, self.X = B, T, act, grade, J, X

    @classmethod
    def on_tables(cls, n: int, braid, tensor, action, grade, J, X, bmp: BraidedMatchedPair,
                  M: int) -> BraidingLaws:
        """The laws on n simples, read from tables indexed by position."""
        return cls(range(n), lambda a, b: braid[a][b], lambda a, b: tensor[a][b],
                   lambda A, a: action[A][a], grade.__getitem__, lambda A, a, b: J[A][a][b],
                   lambda A, B, a: X[A][B][a], bmp, M)

    def braiding_axiom_1(self, A: int, i: int, k: int) -> int:
        B, act, J, X = self.B, self.act, self.J, self.X
        phi, psi, a1, a2 = self.bmp.phi, self.bmp.psi, self.bmp.mp.act1, self.bmp.mp.act2
        z1, z2 = self.simples[i], self.simples[k]
        S1, S2 = self.grade(z1), self.grade(z2)
        lhs = (B(z1, z2) + J(A, act(phi[S2], z1), z2)
               - X(a2[S2][A], phi[S2], z1) + X(phi[a1[A][S2]], A, z1))
        rhs = (J(A, act(psi[S1], z2), z1) - X(a2[S1][A], psi[S1], z2)
               + X(psi[a1[A][S1]], A, z2) + B(act(A, z1), act(A, z2)))
        return (lhs - rhs) % self.M

    def braiding_axiom_2(self, i: int, k: int, l: int) -> int:
        B, phi, psi = self.B, self.bmp.phi, self.bmp.psi
        z1, z2, z3 = self.simples[i], self.simples[k], self.simples[l]
        lhs = B(self.T(z1, z2), z3) + self.J(phi[self.grade(z3)], z1, z2)
        rhs = (self.X(psi[self.grade(z1)], psi[self.grade(z2)], z3)
               + B(z1, self.act(psi[self.grade(z2)], z3)) + B(z2, z3))
        return (lhs - rhs) % self.M

    def braiding_axiom_3(self, i: int, k: int, l: int) -> int:
        B, phi, psi = self.B, self.bmp.phi, self.bmp.psi
        z1, z2, z3 = self.simples[i], self.simples[k], self.simples[l]
        lhs = B(z1, self.T(z2, z3)) + self.X(phi[self.grade(z2)], phi[self.grade(z3)], z1)
        rhs = (self.J(psi[self.grade(z1)], z2, z3) + B(z1, z3)
               + B(self.act(phi[self.grade(z3)], z1), z2))
        return (lhs - rhs) % self.M

    def sweeps(self) -> list[tuple[str, Callable[..., int], Iterable[tuple]]]:
        """(name, law, its witness tuples in sweep order) per axiom."""
        Zs, Ks, product = range(len(self.simples)), self.bmp.mp.G.elements(), itertools.product
        return [("braiding_axiom_1", self.braiding_axiom_1, product(Ks, Zs, Zs)),
                ("braiding_axiom_2", self.braiding_axiom_2, product(Zs, Zs, Zs)),
                ("braiding_axiom_3", self.braiding_axiom_3, product(Zs, Zs, Zs))]


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
            raise ValidationError(f"simple {(z.g, z.label, z.chi)} not in the enumerated center")
        return self.index[z]

    # -- combined crossed structure on (G><Gamma, G x Gamma)
    def grade(self, z: CenterSimple) -> int:
        return z.g * self.cat.Gamma.order + self.cat.grading[z.label]

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

    def braiding_laws(self, bmp: Optional[BraidedMatchedPair] = None) -> BraidingLaws:
        """The braiding axioms on the derived maps, over `bmp` (default: the
        induced pair)."""
        return BraidingLaws(self.simples, lambda a, b: self.braiding(a, b)[1], self.tensor,
                            self.combined_act, self.grade, self.j_combined, self.x_combined,
                            self.induced if bmp is None else bmp, self.cat.M)

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
        return pointed_category(lam_z, self.induced.mp, [self.grade(z) for z in Zs],
                                action, cat.M, jtable=jt, chitable=xt, name=f"Z({cat.name})")


def reference_center_braided(cat: PointedCrossedCategory,
                             simples: Optional[Sequence[CenterSimple]] = None,
                             section: Optional[Sequence[int]] = None) -> VerificationReport:
    """Full verification of the braided structure on the center, exhaustive
    over the simples (`simples` overrides the enumeration): oracle
    equivalence, the induced pair's braiding, the combined crossed-category
    axioms (closure, group law and grading of the simples among them) and
    the three crossed-braiding axioms (BraidingLaws) on ReferenceCenter's
    derived maps."""
    rep = VerificationReport(subject=f"center of {cat.name}")
    Z = ReferenceCenter(cat, section=section, simples=simples)

    def oracle_equivalence() -> Optional[tuple]:
        oracle = relative_center_oracle(cat)
        mine = list(Z.simples)
        if [z.sort_key() for z in mine] == [z.sort_key() for z in oracle]:
            return None
        extra = first(lambda z: z not in oracle, zip(mine))()
        missing = first(lambda z: z not in mine, zip(oracle))()
        if extra or missing:
            return tuple(tuple(z.sort_key() for z in w or ()) for w in (extra, missing))
        # reordered or repeated: the first index where the lists differ
        mine_keys, oracle_keys = ([z.sort_key() for z in zs] + [None] * len(mine + oracle)
                                  for zs in (mine, oracle))
        i, = first(lambda i: mine_keys[i] != oracle_keys[i], zip(itertools.count()))()
        return (i, mine_keys[i], oracle_keys[i])

    def induced_pair_braided() -> Optional[tuple]:
        r = reference_braiding(Z.induced)
        return None if r.passed else (r.first_failure().name,)

    def center_category_axioms() -> Optional[tuple]:
        try:
            r = reference_crossed_category(Z.as_category())
        except (ValidationError, GroupValidationError) as exc:
            return ("structure_tables_unbuildable", str(exc))
        if r.passed:
            return None
        c = r.first_failure()
        return (c.name,) + tuple(c.witness)

    return run_checks(rep, [
        ("oracle_equivalence", oracle_equivalence),
        ("induced_pair_braided", induced_pair_braided),
        ("center_category_axioms", center_category_axioms),
        *[(name, first(law, domain)) for name, law, domain in Z.braiding_laws().sweeps()],
    ])


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
        return run_checks(
            VerificationReport(subject=f"swap scalars of the center of {cat.name}"),
            [(name, first(law, domain)) for name, law, domain in [
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

