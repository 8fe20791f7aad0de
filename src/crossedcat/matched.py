"""Matched pairs of groups, the Zappa-Szep product, and exact factorizations.

Conventions.  Both structure maps are stored as left actions on sets:
act1[g][s] is g acting on s in Gamma, act2[s][g] is s acting on g in G.
The twisted product realizes the rearrangement rule

    s * g = (s |>2 g^-1)^-1 * (g^-1 |>1 s)

so pairs (g, s), encoded g*|Gamma| + s, mean "G part times Gamma part".
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import NoUniqueFactorization, NotExact, NotMatched
from .groups import (FiniteGroup, GroupHom, Table, certified_sweep, generators,
                     subgroup_as_group)
from .records import Record
from .report import VerificationReport, run_checks


class MatchedPair(Record):
    G: FiniteGroup
    Gamma: FiniteGroup
    act1: Table  # [g][s]: G on the set Gamma, left
    act2: Table  # [s][g]: Gamma on the set G, left

    # not a field (it has no annotation): the checks of verify_matched_pair,
    # stored on the record by its first call
    _verdict = None

    def a1(self, g: int, s: int) -> int:
        return self.act1[g][s]

    def a2(self, s: int, g: int) -> int:
        return self.act2[s][g]


def matched_pair(G: FiniteGroup, Gamma: FiniteGroup,
                 act1: Sequence[Sequence[int]], act2: Sequence[Sequence[int]]) -> MatchedPair:
    return MatchedPair(G, Gamma, tuple(tuple(int(x) for x in row) for row in act1),
                       tuple(tuple(int(x) for x in row) for row in act2))


def direct_pair(G: FiniteGroup, Gamma: FiniteGroup) -> MatchedPair:
    """Both actions trivial; Zappa-Szep is then the direct product."""
    return MatchedPair(G, Gamma, (tuple(Gamma.elements()),) * G.order,
                       (tuple(G.elements()),) * Gamma.order)


def turaev_pair(G: FiniteGroup) -> MatchedPair:
    """(G, G) with |>1 the adjoint action and |>2 trivial."""
    a1 = tuple(tuple(G.conj(g, s) for s in G.elements()) for g in G.elements())
    return MatchedPair(G, G, a1, (tuple(G.elements()),) * G.order)


def verify_matched_pair(mp: MatchedPair) -> VerificationReport:
    """All matched-pair axioms, exhaustively; first lexicographic witness per axiom.

    The matching relations are

        g |>1 (s t) = ((t |>2 g) |>1 s)(g |>1 t)
        s |>2 (g h) = ((h |>1 s) |>2 g)(s |>2 h)

    and each axiom mirrors the other side's, so it is one sweep over the
    Cayley tables and action rows, run once per side.  Loops nest in the
    order of the witness tuple.  The left-action laws and the matching
    relations hold everywhere once they hold at generators of one variable,
    so each is certified there first (groups.certified_sweep), and only a
    failing certificate runs the witness-order sweep.

    The sweep runs once per record.  A record never changes, so every
    reader of one pair (the category and braiding verifiers, zappa_szep,
    vec_gamma) shares one verdict, kept on the record and freed with it;
    each call still returns a fresh report, which its caller may annotate.
    """
    checks = mp._verdict
    if checks is None:
        G, M, a1, a2 = mp.G, mp.Gamma, mp.act1, mp.act2
        left1, left2 = _left_action_witness(G, M, a1), _left_action_witness(M, G, a2)
        checks = tuple(run_checks(VerificationReport(subject="matched-pair"), [
            ("act1_is_left_action", lambda: left1),
            ("act2_is_left_action", lambda: left2),
            ("act1_fixes_unit", lambda: _unit_witness(G, M, a1)),
            ("act2_fixes_unit", lambda: _unit_witness(M, G, a2)),
            ("matching_relation_1", lambda: _matching_witness(G, M, a1, a2, left2 is None)),
            ("matching_relation_2", lambda: _matching_witness(M, G, a2, a1, left1 is None)),
        ]).checks)
        object.__setattr__(mp, "_verdict", checks)
    return VerificationReport(subject="matched-pair", checks=list(checks))


def _left_action_witness(K: FiniteGroup, X: FiniteGroup, act: Table) -> Optional[tuple]:
    """First (e, x), then first (k, h, x), where act[k][x] (K on the set X) is no left action.

    The second sweep is certified on the actor k (certified_sweep).  Call k
    good when k(h x) = (k h)x for every h and x.  The identity is good once
    the identity row has passed, and if k and k' are good, so is k k':

        (k k')(h x) = k(k'(h x)) = k((k' h)x) = (k (k' h))x = ((k k') h)x,

    using k at (k', h x), k' at (h, x), k at (k' h, x) and associativity of
    K, which is a group: loaded groups are validated, and constructed ones
    are groups by construction.
    """
    e, Kt, Xs = K.identity, K.table, X.elements()
    acte = act[e]
    for x in Xs:
        if acte[x] != x:
            return (e, x)

    def sweep(ks: Sequence[int]) -> Optional[tuple]:
        for k in ks:
            actk, Kk = act[k], Kt[k]
            for h in K.elements():
                acth, actkh = act[h], act[Kk[h]]
                if tuple(map(actk.__getitem__, acth)) != actkh:
                    x = next((x for x in Xs if actk[acth[x]] != actkh[x]), None)
                    if x is not None:
                        return (k, h, x)
        return None

    return certified_sweep(sweep, generators(Kt, e), K.elements())


def _unit_witness(K: FiniteGroup, X: FiniteGroup, act: Table) -> Optional[tuple]:
    """First (k,) whose action moves the unit of X."""
    e = X.identity
    return next(((k,) for k in K.elements() if act[k][e] != e), None)


def _matching_witness(K: FiniteGroup, X: FiniteGroup, act: Table, back: Table,
                      back_is_action: bool) -> Optional[tuple]:
    """First (k, x, y) with k |> (x y) != ((y |>' k) |> x)(k |> y), where |> is
    act (K on X) and |>' is back (X on K).

    Certified on y (certified_sweep) when back_is_action, that is, when
    back passed its left-action check.  Call y good when the relation
    holds at every (k, x).  If y and y' are good, so is y y': for every
    (k, x), with k' = y' |>' k,

        k |> (x y y') = (k' |> (x y))(k |> y')
                      = ((y |>' k') |> x)(k' |> y)(k |> y')
                      = (((y y') |>' k) |> x)(k |> (y y')),

    using y' at (k, x y), y at (k', x), back's left-action law, and y' at
    (k, y).  The identity is swept with the generators, so that no unit law
    is needed.  Without a left-action back, the sweep runs in full.
    """
    Xt, Xs = X.table, X.elements()
    gens = [X.identity, *generators(Xt, X.identity)] if back_is_action else None
    cols = tuple(zip(*Xt))  # cols[c][x] = x c

    def sweep(ys: Sequence[int]) -> Optional[tuple]:
        for k in K.elements():
            # each y compares whole columns over x; the first witness at k is
            # the least (x, position of y in ys) among the failing ys
            actk, first = act[k], None
            for j, y in enumerate(ys):
                tw, right, col = act[back[y][k]], cols[actk[y]], cols[y]
                if tuple(map(actk.__getitem__, col)) != tuple(map(right.__getitem__, tw)):
                    x = next(x for x in Xs if actk[col[x]] != right[tw[x]])
                    first = min(first or (x, j), (x, j))
            if first is not None:
                return (k, first[0], ys[first[1]])
        return None

    return certified_sweep(sweep, gens, Xs)


# -- Zappa-Szep product ---------------------------------------------------------

def zappa_szep(mp: MatchedPair) -> tuple[FiniteGroup, GroupHom, GroupHom]:
    """The twisted product on G x Gamma with its two subgroup embeddings.

    (g, s)(g', s') = (g * (s |>2 g'^-1)^-1, (g'^-1 |>1 s) * s').

    Raises NotMatched unless mp is a matched pair.  The product of a matched
    pair is a group, with (g s)^-1 = s^-1 g^-1 and the two factors embedded
    as subgroups, so the result is built without a group-law sweep;
    load_group re-validates a saved product.
    """
    rep = verify_matched_pair(mp)
    if not rep.passed:
        raise NotMatched(rep)
    G, M = mp.G, mp.Gamma
    m, Gt, Mt, Ginv, Minv = M.order, G.table, M.table, G.inverses, M.inverses
    a1, a2 = mp.act1, mp.act2
    table = []
    for g in G.elements():
        Gg = Gt[g]
        for s in M.elements():
            row, a2s = [], a2[s]
            for g2 in G.elements():
                gi = Ginv[g2]
                first = Gg[Ginv[a2s[gi]]] * m
                row.extend(first + st for st in Mt[a1[gi][s]])
            table.append(tuple(row))
    inverses = tuple(table[G.identity * m + Minv[s]][Ginv[g] * m + M.identity]
                     for g in G.elements() for s in M.elements())
    H = FiniteGroup(G.order * m, tuple(table), G.identity * m + M.identity, inverses,
                    f"{G.name}><{M.name}")
    embed_g = GroupHom(G, H, tuple(g * m + M.identity for g in G.elements()))
    embed_m = GroupHom(M, H, tuple(G.identity * m + s for s in M.elements()))
    return H, embed_g, embed_m


def from_exact_factorization(H: FiniteGroup, g_set: Sequence[int],
                             gamma_set: Sequence[int]) -> MatchedPair:
    """Extract the matched pair of an exact factorization H = G * Gamma.

    For each (s, g), factor s*g^-1 = a*b with a in G, b in Gamma; then
    s |>2 g := a^-1 and g |>1 s := b.  Subgroups keep the order given in
    g_set / gamma_set when reindexed.  Raises NotExact unless the subsets
    are subgroups with H = G * Gamma exactly.  The actions of an exact
    factorization form a matched pair, so the result is returned without
    a verification sweep; verify_matched_pair reports on it.
    """
    g_set = list(g_set)
    gamma_set = list(gamma_set)
    gs, ms = set(g_set), set(gamma_set)
    for name, sub in (("G", gs), ("Gamma", ms)):
        if H.identity not in sub:
            raise NotExact(f"{name} does not contain the identity")
        for a in sub:
            if H.inv(a) not in sub:
                raise NotExact(f"{name} not closed under inverse at {a}")
            for b in sub:
                if H.mul(a, b) not in sub:
                    raise NotExact(f"{name} not closed under product at ({a},{b})")
    if gs & ms != {H.identity}:
        raise NotExact("subgroups intersect beyond the identity")
    if len(g_set) * len(gamma_set) != H.order:
        raise NotExact(f"|G|*|Gamma| = {len(g_set) * len(gamma_set)} != |H| = {H.order}")

    gpos = {x: i for i, x in enumerate(g_set)}
    mpos = {x: i for i, x in enumerate(gamma_set)}
    factor: dict[int, tuple[int, int]] = {}
    for a in g_set:
        for b in gamma_set:
            x = H.mul(a, b)
            if x in factor:
                raise NoUniqueFactorization(f"element {x} factors twice")
            factor[x] = (a, b)
    assert len(factor) == H.order

    a1 = [[0] * len(gamma_set) for _ in g_set]
    a2 = [[0] * len(g_set) for _ in gamma_set]
    for si, s in enumerate(gamma_set):
        for gi, g in enumerate(g_set):
            a, b = factor[H.mul(s, H.inv(g))]
            a2[si][gi] = gpos[H.inv(a)]
            a1[gi][si] = mpos[b]

    Gg = subgroup_as_group(H, g_set, name=f"{H.name}.G")
    Mg = subgroup_as_group(H, gamma_set, name=f"{H.name}.Gamma")
    return matched_pair(Gg, Mg, a1, a2)
