"""Matched pairs of groups, the Zappa-Szep product, and exact factorizations.

Conventions.  Both structure maps are stored as left actions on sets:
act1[g][s] is g acting on s in Gamma, act2[s][g] is s acting on g in G.
The twisted product realizes the rearrangement rule

    s * g = (s |>2 g^-1)^-1 * (g^-1 |>1 s)

so pairs (g, s), encoded g*|Gamma| + s, mean "G part times Gamma part".
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import ValidationError
from .groups import (FiniteGroup, Table, action_law_witness, frozen, in_range,
                     subgroup_as_group, twisted_hom_witness, unit_witness)
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


def matched_pair(G: FiniteGroup, Gamma: FiniteGroup,
                 act1: Sequence[Sequence[int]], act2: Sequence[Sequence[int]]) -> MatchedPair:
    """The pair; raises ValidationError unless act1 is |G| x |Gamma| and act2
    |Gamma| x |G|, integer entries in range.  The axioms are verify_matched_pair's."""
    a1, a2 = frozen(act1, 2, "act1"), frozen(act2, 2, "act2")
    if len(a1) != G.order or any(len(r) != Gamma.order for r in a1):
        raise ValidationError("act1 must be |G| x |Gamma|")
    if len(a2) != Gamma.order or any(len(r) != G.order for r in a2):
        raise ValidationError("act2 must be |Gamma| x |G|")
    if not all(in_range(r, Gamma.order) for r in a1):
        raise ValidationError("act1 entry out of range")
    if not all(in_range(r, G.order) for r in a2):
        raise ValidationError("act2 entry out of range")
    return MatchedPair(G, Gamma, a1, a2)


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

    and each axiom mirrors the other side's, so it is one shared sweep of
    groups.py, run once per side; the sweeps carry their closure proofs.
    The left-action laws are certified on the actor, and each matching
    relation on y when the other action passed its left-action check; only
    a failing certificate runs the witness-order sweep.

    The sweep runs once per record.  A record never changes, so every
    reader of one pair (the category and braiding verifiers, zappa_szep,
    vec_gamma) shares one verdict, kept on the record and freed with it;
    each call still returns a fresh report, which its caller may annotate.
    """
    checks = mp._verdict
    if checks is None:
        G, M, a1, a2 = mp.G, mp.Gamma, mp.act1, mp.act2
        left1, left2 = _left_action_witness(G, a1), _left_action_witness(M, a2)
        checks = tuple(run_checks(VerificationReport(subject="matched-pair"), [
            ("act1_is_left_action", lambda: left1),
            ("act2_is_left_action", lambda: left2),
            ("act1_fixes_unit", lambda: unit_witness(a1, M.identity)),
            ("act2_fixes_unit", lambda: unit_witness(a2, G.identity)),
            ("matching_relation_1", lambda: twisted_hom_witness(
                M.table, a1, a2, M.identity if left2 is None else None)),
            ("matching_relation_2", lambda: twisted_hom_witness(
                G.table, a2, a1, G.identity if left1 is None else None)),
        ]).checks)
        object.__setattr__(mp, "_verdict", checks)
    return VerificationReport(subject="matched-pair", checks=list(checks))


def _left_action_witness(K: FiniteGroup, act: Table) -> Optional[tuple]:
    """First (e, x) where the identity row of act (K on a set) moves x, then
    groups.action_law_witness, certified on the actor, as K is a group."""
    e = K.identity
    bad = next(((e, x) for x, y in enumerate(act[e]) if y != x), None)
    return bad or action_law_witness(K.table, act, e)


# -- Zappa-Szep product ---------------------------------------------------------

def zappa_szep(mp: MatchedPair) -> tuple[FiniteGroup, tuple[int, ...], tuple[int, ...]]:
    """The twisted product H on G x Gamma with the image tuples of its two
    subgroup embeddings, G -> H and Gamma -> H.

    (g, s)(g', s') = (g * (s |>2 g'^-1)^-1, (g'^-1 |>1 s) * s').

    Raises ValidationError, naming the first failing check and its witness,
    unless mp is a matched pair.  The product of a matched pair is a group,
    with (g s)^-1 = s^-1 g^-1 and the two factors embedded as subgroups, so
    the result is built without a group-law sweep; group_from_json
    re-validates the product that `zappa-szep` writes.
    """
    rep = verify_matched_pair(mp)
    if not rep.passed:
        raise ValidationError(f"matched-pair verification failed: {rep.first_failure()}")
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
    return (H, tuple(g * m + M.identity for g in G.elements()),
            tuple(G.identity * m + s for s in M.elements()))


def from_exact_factorization(H: FiniteGroup, g_set: Sequence[int],
                             gamma_set: Sequence[int]) -> MatchedPair:
    """Extract the matched pair of an exact factorization H = G * Gamma.

    For each (s, g), factor s*g^-1 = a*b with a in G, b in Gamma; then
    s |>2 g := a^-1 and g |>1 s := b.  Subgroups keep the order given in
    g_set / gamma_set when reindexed.  Raises ValidationError unless the
    subsets are subgroups, each listed once, with H = G * Gamma exactly.  The
    actions of an exact factorization form a matched pair, so the result
    is returned without a verification sweep; verify_matched_pair reports
    on it.
    """
    g_set = list(g_set)
    gamma_set = list(gamma_set)
    gs, ms, Ht, Hinv = set(g_set), set(gamma_set), H.table, H.inverses
    not_exact = "not an exact factorization: "
    for name, sub, listed in (("G", gs, g_set), ("Gamma", ms, gamma_set)):
        if len(sub) != len(listed):
            raise ValidationError(f"{not_exact}{name} lists an element twice")
        if H.identity not in sub:
            raise ValidationError(f"{not_exact}{name} does not contain the identity")
        for a in sub:
            if Hinv[a] not in sub:
                raise ValidationError(f"{not_exact}{name} not closed under inverse at {a}")
            for b in sub:
                if Ht[a][b] not in sub:
                    raise ValidationError(
                        f"{not_exact}{name} not closed under product at ({a},{b})")
    if gs & ms != {H.identity}:
        raise ValidationError(f"{not_exact}subgroups intersect beyond the identity")
    if len(g_set) * len(gamma_set) != H.order:
        raise ValidationError(f"{not_exact}|G|*|Gamma| = {len(g_set) * len(gamma_set)} "
                              f"!= |H| = {H.order}")

    gpos = {x: i for i, x in enumerate(g_set)}
    mpos = {x: i for i, x in enumerate(gamma_set)}
    # a b = a' b' gives a'^-1 a = b' b^-1 in G & Gamma = {e}, so the |G| |Gamma|
    # = |H| products are distinct and factor every element once
    factor = {Ht[a][b]: (a, b) for a in g_set for b in gamma_set}

    a1 = [[0] * len(gamma_set) for _ in g_set]
    a2 = [[0] * len(g_set) for _ in gamma_set]
    for si, s in enumerate(gamma_set):
        for gi, g in enumerate(g_set):
            a, b = factor[Ht[s][Hinv[g]]]
            a2[si][gi] = gpos[Hinv[a]]
            a1[gi][si] = mpos[b]

    Gg = subgroup_as_group(H, g_set, name=f"{H.name}.G")
    Mg = subgroup_as_group(H, gamma_set, name=f"{H.name}.Gamma")
    return matched_pair(Gg, Mg, a1, a2)
