"""Named desk-scale fixtures: groups, matched pairs, and categories.

Every entry is rebuilt from first principles on demand.  The test suite
asserts that each one passes its module's verifier, and
scripts/build_fixtures.py, which puts tests/ on sys.path, serializes them
under fixtures/.  No module of the package imports them.
"""

from __future__ import annotations

import itertools
from typing import Callable

from crossedcat.groups import (FiniteGroup, cyclic, dihedral, direct_product,
                               subgroup_from_generators, symmetric, trivial_group)
from crossedcat.matched import (MatchedPair, direct_pair, from_exact_factorization, matched_pair,
                                turaev_pair)
from crossedcat.pointed import PointedCrossedCategory, pointed_category, vec_gamma



def element_order(G: FiniteGroup, a: int) -> int:
    """The least n >= 1 with a^n the identity of G."""
    n, x = 1, a
    while x != G.identity:
        x = G.table[x][a]
        n += 1
    return n

def z2_on_z3_by_inversion() -> MatchedPair:
    Z2, Z3 = cyclic(2), cyclic(3)
    a1 = [[s for s in range(3)], [(-s) % 3 for s in range(3)]]
    a2 = [[g for g in range(2)] for _ in range(3)]
    return matched_pair(Z2, Z3, a1, a2)


def s3_factorized() -> MatchedPair:
    """S3 = <(12)> . <(123)> as an exact factorization."""
    S3 = symmetric(3)
    # permutation tuples: (1,0,2) is the transposition, (1,2,0) the 3-cycle
    perms = sorted(itertools.permutations(range(3)))
    t12 = perms.index((1, 0, 2))
    c3 = perms.index((1, 2, 0))
    return from_exact_factorization(S3, subgroup_from_generators(S3, [t12]),
                                    subgroup_from_generators(S3, [c3]))


def s4_z4_s3() -> MatchedPair:
    """S4 = <(1234)> . Stab(4), sizes (4, 6)."""
    S4 = symmetric(4)
    perms = sorted(itertools.permutations(range(4)))
    c4 = perms.index((1, 2, 3, 0))
    stab = [i for i, p in enumerate(perms) if p[3] == 3]
    return from_exact_factorization(S4, subgroup_from_generators(S4, [c4]), stab)


def d4_z4_z2() -> MatchedPair:
    """D4 = <rotation> . <reflection>, sizes (4, 2)."""
    D4 = dihedral(4)
    rot = next(a for a in D4.elements() if element_order(D4, a) == 4)
    ref = next(a for a in D4.elements()
               if element_order(D4, a) == 2 and a not in subgroup_from_generators(D4, [rot]))
    return from_exact_factorization(D4, subgroup_from_generators(D4, [rot]),
                                    subgroup_from_generators(D4, [ref]))


MATCHED_PAIRS: dict[str, Callable[[], MatchedPair]] = {
    "trivial-pair": lambda: direct_pair(trivial_group(), trivial_group()),
    "direct-z2-z2": lambda: direct_pair(cyclic(2), cyclic(2)),
    "z2-z3-inversion": z2_on_z3_by_inversion,
    "s3-factorized": s3_factorized,
    "s4-z4-s3": s4_z4_s3,
    "d4-z4-z2": d4_z4_z2,
    "turaev-z2": lambda: turaev_pair(cyclic(2)),
    "turaev-s3": lambda: turaev_pair(symmetric(3)),
    "turaev-d4": lambda: turaev_pair(dihedral(4)),
}


def z4_over_z2(g_trivial: bool = False) -> PointedCrossedCategory:
    """Lambda = Z4 graded mod 2 over Gamma = Z2, G = Z2 acting by inversion."""
    Z4, Z2 = cyclic(4), cyclic(2)
    G = trivial_group() if g_trivial else Z2
    mp = direct_pair(G, Z2)
    grading = [l % 2 for l in range(4)]
    if g_trivial:
        action = [[l for l in range(4)]]
    else:
        action = [[l for l in range(4)], [(-l) % 4 for l in range(4)]]
    name = "Z4/Z2" + ("-graded" if g_trivial else "")
    return pointed_category(Z4, mp, grading, action, 4, name=name)


def z6_over_z3() -> PointedCrossedCategory:
    """Lambda = Z6 graded mod 3 over Gamma = Z3, G = Z2 inverting everything.

    The pair's |>1 is nontrivial, N = {0, 3} is nontrivial, and the inversion
    moves the least-label section, so every swap-scalar correction is live."""
    Z6 = cyclic(6)
    mp = z2_on_z3_by_inversion()
    grading = [l % 3 for l in range(6)]
    action = [[l for l in range(6)], [(-l) % 6 for l in range(6)]]
    return pointed_category(Z6, mp, grading, action, 4, name="Z6/Z3")


def cocycle_j_category() -> PointedCrossedCategory:
    """Lambda = Z2, G = Z2, Gamma trivial; J[1] is the nontrivial sign cocycle.

    Found by brute force over mu_2-valued tables satisfying the axiom-2
    equations; the only nontrivial normalized solution is
    J[1][x][y] = (-1)^{xy}, encoded as exponent 2 mod 4.
    """
    Z2 = cyclic(2)
    mp = direct_pair(Z2, trivial_group())
    grading = [0, 0]
    action = [[0, 1], [0, 1]]
    j = [
        [[0, 0], [0, 0]],
        [[0, 0], [0, 2]],
    ]
    return pointed_category(Z2, mp, grading, action, 4, jtable=j, name="J-cocycle")


def cocycle_chi_category() -> PointedCrossedCategory:
    """Lambda = Z2, G = Z2 acting trivially, Gamma trivial; chi[1][1] is the
    sign character, a nontrivial action-composition 2-cocycle."""
    Z2 = cyclic(2)
    mp = direct_pair(Z2, trivial_group())
    grading = [0, 0]
    action = [[0, 1], [0, 1]]
    chi = [
        [[0, 0], [0, 0]],
        [[0, 0], [0, 2]],
    ]
    return pointed_category(Z2, mp, grading, action, 4, chitable=chi, name="chi-cocycle")


def equivariant_z2() -> PointedCrossedCategory:
    """Lambda trivial, Gamma trivial, G = Z2: one simple per degree."""
    mp = direct_pair(cyclic(2), trivial_group())
    return pointed_category(trivial_group(), mp, [0], [[0], [0]], 4, name="equivariant-Z2")


def equivariant_s3() -> PointedCrossedCategory:
    """Lambda = S3, Gamma trivial, G = Z2 conjugating by a transposition.

    The neutral subgroup is all of S3, so the conjugation constraint holds
    only on one coset per degree: the center keeps just the unit label at
    the trivial degree and the transposition at the other."""
    S3 = symmetric(3)
    t12 = next(a for a in S3.elements() if element_order(S3, a) == 2)
    mp = direct_pair(cyclic(2), trivial_group())
    action = [[l for l in S3.elements()],
              [S3.conj(t12, l) for l in S3.elements()]]
    return pointed_category(S3, mp, [0] * 6, action, 2, name="equivariant-S3")


def nonsingular_violation() -> PointedCrossedCategory:
    """Trivial Lambda graded over Z2: degree 1 has no simple at all."""
    mp = direct_pair(trivial_group(), cyclic(2))
    return pointed_category(trivial_group(), mp, [0], [[0]], 2, name="nonsurjective")


CATEGORIES: dict[str, Callable[[], PointedCrossedCategory]] = {
    "vec-trivial": lambda: vec_gamma(MATCHED_PAIRS["trivial-pair"](), 2, name="Vec-trivial"),
    "vec-z2-gtrivial": lambda: vec_gamma(direct_pair(trivial_group(), cyclic(2)), 2,
                                         name="Vec-Z2-Gtrivial"),
    "vec-z3-gtrivial": lambda: vec_gamma(direct_pair(trivial_group(), cyclic(3)), 2,
                                         name="Vec-Z3-Gtrivial"),
    "vec-z2z3": lambda: vec_gamma(z2_on_z3_by_inversion(), 2, name="Vec-Z3-inv"),
    "vec-turaev-s3": lambda: vec_gamma(turaev_pair(symmetric(3)), 2, name="Vec-Turaev-S3"),
    "vec-s4-pair": lambda: vec_gamma(s4_z4_s3(), 2, name="Vec-S4-pair"),
    "z4-over-z2": lambda: z4_over_z2(False),
    "z4-over-z2-graded": lambda: z4_over_z2(True),
    "z6-over-z3": z6_over_z3,
    "equivariant-z2": equivariant_z2,
    "equivariant-s3": equivariant_s3,
    "cocycle-j": cocycle_j_category,
    "cocycle-chi": cocycle_chi_category,
}

# categories whose centers the acceptance suite sweeps end to end
CENTER_FIXTURES: tuple[str, ...] = (
    "vec-trivial",
    "vec-z2-gtrivial",
    "vec-z3-gtrivial",
    "vec-z2z3",
    "vec-s4-pair",
    "z4-over-z2",
    "z4-over-z2-graded",
    "z6-over-z3",
    "equivariant-z2",
    "equivariant-s3",
    "cocycle-j",
    "cocycle-chi",
)

GROUPS: dict[str, Callable[[], FiniteGroup]] = {
    "trivial": trivial_group,
    "z2": lambda: cyclic(2),
    "z3": lambda: cyclic(3),
    "z4": lambda: cyclic(4),
    "z6": lambda: cyclic(6),
    "klein": lambda: direct_product(cyclic(2), cyclic(2)),
    "s3": lambda: symmetric(3),
    "s4": lambda: symmetric(4),
    "d4": lambda: dihedral(4),
}
