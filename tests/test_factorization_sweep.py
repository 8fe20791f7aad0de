"""Every exact factorization of the small fixture groups, end to end.

Subgroups of groups this size are all generated by at most two elements, so
closing every 1- and 2-element subset enumerates them completely.  Each
factorization must extract to a verified matched pair, round-trip through
the twisted product, and induce a braided pair that passes verify_braiding.
On every factorization, every pair of homomorphisms (phi, psi) must give
verify_braiding's report with its two implied laws never the first to fail.
"""

from __future__ import annotations

import collections
import itertools

import pytest

from conftest import triples
from crossedcat.braided import BraidedMatchedPair, center_braiding, verify_braiding
from crossedcat.groups import (FiniteGroup, cyclic, dihedral, direct_product, generators,
                               is_hom_image, subgroup_from_generators, symmetric)
from crossedcat.matched import (from_exact_factorization, turaev_pair, verify_matched_pair,
                                zappa_szep)
from reference_sweeps import reported_braiding


def all_subgroups(G: FiniteGroup) -> list[tuple[int, ...]]:
    seen = {tuple(subgroup_from_generators(G, []))}
    for a in G.elements():
        seen.add(tuple(subgroup_from_generators(G, [a])))
        for b in G.elements():
            seen.add(tuple(subgroup_from_generators(G, [a, b])))
    return sorted(seen, key=lambda s: (len(s), s))


def exact_factorizations(G: FiniteGroup) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    subs = all_subgroups(G)
    out = []
    for A, B in itertools.product(subs, repeat=2):
        if len(A) * len(B) == G.order and set(A) & set(B) == {G.identity}:
            out.append((A, B))
    return out


@pytest.mark.parametrize("G,expected_min", [(symmetric(3), 8), (dihedral(4), 10)])
def test_all_factorizations_induce_braided_centers(G, expected_min):
    facts = exact_factorizations(G)
    assert len(facts) >= expected_min
    for A, B in facts:
        mp = from_exact_factorization(G, list(A), list(B))
        assert verify_matched_pair(mp).passed
        H, _, _ = zappa_szep(mp)
        assert H.order == G.order
        assert verify_braiding(center_braiding(mp)).passed, (A, B)


def test_all_s4_factorizations_round_trip_and_braid():
    G = symmetric(4)
    facts = exact_factorizations(G)
    # S4 factors as 1*S4, Z2*A4, Z3*D4, Z4*S3, V*S3, and mirrors
    sizes = sorted({(len(a), len(b)) for a, b in facts})
    assert (4, 6) in sizes and (2, 12) in sizes and (3, 8) in sizes
    for A, B in facts:
        mp = from_exact_factorization(G, list(A), list(B))
        assert verify_matched_pair(mp).passed
        assert verify_braiding(center_braiding(mp)).passed, (len(A), len(B))


def homomorphisms(S: FiniteGroup, T: FiniteGroup) -> list[tuple[int, ...]]:
    """The image tuples of every homomorphism S -> T: each choice of images
    t_i for a generating set g_i of S, extended by f(x g_i) = f(x) t_i and
    kept when that is consistent on every edge."""
    gens = generators(S.table, S.identity)
    out = []
    for images in itertools.product(T.elements(), repeat=len(gens)):
        f, todo, consistent = {S.identity: T.identity}, [S.identity], True
        while todo and consistent:
            x = todo.pop()
            for g, t in zip(gens, images):
                y, v = S.table[x][g], T.table[f[x]][t]
                if y not in f:
                    f[y] = v
                    todo.append(y)
                elif f[y] != v:
                    consistent = False
                    break
        if consistent:
            image = tuple(f[x] for x in S.elements())
            assert is_hom_image(S, T, image) is None
            out.append(image)
    return out


def test_braiding_census():
    """Every pair of homomorphisms Gamma -> G on every exact factorization of
    S3, D4, Z6, Z2 x Z4, D6 and S4 and on four Turaev pairs: 150 matched
    pairs, 2,924 braided pairs.  verify_braiding gives reported_braiding's
    report, so neither implied law is ever the first to fail, and each of
    braiding axioms 1-3 is the only failing check on some of them, axioms 2
    and 3 on the factorization of D6 by a subgroup of order 6 and one of
    order 2."""
    pairs = [from_exact_factorization(H, list(A), list(B))
             for H in (symmetric(3), dihedral(4), cyclic(6), direct_product(cyclic(2), cyclic(4)),
                       dihedral(6), symmetric(4))
             for A, B in exact_factorizations(H)]
    pairs += [turaev_pair(K) for K in (symmetric(3), dihedral(4), cyclic(4),
                                       direct_product(cyclic(2), cyclic(2)))]
    alone = collections.Counter()
    count = 0
    for mp in pairs:
        homs = homomorphisms(mp.Gamma, mp.G)
        for phi, psi in itertools.product(homs, repeat=2):
            bmp = BraidedMatchedPair(mp, phi, psi)
            rep = verify_braiding(bmp)
            assert triples(rep) == triples(reported_braiding(bmp))
            failing = [c.name for c in rep.checks if not c.passed]
            if len(failing) == 1:
                alone[failing[0], mp.G.order, mp.Gamma.order] += 1
            count += 1
    assert (len(pairs), count) == (150, 2924)
    by_axiom = collections.Counter()
    for (name, _, _), n in alone.items():
        by_axiom[name] += n
    assert by_axiom == {"braiding_axiom_1": 104, "braiding_axiom_2": 24, "braiding_axiom_3": 24}
    assert alone["braiding_axiom_2", 6, 2] == alone["braiding_axiom_3", 6, 2] == 24
