from __future__ import annotations

import itertools

import pytest

from crossedcat.errors import GroupValidationError, ValidationError
from crossedcat.groups import (cyclic, dihedral, direct_product, subgroup_from_generators,
                               symmetric, trivial_group, twisted_characters, validate_group)
from fixture_builders import element_order


def brute_force_s3_table():
    """Compose permutations of {0,1,2} directly and tabulate."""
    perms = sorted(itertools.permutations(range(3)))
    return [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms] for p in perms]


def test_validate_group_s3_from_permutations():
    G = validate_group(brute_force_s3_table(), name="S3")
    assert G.order == 6
    assert G.table[1][2] != G.table[2][1]  # the transpositions (12) and (01) do not commute
    # all three laws on every triple
    for a in G.elements():
        assert G.table[a][G.inverses[a]] == G.identity
        for b in G.elements():
            for c in G.elements():
                assert G.table[G.table[a][b]][c] == G.table[a][G.table[b][c]]


def test_validate_group_trivial():
    G = validate_group([[0]], 0)
    assert G.order == 1 and G.identity == 0


def test_validate_group_perturbed_s3_reports_witness():
    table = brute_force_s3_table()
    # swap one interior entry; re-check exhaustively via the validator
    table[2][3], table[2][4] = table[2][4], table[2][3]
    with pytest.raises(GroupValidationError) as exc:
        validate_group(table, 0)
    assert exc.value.witness is not None


@pytest.mark.parametrize("call,message", [
    (lambda: validate_group([]), "empty table"),
    (lambda: validate_group([[0, 1], [1]]), "table is not square: row of length 1 in order-2 table"),
    (lambda: validate_group([[0, 2], [1, 0]]), "entry 2 out of range 0..1"),
    (lambda: validate_group([[0, 1], [1, 0]], 5), "identity 5 out of range 0..1"),
    (lambda: subgroup_from_generators(cyclic(2), [9]), "generator 9 out of range"),
], ids=["empty", "ragged", "entry", "identity", "generator"])
def test_unusable_table_is_a_validation_error_not_a_law(call, message):
    """A table the laws cannot be asked of is an unusable input (exit 2),
    not a failed group law with a witness (exit 1)."""
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value) == message
    assert not isinstance(exc.value, GroupValidationError)


def test_direct_product_z2_z3_is_z6():
    P = direct_product(cyclic(2), cyclic(3))
    assert P.order == 6
    # (1, 1), encoded 1*3 + 1, has order 6, so P is cyclic
    assert element_order(P, 4) == 6


def test_direct_product_with_trivial_is_same_table():
    G = symmetric(3)
    P = direct_product(G, trivial_group())
    assert P.table == G.table


def test_direct_product_klein_all_self_inverse():
    P = direct_product(cyclic(2), cyclic(2))
    assert all(P.table[a][a] == P.identity for a in P.elements())


def test_subgroup_from_generators():
    S3 = symmetric(3)
    perms = sorted(itertools.permutations(range(3)))
    t12 = perms.index((1, 0, 2))
    c3 = perms.index((1, 2, 0))
    assert len(subgroup_from_generators(S3, [t12])) == 2
    assert len(subgroup_from_generators(S3, [c3])) == 3
    assert subgroup_from_generators(S3, []) == [S3.identity]


def characters(G, modulus):
    """Untwisted characters of all of G: the twisted law with J = 0."""
    zero = [[0] * G.order for _ in G.elements()]
    return twisted_characters(G, list(G.elements()), modulus, zero)


def test_characters_z2_mod4():
    chars = characters(cyclic(2), 4)
    assert [chi[1] for chi in chars] == [0, 2]


def test_characters_trivial_group():
    assert len(characters(trivial_group(), 5)) == 1


def test_characters_s3_mod6_factor_through_sign():
    S3 = symmetric(3)
    chars = characters(S3, 6)
    assert len(chars) == 2  # trivial and sign, through the abelianization Z2
    for chi in chars:
        for a in S3.elements():
            for b in S3.elements():
                assert (chi[a] + chi[b]) % 6 == chi[S3.table[a][b]]
    assert any(all(v == 0 for v in chi) for chi in chars)
    assert len(set(chars)) == 2


def test_characters_modulus_too_small():
    # Z4 -> mu_6 only reaches the gcd(4, 6) = 2 roots of unity
    assert characters(cyclic(4), 6) == [(0, 0, 0, 0), (0, 3, 0, 3)]


@pytest.mark.parametrize("order,moduli", [(2, (1, 2, 3, 4)), (3, (1, 2))])
def test_twisted_characters_solve_the_law_by_brute_force(order, moduli):
    """On Z2 and Z3, for every J at each modulus, twisted_characters gives
    exactly the exponent tuples that satisfy the law at every pair."""
    G = cyclic(order)
    n, t, pairs = G.order, G.table, list(itertools.product(G.elements(), repeat=2))
    for modulus in moduli:
        for flat in itertools.product(range(modulus), repeat=n * n):
            J = [flat[a * n:(a + 1) * n] for a in G.elements()]
            law = [chi for chi in itertools.product(range(modulus), repeat=n)
                   if all(chi[t[a][b]] == (J[a][b] + chi[a] + chi[b]) % modulus for a, b in pairs)]
            assert twisted_characters(G, list(G.elements()), modulus, J) == law, (modulus, J)


def test_twisted_characters_recheck_every_pair():
    """The closure over the generator never reads the law at (x, e): on Z2
    with M = 2 and J[1][0] = 1 it accepts both exponents, and only the
    re-check on every pair refuses them, as the law does."""
    assert twisted_characters(cyclic(2), [0, 1], 2, [[0, 0], [1, 0]]) == []


def test_characters_count_is_abelianization_order():
    chars = characters(dihedral(4), 4)
    assert len(chars) == 4  # D4^ab = Z2 x Z2

