"""Finite groups as Cayley tables over dense indices 0..order-1.

Everything downstream (matched pairs, pointed categories, centers) indexes
into these tables, so all verification here is exact.  A law that holds on
a whole group once it holds on generators is certified by one rule
(`certified_sweep`): the caller names the group of the certified variable
by its Cayley table and identity, or passes None when the closure proof's
premises failed, and the law is swept at the identity and the greedy
generators (`generators`) first; its exhaustive witness-order sweep runs
only when that finds a witness.  Each law the layers share is swept here
once, with its closure proof: the composition law of an action
(`action_law_witness`, associativity included), the unit law
(`unit_witness`), twisted multiplicativity (`twisted_hom_witness`) and the
homomorphism law (`is_hom_image`).  The category's two cocycle laws and
its axiom 3 keep their sweeps and proofs in pointed.py, and the three
crossed-braiding axioms keep theirs in braided.py.  No size limit is
enforced here: the center's searches are bounded in center.py
(MAX_CENTER_TRIES), which counts twisted_characters' tries with
character_tries.  The sweeps grow fast with the order: verifying the
Turaev category of D8 (order 16) and its braided center takes about 0.5 s
in process (Python 3.11, 2-vCPU VM).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Optional, Sequence

from .errors import GroupValidationError, ValidationError
from .records import Record

Table = tuple[tuple[int, ...], ...]


def frozen(table: Any, depth: int, what: str) -> tuple:
    """`table` as tuples; raises ValidationError naming `what` unless it is
    integers nested `depth` lists or tuples deep.  No entry is coerced: a
    float or a bool (JSON true/false, though bool subclasses int) is refused."""
    def freeze(t: Any, d: int) -> tuple:
        if isinstance(t, (list, tuple)):
            if d > 1:
                return tuple([freeze(r, d - 1) for r in t])
            if {int}.issuperset(map(type, t)):
                return tuple(t)
        raise ValidationError(f"{what} must be a list of " + "lists of " * (depth - 1) + "integers")
    return freeze(table, depth)


def in_range(row: Sequence[int], n: int) -> bool:
    """Whether every entry of the integer row lies in 0..n-1."""
    return min(row, default=0) >= 0 and max(row, default=0) < n


class FiniteGroup(Record):
    order: int
    table: Table  # table[a][b] = index of a*b
    identity: int
    inverses: tuple[int, ...]
    name: str

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        t = self.table
        return t[t[g][x]][self.inverses[g]]

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


def validate_group(table: Sequence[Sequence[int]], identity: Optional[int] = None,
                   name: str = "G") -> FiniteGroup:
    """Check all three group laws exactly and derive inverses.

    Raises ValidationError unless the table is a nonempty square of integers
    in range and the identity, if given, is in range; then
    GroupValidationError at the first law that fails (identity,
    associativity, inverses), with the first witness of an exhaustive
    sweep.  Associativity is the composition law of the group acting on
    itself, a (b c) = (a b) c, so `action_law_witness` sweeps it with act =
    the table, certified on the left factor a; neither associativity nor
    inverses is assumed.
    """
    t = frozen(table, 2, "group table")
    n = len(t)
    if n == 0:
        raise ValidationError("empty table")
    for row in t:
        if len(row) != n:
            raise ValidationError(f"table is not square: row of length {len(row)} in order-{n} table")
        if not in_range(row, n):
            x = next(x for x in row if not 0 <= x < n)
            raise ValidationError(f"entry {x} out of range 0..{n - 1}")
    if identity is None:
        identity = next((e for e in range(n)
                         if all(t[e][a] == a and t[a][e] == a for a in range(n))), -1)
        if identity < 0:
            raise GroupValidationError("element -1 is not an identity (fails at 0)", (-1, 0))
    elif not 0 <= identity < n:
        raise ValidationError(f"identity {identity} out of range 0..{n - 1}")
    else:
        for a in range(n):
            if t[identity][a] != a or t[a][identity] != a:
                raise GroupValidationError(
                    f"element {identity} is not an identity (fails at {a})", (identity, a))
    bad = action_law_witness(t, t, identity)
    if bad is not None:
        raise GroupValidationError("associativity fails at (a,b,c)=({},{},{})".format(*bad), bad)
    # with associativity, a right inverse b of a (a b = e) equals any left
    # inverse c (c a = e): c = c (a b) = (c a) b = b.  So the first b with
    # a b = e is the one candidate, and a has no inverse unless b a = e.
    for a, row in enumerate(t):
        if identity not in row or t[row.index(identity)][a] != identity:
            raise GroupValidationError(f"element {a} has no two-sided inverse", (a,))
    return FiniteGroup(n, t, identity, tuple(row.index(identity) for row in t), name)


def generators(table: Sequence[Sequence[int]], identity: int,
               members: Optional[Iterable[int]] = None) -> list[int]:
    """Greedy generating set: each of `members` (default: every element), in
    order, that the ones before it do not reach.

    An element is reached when it is a left-bracketed product
    (..((e s1) s2) ..) sk, k >= 0, of generators from the identity e, so
    building the set assumes neither associativity nor inverses; given the
    identity law, every member is reached.  In a finite group the reached
    elements are the subgroup the generators span.
    """
    gens: list[int] = []
    reached = {identity}
    for x in range(len(table)) if members is None else members:
        if x not in reached:
            gens.append(x)
            _reach(table, reached, gens)
    return gens


def _reach(table: Sequence[Sequence[int]], reached: set[int], gens: Sequence[int]) -> set[int]:
    """`reached`, grown in place by right products with `gens` until closed."""
    frontier = list(reached)
    while frontier:
        row = table[frontier.pop()]
        for s in gens:
            y = row[s]
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return reached


def certified_sweep(sweep: Callable[[Sequence[int]], Optional[tuple]],
                    Kt: Table, e: Optional[int]) -> Optional[tuple]:
    """The first witness of a law, certified on e and generators first.

    `sweep(r)` runs the law's witness-order loop with one variable over r,
    which ranges over the group K with Cayley table Kt.  The caller proves
    that the values of that variable at which the law holds everywhere are
    closed under products, and passes K's identity e, or None when the
    proof's premises failed.  If the sweep over e and `generators(Kt, e)`
    passes, the law holds: their left-bracketed products from e reach every
    element.  Sweeping e is the base case, so no law needs its unit case
    proved by an earlier check.  Otherwise the sweep over every element
    finds the first witness, so a failing report is the same as without
    the certificate.
    """
    if e is not None and sweep([e, *generators(Kt, e)]) is None:
        return None
    return sweep(range(len(Kt)))


def action_law_witness(Kt: Table, act: Table, e: int) -> Optional[tuple]:
    """First (k, h, x) with k(h x) != (k h)x, where Kt is the Cayley table of
    K and act[k][x] is k acting on a set X; with act = Kt, the first (a, b, c)
    with a (b c) != (a b) c.

    Certified on the actor k (certified_sweep).  Call k good when
    k(h x) = (k h)x for every h and x.  If k and k' are good, so is k k':

        (k k')(h x) = k(k'(h x)) = k((k' h)x) = (k (k' h))x = ((k k') h)x,

    using k at (k', h x), k' at (h, x), k at (k' h, x), and k (k' h) =
    (k k') h, which is associativity of K when K is a group and k at
    (k', h) when act = Kt.
    """
    def sweep(ks: Sequence[int]) -> Optional[tuple]:
        for k in ks:
            actk, Kk = act[k], Kt[k]
            for h in range(len(Kt)):
                acth, actkh = act[h], act[Kk[h]]
                if tuple(map(actk.__getitem__, acth)) != actkh:
                    return (k, h, next(x for x in range(len(acth)) if actk[acth[x]] != actkh[x]))
        return None

    return certified_sweep(sweep, Kt, e)


def unit_witness(act: Table, e: int) -> Optional[tuple]:
    """First (k,) whose row act[k] moves the unit e."""
    return next(((k,) for k, row in enumerate(act) if row[e] != e), None)


def twisted_hom_witness(Xt: Table, act: Table, back: Table,
                        e: Optional[int]) -> Optional[tuple]:
    """First (k, x, y) with k |> (x y) != ((y |>' k) |> x)(k |> y), where Xt
    is the Cayley table of X, act[k][x] = k |> x (K on X) and
    back[y][k] = y |>' k (X on K).

    Certified on y (certified_sweep); the caller passes X's identity e only
    when |>' is a left action.  Call y good when the relation holds at every
    (k, x).  If y and y' are good, so is y y': for every (k, x), with
    k' = y' |>' k,

        k |> (x y y') = (k' |> (x y))(k |> y')
                      = ((y |>' k') |> x)(k' |> y)(k |> y')
                      = (((y y') |>' k) |> x)(k |> (y y')),

    using y' at (k, x y), y at (k', x), the left-action law of |>', and y'
    at (k, y).
    """
    def sweep(ys: Sequence[int]) -> Optional[tuple]:
        for k in range(len(act)):
            actk = act[k]
            terms = [(y, act[back[y][k]], actk[y]) for y in ys]
            for x, Xx in enumerate(Xt):
                for y, tw, ky in terms:
                    if actk[Xx[y]] != Xt[tw[x]][ky]:
                        return (k, x, y)
        return None

    return certified_sweep(sweep, Xt, e)


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
    """Symmetries of the regular n-gon as permutations of vertices: the
    rotations i -> k + i and the reflections i -> k - i (mod n).  The order
    is 2n for n >= 3; for n = 1, 2 these permutations form a group of order n."""
    elems = {tuple((k + e * i) % n for i in range(n)) for k in range(n) for e in (1, -1)}
    return from_permutations(sorted(elems), f"D{n}")


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
    """The subgroup gens generate, as a sorted index list: in a finite group
    the products of the generators already reach their inverses."""
    gens = list(gens)
    for g in gens:
        if not 0 <= g < G.order:
            raise ValidationError(f"generator {g} out of range")
    return sorted(_reach(G.table, {G.identity}, gens))


def subgroup_as_group(G: FiniteGroup, members: Sequence[int], name: str = "sub") -> FiniteGroup:
    """Reindex a subset closed under G's product and inverses as its own
    FiniteGroup (order of `members` kept).  A subgroup of a group is a
    group, so it is built without a group-law sweep; the caller checks
    closure."""
    pos, Gt = {x: i for i, x in enumerate(members)}, G.table
    table = tuple(tuple(pos[Gt[a][b]] for b in members) for a in members)
    return FiniteGroup(len(members), table, pos[G.identity],
                       tuple(pos[G.inverses[a]] for a in members), name)


# -- homomorphisms -------------------------------------------------------------

def is_hom_image(source: FiniteGroup, target: FiniteGroup, image: Sequence[int]) -> Optional[tuple]:
    """Witness (a, b) where the map a -> image[a] fails the hom law, or None.

    Certified on b (certified_sweep): if f(a b) = f(a) f(b) and
    f(a b') = f(a) f(b') for every a, then
    f(a b b') = f(a b) f(b') = f(a) f(b) f(b') = f(a) f(b b'), since the
    target is a group.
    """
    St, Tt = source.table, target.table

    def sweep(bs: Sequence[int]) -> Optional[tuple]:
        for a in source.elements():
            Sa, Ta = St[a], Tt[image[a]]
            for b in bs:
                if image[Sa[b]] != Ta[image[b]]:
                    return (a, b)
        return None

    return certified_sweep(sweep, St, source.identity)


# -- characters ----------------------------------------------------------------

def character_tries(G: FiniteGroup, members: Sequence[int], modulus: int) -> int:
    """modulus^k, k the number of generators of `members`: the exponent
    tuples twisted_characters tries."""
    return modulus ** len(generators(G.table, G.identity, members))


def twisted_characters(G: FiniteGroup, members: Sequence[int], modulus: int,
                       J: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Solutions of chi(a b) = J[a][b] + chi(a) + chi(b) (mod `modulus`) on `members`.

    `members` lists a subgroup of G by global indices and J is indexed by
    them; J = 0 gives the homomorphisms into mu_modulus.  Solutions are
    exponent tuples over `members`, sorted.  Backtracks over exponents of a
    generating set and closes multiplicatively using the law itself;
    solutions are then re-checked on every pair.
    """
    members, Gt = list(members), G.table
    gens = generators(Gt, G.identity, members)
    base = {G.identity: (-J[G.identity][G.identity]) % modulus}

    def close(assign: dict[int, int]) -> Optional[dict[int, int]]:
        chi = dict(base)
        chi.update(assign)
        frontier = list(chi)
        while frontier:
            x = frontier.pop()
            for h in gens:
                y = Gt[x][h]
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
                if chi[Gt[a][b]] != (J[a][b] + chi[a] + chi[b]) % modulus:
                    return None
        return chi

    solutions = set()
    for values in itertools.product(range(modulus), repeat=len(gens)):
        chi = close(dict(zip(gens, values)))
        if chi is not None:
            solutions.add(tuple(chi[x] for x in members))
    return sorted(solutions)

