"""Words of crossed-monoidal functors, their seven structural moves, and
the exact coherence check by critical branchings.

Printed form: `1` (unit), `_i` (hole i; holes are linear and numbered left
to right), `(w * w)` (tensor) and `g<w>` (action by the element of index g).

The moves, oriented toward a normal form; in an exponent a letter stands
for the label of the word it matches, and t = deg(y) |>2 g:

    chi    g<h<c>>      -> gh<c>            + chi[g][h][c]
    J      g<x * y>     -> t<x> * g<y>      - J[g][x][y]
    phi    g<1>         -> 1                - phi[g]
    iota   e<x>         -> x                - iota[x]
    l, r   1 * x, x * 1 -> x                0
    assoc  (a * b) * c  -> a * (b * c)      0

J, phi and iota run from the split, unit or bare side (pointed.py), so
their steps here carry minus the exponent and print with a leading `~`,
as the walk prints an edge taken backwards.  Once the object-level axioms
hold every move keeps labels, so its exponent reads only group elements
and the labels of its letters.

Termination: with 1 and each hole worth 1, a * b worth 2a + b + 3 and g<w>
worth 2w + 1, each move lowers its redex's value (chi 4c + 3 > 2c + 1, J
4x + 2y + 7 > 4x + 2y + 6, phi 3 > 1, iota 2x + 1 > x, l x + 5 > x, r
2x + 4 > x, assoc 4a + 2b + c + 9 > 2a + 2b + c + 6), and both worths grow
strictly in every argument, so a move anywhere lowers the whole word's
value, a positive integer.  The normal forms are 1 and right-nested
tensors of factors _i or g<_i>, g not the identity.

Critical branchings: a redex inside a letter of another commutes with it,
as every move is linear in its letters and keeps labels.  Unifying each
left side with a non-letter subterm of another, or of itself below the
root, gives 15 overlaps (overlap word; its two moves):

    chi/chi   g<h<k<_1>>>           chi, chi inside
    chi/J     g<h<(_1 * _2)>>       chi, J inside
    chi/phi   g<h<1>>               chi, phi inside
    chi/iota  g<e<_1>>              chi, iota inside
    iota/chi  e<h<_1>>              iota, chi
    J/iota    e<(_1 * _2)>          J, iota
    phi/iota  e<1>                  phi, iota
    J/l, J/r  g<(1 * _1)>, g<(_1 * 1)>    J, l or r inside
    J/assoc   g<((_1 * _2) * _3)>   J, assoc inside
    l/r       (1 * 1)               l, r
    r/assoc   ((_1 * _2) * 1)       r, assoc
    assoc/l, assoc/r  ((1 * _1) * _2), ((_1 * 1) * _2)  assoc, l or r inside
    pentagon  (((_1 * _2) * _3) * _4)   assoc, assoc inside

The last five have no action: every move they reach is l, r or assoc, of
exponent 0, and both sides reach the right-nested tensor of their holes,
so they commute in every category.  `verify_coherence` takes the first
ten, BRANCHINGS, at every tuple of group elements and hole labels and
compares the normal forms and exponents of both sides.  When all commute,
Newman's lemma makes the moves confluent, and by induction along the
termination order all paths from a word to its normal form carry one
exponent (Squier, J. Pure Appl. Algebra 1987): minus it is a potential, so
parallel composites of any size agree.  A closing path with holes for
letters closes every instance with the same exponent.  The ten restate
verify_crossed_category's scalar checks (chi/chi chi_cocycle, chi/J
axiom3_j_chi, J/assoc axiom2_j_cocycle, J/l and J/r axiom2_units, chi/iota
and iota/chi chi_units) and three unit laws they imply, as Galindo's
coherence theorem (J. Algebra 2017) predicts.

`check_coherence` is the bounded walk this check replaced, the tests'
reference: every word up to a node budget at one object tuple, an edge
per move, walked depth-first.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence, Union

from .errors import ValidationError
from .pointed import PointedCrossedCategory
from .records import Record
from .report import VerificationReport


# -- word AST --------------------------------------------------------------------

class Unit(Record):
    pass


class Hole(Record):
    index: int  # 1-based


class Tensor(Record):
    left: "Word"
    right: "Word"


class Act(Record):
    g: int
    body: "Word"


Word = Union[Unit, Hole, Tensor, Act]


def print_word(w: Word) -> str:
    if type(w) is Tensor:
        return f"({print_word(w.left)} * {print_word(w.right)})"
    if type(w) is Act:
        return f"{w.g}<{print_word(w.body)}>"
    if type(w) is Hole:
        return f"_{w.index}"
    if type(w) is Unit:
        return "1"
    raise TypeError(f"not a word: {w!r}")


def label(w: Word, cat: PointedCrossedCategory, objects: Sequence[int]) -> int:
    """The label of w with hole i bound to objects[i - 1]."""
    if type(w) is Act:
        return cat.action[w.g][label(w.body, cat, objects)]
    if type(w) is Tensor:
        return cat.Lambda.table[label(w.left, cat, objects)][label(w.right, cat, objects)]
    return objects[w.index - 1] if type(w) is Hole else cat.Lambda.identity


# -- the seven moves ----------------------------------------------------------------

# rules whose step toward the normal form runs against their scalar's isomorphism
_BACKWARD = ("J", "phi", "iota")


def _root_moves(w: Word, cat: PointedCrossedCategory, objects: Sequence[int]
                ) -> Iterator[tuple[Word, int, tuple]]:
    """(result, exponent, rule) of each move whose redex is w itself, toward
    the normal form; a rule is its name, its printed form's template and
    the group elements and words that fill it.  It runs once per move, so
    it reads cat.mp.G rather than calling the cat.G property."""
    if type(w) is Act:
        g, body = w.g, w.body
        if type(body) is Act:
            yield (Act(cat.mp.G.table[g][body.g], body.body),
                   cat.chitable[g][body.g][label(body.body, cat, objects)],
                   ("chi", "chi({},{})@{}", g, body.g, body.body))
        elif type(body) is Tensor:
            x, y = label(body.left, cat, objects), label(body.right, cat, objects)
            t = cat.mp.act2[cat.grading[y]][g]
            yield (Tensor(Act(t, body.left), Act(g, body.right)), -cat.jtable[g][x][y],
                   ("J", "J({})@({},{})", g, body.left, body.right))
        elif type(body) is Unit:
            yield body, -cat.phitable[g], ("phi", "phi({})", g)
        if g == cat.mp.G.identity:
            yield body, -cat.iotatable[label(body, cat, objects)], ("iota", "iota@{}", body)
    elif type(w) is Tensor:
        left, right = w.left, w.right
        if type(left) is Unit:
            yield right, 0, ("l", "l@{}", right)
        if type(right) is Unit:
            yield left, 0, ("r", "r@{}", left)
        if type(left) is Tensor:
            yield Tensor(left.left, Tensor(left.right, right)), 0, ("assoc", "assoc")


def moves(w: Word, cat: PointedCrossedCategory, objects: Sequence[int]
          ) -> Iterator[tuple[tuple[int, ...], Word, int, tuple]]:
    """(position, result, exponent, rule) of every move inside w, redexes in
    preorder; a position is the path to the redex, 0 and 1 for the left and
    right of a tensor and 2 for the body of an action."""
    for v, x, rule in _root_moves(w, cat, objects):
        yield (), v, x, rule
    if type(w) is Tensor:
        for p, v, x, rule in moves(w.left, cat, objects):
            yield (0, *p), Tensor(v, w.right), x, rule
        for p, v, x, rule in moves(w.right, cat, objects):
            yield (1, *p), Tensor(w.left, v), x, rule
    elif type(w) is Act:
        for p, v, x, rule in moves(w.body, cat, objects):
            yield (2, *p), Act(w.g, v), x, rule


def rule_text(rule: tuple, backward: bool = False) -> str:
    """A rule as the walk prints an edge, with `~` when taken backwards."""
    _, template, *args = rule
    return ("~" if backward else "") + template.format(
        *(a if type(a) is int else print_word(a) for a in args))


# -- the exact check ----------------------------------------------------------------

def normal_form(w: Word, cat: PointedCrossedCategory, objects: Sequence[int],
                steps: list) -> tuple[Word, int]:
    """(normal form of w, the exponent of the composite that reaches it),
    subterms first; appends the rule of each step taken to `steps`."""
    if type(w) is Tensor:
        left, a = normal_form(w.left, cat, objects, steps)
        right, b = normal_form(w.right, cat, objects, steps)
        if left is not w.left or right is not w.right:
            w = Tensor(left, right)
        x = a + b
    elif type(w) is Act:
        body, x = normal_form(w.body, cat, objects, steps)
        if body is not w.body:
            w = Act(w.g, body)
    else:
        return w, 0
    for v, y, rule in _root_moves(w, cat, objects):
        steps.append(rule)
        v, z = normal_form(v, cat, objects, steps)
        return v, x + y + z
    return w, x


H1, H2, H3 = Hole(1), Hole(2), Hole(3)

# the most instances verify_coherence compares.  On Python 3.11 (2 vCPUs)
# it compared 26-48 thousand instances a second (the 14 cat-* fixtures, and
# Lambda = Z_n over trivial groups: 101,800 in 3.6 s at n = 46), so a check
# at the bound takes 2-4 s; every fixture needs at most 4,105
# (cat-vec-turaev-s3)
MAX_COHERENCE_INSTANCES = 100_000

# the branchings with an action: name, free group elements, holes, the
# overlap word of the identity e and the free elements, and the (rule,
# position as in `moves`) of its two first moves
BRANCHINGS = (
    ("chi/chi", 3, 1, lambda e, g, h, k: Act(g, Act(h, Act(k, H1))), ("chi", ()), ("chi", (2,))),
    ("chi/J", 2, 2, lambda e, g, h: Act(g, Act(h, Tensor(H1, H2))), ("chi", ()), ("J", (2,))),
    ("chi/phi", 2, 0, lambda e, g, h: Act(g, Act(h, Unit())), ("chi", ()), ("phi", (2,))),
    ("chi/iota", 1, 1, lambda e, g: Act(g, Act(e, H1)), ("chi", ()), ("iota", (2,))),
    ("iota/chi", 1, 1, lambda e, h: Act(e, Act(h, H1)), ("iota", ()), ("chi", ())),
    ("J/iota", 0, 2, lambda e: Act(e, Tensor(H1, H2)), ("J", ()), ("iota", ())),
    ("phi/iota", 0, 0, lambda e: Act(e, Unit()), ("phi", ()), ("iota", ())),
    ("J/l", 1, 1, lambda e, g: Act(g, Tensor(Unit(), H1)), ("J", ()), ("l", (2,))),
    ("J/r", 1, 1, lambda e, g: Act(g, Tensor(H1, Unit())), ("J", ()), ("r", (2,))),
    ("J/assoc", 1, 3, lambda e, g: Act(g, Tensor(Tensor(H1, H2), H3)), ("J", ()),
     ("assoc", (2,))),
)


def composites(w: Word, cat: PointedCrossedCategory, objects: Sequence[int],
               first: tuple, second: tuple) -> list[tuple[Word, int, list]]:
    """The two composites of a branching at its overlap w, one from each of
    its first moves (rule, position), as (normal form, exponent mod M, the
    rules of its steps)."""
    out = []
    for name, position in (first, second):
        # every first move is at the root, (), or in its action's body, (2,)
        v, x, step = next(m for m in _root_moves(w.body if position else w, cat, objects)
                          if m[2][0] == name)
        steps = [step]
        v, y = normal_form(Act(w.g, v) if position else v, cat, objects, steps)
        out.append((v, (x + y) % cat.M, steps))
    return out


def verify_coherence(cat: PointedCrossedCategory,
                     labels: Optional[Sequence[int]] = None) -> VerificationReport:
    """One check per branching with an action, as the module docstring
    describes, with the holes ranging over `labels` (every label when None)
    and the free group elements over G.  A check's witness is the hole
    labels, the overlap word, its two composites to their normal forms and
    their two exponents.  The stats count the branchings and the instances
    compared.  Before the first branching, a category with more instances
    to compare than MAX_COHERENCE_INSTANCES raises ValidationError."""
    labels = list(cat.Lambda.elements()) if labels is None else sorted(set(labels))
    Gs, e = cat.G.elements(), cat.G.identity
    # the instances stat of a run in which every branching commutes
    total = sum(len(Gs) ** free * len(labels) ** holes for _, free, holes, *_ in BRANCHINGS)
    if total > MAX_COHERENCE_INSTANCES:
        raise ValidationError(f"coherence would compare {total} instances, over the limit "
                              f"of {MAX_COHERENCE_INSTANCES}")
    rep = VerificationReport(subject=f"coherence {cat.name}")
    instances = 0
    for name, free, holes, overlap, first, second in BRANCHINGS:
        witness = None
        overlaps = [overlap(e, *elements) for elements in itertools.product(Gs, repeat=free)]
        for w, objects in itertools.product(overlaps, itertools.product(labels, repeat=holes)):
            instances += 1
            (v1, x1, path1), (v2, x2, path2) = composites(w, cat, objects, first, second)
            if (v1, x1) != (v2, x2):
                witness = (objects, print_word(w),
                           *(" . ".join(rule_text(r, r[0] in _BACKWARD) for r in steps)
                             for steps in (path1, path2)),
                           x1, x2)
                break
        rep.add(name, witness)
    rep.stats = {"branchings": len(BRANCHINGS), "instances": instances}
    return rep


# -- the bounded walk ---------------------------------------------------------------

def enumerate_words(max_nodes: int, arity: int, elements: Sequence[int]) -> list[Word]:
    """All linear words with holes exactly 1..arity, at most max_nodes nodes,
    a word listed once per budget split that yields it."""
    cache: dict[tuple[int, int, int], list[Word]] = {}

    def gen(budget: int, lo: int, hi: int) -> list[Word]:
        key = (budget, lo, hi)
        if key in cache:
            return cache[key]
        out: list[Word] = []
        if budget >= 1:
            if hi == lo:
                out.append(Unit())
            elif hi == lo + 1:
                out.append(Hole(lo))
        if budget >= 2:
            for body in gen(budget - 1, lo, hi):
                out.extend(Act(g, body) for g in elements)
        if budget >= 3:
            for mid in range(lo, hi + 1):
                for b1 in range(1, budget - 1):
                    for left in gen(b1, lo, mid):
                        for right in gen(budget - 1 - b1, mid, hi):
                            out.append(Tensor(left, right))
        cache[key] = out
        return out

    return gen(max_nodes, 1, arity + 1)


def check_coherence(cat: PointedCrossedCategory, max_nodes: int,
                    objects: Sequence[int]) -> VerificationReport:
    """Bounded uniqueness of parallel composites at one object tuple: the
    words of `enumerate_words` are nodes, each move between two of them an
    edge from its scalar's source side, walked depth-first until an edge
    disagrees with the potentials.  The witness is that edge's words and
    rule and the walk's paths to both; the stats count word entries,
    edges, components walked and, after a full walk, independent cycles."""
    rep = VerificationReport(subject=f"coherence {cat.name} objects={list(objects)}")
    words = enumerate_words(max_nodes, len(objects), list(cat.G.elements()))
    # nodes are keyed by their printed form, whose hash is computed once
    names = [print_word(w) for w in words]
    adjacency: dict[str, list[tuple[str, int, tuple, int]]] = {n: [] for n in names}
    n_edges = 0
    for w, name in zip(words, names):
        for _, v, x, rule in moves(w, cat, objects):
            other = print_word(v)
            if other in adjacency:
                src, dst, x = (other, name, -x) if rule[0] in _BACKWARD else (name, other, x)
                adjacency[src].append((dst, x, rule, +1))
                adjacency[dst].append((src, x, rule, -1))
                n_edges += 1

    potential: dict[str, int] = {}
    parent: dict[str, tuple[str, tuple, int]] = {}
    mismatch: Optional[tuple] = None
    components = 0
    for root in names:
        if root in potential:
            continue
        components += 1
        potential[root] = 0
        queue = [root]
        while queue and mismatch is None:
            u = queue.pop()
            for v, x, rule, sign in adjacency[u]:
                want = (potential[u] + sign * x) % cat.M
                if v not in potential:
                    potential[v] = want
                    parent[v] = (u, rule, sign)
                    queue.append(v)
                elif potential[v] != want:
                    mismatch = (u, v, rule_text(rule), _trace(parent, u), _trace(parent, v))
                    break
        if mismatch is not None:
            break

    rep.add("parallel_composites_agree", mismatch)
    rep.add("search_space_nonempty", None if words else (max_nodes, len(objects)))
    rep.stats = {"words": len(words), "edges": n_edges, "components": components,
                 "independent_cycles": (n_edges - len(adjacency) + components
                                        if mismatch is None else None)}
    return rep


def _trace(parent: dict, w: str) -> str:
    """The walk's path from its root to w, edges taken backwards marked `~`."""
    steps = []
    while w in parent:
        u, rule, sign = parent[w]
        steps.append(rule_text(rule, sign < 0))
        w = u
    return " . ".join(reversed(steps)) or "id"
