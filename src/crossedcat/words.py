"""Words of crossed-monoidal functors and the bounded coherence check.

Printed form:  `1` (unit), `_i` (hole i), `(w * w)` (tensor), and `g<w>`
(action by the group element of index g).  Holes are linear and numbered
left to right, matching how substitution sums arities.

The bounded coherence check walks the graph whose nodes are all words up to
a node budget instantiated at a fixed object tuple and whose edges are
single structural moves (associator and unit moves, action-composition,
action-over-tensor, action unit, action on the monoidal unit) applied at any
position, each carrying its scalar's exponent.  All parallel composites
agree iff the exponents admit a potential on the words, that is, iff every
cycle's exponents sum to zero.  A weighted union-find decides that in one
pass over the moves (Tarjan & van Leeuwen, J. ACM 1984).  Only a tuple that
fails is walked depth-first, and the walk's first edge that disagrees with
its potentials is reported with the two explicit composites, each the
walk's own path from its root.

The graph is built on interned words: a word is the integer id of its
(kind, a, b) triple over child ids (hash-consing).  The words and moves of
one (budget, arity, G) form a skeleton, built once for every tuple of that
arity; a J split's source depends on labels, so the skeleton keeps one per
twisting element.  Each tuple computes its labels bottom-up over the ids,
reads the exponents from the tables and unites the words move by move;
adjacency lists, words, rule texts and paths are built only for a
mismatch's witness.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

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
    if isinstance(w, Unit):
        return "1"
    if isinstance(w, Hole):
        return f"_{w.index}"
    if isinstance(w, Tensor):
        return f"({print_word(w.left)} * {print_word(w.right)})"
    if isinstance(w, Act):
        return f"{w.g}<{print_word(w.body)}>"
    raise TypeError(f"not a word: {w!r}")


# -- bounded coherence check ------------------------------------------------------------

def min_word_nodes(arity: int) -> int:
    """Nodes in the smallest word over arity objects: the unit for none, else
    the arity holes joined by arity - 1 tensors."""
    return max(1, 2 * arity - 1)


def enumerate_words(max_nodes: int, arity: int, elements: Sequence[int]) -> list[Word]:
    """All linear words with holes exactly 1..arity, at most max_nodes nodes."""
    return _enumerate(max_nodes, arity, elements, Unit, Hole, Tensor, Act)


def _enumerate(max_nodes: int, arity: int, elements: Sequence[int],
               unit, hole, tensor, act) -> list:
    """`enumerate_words` by the given constructors; repeats included."""
    cache: dict[tuple[int, int, int], list] = {}

    def gen(budget: int, lo: int, hi: int) -> list:
        key = (budget, lo, hi)
        if key in cache:
            return cache[key]
        out: list = []
        if budget >= 1:
            if hi == lo:
                out.append(unit())
            elif hi == lo + 1:
                out.append(hole(lo))
        if budget >= 2:
            for body in gen(budget - 1, lo, hi):
                out.extend(act(g, body) for g in elements)
        if budget >= 3:
            for mid in range(lo, hi + 1):
                for b1 in range(1, budget - 1):
                    for left in gen(b1, lo, mid):
                        for right in gen(budget - 1 - b1, mid, hi):
                            out.append(tensor(left, right))
        cache[key] = out
        return out

    words = gen(max_nodes, 1, arity + 1)
    gen = None  # gen holds itself, so its cache would wait for a collection
    return words


# an interned word is the id of its triple over child ids: (_UNIT, 0, 0),
# (_HOLE, index, 0), (_TENSOR, left, right) or (_ACT, g, body)
_UNIT, _HOLE, _TENSOR, _ACT = range(4)
# move rules; the last three carry exponent 0
_CHI, _J, _PHI, _IOTA, _LEFT, _RIGHT, _ASSOC = range(7)


class _Skeleton:
    """The words and moves of one (max_nodes, arity, G), without labels.

    `nodes[i]` is word i's triple, children first; `order` is the enumeration
    as ids, repeats included.  Move m rewrites subterm `sub[m]` by `rule[m]`
    from `src[m]` (for J, a tuple of sources by twisting element) to `dst[m]`;
    word w's moves are `moves[w]`, counted again for each repeat of w.
    The interning dict and the enumeration's cache are gone once it is built.
    """

    def __init__(self, max_nodes: int, arity: int, G):
        self.key = (max_nodes, arity, G)
        ids: dict[tuple[int, int, int], int] = {}
        nodes = self.nodes = []
        sizes: list[int] = []  # word i's node count, recorded when it is interned

        def node(*key) -> int:
            i = ids.setdefault(key, len(nodes))
            if i == len(nodes):
                k, a, b = key
                nodes.append(key)
                sizes.append(1 + (sizes[a] + sizes[b] if k == _TENSOR else
                                  sizes[b] if k == _ACT else 0))
            return i

        elements = list(G.elements())
        order = self.order = _enumerate(
            max_nodes, arity, elements, lambda: node(_UNIT, 0, 0), lambda i: node(_HOLE, i, 0),
            lambda a, b: node(_TENSOR, a, b), lambda g, b: node(_ACT, g, b))
        columns = self.rule, self.sub, self.src, self.dst = [], [], [], []

        def add(*move) -> None:
            for column, value in zip(columns, move):
                column.append(value)

        def visit(at: int, rebuild) -> None:
            # w's moves inside subterm `at`, which `rebuild` puts back into w, in preorder
            k, a, b = nodes[at]
            if k == _ACT:
                bk, ba, bb = nodes[b]
                if bk == _ACT:
                    add(_CHI, at, w, rebuild(node(_ACT, G.table[a][ba], bb)))
                elif bk == _TENSOR and room:
                    add(_J, at, tuple(rebuild(node(_TENSOR, node(_ACT, tw, ba), node(_ACT, a, bb)))
                                      for tw in elements), w)
                elif bk == _UNIT:
                    add(_PHI, at, rebuild(node(_UNIT, 0, 0)), w)
                if a == G.identity:
                    add(_IOTA, at, rebuild(b), w)
                visit(b, lambda x: rebuild(node(_ACT, a, x)))
            elif k == _TENSOR:
                if nodes[a][0] == _UNIT:
                    add(_LEFT, at, w, rebuild(b))
                if nodes[b][0] == _UNIT:
                    add(_RIGHT, at, w, rebuild(a))
                if nodes[a][0] == _TENSOR:
                    _, al, ar = nodes[a]
                    add(_ASSOC, at, w, rebuild(node(_TENSOR, al, node(_TENSOR, ar, b))))
                visit(a, lambda x: rebuild(node(_TENSOR, x, b)))
                visit(b, lambda x: rebuild(node(_TENSOR, a, x)))

        moves = self.moves = [None] * len(nodes)
        for w in order:
            if moves[w] is None:
                first, room = len(self.rule), sizes[w] < max_nodes  # a J split adds a node
                visit(w, lambda x: x)
                moves[w] = range(first, len(self.rule))
        self.distinct = sum(r is not None for r in moves)
        self.edges = sum(len(moves[w]) for w in order)
        # the recursive closure holds itself, and through `node` the interning
        # dict: break that cycle so the build's scratch goes now, not at a collection
        visit = None

    def walk(self, cat: PointedCrossedCategory, objects: Sequence[int]
             ) -> tuple[Optional[tuple], int]:
        """(first mismatch witness or None, components walked) at one tuple.

        A tuple whose exponents admit a potential returns (None, the number
        of components over `order`), decided by union-find alone; any other
        tuple is walked by `_bfs`, whose witness and count are the result.
        """
        nodes, M, Lt, action = self.nodes, cat.M, cat.Lambda.table, cat.action
        unit = cat.Lambda.identity
        labels: list[int] = []
        for k, a, b in nodes:
            labels.append(Lt[labels[a]][labels[b]] if k == _TENSOR else
                          action[a][labels[b]] if k == _ACT else
                          objects[a - 1] if k == _HOLE else unit)
        J, X, phi, iota = cat.jtable, cat.chitable, cat.phitable, cat.iotatable
        twist, deg = cat.mp.act2, cat.grading
        exps, src = [], []
        for r, at, s in zip(self.rule, self.sub, self.src):
            x = 0
            if r < _LEFT:
                _, g, body = nodes[at]
                _, b1, b2 = nodes[body]
                if r == _CHI:
                    x = X[g][b1][labels[b2]]
                elif r == _J:
                    x, s = J[g][labels[b1]][labels[b2]], s[twist[deg[labels[b2]]][g]]
                else:
                    x = phi[g] if r == _PHI else iota[labels[body]]
            exps.append(x % M)
            src.append(s)

        # weighted union-find over the moves in the enumeration's edge order,
        # repeats included: a root's up is -1, any other word's up is its
        # parent, and off[v] = potential(v) - potential(up[v]) mod M.  Climbing
        # from both ends of a move halves each path and sums
        # x = potential(d) - potential(s) - the move's exponent.  A move
        # keeps the holes and stays within the budget, so both its ends are
        # words of `order`, and each union of two trees joins two components.
        dst, moves, order = self.dst, self.moves, self.order
        up, off = [-1] * len(nodes), [0] * len(nodes)
        components = self.distinct
        for w in order:
            for m in moves[w]:
                s, d, x = src[m], dst[m], -exps[m]
                while (p := up[s]) >= 0:
                    if (q := up[p]) >= 0:
                        up[s], off[s], p = q, off[s] + off[p], q
                    x, s = x - off[s], p
                while (p := up[d]) >= 0:
                    if (q := up[p]) >= 0:
                        up[d], off[d], p = q, off[d] + off[p], q
                    x, d = x + off[d], p
                if s != d:
                    up[s], off[s] = d, x % M
                    components -= 1
                elif x % M:
                    return self._bfs(src, exps, M)
        return None, components

    def _bfs(self, src: list, exps: list, M: int) -> tuple[tuple, int]:
        """(first mismatch witness, components walked) of the depth-first walk
        over adjacency lists in the enumeration's edge order, on a tuple whose
        exponents admit no potential."""
        nodes, dst, moves, order = self.nodes, self.dst, self.moves, self.order
        # edge ids in edge order, repeats included: m at move m's source, ~m at its target
        adjacency: list[list[int]] = [[] for _ in nodes]
        for w in order:
            for m in moves[w]:
                adjacency[src[m]].append(m)
                adjacency[dst[m]].append(~m)

        potential = [-1] * len(nodes)
        via: list[Optional[int]] = [None] * len(nodes)  # the edge that first reached each word
        components = 0
        for root in order:
            if potential[root] >= 0:
                continue
            components += 1
            potential[root], queue = 0, [root]
            while queue:
                u = queue.pop()
                pu = potential[u]
                for e in adjacency[u]:
                    if e >= 0:
                        v, want = dst[e], (pu + exps[e]) % M
                    else:
                        v, want = src[~e], (pu - exps[~e]) % M
                    if potential[v] < 0:
                        potential[v], via[v] = want, e
                        queue.append(v)
                    elif potential[v] != want:
                        return self._witness(src, via, u, v, e), components
        raise AssertionError("the union-find found a cycle that the walk did not")

    def _witness(self, src: list, via: list, u: int, v: int, e: int) -> tuple:
        def trace(w: int) -> str:
            # back to the root along the walk's edges; ~m was taken from move m's target
            steps = []
            while (step := via[w]) is not None:
                steps.append(("" if step >= 0 else "~") + self._rule(step))
                w = src[step] if step >= 0 else self.dst[~step]
            return " . ".join(reversed(steps)) or "id"

        return self._print(u), self._print(v), self._rule(e), trace(u), trace(v)

    def _print(self, i: int) -> str:
        def word(i: int) -> Word:
            k, a, b = self.nodes[i]
            if k == _TENSOR:
                return Tensor(word(a), word(b))
            return Act(a, word(b)) if k == _ACT else Hole(a) if k == _HOLE else Unit()
        return print_word(word(i))

    def _rule(self, e: int) -> str:
        m = e if e >= 0 else ~e
        r, (_, a, b), p = self.rule[m], self.nodes[self.sub[m]], self._print
        if r in (_CHI, _J):
            _, b1, b2 = self.nodes[b]
            return f"chi({a},{b1})@{p(b2)}" if r == _CHI else f"J({a})@({p(b1)},{p(b2)})"
        if r in (_IOTA, _LEFT):
            return ("iota@" if r == _IOTA else "l@") + p(b)
        return f"phi({a})" if r == _PHI else "r@" + p(a) if r == _RIGHT else "assoc"


# only the latest skeleton is kept: a default sweep asks for arity 1, 2, 3 in turn
_last: Optional[_Skeleton] = None


def check_coherence(cat: PointedCrossedCategory, max_nodes: int,
                    objects: Sequence[int]) -> VerificationReport:
    """Bounded uniqueness of parallel structural composites at one object tuple,
    as the module docstring describes; the report counts nodes, edges, and
    independent cycles."""
    global _last
    rep = VerificationReport(subject=f"coherence {cat.name} objects={list(objects)}")
    if _last is None or _last.key != (max_nodes, len(objects), cat.G):
        _last = None  # let the old graph go before the next is built
        _last = _Skeleton(max_nodes, len(objects), cat.G)
    sk = _last
    mismatch, components = sk.walk(cat, objects)
    rep.add("parallel_composites_agree", mismatch is None, mismatch)
    rep.add("search_space_nonempty", len(sk.order) > 0, (max_nodes, len(objects)))
    # E - N + C over the distinct words; known only once every component
    # is walked, so None after a mismatch
    rep.stats = {"words": len(sk.order), "edges": sk.edges, "components": components,
                 "independent_cycles": (sk.edges - sk.distinct + components
                                        if mismatch is None else None)}
    return rep
