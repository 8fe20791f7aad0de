"""Words of crossed-monoidal functors and their structural morphisms.

Grammar for the printable form:  `1` (unit), `_i` (hole i), `(w * w)`
(tensor), and `tok<w>` (action by the group element named `tok`; a bare
integer token is an element index).  Holes are linear and numbered left to
right, matching how substitution sums arities.

The bounded coherence check walks the graph whose nodes are all words up to
a node budget instantiated at a fixed object tuple and whose edges are
single structural moves (associator and unit moves, action-composition,
action-over-tensor, action unit, action on the monoidal unit) applied at any
position.  All parallel composites agree iff every non-tree edge matches
the BFS potential; a mismatch is reported with the two explicit composites.

The graph is built on interned words: a word is the integer id of its
(kind, a, b) triple over child ids (hash-consing).  The words and moves of
one (budget, arity, G) form a skeleton, built once for every tuple of that
arity; a J split's source depends on labels, so the skeleton keeps one per
twisting element.  Each tuple computes its labels bottom-up over the ids,
reads the exponents from the tables and walks integer adjacency lists;
words, rule texts and paths are built only for a mismatch's witness.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Union

from .errors import ArityMismatch, EndpointMismatch, ParseError
from .pointed import PointedCrossedCategory
from .records import Record
from .report import VerificationReport
from .scalars import UnitScalar

Token = Union[int, str]


# -- word AST --------------------------------------------------------------------

class Unit(Record):
    pass


class Hole(Record):
    index: int  # 1-based


class Tensor(Record):
    left: "Word"
    right: "Word"


class Act(Record):
    g: Token
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


def word_holes(w: Word) -> tuple[int, ...]:
    """Hole indices in left-to-right order."""
    if isinstance(w, Unit):
        return ()
    if isinstance(w, Hole):
        return (w.index,)
    if isinstance(w, Tensor):
        return word_holes(w.left) + word_holes(w.right)
    return word_holes(w.body)


def word_arity(w: Word) -> int:
    holes = word_holes(w)
    if sorted(holes) != list(range(1, len(holes) + 1)) or list(holes) != sorted(holes):
        raise ArityMismatch(f"holes {holes} are not linear 1..n left to right")
    return len(holes)


# -- parser ----------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos + 1)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self) -> None:
        while self.peek() == " ":
            self.pos += 1

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> Word:
        w = self.parse_word()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing input")
        return w

    def parse_word(self) -> Word:
        self.skip_ws()
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            left = self.parse_word()
            self.expect("*")
            right = self.parse_word()
            self.expect(")")
            return Tensor(left, right)
        if ch == "1":
            nxt = self.text[self.pos + 1:self.pos + 2]
            if not (nxt.isalnum() or nxt in ("_", "<")):
                self.pos += 1
                return Unit()
        if ch == "_":
            self.pos += 1
            start = self.pos
            while self.peek().isdigit():
                self.pos += 1
            if start == self.pos:
                raise self.error("expected hole number after '_'")
            return Hole(int(self.text[start:self.pos]))
        if ch.isalnum():
            start = self.pos
            while self.peek().isalnum() or self.peek() == "_":
                self.pos += 1
            token: Token = self.text[start:self.pos]
            if token.isdigit():
                token = int(token)
            self.expect("<")
            body = self.parse_word()
            self.expect(">")
            return Act(token, body)
        raise self.error("expected a word")


def parse_word(text: str) -> Word:
    return _Parser(text).parse()


def resolve_token(tok: Token, cat: PointedCrossedCategory,
                  element_names: Optional[dict[str, int]] = None) -> int:
    if isinstance(tok, int):
        g = tok
    elif tok == "e":
        g = cat.G.identity
    elif element_names and tok in element_names:
        g = element_names[tok]
    elif tok.startswith("g") and tok[1:].isdigit():
        g = int(tok[1:])
    else:
        raise ArityMismatch(f"cannot resolve group element token {tok!r}")
    if not 0 <= g < cat.G.order:
        raise ArityMismatch(f"element index {g} out of range for {cat.G.name}")
    return g


# -- evaluation --------------------------------------------------------------------

def eval_word(w: Word, objects: Sequence[int], cat: PointedCrossedCategory,
              element_names: Optional[dict[str, int]] = None) -> int:
    """The label obtained by substituting, tensoring, and acting."""
    arity = word_arity(w)
    if arity != len(objects):
        raise ArityMismatch(f"word has arity {arity}, got {len(objects)} objects")
    return _eval(w, objects, cat, element_names)


def _eval(w: Word, objects: Sequence[int], cat: PointedCrossedCategory,
          element_names: Optional[dict[str, int]]) -> int:
    """The label of w with its holes bound to objects positionally, left to right."""
    it = iter(objects)

    def go(w: Word) -> int:
        if isinstance(w, Unit):
            return cat.Lambda.identity
        if isinstance(w, Hole):
            return next(it)
        if isinstance(w, Tensor):
            return cat.Lambda.mul(go(w.left), go(w.right))
        return cat.act(resolve_token(w.g, cat, element_names), go(w.body))

    return go(w)


# -- structural morphisms -------------------------------------------------------------

class Assoc(Record):
    w1: Word
    w2: Word
    w3: Word


class LeftUnit(Record):
    w: Word


class RightUnit(Record):
    w: Word


class JMove(Record):
    g: Token
    w1: Word
    w2: Word


class ChiMove(Record):
    g: Token
    h: Token
    w: Word


class IotaMove(Record):
    w: Word


class PhiMove(Record):
    g: Token


class Inverse(Record):
    inner: "Structural"


class Compose(Record):
    after: "Structural"
    before: "Structural"


class Apply(Record):
    word: Word
    parts: tuple["Structural", ...]


Structural = Union[Assoc, LeftUnit, RightUnit, JMove, ChiMove, IotaMove, PhiMove,
                   Inverse, Compose, Apply]


def eval_structural(m: Structural, objects: Sequence[int], cat: PointedCrossedCategory,
                    element_names: Optional[dict[str, int]] = None
                    ) -> tuple[int, int, UnitScalar]:
    """(source label, target label, coefficient) of a structural morphism.

    Coefficients of structural isos are always roots; Inverse negates the
    exponent and Compose checks endpoint chaining on labels.
    """
    L = cat.Lambda

    def ev(w: Word, objs: Sequence[int]) -> int:
        return _eval(w, objs, cat, element_names)

    def go(m: Structural, objs: Sequence[int]) -> tuple[int, int, int]:
        if isinstance(m, Assoc):
            parts = _split_objects(objs, (m.w1, m.w2, m.w3))
            l1, l2, l3 = (ev(w, o) for w, o in zip((m.w1, m.w2, m.w3), parts))
            x = L.mul(L.mul(l1, l2), l3)
            return x, x, 0
        if isinstance(m, (LeftUnit, RightUnit)):
            x = ev(m.w, objs)
            return x, x, 0
        if isinstance(m, JMove):
            g = resolve_token(m.g, cat, element_names)
            parts = _split_objects(objs, (m.w1, m.w2))
            l1, l2 = ev(m.w1, parts[0]), ev(m.w2, parts[1])
            tw = cat.mp.a2(cat.deg(l2), g)
            src = L.mul(cat.act(tw, l1), cat.act(g, l2))
            tgt = cat.act(g, L.mul(l1, l2))
            return src, tgt, cat.j(g, l1, l2)
        if isinstance(m, ChiMove):
            g = resolve_token(m.g, cat, element_names)
            h = resolve_token(m.h, cat, element_names)
            x = ev(m.w, objs)
            src = cat.act(g, cat.act(h, x))
            return src, cat.act(cat.G.mul(g, h), x), cat.x(g, h, x)
        if isinstance(m, IotaMove):
            x = ev(m.w, objs)
            return x, cat.act(cat.G.identity, x), cat.io(x)
        if isinstance(m, PhiMove):
            g = resolve_token(m.g, cat, element_names)
            e = L.identity
            return e, cat.act(g, e), cat.ph(g)
        if isinstance(m, Inverse):
            s, t, c = go(m.inner, objs)
            return t, s, -c
        if isinstance(m, Compose):
            s1, t1, c1 = go(m.before, objs)
            s2, t2, c2 = go(m.after, objs)
            if t1 != s2:
                raise EndpointMismatch(f"composite endpoints {t1} != {s2}")
            return s1, t2, c1 + c2
        if isinstance(m, Apply):
            if word_arity(m.word) != len(m.parts):
                raise ArityMismatch("Apply arity does not match parts")
            sub = _split_objects(objs, tuple(_part_word(p) for p in m.parts))
            srcs, tgts, total = [], [], 0
            for p, o in zip(m.parts, sub):
                s, t, c = go(p, o)
                srcs.append(s)
                tgts.append(t)
                total += c
            return (ev(m.word, srcs), ev(m.word, tgts), total)
        raise TypeError(f"not a structural morphism: {m!r}")

    s, t, c = go(m, list(objects))
    return s, t, UnitScalar(cat.M, c)


def _part_word(p: Structural) -> Word:
    """A word with the arity of the morphism p, for object splitting."""
    if isinstance(p, Assoc):
        return Tensor(Tensor(p.w1, p.w2), p.w3)
    if isinstance(p, (LeftUnit, RightUnit, ChiMove, IotaMove)):
        return p.w
    if isinstance(p, JMove):
        return Tensor(p.w1, p.w2)
    if isinstance(p, PhiMove):
        return Unit()
    if isinstance(p, Inverse):
        return _part_word(p.inner)
    if isinstance(p, Compose):
        return _part_word(p.before)
    if isinstance(p, Apply):
        return p.word
    raise TypeError(f"not a structural morphism: {p!r}")


def _split_objects(objs: Sequence[int], words: tuple[Word, ...]) -> list[list[int]]:
    out, k = [], 0
    for w in words:
        n = len(word_holes(w))
        out.append(list(objs[k:k + n]))
        k += n
    if k != len(objs):
        raise ArityMismatch(f"{len(objs)} objects for words of total arity {k}")
    return out


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

    return gen(max_nodes, 1, arity + 1)


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
    """

    def __init__(self, max_nodes: int, arity: int, G):
        self.key = (max_nodes, arity, G)
        ids: dict[tuple[int, int, int], int] = {}
        nodes = self.nodes = []

        def node(*key) -> int:
            i = ids.setdefault(key, len(nodes))
            if i == len(nodes):
                nodes.append(key)
            return i

        def size(i: int) -> int:
            k, a, b = nodes[i]
            return 1 + (size(a) + size(b) if k == _TENSOR else size(b) if k == _ACT else 0)

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
                first, room = len(self.rule), size(w) < max_nodes  # a J split adds a node
                visit(w, lambda x: x)
                moves[w] = range(first, len(self.rule))
        self.distinct = sum(r is not None for r in moves)
        self.edges = sum(len(moves[w]) for w in order)

    def walk(self, cat: PointedCrossedCategory, objects: Sequence[int]
             ) -> tuple[Optional[tuple], int]:
        """(first mismatch witness or None, components walked) at one tuple."""
        nodes, M, Lt, action = self.nodes, cat.M, cat.Lambda.table, cat.action
        unit = cat.Lambda.identity
        labels: list[int] = []
        for k, a, b in nodes:
            labels.append(Lt[labels[a]][labels[b]] if k == _TENSOR else
                          action[a][labels[b]] if k == _ACT else
                          objects[a - 1] if k == _HOLE else unit)
        J, X, phi, iota = cat.jtable, cat.chitable, cat.phitable, cat.iotatable
        twist, deg = cat.mp.act2.table, cat.grading
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

        # (neighbour, exponent step) pairs in the enumeration's edge order, repeats included
        dst, moves, order = self.dst, self.moves, self.order
        adjacency: list[list[int]] = [[] for _ in nodes]
        for w in order:
            for m in moves[w]:
                s, d, x = src[m], dst[m], exps[m]
                adjacency[s] += d, x
                adjacency[d] += s, -x % M

        potential = [-1] * len(nodes)
        parent: list[Optional[int]] = [None] * len(nodes)
        components = 0
        for root in order:
            if potential[root] >= 0:
                continue
            components += 1
            potential[root], queue = 0, [root]
            while queue:
                u = queue.pop()
                pu = potential[u]
                pairs = iter(adjacency[u])
                for v, x in zip(pairs, pairs):
                    want = (pu + x) % M
                    if potential[v] < 0:
                        potential[v], parent[v] = want, u
                        queue.append(v)
                    elif potential[v] != want:
                        return self._witness(src, exps, potential, parent, M, u), components
        return None, components

    def _edges(self, u: int, src: list) -> Iterator[tuple[int, int]]:
        """u's adjacency as (edge, neighbour): m leaves move m's source, ~m its target."""
        for w in self.order:
            for m in self.moves[w]:
                if src[m] == u:
                    yield m, self.dst[m]
                elif self.dst[m] == u:
                    yield ~m, src[m]

    def _witness(self, src, exps, potential, parent, M, u) -> tuple:
        # potentials never change once set, so the walk stopped at u's first edge
        # that disagrees, and a node's parent edge is its parent's first edge to it
        def trace(w: int) -> str:
            steps = []
            while parent[w] is not None:
                e = next(e for e, x in self._edges(parent[w], src) if x == w)
                steps.append(("" if e >= 0 else "~") + self._rule(e))
                w = parent[w]
            return " . ".join(reversed(steps)) or "id"

        e, v = next((e, v) for e, v in self._edges(u, src)
                    if potential[v] != (potential[u] + (exps[e] if e >= 0 else -exps[~e])) % M)
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
