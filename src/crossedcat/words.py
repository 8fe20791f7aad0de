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

# Words are the nodes of the coherence graph, hashed and compared on every
# edge, so each class spells out its own __init__, __eq__ and __hash__:
# with Record's generic ones the default coherence sweep on
# cat-z4-over-z2-graded took two to three times the CPU time.

class Unit(Record):
    def __init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return True
        return NotImplemented

    def __hash__(self):
        return hash(())


class Hole(Record):
    index: int  # 1-based

    def __init__(self, index: int):
        object.__setattr__(self, "index", index)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.index == other.index
        return NotImplemented

    def __hash__(self):
        return hash((self.index,))


class Tensor(Record):
    left: "Word"
    right: "Word"

    def __init__(self, left: "Word", right: "Word"):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.left, self.right) == (other.left, other.right)
        return NotImplemented

    def __hash__(self):
        return hash((self.left, self.right))


class Act(Record):
    g: Token
    body: "Word"

    def __init__(self, g: Token, body: "Word"):
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "body", body)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.g, self.body) == (other.g, other.body)
        return NotImplemented

    def __hash__(self):
        return hash((self.g, self.body))


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


def word_nodes(w: Word) -> int:
    if isinstance(w, (Unit, Hole)):
        return 1
    if isinstance(w, Tensor):
        return 1 + word_nodes(w.left) + word_nodes(w.right)
    return 1 + word_nodes(w.body)


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
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> Word:
        self.skip_ws()
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
            self.skip_ws()
            self.expect("*")
            right = self.parse_word()
            self.skip_ws()
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
            self.skip_ws()
            self.expect("<")
            body = self.parse_word()
            self.skip_ws()
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

    def go(w: Word) -> int:
        if isinstance(w, Unit):
            return cat.Lambda.identity
        if isinstance(w, Hole):
            return objects[w.index - 1]
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
        # bind holes positionally left to right; generator sub-words keep
        # their original (not 1-based) hole numbers
        it = iter(objs)

        def go_w(w: Word) -> int:
            if isinstance(w, Unit):
                return L.identity
            if isinstance(w, Hole):
                return next(it)
            if isinstance(w, Tensor):
                left = go_w(w.left)
                return L.mul(left, go_w(w.right))
            return cat.act(resolve_token(w.g, cat, element_names), go_w(w.body))

        return go_w(w)

    def go(m: Structural, objs: Sequence[int]) -> tuple[int, int, int]:
        if isinstance(m, Assoc):
            parts = _split_objects(objs, (m.w1, m.w2, m.w3))
            l1, l2, l3 = (ev(w, o) for w, o in zip((m.w1, m.w2, m.w3), parts))
            x = L.mul(L.mul(l1, l2), l3)
            return x, x, 0
        if isinstance(m, LeftUnit):
            x = ev(m.w, objs)
            return x, x, 0
        if isinstance(m, RightUnit):
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
    if isinstance(p, (Assoc,)):
        return Tensor(Tensor(p.w1, p.w2), p.w3)
    if isinstance(p, (LeftUnit, RightUnit)):
        return p.w
    if isinstance(p, JMove):
        return Tensor(p.w1, p.w2)
    if isinstance(p, ChiMove):
        return p.w
    if isinstance(p, IotaMove):
        return p.w
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

def _substitute(w: Word, path: tuple[int, ...], replacement: Word) -> Word:
    if not path:
        return replacement
    head, rest = path[0], path[1:]
    if isinstance(w, Tensor):
        if head == 0:
            return Tensor(_substitute(w.left, rest, replacement), w.right)
        return Tensor(w.left, _substitute(w.right, rest, replacement))
    if isinstance(w, Act):
        return Act(w.g, _substitute(w.body, rest, replacement))
    raise ValueError("bad path")


def _subterms(w: Word, path: tuple[int, ...] = ()) -> Iterator[tuple[tuple[int, ...], Word]]:
    yield path, w
    if isinstance(w, Tensor):
        yield from _subterms(w.left, path + (0,))
        yield from _subterms(w.right, path + (1,))
    elif isinstance(w, Act):
        yield from _subterms(w.body, path + (2,))


def min_word_nodes(arity: int) -> int:
    """Nodes in the smallest word over arity objects: the unit for none, else
    the arity holes joined by arity - 1 tensors."""
    return max(1, 2 * arity - 1)


def enumerate_words(max_nodes: int, arity: int, elements: Sequence[int]) -> list[Word]:
    """All linear words with holes exactly 1..arity, at most max_nodes nodes."""
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


def _eval_raw(w: Word, objects: Sequence[int], cat: PointedCrossedCategory) -> int:
    """Evaluate with holes bound positionally, no linearity checks."""
    if isinstance(w, Unit):
        return cat.Lambda.identity
    if isinstance(w, Hole):
        return objects[w.index - 1]
    if isinstance(w, Tensor):
        return cat.Lambda.mul(_eval_raw(w.left, objects, cat), _eval_raw(w.right, objects, cat))
    return cat.act(resolve_token(w.g, cat), _eval_raw(w.body, objects, cat))


def _moves_from(w: Word, objects: Sequence[int], cat: PointedCrossedCategory,
                max_nodes: int) -> Iterator[tuple[Word, Word, int, str]]:
    """Single structural moves (source, target, exponent, rule) available
    anywhere inside w (canonical side)."""

    def label_of(u: Word) -> int:
        return _eval_raw(u, objects, cat)

    for path, sub in _subterms(w):
        if isinstance(sub, Act):
            g = sub.g  # enumeration uses int tokens
            body = sub.body
            if isinstance(body, Act):
                new = _substitute(w, path, Act(cat.G.mul(g, body.g), body.body))
                yield (w, new, cat.x(g, body.g, label_of(body.body)),
                       f"chi({g},{body.g})@{print_word(body.body)}")
            if isinstance(body, Tensor):
                l1, l2 = label_of(body.left), label_of(body.right)
                tw = cat.mp.a2(cat.deg(l2), g)
                split = _substitute(w, path, Tensor(Act(tw, body.left), Act(g, body.right)))
                if word_nodes(split) <= max_nodes:
                    # oriented split -> joined, scalar J
                    yield (split, w, cat.j(g, l1, l2),
                           f"J({g})@({print_word(body.left)},{print_word(body.right)})")
            if isinstance(body, Unit):
                new = _substitute(w, path, Unit())
                yield (new, w, cat.ph(g), f"phi({g})")
            if g == cat.G.identity:
                new = _substitute(w, path, body)
                yield (new, w, cat.io(label_of(body)), f"iota@{print_word(body)}")
        if isinstance(sub, Tensor):
            if isinstance(sub.left, Unit):
                new = _substitute(w, path, sub.right)
                yield (w, new, 0, f"l@{print_word(sub.right)}")
            if isinstance(sub.right, Unit):
                new = _substitute(w, path, sub.left)
                yield (w, new, 0, f"r@{print_word(sub.left)}")
            if isinstance(sub.left, Tensor):
                new = _substitute(w, path, Tensor(sub.left.left, Tensor(sub.left.right, sub.right)))
                yield (w, new, 0, "assoc")
    return


def check_coherence(cat: PointedCrossedCategory, max_nodes: int,
                    objects: Sequence[int]) -> VerificationReport:
    """Bounded uniqueness of parallel structural composites at one object tuple.

    Every word up to the budget is a node; every single move is an edge with
    its scalar; BFS potentials must match across every non-tree edge, which
    is equivalent to all bounded parallel composites having equal
    coefficients.  The report counts nodes, edges, and independent cycles.
    """
    rep = VerificationReport(subject=f"coherence {cat.name} objects={list(objects)}")
    words = enumerate_words(max_nodes, len(objects), list(cat.G.elements()))
    node_index = {w: i for i, w in enumerate(words)}
    adjacency: dict[Word, list[tuple[Word, int, str, int]]] = {w: [] for w in words}
    n_edges = 0
    for w in words:
        for src, dst, exponent, rule in _moves_from(w, objects, cat, max_nodes):
            if src in node_index and dst in node_index:
                adjacency[src].append((dst, exponent, rule, +1))
                adjacency[dst].append((src, exponent, rule, -1))
                n_edges += 1

    potential: dict[Word, int] = {}
    parent: dict[Word, tuple[Word, str, int]] = {}
    mismatch: Optional[tuple] = None
    components = 0
    for root in words:
        if root in potential:
            continue
        components += 1
        potential[root] = 0
        queue = [root]
        while queue and mismatch is None:
            u = queue.pop()
            for (v, exp, rule, sign) in adjacency[u]:
                want = (potential[u] + sign * exp) % cat.M
                if v not in potential:
                    potential[v] = want
                    parent[v] = (u, rule, sign)
                    queue.append(v)
                elif potential[v] != want:
                    mismatch = (print_word(u), print_word(v), rule,
                                _trace(parent, u), _trace(parent, v))
                    break
        if mismatch is not None:
            break

    rep.add("parallel_composites_agree", mismatch is None, mismatch)
    rep.add("search_space_nonempty", len(words) > 0, (max_nodes, len(objects)))
    # E - N + C over the distinct words; known only once every component
    # is walked, so None after a mismatch
    rep.stats = {"words": len(words), "edges": n_edges, "components": components,
                 "independent_cycles": (n_edges - len(adjacency) + components
                                        if mismatch is None else None)}
    return rep


def _trace(parent: dict, w: Word) -> str:
    steps = []
    while w in parent:
        u, rule, sign = parent[w]
        steps.append(("" if sign > 0 else "~") + rule)
        w = u
    return " . ".join(reversed(steps)) or "id"
