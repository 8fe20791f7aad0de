"""The center's structure maps composed by the rewriting system of
crossedcat.words: the tests' reference for CenterStructure's tables.

Each entry is the exponent of a composite between explicit words, built
from three kinds of step:

- E(u -> v) = x(u) - x(v), x the exponent `words.normal_form` returns.
  Its seven moves terminate and are confluent (Squier, J. Pure Appl.
  Algebra 1987), so E is the structural isomorphism between two words
  with one normal form, whichever path joins them.  The normal forms must
  agree once each run of bare holes is multiplied into its label.
- HB, the half-braiding lam . X -> ^h X . lam of a center point (h, lam,
  chi) at an object X of label zeta . nu, zeta a section label and nu in
  N: chi(nu) + E(^h zeta . ^h nu -> ^h(zeta . nu)), so the section's
  labels get the trivial half-braiding.
- A relabeling of bare holes, which asserts that the labels are equal.

A word is a list of factors, tensored in that order (a tensor's moves
carry exponent 0, so x adds over the factors); a factor is the label of a
bare hole or act(g, *factors).  A point's label is named by the word it
was built as: ^g lam for the G-action, ^h zeta . lam . zeta^-1 for the
Gamma-action.  So no chain can skip a structural isomorphism, and nothing
here reads a formula or a table of crossedcat.center.
"""

from __future__ import annotations

import weakref
from typing import Optional, Sequence

from crossedcat.center import CenterSimple
from crossedcat.pointed import PointedCrossedCategory
from crossedcat.words import Act, Hole, Tensor, Unit, normal_form

# joins two words of a composite by a relabeling of bare holes
RELABEL = "relabel"

# per live category, by id(cat): acted factors' normal forms and the maps' values
_MEMOS: dict[int, dict] = {}


def act(g: int, *factors) -> tuple:
    """The factor ^g(factors): g acting on the tensor of the factors."""
    return (g, *factors)


def _kept(chain):
    """A structure map whose values are kept per category and section."""
    def kept(self, *args):
        key = (chain.__name__, self.section, *args)
        x = self._memo.get(key)
        if x is None:
            x = self._memo[key] = chain(self, *args)
        return x
    kept.__name__, kept.__doc__ = chain.__name__, chain.__doc__
    return kept


class DerivedCenter:
    """The seven structure maps of the center of a unit-normal `cat`
    (phi = iota = 0), on CenterSimple points, over `section` (default:
    cat.least_section, the unit label at the trivial degree and the least
    label of every other Gamma-fiber).  Scalars are exponents mod cat.M."""

    def __init__(self, cat: PointedCrossedCategory, section: Optional[Sequence[int]] = None):
        if any(cat.phitable) or any(cat.iotatable):
            raise ValueError(f"{cat.name}: needs phi = iota = 0; take its unit-normal gauge")
        self.cat = cat
        self.section = tuple(section) if section is not None else cat.least_section()
        assert self.section[cat.Gamma.identity] == cat.Lambda.identity and all(
            cat.grading[x] == s for s, x in enumerate(self.section)), self.section
        self.npos = {nu: i for i, nu in enumerate(cat.neutral_labels)}
        if id(cat) not in _MEMOS:
            _MEMOS[id(cat)] = {}
            weakref.finalize(cat, _MEMOS.pop, id(cat), None)
        self._memo = _MEMOS[id(cat)]

    # -- the three kinds of step
    def _word(self, factors: Sequence, objects: list):
        """The right-nested tensor of `factors`, its holes numbered left to
        right and their labels appended to `objects`."""
        if not factors:
            return Unit()
        f = factors[0]
        if type(f) is int:
            objects.append(f)
            head = Hole(len(objects))
        else:
            head = Act(f[0], self._word(f[1:], objects))
        return head if len(factors) == 1 else Tensor(head, self._word(factors[1:], objects))

    def _normal(self, f) -> tuple[int, list]:
        """x of the acted factor f, and its normal form's factors: the label
        of a bare hole, (g, label) of an acted one."""
        hit = self._memo.get(f)
        if hit is None:
            objects: list[int] = []
            w, x = normal_form(self._word([f], objects), self.cat, objects, [])
            out = []
            while type(w) is not Unit:
                head, w = (w.left, w.right) if type(w) is Tensor else (w, Unit())
                out.append(objects[head.index - 1] if type(head) is Hole
                           else (head.g, objects[head.body.index - 1]))
            hit = self._memo[f] = (x, out)
        return hit

    def E(self, u: list, v: list) -> int:
        Lt, ends = self.cat.Lambda.table, []
        for w in (u, v):
            flat, x = [], 0
            for f in w:
                y, items = (0, [f]) if type(f) is int else self._normal(f)
                x += y
                for item in items:  # bare runs multiplied into their labels
                    if type(item) is int and flat and type(flat[-1]) is int:
                        flat[-1] = Lt[flat[-1]][item]
                    else:
                        flat.append(item)
            ends.append((flat, x))
        assert ends[0][0] == ends[1][0], (u, v, ends)
        return ends[0][1] - ends[1][1]

    def hb(self, z: CenterSimple, x: int) -> int:
        L, zeta = self.cat.Lambda, self.section[self.cat.grading[x]]
        nu = L.table[L.inverses[zeta]][x]
        return z.chi[self.npos[nu]] + self.E([act(z.g, zeta), act(z.g, nu)],
                                             [act(z.g, zeta, nu)])

    def label(self, factors: Sequence) -> int:
        Lt, A, x = self.cat.Lambda.table, self.cat.action, self.cat.Lambda.identity
        for f in factors:
            x = Lt[x][f if type(f) is int else A[f[0]][self.label(f[1:])]]
        return x

    def path(self, *pieces) -> int:
        """A composite's exponent: its words, each joined to the next by E,
        by RELABEL, or by an HB step given as its exponent."""
        total, word, step = 0, pieces[0], None
        for piece in pieces[1:]:
            if type(piece) is not list:
                step = piece
                continue
            if step is RELABEL:
                assert self.label(word) == self.label(piece), (word, piece)
            else:
                total += self.E(word, piece) if step is None else step
            word, step = piece, None
        return total % self.cat.M

    # -- the seven structure maps
    @_kept
    def tensor(self, z1: CenterSimple, z2: CenterSimple) -> CenterSimple:
        """On (h1 h2, lam1 lam2): at nu, both half-braidings, then chi."""
        cat = self.cat
        h1, l1, h2, l2, A = z1.g, z1.label, z2.g, z2.label, cat.action
        h = cat.G.table[h1][h2]
        return CenterSimple(h, cat.Lambda.table[l1][l2], tuple(
            self.path([l1, l2, nu], self.hb(z2, nu), [l1, act(h2, nu), l2],
                      self.hb(z1, A[h2][nu]), [act(h1, act(h2, nu)), l1, l2],
                      [act(h, nu), l1, l2])
            for nu in cat.neutral_labels))

    @_kept
    def g_act(self, g: int, z: CenterSimple) -> CenterSimple:
        """On (g' h g^-1, ^g lam), g' = del(lam) |>2 g: at nu, take
        ^{g^-1} nu under ^g, across lam, and out again."""
        cat = self.cat
        Gt, gi, A, h, lam = cat.G.table, cat.G.inverses[g], cat.action, z.g, z.label
        h2 = Gt[Gt[cat.mp.act2[cat.grading[lam]][g]][h]][gi]
        return CenterSimple(h2, A[g][lam], tuple(
            self.path([act(g, lam), nu], [act(g, lam, act(gi, nu))],
                      self.hb(z, A[gi][nu]), [act(g, act(h, act(gi, nu)), lam)],
                      [act(h2, nu), act(g, lam)])
            for nu in cat.neutral_labels))

    @_kept
    def gamma_act(self, s: int, z: CenterSimple) -> CenterSimple:
        """The retract of zeta (.) z (.) zeta^dual, on (s |>2 h, ^h zeta .
        lam . zeta^-1): at nu, take nu' = zeta^-1 nu zeta across lam."""
        cat = self.cat
        L, h, lam, zeta = cat.Lambda, z.g, z.label, self.section[s]
        Lt, zi, h2 = L.table, L.inverses[zeta], cat.mp.act2[s][h]
        return CenterSimple(h2, Lt[Lt[cat.action[h][zeta]][lam]][zi], tuple(
            self.path([act(h, zeta), lam, zi, nu], RELABEL, [act(h, zeta), lam, nu1, zi],
                      self.hb(z, nu1), [act(h, zeta), act(h, nu1), lam, zi],
                      [act(h, zeta, nu1), lam, zi], RELABEL, [act(h, nu, zeta), lam, zi],
                      [act(h2, nu), act(h, zeta), lam, zi])
            for nu, nu1 in ((nu, Lt[Lt[zi][nu]][zeta]) for nu in cat.neutral_labels)))

    @_kept
    def sigma(self, g: int, s: int, z: CenterSimple) -> int:
        """gamma(s) o g-action ~ g0-action o gamma(s0), s0 = g^-1 |>1 s and
        g0 = (s |>2 g^-1)^-1: open 1 ~ ^g zeta_0 . ^{g0} zeta_0^-1 by
        duality and take zeta_s^-1 . ^g zeta_0, neutral, across ^g z."""
        cat = self.cat
        Linv, gi, q, lam = cat.Lambda.inverses, cat.G.inverses[g], self.g_act(g, z), z.label
        s0, g0, h1 = cat.mp.act1[gi][s], cat.G.inverses[cat.mp.act2[s][gi]], q.g
        zs, z0 = self.section[s], self.section[s0]
        zsi, z0i = Linv[zs], Linv[z0]
        left = [act(h1, zs), act(g, lam), zsi]
        return self.path(
            left, [*left, act(g0)], RELABEL, [*left, act(g0, z0, z0i)],
            [*left, act(g, z0), act(g0, z0i)], self.hb(q, self.label([zsi, act(g, z0)])),
            [act(h1, zs), act(h1, zsi, act(g, z0)), act(g, lam), act(g0, z0i)],
            [act(h1, zs, zsi, act(g, z0)), act(g, lam), act(g0, z0i)], RELABEL,
            [act(h1, act(g, z0)), act(g, lam), act(g0, z0i)], [act(g0, act(z.g, z0), lam, z0i)])

    @_kept
    def j_gamma(self, s: int, z1: CenterSimple, z2: CenterSimple) -> int:
        """gamma(h2 |>1 s)(z1) (x) gamma(s)(z2) ~ gamma(s)(z1 (x) z2): take
        zeta'^-1 . ^{h2} zeta_s, neutral, across lam1."""
        cat = self.cat
        Linv, h1, h2, l1, l2 = cat.Lambda.inverses, z1.g, z2.g, z1.label, z2.label
        zs, zt = self.section[s], self.section[cat.mp.act1[h2][s]]
        zsi, zti = Linv[zs], Linv[zt]
        return self.path(
            [act(h1, zt), l1, zti, act(h2, zs), l2, zsi],
            self.hb(z1, self.label([zti, act(h2, zs)])),
            [act(h1, zt), act(h1, zti, act(h2, zs)), l1, l2, zsi],
            [act(h1, zt, zti, act(h2, zs)), l1, l2, zsi], RELABEL,
            [act(h1, act(h2, zs)), l1, l2, zsi], [act(cat.G.table[h1][h2], zs), l1, l2, zsi])

    @_kept
    def chi_gamma(self, s: int, s2: int, z: CenterSimple) -> int:
        """gamma(s)(gamma(s2)(z)) ~ gamma(s s2)(z): merge the acted section
        labels under ^h and take the neutral rest back across lam."""
        cat = self.cat
        L, h, lam, sec = cat.Lambda, z.g, z.label, self.section
        Lt, Linv = L.table, L.inverses
        zs, z2, z12 = sec[s], sec[s2], sec[cat.Gamma.table[s][s2]]
        nu, tail = Lt[Linv[z12]][Lt[zs][z2]], [Linv[z2], Linv[zs]]
        return self.path(
            [act(cat.mp.act2[s2][h], zs), act(h, z2), lam, *tail],
            [act(h, zs, z2), lam, *tail], RELABEL, [act(h, z12, nu), lam, *tail],
            [act(h, z12), act(h, nu), lam, *tail], -self.hb(z, nu),
            [act(h, z12), lam, nu, *tail], RELABEL, [act(h, z12), lam, Linv[z12]])

    @_kept
    def braiding(self, z1: CenterSimple, z2: CenterSimple) -> tuple[CenterSimple, int]:
        """HB(z1, lam2), with its target ^{h1} z2 (x) z1."""
        return self.tensor(self.g_act(z1.g, z2), z1), self.hb(z1, z2.label) % self.cat.M
