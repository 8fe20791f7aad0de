"""Gauge transformations of the scalar data of a pointed crossed category.

A 1-cochain u: G x Lambda -> Z_M rescales each identification of the
functor T_g at x with the label ^g x by zeta_M^u[g][x].  Every structure
isomorphism is then conjugated by these scalars: it gains u at its target
and loses u at each acted object of its source, while the unit object and
the unacted x carry no scalar.

    J'[g][x][y]    = J[g][x][y] + u[g][xy] - u[del(y) |>2 g][x] - u[g][y]
    phi'[g]        = phi[g] + u[g][e_L]
    chi'[g][h][x]  = chi[g][h][x] + u[gh][x] - u[g][^h x] - u[h][x]
    iota'[x]       = iota[x] + u[e_G][x]

This is the gauge equivalence of tensor-functor structures (Etingof,
Gelaki, Nikshych and Ostrik, *Tensor Categories*, AMS 2015)
applied to each T_g and to the action's composition and unit
isomorphisms.  A gauged category is equivalent to the original one, so it
satisfies the same axioms and has an equivalent braided center.  Of the
sign choices, only this one and its overall negation keep random gauges of
the fixtures valid.  A coboundary shift (coboundary_shifted) moves J and
chi by two independent cochains: it keeps the cocycle laws, and no more.
"""

from __future__ import annotations

import random
from typing import Sequence

from crossedcat.pointed import PointedCrossedCategory, pointed_category


def random_cochain(cat: PointedCrossedCategory, rng: random.Random) -> list[list[int]]:
    return [[rng.randrange(cat.M) for _ in cat.Lambda.elements()] for _ in cat.G.elements()]


def gauge(cat: PointedCrossedCategory, u: Sequence[Sequence[int]]) -> PointedCrossedCategory:
    """cat with J, phi, chi and iota moved by the cochain u[g][x] as above."""
    G, L, mp = cat.G, cat.Lambda, cat.mp
    Gs, Ls, eG, eL = G.elements(), L.elements(), G.identity, L.identity
    Gt, Lt, a2 = G.table, L.table, mp.act2
    J, X, act, deg = cat.jtable, cat.chitable, cat.action, cat.grading
    j = [[[J[g][x][y] + u[g][Lt[x][y]] - u[a2[deg[y]][g]][x] - u[g][y]
           for y in Ls] for x in Ls] for g in Gs]
    phi = [cat.phitable[g] + u[g][eL] for g in Gs]
    chi = [[[X[g][h][x] + u[Gt[g][h]][x] - u[g][act[h][x]] - u[h][x]
             for x in Ls] for h in Gs] for g in Gs]
    iota = [cat.iotatable[x] + u[eG][x] for x in Ls]
    return pointed_category(L, mp, cat.grading, cat.action, cat.M, jtable=j, phitable=phi,
                            chitable=chi, iotatable=iota, name=f"{cat.name}:gauged")


def coboundary_shifted(cat: PointedCrossedCategory, rng: random.Random) -> PointedCrossedCategory:
    """`cat` with J += d(alpha) and chi += d(beta), for random 1-cochains
    alpha of Lambda and beta of G in the right modules of the cocycle
    laws' closure proof (at pointed.axiom2_cocycle), both zero at the unit.
    D(d(alpha)) = 0, so each cocycle law reads the same sums as on `cat`,
    now over nonzero data; the unit entries of J and chi do not move."""
    L, G, M, a2, deg, act = cat.Lambda, cat.G, cat.M, cat.mp.act2, cat.grading, cat.action
    Lt, Gt = L.table, G.table

    def cochain(K, size):
        return [[0] * size if k == K.identity else [rng.randrange(M) for _ in range(size)]
                for k in K.elements()]

    alpha, beta = cochain(L, G.order), cochain(G, L.order)
    j = [[[(cat.jtable[g][x][y] + alpha[y][g] - alpha[Lt[x][y]][g] + alpha[x][a2[deg[y]][g]]) % M
           for y in L.elements()] for x in L.elements()] for g in G.elements()]
    chi = [[[(cat.chitable[g][h][x] + beta[h][x] - beta[Gt[g][h]][x] + beta[g][act[h][x]]) % M
             for x in L.elements()] for h in G.elements()] for g in G.elements()]
    return pointed_category(L, cat.mp, cat.grading, cat.action, M, jtable=j,
                            phitable=cat.phitable, chitable=chi, iotatable=cat.iotatable,
                            name=f"{cat.name}+d")
