"""Gauge invariance: a 1-cochain moves a category's scalar data to an
equivalent category (tests/gauge.py), which must verify the same way.

The category side holds: every gauged fixture is a valid category with the
same center.  The center side does not yet: verify_center_braided rejects a
gauge of every center fixture and the three named cases below, although
each is a valid category.  Those tests are strict xfails, so a fix of the
center's structure maps makes them fail until their markers are removed.
"""

from __future__ import annotations

import itertools
import random

import pytest

from conftest import category
from crossedcat.center import enumerate_center, relative_center_oracle, verify_center_braided
from crossedcat.fixtures import CATEGORIES, CENTER_FIXTURES
from crossedcat.groups import cyclic, trivial_group
from crossedcat.matched import direct_pair
from crossedcat.pointed import pointed_category, verify_crossed_category
from crossedcat.words import check_coherence
from gauge import gauge, random_cochain

CENTER_NOT_GAUGE_COVARIANT = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the center's structure maps are not gauge-covariant: verify_center_braided "
           "rejects valid categories gauge-equivalent to a fixture")


@pytest.mark.parametrize("name", sorted(CATEGORIES))
def test_gauge_keeps_category_and_center(name):
    cat = category(name)
    rng = random.Random(f"gauge:{name}")
    size = len(enumerate_center(cat))
    for _ in range(3):
        gauged = gauge(cat, random_cochain(cat, rng))
        assert verify_crossed_category(gauged).passed
        simples = enumerate_center(gauged)
        assert simples == relative_center_oracle(gauged)
        assert len(simples) == size
        assert check_coherence(gauged, 6, (rng.randrange(cat.Lambda.order),)).passed


def _trivial_all_ones():
    """(a) Trivial groups, M = 2, every structure scalar -1: the gauge of
    Vec by u = 1."""
    one = trivial_group()
    return pointed_category(one, direct_pair(one, one), [0], [[0]], 2, jtable=[[[1]]],
                            phitable=[1], chitable=[[[1]]], iotatable=[1], name="trivial-ones")


def _vec_z2z3_gauged():
    """(b) vec-z2z3 gauged by u[1] = (0, 0, 1)."""
    return gauge(category("vec-z2z3"), [[0, 0, 0], [0, 0, 1]])


def _z2_iota_chi():
    """(c) Lambda = G = Z2, Gamma = 1, trivial action, J = phi = 0,
    iota = (0, 1), chi[g][h] = (0, 1) except chi[1][1] = (0, 0)."""
    z2, one = cyclic(2), trivial_group()
    return pointed_category(z2, direct_pair(z2, one), [0, 0], [[0, 1], [0, 1]], 2,
                            chitable=[[[0, 1], [0, 1]], [[0, 1], [0, 0]]], iotatable=[0, 1],
                            name="z2-iota-chi")


NAMED = {"a-trivial-ones": _trivial_all_ones, "b-vec-z2z3-gauged": _vec_z2z3_gauged,
         "c-z2-iota-chi": _z2_iota_chi}


def test_named_cases_are_valid_categories():
    b = NAMED["b-vec-z2z3-gauged"]()
    assert b.jtable[1] == ((0, 0, 0), (0, 1, 1), (0, 1, 0))
    assert b.chitable[1][1] == (0, 1, 1)
    for name, build in NAMED.items():
        cat = build()
        assert verify_crossed_category(cat).passed, name
        labels = cat.Lambda.elements()
        for objects in itertools.chain.from_iterable(
                itertools.product(labels, repeat=k) for k in range(1, 4)):
            assert check_coherence(cat, 6, objects).passed, (name, objects)
    # the center viewed as a category is sound on (a) and (c): the checks
    # that reject them are the swap scalars and the braiding axioms
    for name in ("a-trivial-ones", "c-z2-iota-chi"):
        checks = {c.name: c.passed for c in verify_center_braided(NAMED[name]()).checks}
        assert checks["center_category_axioms"], name


@CENTER_NOT_GAUGE_COVARIANT
@pytest.mark.parametrize("name", CENTER_FIXTURES)
def test_gauged_center_is_braided(name):
    cat = category(name)
    u = random_cochain(cat, random.Random(f"gauge-center:{name}"))
    assert verify_center_braided(gauge(cat, u)).passed


@CENTER_NOT_GAUGE_COVARIANT
@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_case_center_is_braided(name):
    assert verify_center_braided(NAMED[name]()).passed
