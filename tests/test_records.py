"""Value semantics of the record types: equality, hashing, immutability,
defaults and the field-style repr that error messages print."""

from __future__ import annotations

import itertools

import pytest

from crossedcat import braided, center, groups, matched, pointed, report, words
from crossedcat.records import Record

RECORDS = [
    groups.FiniteGroup, groups.GroupHom, matched.MatchedPair, braided.BraidedMatchedPair,
    pointed.PointedCrossedCategory, center.CenterSimple, report.Check, words.Unit, words.Hole,
    words.Tensor, words.Act,
]


def values(cls: type, offset: int = 0) -> tuple:
    return tuple(range(7 + offset, 7 + offset + len(cls._fields)))


def test_every_record_type_is_listed():
    modules = (groups, matched, braided, pointed, center, report, words)
    found = {obj for mod in modules for obj in vars(mod).values()
             if isinstance(obj, type) and issubclass(obj, Record) and obj is not Record}
    assert found == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_equal_fields_give_equal_objects_and_hashes(cls):
    a, b = cls(*values(cls)), cls(*values(cls))
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    if cls._fields:
        assert a != cls(*values(cls, offset=1))
    assert a != values(cls)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    obj = cls(*values(cls))
    for name in cls._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert obj == cls(*values(cls))


def test_different_classes_with_equal_fields_are_unequal():
    pairs = [(a, b) for a, b in itertools.permutations(RECORDS, 2)
             if len(a._fields) == len(b._fields)]
    assert len(pairs) > 10
    for a, b in pairs:
        assert a(*values(a)) != b(*values(b)), (a.__name__, b.__name__)


def test_defaulted_fields_take_their_default():
    assert groups.FiniteGroup(1, ((0,),), 0, (0,)).name == "G"
    assert report.Check("c", True).witness is None
    assert report.Check("c", False, witness=(1,)) == report.Check("c", False, (1,))


def test_constructor_rejects_wrong_arguments():
    with pytest.raises(TypeError):
        report.Check("c")
    with pytest.raises(TypeError):
        report.Check("c", True, None, 4)
    with pytest.raises(TypeError):
        report.Check("c", True, wit=None)
    with pytest.raises(TypeError):
        report.Check("c", True, passed=True)


def test_repr_lists_fields_in_order():
    assert repr(report.Check("well_formed", False, ("m",))) == \
        "Check(name='well_formed', passed=False, witness=('m',))"
    assert repr(center.CenterSimple(0, 2, (0, 2))) == "CenterSimple(g=0, label=2, chi=(0, 2))"
    assert repr(words.Tensor(words.Hole(1), words.Unit())) == \
        "Tensor(left=Hole(index=1), right=Unit())"


def test_cached_property_still_works_on_a_record():
    from crossedcat.fixtures import CATEGORIES
    a, b = CATEGORIES["z4-over-z2"](), CATEGORIES["z4-over-z2"]()
    assert a.fibers is a.fibers
    assert a == b and hash(a) == hash(b)


def test_distinct_enumerated_words_print_distinctly():
    ws = set(words.enumerate_words(5, 2, [0, 1, 2]))
    assert len(ws) == 70
    assert len({words.print_word(w) for w in ws}) == 70
