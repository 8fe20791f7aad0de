"""Each input table is checked once, by the record constructor that freezes it.

validate_group, matched_pair, braided_pair and pointed_category accept an
index table only as integers nested in lists or tuples, and refuse any
other entry with a ValidationError, whose message the loader prints.
"""

from __future__ import annotations

import json

import pytest

from conftest import FIXTURE_DIR, cli
from crossedcat import jsonio
from crossedcat.braided import braided_pair
from crossedcat.errors import ValidationError
from crossedcat.groups import validate_group
from crossedcat.matched import matched_pair
from crossedcat.pointed import pointed_category

G = jsonio.load_group(FIXTURE_DIR / "group-z3.json")
MP = jsonio.load_matched(FIXTURE_DIR / "z2-z3-inversion.json")
BMP = jsonio.load_braided(FIXTURE_DIR / "turaev-z2-braided.json")
CAT = jsonio.load_category(FIXTURE_DIR / "cat-cocycle-j.json")


def _with_first(table, depth: int, value):
    """`table` as nested lists, its first entry replaced by `value`."""
    rows = json.loads(json.dumps(table))
    node = rows
    for _ in range(depth - 1):
        node = node[0]
    node[0] = value
    return rows


def _category(**tables):
    """pointed_category on CAT's tables, with `tables` in place of its own."""
    args = {"grading": CAT.grading, "action": CAT.action, "jtable": CAT.jtable,
            "phitable": CAT.phitable, "chitable": CAT.chitable, "iotatable": CAT.iotatable}
    args.update(tables)
    return pointed_category(CAT.Lambda, CAT.mp, args.pop("grading"), args.pop("action"), CAT.M,
                            **args)


def _category_json(key, table):
    obj = jsonio.category_to_json(CAT)
    obj[key] = table
    return obj


# (depth, kind of file, the constructor on a table, the file's JSON with
# that table, the table); the key names the table in the message
TABLES = {
    "group table": (2, "group", lambda t: validate_group(t, G.identity),
                    lambda t: dict(jsonio.group_to_json(G), table=t), G.table),
    "act1": (2, "matched-pair",
             lambda t: matched_pair(MP.G, MP.Gamma, t, MP.act2),
             lambda t: dict(jsonio.matched_to_json(MP), act1=t), MP.act1),
    "act2": (2, "matched-pair",
             lambda t: matched_pair(MP.G, MP.Gamma, MP.act1, t),
             lambda t: dict(jsonio.matched_to_json(MP), act2=t), MP.act2),
    "phi": (1, "braided-pair", lambda t: braided_pair(BMP.mp, t, BMP.psi),
            lambda t: dict(jsonio.braided_to_json(BMP), phi=t), BMP.phi),
    "psi": (1, "braided-pair", lambda t: braided_pair(BMP.mp, BMP.phi, t),
            lambda t: dict(jsonio.braided_to_json(BMP), psi=t), BMP.psi),
    "grading": (1, "category", lambda t: _category(grading=t),
                lambda t: _category_json("grading", t), CAT.grading),
    "action": (2, "category", lambda t: _category(action=t),
               lambda t: _category_json("action", t), CAT.action),
    "J": (3, "category", lambda t: _category(jtable=t),
          lambda t: _category_json("J", t), CAT.jtable),
    "chi": (3, "category", lambda t: _category(chitable=t),
            lambda t: _category_json("chi", t), CAT.chitable),
    "phi of a category": (1, "category", lambda t: _category(phitable=t),
                          lambda t: _category_json("phi", t), CAT.phitable),
    "iota": (1, "category", lambda t: _category(iotatable=t),
             lambda t: _category_json("iota", t), CAT.iotatable),
}


@pytest.mark.parametrize("bad", [1.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("what", sorted(TABLES))
def test_each_constructor_refuses_a_non_integer_entry(tmp_path, what, bad):
    """No entry is coerced: a float or a bool is refused by the constructor,
    with the message the loader prints for the same table in a file."""
    depth, kind, construct, to_json, table = TABLES[what]
    name = what.removesuffix(" of a category")
    message = f"{name} must be a list of " + "lists of " * (depth - 1) + "integers"
    bad_table = _with_first(table, depth, bad)
    with pytest.raises(ValidationError) as refused:
        construct(bad_table)
    assert str(refused.value) == message
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(to_json(bad_table)))
    code, out, err = cli("verify", kind, str(path))
    assert (code, out, json.loads(err)) == (2, "", {"error": message})
