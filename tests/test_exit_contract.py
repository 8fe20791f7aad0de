"""The CLI's exit-code contract on hostile input.

For any JSON value handed to `verify {group,matched-pair,braided-pair,
category}` or `center`: the exit code is 0, 1 or 2 and no exception
escapes `main`; exit 1 prints a report naming a failing check with a
witness; exit 2 prints `{"error": ...}` on stderr.
"""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import FIXTURE_DIR
from crossedcat.cli import main

# each command with small fixtures of its format, which finish quickly
COMMANDS = {
    ("verify", "group"): ["group-z3", "group-s3"],
    ("verify", "matched-pair"): ["z2-z3-inversion"],
    ("verify", "braided-pair"): ["turaev-z2-braided"],
    ("verify", "category"): ["cat-vec-z2z3", "cat-z4-over-z2"],
    ("center",): ["cat-vec-z2z3", "cat-z4-over-z2"],
}

# field names of every file format, so that objects reach past the first lookup
KEYS = ["table", "identity", "name", "order", "G", "Gamma", "act1", "act2", "side1", "side2",
        "phi", "psi", "Lambda", "mp", "grading", "action", "M", "J", "chi", "iota"]

# strings are also read as paths to referenced files: "." names a directory,
# and a NUL byte or a lone surrogate cannot be a path at all
scalars = (st.none() | st.booleans() | st.integers(-2, 8) | st.floats(allow_nan=False)
           | st.text(max_size=4)
           | st.sampled_from(["trivial", "left", "right", ".", "\x00", "\ud800"]))


@st.composite
def square_tables(draw, max_order: int = 6) -> list[list[int]]:
    n = draw(st.integers(1, max_order))
    cell = st.integers(0, n - 1)
    return draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))


@st.composite
def groups(draw) -> dict:
    table = draw(square_tables())
    obj: dict = {"table": table}
    if draw(st.booleans()):
        obj["identity"] = draw(st.integers(-1, len(table)))
    return obj


json_values = st.recursive(
    scalars | square_tables() | groups(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner,
                                     max_size=6)),
    max_leaves=12)


def _paths(obj, prefix=()):
    """Every node of a JSON value, as a key path."""
    yield prefix
    if isinstance(obj, (dict, list)):
        for key in (sorted(obj) if isinstance(obj, dict) else range(len(obj))):
            yield from _paths(obj[key], prefix + (key,))


def _mutate(obj, draw):
    """`obj` with one node replaced by an arbitrary JSON value, often a small integer,
    so that many mutants stay well-formed and fail an axiom rather than a shape check.

    The node is drawn uniformly: drawing an index directly favours the first
    nodes, which all lie in the first group table."""
    path = draw(st.randoms(use_true_random=False)).choice(list(_paths(obj)))
    value = draw(st.integers(0, 5) if draw(st.booleans()) else json_values)
    if not path:
        return value
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return obj


@st.composite
def hostile_inputs(draw) -> tuple[tuple[str, ...], object]:
    """A command and its input: any JSON value, or a mutant of a fixture of its format."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    if draw(st.booleans()):
        return command, draw(json_values)
    name = draw(st.sampled_from(COMMANDS[command]))
    return command, _mutate(json.loads((FIXTURE_DIR / f"{name}.json").read_text()), draw)


def assert_contract(command: tuple[str, ...], data: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*command, str(path)])
    assert code in (0, 1, 2)
    if code == 1:
        report = json.loads(out.getvalue())
        assert any(not c["pass"] and c.get("witness") is not None for c in report["checks"])
    if code == 2:
        assert out.getvalue() == ""
        assert "error" in json.loads(err.getvalue().strip().splitlines()[-1])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=hostile_inputs())
def test_every_json_input_keeps_the_exit_code_contract(case):
    command, obj = case
    assert_contract(command, json.dumps(obj).encode())


@pytest.mark.parametrize("command", sorted(COMMANDS), ids="-".join)
@pytest.mark.parametrize("data", [b"\xff\xfe", b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-utf8", "nested-past-the-recursion-limit"])
def test_undecodable_input_keeps_the_exit_code_contract(command, data):
    assert_contract(command, data)
