"""The CLI's exit-code contract on hostile input.

For any JSON value handed to a command that reads a file, and for any
command line: the exit code is 0, 1 or 2 and no exception escapes `main`;
exit 1 prints a report naming a failing check with a witness; exit 2
prints `{"error": ...}` on stderr.  Exits 0 and 1 are a command's own
return value, and `main` picks 2 or 3 from the exception's type alone, so
each type of `crossedcat.errors` is pinned to its code and each refusal to
its type.  Any other exception is a fault in crossedcat and exits 3,
whichever layer raises it.

OUTCOMES is the table of the command lines the CLI refuses (exit 2) or
fails (exit 1), each with the exact error it prints or the first check
that fails.
"""

from __future__ import annotations

import ast
import errno
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from conftest import (FIXTURE_DIR, PERFBENCH_MODULES, ROOT, action_mutant, cli, fixture_with,
                      python, random_perms, relabeled, z8_over_trivial_groups)
from crossedcat import errors, jsonio
from crossedcat.center import CenterStructure, verify_center_braided
from crossedcat.cli import COMMANDS as CLI_COMMANDS, parse_args
from crossedcat.errors import GroupValidationError, ValidationError
from crossedcat.groups import cyclic, subgroup_from_generators, validate_group
from crossedcat.matched import from_exact_factorization
from crossedcat.pointed import vec_gamma
from crossedcat.report import VerificationReport

# each command that reads a file, with small fixtures of its format, which
# finish quickly; the commands in WRITES also get -o into the input's directory
COMMANDS = {
    ("verify", "group"): ["group-z3", "group-s3"],
    ("verify", "matched-pair"): ["z2-z3-inversion"],
    ("verify", "braided-pair"): ["turaev-z2-braided"],
    ("verify", "category"): ["cat-vec-z2z3", "cat-z4-over-z2"],
    ("verify", "center"): ["cat-vec-z2z3", "cat-z4-over-z2"],
    ("center",): ["cat-vec-z2z3", "cat-z4-over-z2"],
    ("coherence", "--category"): ["cat-vec-z2z3", "cat-z4-over-z2"],
    ("zappa-szep",): ["z2-z3-inversion"],
    ("center-pair",): ["z2-z3-inversion"],
    ("turaev",): ["group-z3", "group-s3"],
}
WRITES = {("zappa-szep",), ("center-pair",), ("turaev",)}
PAIR_COMMANDS = {("verify", "matched-pair"), ("zappa-szep",), ("center-pair",)}
CATEGORY_COMMANDS = {("verify", "category"), ("verify", "center"), ("center",),
                     ("coherence", "--category")}

# field names of every file format, so that objects reach past the first lookup
KEYS = ["table", "identity", "name", "order", "G", "Gamma", "act1", "act2", "side1", "side2",
        "phi", "psi", "Lambda", "mp", "grading", "action", "M", "J", "chi", "iota"]

# strings where an object belongs must be refused, never opened as paths:
# "." would name a directory, and a NUL byte or a lone surrogate no file at all
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
    """A command and its input: any JSON value, or a mutant of a fixture of its
    format.  A pair fixture's mutant is often one entry of act1 or act2 moved,
    which keeps both groups and mostly fails a matched-pair axiom, and a
    category fixture is often relabeled whole, which keeps it valid."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    if draw(st.booleans()):
        return command, draw(json_values)
    path = FIXTURE_DIR / f"{draw(st.sampled_from(COMMANDS[command]))}.json"
    if command in PAIR_COMMANDS and draw(st.booleans()):
        rng = draw(st.randoms(use_true_random=False))
        return command, jsonio.matched_to_json(action_mutant(jsonio.load_matched(path), rng)[2])
    if command in CATEGORY_COMMANDS and draw(st.booleans()):
        cat = jsonio.load_category(path)
        perms = random_perms(cat, draw(st.randoms(use_true_random=False)))
        return command, jsonio.category_to_json(relabeled(cat, perms))
    return command, _mutate(json.loads(path.read_text()), draw)


def assert_contract(command: tuple[str, ...], data: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_bytes(data)
        argv = [*command, str(path)]
        if command in WRITES:
            argv += ["-o", str(Path(tmp) / "out.json")]
        code, out, err = cli(*argv)
    assert code in (0, 1, 2)
    if code == 1:
        report = json.loads(out)
        checks = report["failures"] if command[0] == "coherence" else report["checks"]
        assert any(not c["pass"] and c.get("witness") is not None for c in checks)
    if code == 2:
        assert out == ""
        assert "error" in json.loads(err.strip().splitlines()[-1])


# an explicit seed and no example database, as in test_certificates.py: the
# drawn inputs stay the same from run to run and across edits of the test,
# for one tree of src/ and perfbench/, whose literal constants Hypothesis
# draws too (tests/conftest.py imports every module of both that any test
# imports when pytest collects it)
@seed(1)
@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=hostile_inputs())
def test_every_json_input_keeps_the_exit_code_contract(case):
    command, obj = case
    assert_contract(command, json.dumps(obj).encode())


def test_conftest_imports_the_benchmark_modules_pytest_collects():
    """conftest imports exactly the benchmark modules that test_perfbench.py
    imports at its top, so that no seeded test draws other examples when
    pytest also collects perfbench/tests."""
    tree = ast.parse((ROOT / "perfbench" / "tests" / "test_perfbench.py").read_text())
    names = {node.module if isinstance(node, ast.ImportFrom) else alias.name
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names}
    assert {n for n in names if (ROOT / "perfbench" / f"{n}.py").is_file()} == \
        set(PERFBENCH_MODULES)


@pytest.mark.parametrize("command", sorted(COMMANDS), ids="-".join)
@pytest.mark.parametrize("data", [b"\xff\xfe", b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-utf8", "nested-past-the-recursion-limit"])
def test_undecodable_input_keeps_the_exit_code_contract(command, data):
    assert_contract(command, data)


# -- command lines ---------------------------------------------------------------

# small fixtures of every input format; each example runs in a fresh directory
# holding copies of them, so that -o never writes over a committed file
ARGV_FIXTURES = ["group-z3.json", "z2-z3-inversion.json", "turaev-z2-braided.json",
                 "cat-vec-z2z3.json", "cat-z4-over-z2.json"]
KINDS = ["group", "matched-pair", "braided-pair", "category", "center"]
OPTIONS = ["--pretty", "-h", "--help", "-o", "--out", "--gens-g", "--gens-gamma", "--category",
           "--max-nodes", "--arity", "--objects", "--tuple-cap", "--jobs", "--max", "-x"]
files = st.sampled_from([*ARGV_FIXTURES, "out.json"])
ints = st.integers(-3, 5).map(str)
int_lists = st.lists(st.integers(-1, 5), max_size=3).map(lambda v: ",".join(map(str, v)))
# an argv from the operating system holds no NUL byte
junk = (st.sampled_from(["", "-", "--", "=", "1,,2", "a", "nope.json", "."])
        | st.text(st.characters(exclude_characters="\x00"), max_size=3))


def option(flags: list[str], value) -> st.SearchStrategy[list[str]]:
    """An option with its value, as two arguments or joined by '='."""
    return st.tuples(st.sampled_from(flags), value, st.booleans()).map(
        lambda t: [f"{t[0]}={t[1]}"] if t[2] else [t[0], t[1]])


def fitting(*names: str) -> st.SearchStrategy[str]:
    """A file of the format that `names` have, or often any file."""
    return st.sampled_from(names) | files


group, pair, cats = fitting("group-z3.json"), fitting("z2-z3-inversion.json"), fitting(
    "cat-vec-z2z3.json", "cat-z4-over-z2.json")
verify_files = {"group": group, "matched-pair": pair,
                "braided-pair": fitting("turaev-z2-braided.json"), "category": cats,
                "center": cats}
out = option(["-o", "--out"], files)
# the parts of each command's well-formed command lines
PARTS = {
    "verify": [st.sampled_from(KINDS).flatmap(lambda k: verify_files[k].map(lambda f: [k, f]))],
    "zappa-szep": [pair.map(lambda f: [f]), out],
    "factorize": [group.map(lambda f: [f]), option(["--gens-g"], int_lists),
                  option(["--gens-gamma"], int_lists), out],
    "turaev": [group.map(lambda f: [f]), out],
    "center-pair": [pair.map(lambda f: [f]), out],
    "center": [cats.map(lambda f: [f]), out],
    "coherence": [option(["--category"], cats), option(["--objects"], int_lists)],
}
noise = (option(OPTIONS, files | ints | junk)
         | (st.sampled_from([*PARTS, *KINDS, *OPTIONS]) | files | ints | junk).map(lambda a: [a]))


@st.composite
def command_lines(draw) -> list[str]:
    """A command line that is often well-formed: a command with most of its
    parts, sometimes reordered, and sometimes a few arbitrary arguments."""
    # Hypothesis favours the ends of a range, so a rare branch takes a middle value
    if draw(st.integers(0, 9)) == 4:
        return [a for part in draw(st.lists(noise, max_size=4)) for a in part]
    argv = draw(st.sampled_from([[], ["--pretty"]]))
    name = draw(st.sampled_from(sorted(PARTS)))
    parts = [draw(part) for part in PARTS[name] if draw(st.integers(0, 5)) != 2]
    if draw(st.integers(0, 4)) == 2:
        parts += draw(st.lists(noise, min_size=1, max_size=3))
    if draw(st.integers(0, 4)) == 2:
        parts = draw(st.permutations(parts))
    return argv + [name] + [a for part in parts for a in part]


# seeded, with no example database, as the JSON-input fuzz above
@seed(2)
@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=command_lines())
def test_every_command_line_keeps_the_exit_code_contract(argv):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name in ARGV_FIXTURES:
            shutil.copy(FIXTURE_DIR / name, tmp)
        os.chdir(tmp)
        try:
            code, stdout, stderr = cli(*argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)
    if code == 2:
        assert stdout == ""
        assert list(json.loads(stderr)) == ["error"]
    else:
        assert stderr == ""


# a report that cannot be written.  The child's environment lacks
# PYTHONUNBUFFERED, so stdout is buffered and the write fails at a flush:
# main's own flush, or else the interpreter's at exit, which exits 120
@pytest.mark.parametrize("sink", ["closed-pipe", "full-device"])
def test_unwritable_stdout_exits_2(sink):
    if sink == "closed-pipe":
        read, stdout = os.pipe()
        os.close(read)
    else:
        stdout = os.open("/dev/full", os.O_WRONLY)
    try:
        done = python("-m", "crossedcat.cli", "verify", "group",
                      str(FIXTURE_DIR / "group-z3.json"), stdout=stdout)
    finally:
        os.close(stdout)
    assert done.returncode == 2
    assert list(json.loads(done.stderr)) == ["error"]


# a modulus past what the center enumeration can range over: the size bound
# refuses it before twisted_characters tries every exponent of each generator
@pytest.mark.parametrize("command", [["verify", "center"], ["center"]], ids="-".join)
def test_huge_modulus_keeps_the_exit_code_contract(command):
    obj = fixture_with("cat-z4-over-z2", ("M",), 2 ** 63)
    assert_contract(tuple(command), json.dumps(obj).encode())


# -- the exception types ---------------------------------------------------------

def test_errors_defines_one_type_per_way_a_caller_handles_it():
    defined = {name for name, value in vars(errors).items()
               if isinstance(value, type) and value.__module__ == errors.__name__}
    assert defined == {"CrossedCatError", "ValidationError", "GroupValidationError"}


# z2-z3-inversion with act1[1][2] moved from 1 to 2: not a matched pair
NOT_MATCHED = fixture_with("z2-z3-inversion", ("act1", 1, 2), 2)


def _s4_factored_by(gens_g: list, gens_gamma: list):
    S4 = jsonio.load_group(FIXTURE_DIR / "group-s4.json")
    return from_exact_factorization(S4, subgroup_from_generators(S4, gens_g),
                                    subgroup_from_generators(S4, gens_gamma))


def _z4_over_z2_with_section(section: tuple):
    return CenterStructure(jsonio.load_category(FIXTURE_DIR / "cat-z4-over-z2.json"), section)


# each refusal with its type and exact text, and a failed law with its witness;
# CenterStructure's section checks are a caller's mistake that no command line
# can make
@pytest.mark.parametrize("call,kind,message,witness", [
    (lambda: jsonio.load_category(FIXTURE_DIR / "cat-nonsurjective.json").least_section(),
     ValidationError, "grading not surjective: no simple of degree 1", None),
    (lambda: _s4_factored_by([1], [1]), ValidationError,
     "not an exact factorization: subgroups intersect beyond the identity", None),
    (lambda: verify_center_braided(z8_over_trivial_groups()), ValidationError,
     "center too large to enumerate: relative_center_oracle would try 134217728 candidates, "
     "over the limit of 2000000", None),
    (lambda: validate_group([[1, 0], [0, 0]]), GroupValidationError,
     "element -1 is not an identity (fails at 0)", (-1, 0)),
    (lambda: validate_group([[0, 0], [1, 1]], 0), GroupValidationError,
     "element 0 is not an identity (fails at 1)", (0, 1)),
    (lambda: validate_group([[0, 1, 2], [1, 0, 0], [2, 0, 0]]), GroupValidationError,
     "associativity fails at (a,b,c)=(1,1,2)", (1, 1, 2)),
    (lambda: validate_group([[0, 1], [1, 1]]), GroupValidationError,
     "element 1 has no two-sided inverse", (1,)),
    (lambda: from_exact_factorization(cyclic(3), [1], [0]), ValidationError,
     "not an exact factorization: G does not contain the identity", None),
    (lambda: from_exact_factorization(cyclic(3), [0, 1], [0]), ValidationError,
     "not an exact factorization: G not closed under inverse at 1", None),
    (lambda: _s4_factored_by([3], [6]), ValidationError,
     "not an exact factorization: |G|*|Gamma| = 6 != |H| = 24", None),
    (lambda: jsonio.braided_from_json(fixture_with("turaev-z2-braided", ("psi",))),
     ValidationError, "braided-pair object missing field 'psi'", None),
    (lambda: parse_args(["coherence", "--category"]), ValidationError,
     "coherence: --category needs a value", None),
    (lambda: vec_gamma(jsonio.matched_from_json(NOT_MATCHED), 2), ValidationError,
     "matched-pair verification failed: act1_is_left_action at [1, 1, 1]", None),
    (lambda: _z4_over_z2_with_section((0, 2)), ValidationError,
     "section value 2 has degree 0, wanted 1", None),
    (lambda: _z4_over_z2_with_section((2, 1)), ValidationError,
     "section must send the trivial degree to the unit label", None),
    *[(lambda s=section: _z4_over_z2_with_section(s), ValidationError,
       "section must map all of Gamma into Lambda", None)
      for section in ((0, -1), (0, 1, 2), (0,), (0, 7))],
], ids=["nonsurjective", "not-exact", "oracle-bound", "no-identity", "identity-fails",
        "associativity", "no-inverse", "factor-without-identity", "factor-without-inverse",
        "factor-orders", "braided-without-psi", "option-without-value", "vec-gamma-not-matched",
        "section-degree", "section-unit", "section-negative", "section-long", "section-short",
        "section-out-of-range"])
def test_each_refusal_has_its_type_and_text(call, kind, message, witness):
    with pytest.raises(errors.CrossedCatError) as exc:
        call()
    assert type(exc.value) is kind
    assert str(exc.value) == message
    assert getattr(exc.value, "witness", None) == witness


# -- the outcome of every command line the CLI refuses or fails ------------------

def fixture(name: str) -> str:
    return str(FIXTURE_DIR / f"{name}.json")


OUT, INPUT = "{out}", "{input}"   # the case's -o path and input file
# group-z3, a valid group other than cat-vec-z2z3's G, Z2
Z3 = json.loads((FIXTURE_DIR / "group-z3.json").read_text())
# cat-cocycle-chi with chi[1][0][1] moved from 0 to 1: chi_cocycle fails
CHI_MUTANT = fixture_with("cat-cocycle-chi", ("chi", 1, 0, 1), 1)
# the first check that NOT_MATCHED fails
NOT_A_LEFT_ACTION = {"name": "act1_is_left_action", "pass": False, "witness": [1, 1, 1]}

# id: (argv, exit code, what it prints).  An argument that is not a string
# is the content of the case's input file, and the command reads that file
# in its place: bytes as they are, anything else as JSON.  Exit 2 prints
# {"error": text} on stderr and nothing on stdout, where INPUT in the text
# stands for the input file's path; exit 1 prints a report, whose first
# failing check is the one given, and nothing on stderr.  No case writes -o.
OUTCOMES = {
    # a file that is no JSON, or whose shape is not the kind asked for
    "malformed-json": (["verify", "group", b"{nope"], 2,
                       f"{INPUT}: Expecting property name enclosed in double quotes (column 2)"),
    "group-not-object": (["verify", "group", [1, 2]], 2, "group must be a JSON object"),
    "identity-out-of-range": (["verify", "group", {"name": "Z3", "identity": 7, "table": [
        [0, 1, 2], [1, 2, 0], [2, 0, 1]]}], 2, "identity 7 out of range 0..2"),
    "bad-table": (["verify", "group", {"table": [[0, 1], [1]]}], 2,
                  "table is not square: row of length 1 in order-2 table"),
    "G-not-object": (["verify", "matched-pair", fixture_with("z2-z3-inversion", ("G",), 3)], 2,
                     "group must be a JSON object"),
    "category-not-object": (["verify", "category", 5], 2, "category must be a JSON object"),
    # JSON true/false are not integers, though Python's bool subclasses int
    "bool-in-group-table": (["verify", "group", {"table": [[False, True], [True, False]]}], 2,
                            "group table must be a list of lists of integers"),
    "bool-identity": (["verify", "group", {"table": [[0, 1], [1, 0]], "identity": False}], 2,
                      "group identity must be an integer"),
    "bool-in-action": (["verify", "matched-pair",
                        fixture_with("z2-z3-inversion", ("act1", 1, 1), True)], 2,
                       "act1 must be a list of lists of integers"),
    "ragged-act1": (["verify", "matched-pair",
                     fixture_with("z2-z3-inversion", ("act1", 1), [0, 1])], 2,
                    "act1 must be |G| x |Gamma|"),
    "ragged-act2": (["verify", "matched-pair", fixture_with("z2-z3-inversion", ("act2", 2), [1])],
                    2, "act2 must be |Gamma| x |G|"),
    "act1-range": (["verify", "matched-pair", fixture_with("z2-z3-inversion", ("act1", 1, 1), 3)],
                   2, "act1 entry out of range"),
    "act2-range": (["verify", "matched-pair", fixture_with("z2-z3-inversion", ("act2", 0, 1), -1)],
                   2, "act2 entry out of range"),
    "right-action-file": (["verify", "matched-pair",
                           fixture_with("z2-z3-inversion", ("side1",), "right")], 2,
                          "side1 must be 'left'; right-action files are not accepted"),
    "bool-M": (["verify", "category", fixture_with("cat-vec-z2z3", ("M",), True)], 2,
               "M must be a positive integer"),
    "bool-in-J": (["verify", "category", fixture_with("cat-cocycle-j", ("J", 1, 1, 1), True)], 2,
                  "J must be a list of lists of lists of integers"),
    "order-not-rows": (["verify", "group", fixture_with("group-z3", ("order",), 99)], 2,
                       "group order 99 does not match the table's 3 rows"),
    "order-not-integer": (["verify", "group", fixture_with("group-z3", ("order",), "x")], 2,
                          "group order must be an integer"),
    "bool-order": (["verify", "group", fixture_with("group-z3", ("order",), True)], 2,
                   "group order must be an integer"),
    "braided-without-psi": (["verify", "braided-pair", fixture_with("turaev-z2-braided", ("psi",))],
                            2, "braided-pair object missing field 'psi'"),
    # a category's shapes are pointed_category's checks, its exponents the loader's
    "grading-range": (["verify", "category", fixture_with("cat-vec-z2z3", ("grading", 1), 7)], 2,
                      "grading must map Lambda into Gamma"),
    "short-grading": (["verify", "category", fixture_with("cat-vec-z2z3", ("grading",), [0, 1])],
                      2, "grading must map Lambda into Gamma"),
    "short-action-row": (["verify", "category",
                          fixture_with("cat-vec-z2z3", ("action", 1), [0, 2])], 2,
                         "action must be |G| x |Lambda|"),
    "action-range": (["verify", "category", fixture_with("cat-vec-z2z3", ("action", 1, 1), 9)], 2,
                     "action entry out of range"),
    "J-one-plane": (["verify", "category", fixture_with("cat-vec-z2z3", ("J",), [[[0] * 3] * 3])],
                    2, "J must be 2x3x3"),
    "short-phi": (["verify", "category", fixture_with("cat-vec-z2z3", ("phi",), [0])], 2,
                  "phi must have length 2"),
    "short-iota": (["verify", "category", fixture_with("cat-vec-z2z3", ("iota",), [0, 0])], 2,
                   "iota must have length 3"),
    "chi-range": (["verify", "category", fixture_with(
        "cat-vec-z2z3", ("chi",), [[[0, 0, 0], [0, 5, 0]], [[0] * 3] * 2])], 2,
        "chi exponent 5 not in 0..1"),
    # a category's top-level G and Gamma are validated as groups, then
    # compared with the pair's (Z2 and Z3 in cat-vec-z2z3)
    "differing-G-copy": (["verify", "category", fixture_with("cat-vec-z2z3", ("G",), Z3)], 2,
                         "top-level G disagrees with the matched pair's G"),
    "differing-Gamma-copy": (["verify", "category",
                              fixture_with("cat-vec-z2z3", ("Gamma",), {"table": [[0]]})], 2,
                             "top-level Gamma disagrees with the matched pair's Gamma"),
    # equal to the pair's table under ==, but JSON true/false are not integers
    "bool-in-G-copy": (["verify", "category", fixture_with(
        "cat-vec-z2z3", ("G", "table"), [[False, True], [True, False]])], 2,
        "group table must be a list of lists of integers"),
    "float-in-G-copy": (["verify", "category",
                         fixture_with("cat-vec-z2z3", ("G", "table"), [[0.0, 1], [1, 0]])], 2,
                        "group table must be a list of lists of integers"),
    "G-copy-no-inverse": (["verify", "category",
                           fixture_with("cat-vec-z2z3", ("G", "table"), [[0, 1], [1, 1]])], 2,
                          "element 1 has no two-sided inverse"),
    "G-copy-range": (["verify", "category",
                      fixture_with("cat-vec-z2z3", ("G", "table"), [[0, 1], [1, 2]])], 2,
                     "entry 2 out of range 0..1"),
    "G-copy-identity": (["verify", "category", fixture_with("cat-vec-z2z3", ("G", "identity"), 1)],
                        2, "element 1 is not an identity (fails at 0)"),
    "bool-G-copy-identity": (["verify", "category",
                              fixture_with("cat-vec-z2z3", ("G", "identity"), True)], 2,
                             "group identity must be an integer"),
    "G-copy-order": (["verify", "category", fixture_with("cat-vec-z2z3", ("G", "order"), 3)], 2,
                     "group order 3 does not match the table's 2 rows"),
    "group-law-in-pair": (["verify", "matched-pair",
                           fixture_with("z2-z3-inversion", ("G", "table"), [[0, 1], [1, 1]])], 2,
                          "element 1 has no two-sided inverse"),
    # a name is a JSON string wherever a group or category object sits
    "group-name-object": (["verify", "group", {"table": [[0, 1], [1, 0]], "name": {"x": [1]}}], 2,
                          "group name must be a string"),
    "pair-G-name-null": (["verify", "matched-pair",
                          fixture_with("z2-z3-inversion", ("G", "name"), None)], 2,
                         "group name must be a string"),
    "braided-Gamma-name-list": (["verify", "braided-pair",
                                 fixture_with("turaev-z2-braided", ("Gamma", "name"), ["Z2"])], 2,
                                "group name must be a string"),
    "category-name-number": (["verify", "category", fixture_with("cat-vec-z2z3", ("name",), 5)],
                             2, "category name must be a string"),
    "Lambda-name-bool": (["verify", "category",
                          fixture_with("cat-vec-z2z3", ("Lambda", "name"), True)], 2,
                         "group name must be a string"),
    "mp-Gamma-name-number": (["verify", "category",
                              fixture_with("cat-vec-z2z3", ("mp", "Gamma", "name"), 0)], 2,
                             "group name must be a string"),
    "G-copy-name-null": (["verify", "category", fixture_with("cat-vec-z2z3", ("G", "name"), None)],
                         2, "group name must be a string"),
    "Gamma-copy-name-object": (["verify", "category",
                                fixture_with("cat-vec-z2z3", ("Gamma", "name"), {})], 2,
                               "group name must be a string"),
    # once a Python repr, "None><Z3", in the -o file
    "zappa-szep-name-null": (["zappa-szep", fixture_with("z2-z3-inversion", ("G", "name"), None),
                              "-o", OUT], 2, "group name must be a string"),
    # a string where an object belongs names a valid file of the kind asked
    # for, and is refused all the same: each file is one self-contained value
    "G-string-not-opened": (["verify", "matched-pair",
                             fixture_with("z2-z3-inversion", ("G",), ".")], 2,
                            "group must be a JSON object"),
    "mp-names-a-pair-file": (["verify", "category", fixture_with(
        "cat-vec-z2z3", ("mp",), fixture("z2-z3-inversion"))], 2,
        "matched pair must be a JSON object"),
    "file-names-a-category-file": (["verify", "category",
                                    json.dumps(fixture("cat-vec-z2z3")).encode()], 2,
                                   "category must be a JSON object"),
    # a category whose axioms fail is refused by every command but verify
    "center-chi-mutant": (["center", CHI_MUTANT], 2,
                          "category axioms fail: chi_cocycle at [1, 0, 0, 1]"),
    "coherence-chi-mutant": (["coherence", "--category", CHI_MUTANT], 2,
                             "category axioms fail: chi_cocycle at [1, 0, 0, 1]"),
    # an input the command cannot build from
    "verify-center-nonsurjective": (["verify", "center", fixture("cat-nonsurjective")], 2,
                                    "grading not surjective: no simple of degree 1"),
    "center-nonsurjective": (["center", fixture("cat-nonsurjective")], 2,
                             "grading not surjective: no simple of degree 1"),
    "center-nonsurjective-out": (["center", fixture("cat-nonsurjective"), "-o", OUT], 2,
                                 "grading not surjective: no simple of degree 1"),
    "factorize-not-exact": (["factorize", fixture("group-s4"), "--gens-g", "1", "--gens-gamma",
                             "1", "-o", OUT], 2,
                            "not an exact factorization: subgroups intersect beyond the identity"),
    "factorize-same-subgroup": (
        ["factorize", fixture("group-s4"), "--gens-g", "9", "--gens-gamma", "9", "-o", OUT], 2,
        "not an exact factorization: subgroups intersect beyond the identity"),
    "factorize-orders": (["factorize", fixture("group-s4"), "--gens-g", "3", "--gens-gamma", "6",
                          "-o", OUT], 2, "not an exact factorization: |G|*|Gamma| = 6 != |H| = 24"),
    # a failed law: the report names the first failing check and its witness
    "no-inverse": (["verify", "group", {"table": [[0, 1], [1, 1]]}], 1,
                   {"name": "group_laws", "pass": False, "witness": [1]}),
    "identity-fails": (["verify", "group", {"table": [[0, 0], [1, 1]], "identity": 0}], 1,
                       {"name": "group_laws", "pass": False, "witness": [0, 1]}),
    "associativity-fails": (["verify", "group", {"table": [[0, 1, 2], [1, 0, 0], [2, 0, 0]]}], 1,
                            {"name": "group_laws", "pass": False, "witness": [1, 1, 2]}),
    "verify-not-matched": (["verify", "matched-pair", NOT_MATCHED], 1, NOT_A_LEFT_ACTION),
    "zappa-szep-not-matched": (["zappa-szep", NOT_MATCHED, "-o", OUT], 1, NOT_A_LEFT_ACTION),
    "center-pair-not-matched": (["center-pair", NOT_MATCHED, "-o", OUT], 1, NOT_A_LEFT_ACTION),
    # an output path that cannot name a file: the command's input is fine, so
    # the write is the first thing that fails
    **{f"out-nul-{argv[0]}": ([*argv, "-o", "out\x00.json"], 2,
                               "cannot write 'out\\x00.json': embedded null byte") for argv in [
        ["zappa-szep", fixture("z2-z3-inversion")],
        ["factorize", fixture("group-s3"), "--gens-g", "1", "--gens-gamma", "3"],
        ["turaev", fixture("group-z3")],
        ["center-pair", fixture("z2-z3-inversion")],
        ["center", fixture("cat-vec-z2z3")]]},
    # command lines that cannot be parsed or do not fit the input
    "jobs-unknown": (["--jobs", "4", "verify", "matched-pair", fixture("s4-z4-s3")], 2,
                     "unknown option '--jobs'"),
    "option-without-value": (["coherence", "--category"], 2,
                             "coherence: --category needs a value"),
    "objects-not-int": (["coherence", "--category", fixture("cat-z4-over-z2"), "--objects", "a"],
                        2, "--objects must be comma-separated integers, got 'a'"),
    "objects-out-of-range": (["coherence", "--category", fixture("cat-z4-over-z2"), "--objects",
                              "99"], 2, "--objects label 99 out of range 0..3"),
    "objects-commas": (["coherence", "--category", fixture("cat-z4-over-z2"), "--objects", ",,"],
                       2, "--objects names no label, got ',,'"),
    "objects-empty": (["coherence", "--category", fixture("cat-z4-over-z2"), "--objects", ""], 2,
                      "--objects names no label, got ''"),
    "gens-not-int": (["factorize", fixture("group-s4"), "--gens-g", "x", "--gens-gamma", "6,8",
                      "-o", OUT], 2, "--gens-g must be comma-separated integers, got 'x'"),
    # an empty path names no file: the error names the path as typed
    "center-out-empty": (["center", fixture("cat-z4-over-z2"), "--out="], 2,
                         f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: ''"),
    "verify-group-empty": (["verify", "group", ""], 2,
                           f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: ''"),
    # the budget options of the bounded walk are gone
    "max-nodes-unknown": (["coherence", "--category", fixture("cat-z4-over-z2"), "--max-nodes",
                           "6"], 2, "coherence: unknown option '--max-nodes'"),
    "arity-unknown": (["coherence", "--category", fixture("cat-z4-over-z2"), "--arity=2"], 2,
                      "coherence: unknown option '--arity'"),
    "tuple-cap-unknown": (["coherence", "--category", fixture("cat-z4-over-z2"), "--tuple-cap",
                           "64"], 2, "coherence: unknown option '--tuple-cap'"),
}


@pytest.mark.parametrize("argv,code,printed", OUTCOMES.values(), ids=OUTCOMES)
def test_each_refusal_and_failure_prints_its_outcome(tmp_path, argv, code, printed):
    source, out = tmp_path / "input.json", tmp_path / "out.json"
    args = []
    for arg in argv:
        if not isinstance(arg, str):
            source.write_bytes(arg if isinstance(arg, bytes) else json.dumps(arg).encode())
            arg = str(source)
        args.append(str(out) if arg == OUT else arg)
    got, stdout, stderr = cli(*args)
    if code == 2:
        error = json.dumps({"error": printed.replace(INPUT, str(source))})
        assert (got, stdout, stderr) == (2, "", error + "\n")
    else:
        report = json.loads(stdout)
        assert (got, stderr, report["pass"]) == (1, "", False)
        assert next(c for c in report["checks"] if not c["pass"]) == printed
    assert not out.exists()


def test_outcomes_are_distinct_command_lines():
    """No two rows run the same command line on the same input."""
    lines = [repr(argv) for argv, _, _ in OUTCOMES.values()]
    assert len(set(lines)) == len(lines)


def test_every_command_has_a_refusal_in_outcomes():
    """Each command of the CLI, and `verify` of each kind, refuses at least
    one row with exit 2."""
    kinds = CLI_COMMANDS["verify"].args[0].choices
    commands = {("verify", kind) for kind in kinds} | {(name,) for name in CLI_COMMANDS
                                                       if name != "verify"}
    refused = {tuple(argv[:2]) if argv[0] == "verify" else (argv[0],)
               for argv, code, _ in OUTCOMES.values() if code == 2}
    assert commands <= refused

# -- program errors ----------------------------------------------------------------

def _injected_fault(*args, **kwargs):
    raise IndexError("injected fault")


def _internal_error_exit(argv: list[str], error: str) -> None:
    """main exits 3, prints nothing on stdout, and ends stderr with the
    traceback and then the error line."""
    code, out, err = cli(*argv)
    assert (code, out) == (3, "")
    *trace, last = err.splitlines()
    assert trace[0] == "Traceback (most recent call last):"
    assert json.loads(last) == {"error": f"internal error: {error}"}


# a fault injected into each layer in turn, under a command that reaches it
@pytest.mark.parametrize("target,argv", [
    ("crossedcat.jsonio.read_input", ["verify", "category", "cat-z4-over-z2.json"]),
    ("crossedcat.groups.validate_group", ["verify", "group", "group-s3.json"]),
    ("crossedcat.pointed.certified_sweep", ["verify", "category", "cat-cocycle-j.json"]),
    ("crossedcat.center.CenterStructure._close", ["verify", "center", "cat-z4-over-z2.json"]),
    ("crossedcat.braided.certified_sweep", ["verify", "center", "cat-z6-over-z3.json"]),
    ("crossedcat.words.normal_form", ["coherence", "--category", "cat-cocycle-j.json"]),
], ids=["loader", "validate-group", "category-sweep", "center-tables", "braiding-sweep",
        "coherence-normal-form"])
def test_a_program_error_in_any_layer_exits_3(monkeypatch, target, argv):
    monkeypatch.setattr(target, _injected_fault)
    _internal_error_exit([*argv[:-1], str(FIXTURE_DIR / argv[-1])], "IndexError: injected fault")


def test_a_misspelt_premise_raises_out_of_the_center_and_exits_3(monkeypatch):
    """A premise the center's report does not hold raises KeyError out of
    verify_center_braided, on a center whose braiding axioms read their
    gates, instead of turning into a failed check's witness."""
    original = VerificationReport.all_passed

    def misspelt(self, *names):
        if self.subject.startswith("center of "):   # the center's own gates only
            names += ("center_category_axiom",)
        return original(self, *names)

    path = FIXTURE_DIR / "cat-z6-over-z3.json"
    cat = jsonio.load_category(path)
    assert not CenterStructure(cat).zero
    monkeypatch.setattr(VerificationReport, "all_passed", misspelt)
    with pytest.raises(KeyError, match="center_category_axiom"):
        verify_center_braided(cat)
    _internal_error_exit(["verify", "center", str(path)], "KeyError: 'center_category_axiom'")
