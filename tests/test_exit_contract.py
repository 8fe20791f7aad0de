"""The CLI's exit-code contract on hostile input.

For any JSON value handed to a command that reads a file, and for any
command line: the exit code is 0, 1 or 2 and no exception escapes `main`;
exit 1 prints a report naming a failing check with a witness; exit 2
prints `{"error": ...}` on stderr.  Exits 0 and 1 are a command's own
return value, and `main` picks 2 or 3 from the exception's type alone, so
each type of `crossedcat.errors` is pinned to its code and each refusal to
its type.  Any other exception is a fault in crossedcat and exits 3,
whichever layer raises it.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import FIXTURE_DIR
from crossedcat import errors, jsonio
from crossedcat.center import CenterStructure, verify_center_braided
from crossedcat.cli import main, parse_args
from crossedcat.errors import GroupValidationError, ValidationError
from crossedcat.groups import cyclic, subgroup_from_generators, trivial_group, validate_group
from crossedcat.matched import direct_pair, from_exact_factorization
from crossedcat.pointed import pointed_category, vec_gamma
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
        argv = [*command, str(path)]
        if command in WRITES:
            argv += ["-o", str(Path(tmp) / "out.json")]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        report = json.loads(out.getvalue())
        checks = report["failures"] if command[0] == "coherence" else report["checks"]
        assert any(not c["pass"] and c.get("witness") is not None for c in checks)
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


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=command_lines())
def test_every_command_line_keeps_the_exit_code_contract(argv):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name in ARGV_FIXTURES:
            shutil.copy(FIXTURE_DIR / name, tmp)
        stdout, stderr = io.StringIO(), io.StringIO()
        os.chdir(tmp)
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)
    if code == 2:
        assert stdout.getvalue() == ""
        assert list(json.loads(stderr.getvalue())) == ["error"]
    else:
        assert stderr.getvalue() == ""


# an output path that cannot name a file: the command's input is fine, so
# the write is the first thing that fails
@pytest.mark.parametrize("argv", [
    ["zappa-szep", "z2-z3-inversion.json"],
    ["factorize", "group-s3.json", "--gens-g", "1", "--gens-gamma", "3"],
    ["turaev", "group-z3.json"],
    ["center-pair", "z2-z3-inversion.json"],
    ["center", "cat-vec-z2z3.json"],
], ids=lambda argv: argv[0])
def test_output_path_with_nul_byte_exits_2(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main([argv[0], str(FIXTURE_DIR / argv[1]), *argv[2:], "-o", "out\x00.json"])
    assert code == 2
    assert stdout.getvalue() == ""
    assert list(json.loads(stderr.getvalue())) == ["error"]


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
        done = subprocess.run([sys.executable, "-m", "crossedcat.cli", "verify", "group",
                               str(FIXTURE_DIR / "group-z3.json")],
                              stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60,
                              env={"PYTHONPATH": str(FIXTURE_DIR.parent / "src")})
    finally:
        os.close(stdout)
    assert done.returncode == 2
    assert list(json.loads(done.stderr)) == ["error"]


# a modulus past what the center enumeration can range over: the size bound
# refuses it before twisted_characters tries every exponent of each generator
@pytest.mark.parametrize("command", [["verify", "center"], ["center"]], ids="-".join)
def test_huge_modulus_keeps_the_exit_code_contract(command):
    obj = json.loads((FIXTURE_DIR / "cat-z4-over-z2.json").read_text())
    obj["M"] = 2 ** 63
    assert_contract(tuple(command), json.dumps(obj).encode())


# -- the exception types ---------------------------------------------------------

def test_errors_defines_one_type_per_way_a_caller_handles_it():
    defined = {name for name, value in vars(errors).items()
               if isinstance(value, type) and value.__module__ == errors.__name__}
    assert defined == {"CrossedCatError", "ValidationError", "GroupValidationError"}


def _z8_over_trivial_groups():
    """Lambda = Z_8 graded trivially over trivial G and Gamma, M = 8: the
    oracle would try 8 * 8^8 functions."""
    one = trivial_group()
    return pointed_category(cyclic(8), direct_pair(one, one), [0] * 8, [list(range(8))], 8)


def _s4_factored_by(gens_g: list, gens_gamma: list):
    S4 = jsonio.load_group(FIXTURE_DIR / "group-s4.json")
    return from_exact_factorization(S4, subgroup_from_generators(S4, gens_g),
                                    subgroup_from_generators(S4, gens_gamma))


def _z4_over_z2_with_section(section: tuple):
    return CenterStructure(jsonio.load_category(FIXTURE_DIR / "cat-z4-over-z2.json"), section)


def _without(obj: dict, key: str) -> dict:
    del obj[key]
    return obj


# each refusal with its type and exact text, and a failed law with its witness;
# CenterStructure's section checks are a caller's mistake that no command line
# can make
@pytest.mark.parametrize("call,kind,message,witness", [
    (lambda: jsonio.load_category(FIXTURE_DIR / "cat-nonsurjective.json").least_section(),
     ValidationError, "grading not surjective: no simple of degree 1", None),
    (lambda: _s4_factored_by([1], [1]), ValidationError,
     "not an exact factorization: subgroups intersect beyond the identity", None),
    (lambda: verify_center_braided(_z8_over_trivial_groups()), ValidationError,
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
    (lambda: jsonio.braided_from_json(
        _without(json.loads((FIXTURE_DIR / "turaev-z2-braided.json").read_text()), "psi")),
     ValidationError, "braided-pair object missing field 'psi'", None),
    (lambda: parse_args(["coherence", "--category"]), ValidationError,
     "coherence: --category needs a value", None),
    (lambda: vec_gamma(jsonio.matched_from_json(_pair(("act1", 1, 2), 2)), 2), ValidationError,
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


def _written(tmp_path: Path, obj: dict) -> str:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    return str(path)


def _pair(keys: tuple, value) -> dict:
    """z2-z3-inversion.json with the node at the key path `keys` set to `value`."""
    obj = json.loads((FIXTURE_DIR / "z2-z3-inversion.json").read_text())
    node = obj
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return obj


# through main: the exit code of each type that reaches it, with the stream it
# writes; exit 1 prints a report whose first failing check has a witness
@pytest.mark.parametrize("argv,code,error,failing", [
    (lambda p: ["verify", "group", _written(p, {"table": [[0, 1], [1]]})], 2,
     "table is not square: row of length 1 in order-2 table", None),
    (lambda p: ["verify", "group", _written(p, {"table": [[0, 1], [1, 1]]})], 1, None,
     {"name": "group_laws", "pass": False, "witness": [1]}),
    (lambda p: ["verify", "matched-pair", _written(p, _pair(("G", "table"), [[0, 1], [1, 1]]))], 2,
     "element 1 has no two-sided inverse", None),
    (lambda p: ["zappa-szep", _written(p, _pair(("act1", 1, 2), 2)), "-o", str(p / "out.json")],
     1, None, {"name": "act1_is_left_action", "pass": False, "witness": [1, 1, 1]}),
    (lambda p: ["center-pair", _written(p, _pair(("act1", 1, 2), 2)), "-o", str(p / "out.json")],
     1, None, {"name": "act1_is_left_action", "pass": False, "witness": [1, 1, 1]}),
    (lambda p: ["verify", "center", str(FIXTURE_DIR / "cat-nonsurjective.json")], 2,
     "grading not surjective: no simple of degree 1", None),
    (lambda p: ["center", str(FIXTURE_DIR / "cat-nonsurjective.json"), "-o",
                str(p / "out.json")], 2, "grading not surjective: no simple of degree 1", None),
    (lambda p: ["factorize", str(FIXTURE_DIR / "group-s4.json"), "--gens-g", "1",
                "--gens-gamma", "1", "-o", str(p / "out.json")], 2,
     "not an exact factorization: subgroups intersect beyond the identity", None),
    (lambda p: ["factorize", str(FIXTURE_DIR / "group-s4.json"), "--gens-g", "3",
                "--gens-gamma", "6", "-o", str(p / "out.json")], 2,
     "not an exact factorization: |G|*|Gamma| = 6 != |H| = 24", None),
    (lambda p: ["verify", "braided-pair", _written(p, _without(json.loads(
        (FIXTURE_DIR / "turaev-z2-braided.json").read_text()), "psi"))], 2,
     "braided-pair object missing field 'psi'", None),
    (lambda p: ["coherence", "--category"], 2, "coherence: --category needs a value", None),
    # once a Python repr, "None><Z3", in the -o file
    (lambda p: ["zappa-szep", _written(p, _pair(("G", "name"), None)), "-o",
                str(p / "out.json")], 2, "group name must be a string", None),
], ids=["bad-table", "group-law", "group-law-in-pair", "zappa-szep-not-matched",
        "center-pair-not-matched", "verify-center-nonsurjective", "center-nonsurjective",
        "factorize-not-exact", "factorize-orders", "braided-without-psi", "option-without-value",
        "zappa-szep-name-null"])
def test_each_type_keeps_its_exit_code(tmp_path, argv, code, error, failing):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main(argv(tmp_path)) == code
    if code == 2:
        assert (out.getvalue(), err.getvalue()) == ("", json.dumps({"error": error}) + "\n")
    else:
        report = json.loads(out.getvalue())
        assert err.getvalue() == ""
        assert not report["pass"]
        assert next(c for c in report["checks"] if not c["pass"]) == failing
    assert not (tmp_path / "out.json").exists()


# -- program errors ----------------------------------------------------------------

def _injected_fault(*args, **kwargs):
    raise IndexError("injected fault")


def _internal_error_exit(argv: list[str], error: str) -> None:
    """main exits 3, prints nothing on stdout, and ends stderr with the
    traceback and then the error line."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main(argv) == 3
    assert out.getvalue() == ""
    *trace, last = err.getvalue().splitlines()
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
