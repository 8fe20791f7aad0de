from __future__ import annotations

import ast
import errno
import gc
import hashlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from conftest import FIXTURE_DIR
from crossedcat import cli, jsonio
from crossedcat.cli import COMMANDS, main
from crossedcat.matched import verify_matched_pair


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_matched_pair_passes(capsys, fixture_dir):
    code, out = run(capsys, "verify", "matched-pair", str(fixture_dir / "z2-z3-inversion.json"))
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_corrupted_pair_exit_1(capsys, fixture_dir, tmp_path):
    obj = json.loads((fixture_dir / "z2-z3-inversion.json").read_text())
    obj["act1"][1][2] = (obj["act1"][1][2] + 1) % 3
    bad = tmp_path / "corrupted.json"
    bad.write_text(json.dumps(obj))
    code, out = run(capsys, "verify", "matched-pair", str(bad))
    assert code == 1
    failing = [c for c in json.loads(out)["checks"] if not c["pass"]]
    assert failing and failing[0]["witness"] is not None


def test_verify_malformed_json_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["verify", "group", str(bad)]) == 2


def test_verify_center_report_sections(capsys, fixture_dir):
    code, out = run(capsys, "verify", "center", str(fixture_dir / "cat-z4-over-z2.json"))
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert names == ["oracle_equivalence", "induced_pair_braided", "center_category_axioms",
                     "braiding_axiom_1", "braiding_axiom_2", "braiding_axiom_3"]


def test_center_nonsurjective_exit_2(capsys, fixture_dir):
    assert main(["center", str(fixture_dir / "cat-nonsurjective.json")]) == 2


def test_center_counts(capsys, fixture_dir):
    code, out = run(capsys, "center", str(fixture_dir / "cat-z4-over-z2.json"))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["simples"]) == 16
    assert payload["pass"] is True
    code, out = run(capsys, "center", str(fixture_dir / "cat-vec-z3-gtrivial.json"))
    assert len(json.loads(out)["simples"]) == 3


def test_verify_center_verifies_each_pair_at_most_twice(capsys, fixture_dir, monkeypatch):
    # the input pair: the category check and zappa_szep's input guard; the
    # induced pair: the reported checks induced_pair_braided and
    # center_category_axioms.  Constructions do not verify their output, so
    # the only group of order 36 run through validate_group is the simples'.
    import sys
    import crossedcat.groups
    import crossedcat.matched
    verify_pair = crossedcat.matched.verify_matched_pair
    validate = crossedcat.groups.validate_group
    orders, groups = [], []

    def counting_pairs(mp):
        orders.append((mp.G.order, mp.Gamma.order))
        return verify_pair(mp)

    def counting_groups(table, identity=None, name="G"):
        groups.append((len(table), name))
        return validate(table, identity, name)

    counting = {id(verify_pair): counting_pairs, id(validate): counting_groups}
    for name, module in list(sys.modules.items()):
        if name == "crossedcat" or name.startswith("crossedcat."):
            for attr, value in list(vars(module).items()):
                if id(value) in counting:
                    monkeypatch.setattr(module, attr, counting[id(value)])
    code, _ = run(capsys, "verify", "center", str(fixture_dir / "cat-vec-turaev-s3.json"))
    assert code == 0
    assert 1 <= orders.count((36, 36)) <= 2, orders
    assert 1 <= orders.count((6, 6)) <= 2, orders
    assert [g for g in groups if g[0] == 36] == [(36, "Z(Vec-Turaev-S3)-simples")], groups
    assert {g[0] for g in groups} == {6, 36}, groups


def test_reports_are_byte_identical(capsys, fixture_dir):
    _, out1 = run(capsys, "verify", "category", str(fixture_dir / "cat-cocycle-j.json"))
    _, out2 = run(capsys, "verify", "category", str(fixture_dir / "cat-cocycle-j.json"))
    assert out1 == out2


def test_zappa_szep_output_is_s3(capsys, fixture_dir, tmp_path):
    out_path = tmp_path / "zs.json"
    code, _ = run(capsys, "zappa-szep", str(fixture_dir / "z2-z3-inversion.json"),
                  "-o", str(out_path))
    assert code == 0
    H = jsonio.load_group(out_path)
    # a group of order 6 with a non-commuting pair is S3; 3 = (1, 0) and
    # 1 = (0, 1) in the encoding g*|Gamma| + s
    assert H.order == 6 and H.table[3][1] != H.table[1][3]


def test_factorize_s4(capsys, fixture_dir, tmp_path):
    out_path = tmp_path / "s4pair.json"
    code, _ = run(capsys, "factorize", str(fixture_dir / "group-s4.json"),
                  "--gens-g", "9", "--gens-gamma", "6,8", "-o", str(out_path))
    assert code == 0
    mp = jsonio.load_matched(out_path)
    assert verify_matched_pair(mp).passed
    assert (mp.G.order, mp.Gamma.order) == (4, 6)


def test_factorize_rejects_non_exact(capsys, fixture_dir, tmp_path):
    code = main(["factorize", str(fixture_dir / "group-s4.json"),
                 "--gens-g", "9", "--gens-gamma", "9", "-o", str(tmp_path / "x.json")])
    assert code == 2


def test_turaev_command(capsys, fixture_dir, tmp_path):
    out_path = tmp_path / "tur.json"
    code, out = run(capsys, "turaev", str(fixture_dir / "group-d4.json"), "-o", str(out_path))
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_center_pair_command_trivial_z2z2(capsys, fixture_dir, tmp_path):
    out_path = tmp_path / "cp.json"
    code, _ = run(capsys, "center-pair", str(fixture_dir / "direct-z2-z2.json"),
                  "-o", str(out_path))
    assert code == 0
    bmp = jsonio.load_braided(out_path)
    assert bmp.mp.G.order == 4 and bmp.mp.Gamma.order == 4
    assert all(bmp.mp.act1[a][x] == x for a in range(4) for x in range(4))


@pytest.mark.parametrize("argv,source", [
    (["turaev"], "group-s4.json"),
    (["zappa-szep"], "z2-z3-inversion.json"),
    (["factorize", "--gens-g", "9", "--gens-gamma", "6,8"], "group-s4.json"),
    (["center-pair"], "direct-z2-z2.json"),
    (["center"], "cat-vec-z2z3.json"),
], ids=["turaev", "zappa-szep", "factorize", "center-pair", "center"])
def test_input_digest_is_taken_before_output_overwrites_the_input(capsys, fixture_dir,
                                                                  tmp_path, argv, source):
    path = tmp_path / source
    path.write_bytes((fixture_dir / source).read_bytes())
    before = hashlib.sha256(path.read_bytes()).hexdigest()
    code, out = run(capsys, argv[0], str(path), *argv[1:], "-o", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() != before
    assert json.loads(out)["inputDigest"] == before


# every command form that reads an input file; "{out}" stands for its -o path
INPUT_FORMS = pytest.mark.parametrize("argv,source", [
    (["verify", "group"], "group-z3.json"),
    (["verify", "matched-pair"], "z2-z3-inversion.json"),
    (["verify", "braided-pair"], "turaev-s3-braided.json"),
    (["verify", "category"], "cat-vec-z2z3.json"),
    (["verify", "center"], "cat-vec-z2z3.json"),
    (["center"], "cat-z4-over-z2.json"),
    (["coherence", "--objects", "0", "--category"], "cat-vec-z2z3.json"),
    (["zappa-szep", "-o", "{out}"], "z2-z3-inversion.json"),
    (["factorize", "--gens-g", "9", "--gens-gamma", "6,8", "-o", "{out}"], "group-s4.json"),
    (["turaev", "-o", "{out}"], "group-d4.json"),
    (["center-pair", "-o", "{out}"], "direct-z2-z2.json"),
], ids=["verify-group", "verify-matched-pair", "verify-braided-pair", "verify-category",
        "verify-center", "center", "coherence-objects", "zappa-szep", "factorize", "turaev",
        "center-pair"])


@INPUT_FORMS
def test_input_digest_is_the_sha256_of_the_input_bytes(capsys, fixture_dir, tmp_path,
                                                       argv, source):
    # the oracle is the standard library's hash, not the CLI's own digest
    path = fixture_dir / source
    code, out = run(capsys, *[a.format(out=tmp_path / "out.json") for a in argv], str(path))
    assert code == 0
    assert json.loads(out)["inputDigest"] == hashlib.sha256(path.read_bytes()).hexdigest()


@INPUT_FORMS
def test_each_command_reads_and_hashes_its_input_once(capsys, monkeypatch, fixture_dir,
                                                      tmp_path, argv, source):
    # the input is replaced, still valid, right after it is read, so a second
    # read for the digest would hash the replacement
    path, out = tmp_path / source, tmp_path / "out.json"
    first = (fixture_dir / source).read_bytes()
    path.write_bytes(first)
    real, reads = jsonio.read_input, []

    def read_input(read):
        data = real(read)
        reads.append(Path(read))
        if Path(read) == path:
            path.write_bytes(data + b"\n")
        return data
    monkeypatch.setattr(jsonio, "read_input", read_input)
    code, report = run(capsys, *[a.format(out=out) for a in argv], str(path))
    assert code == 0
    assert reads == [path]
    assert json.loads(report)["inputDigest"] == hashlib.sha256(first).hexdigest()


@pytest.mark.parametrize("argv", [
    ["zappa-szep", str(FIXTURE_DIR / "z2-z3-inversion.json")],
    ["center", str(FIXTURE_DIR / "cat-vec-z2z3.json")],
], ids=["zappa-szep", "center"])
def test_output_fifo_without_reader_exits_2(tmp_path, argv):
    # a blocking open would wait for a reader until the timeout
    fifo = tmp_path / "fifo.json"
    os.mkfifo(fifo)
    assert _refused(_cli_child(*argv, "-o", str(fifo))) == \
        f"[Errno {errno.ENXIO}] {os.strerror(errno.ENXIO)}: {str(fifo)!r}"


# every command that writes -o, with the input its tests use
OUTPUT_FORMS = pytest.mark.parametrize("argv", [
    ["zappa-szep", str(FIXTURE_DIR / "z2-z3-inversion.json")],
    ["factorize", str(FIXTURE_DIR / "group-s4.json"), "--gens-g", "9", "--gens-gamma", "6,8"],
    ["turaev", str(FIXTURE_DIR / "group-d4.json")],
    ["center-pair", str(FIXTURE_DIR / "direct-z2-z2.json")],
    ["center", str(FIXTURE_DIR / "cat-vec-z2z3.json")],
], ids=["zappa-szep", "factorize", "turaev", "center-pair", "center"])


@OUTPUT_FORMS
def test_output_fifo_with_reader_exits_0(tmp_path, argv):
    # the read end is open before the command runs and drained after it
    # exits; each output fits in the pipe's buffer
    regular, fifo = tmp_path / "out.json", tmp_path / "fifo.json"
    expected = _cli_child(*argv, "-o", str(regular))
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        done = _cli_child(*argv, "-o", str(fifo))
        received = b"".join(iter(lambda: os.read(reader, 1 << 16), b""))
    finally:
        os.close(reader)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == _written_as(expected.stdout, regular, fifo)
    assert received == regular.read_bytes()
    if argv[0] == "zappa-szep":
        assert len(received) == 330


def _written_as(report: str, regular: Path, path: str) -> str:
    """`report` of a command that wrote `regular`, as it reads for -o `path`:
    only zappa-szep names the file it wrote."""
    return report.replace(json.dumps(str(regular)), json.dumps(str(path)))


@OUTPUT_FORMS
def test_output_to_dev_null_exits_0(capsys, tmp_path, argv):
    # the report is the one a regular file gets; no command reads -o back
    regular = tmp_path / "out.json"
    code, expected = run(capsys, *argv, "-o", str(regular))
    assert code == 0
    code, out = run(capsys, *argv, "-o", os.devnull)
    assert code == 0
    assert out == _written_as(expected, regular, os.devnull)


def test_output_over_the_input_limit_is_not_written(capsys, monkeypatch, tmp_path):
    # S4 from its factorization Z4 x S3: a 1,061-byte input, a 4,059-byte group;
    # written, the group could not be read as an input
    source, out = FIXTURE_DIR / "s4-z4-s3.json", tmp_path / "s4.json"
    monkeypatch.setattr(jsonio, "MAX_INPUT_BYTES", 2000)
    assert main(["zappa-szep", str(source), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": f"cannot write {str(out)!r}: 4059 bytes, "
                                                 "larger than the input limit of 2000 bytes"}
    assert not out.exists()
    # under the limit it is written as open() writes a file, with no execute bit
    monkeypatch.setattr(jsonio, "MAX_INPUT_BYTES", 5000)
    assert main(["zappa-szep", str(source), "-o", str(out)]) == 0
    umask = os.umask(0)
    os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask


def test_coherence_command(capsys, fixture_dir):
    code, out = run(capsys, "coherence", "--category", str(fixture_dir / "cat-cocycle-j.json"))
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True and report["failures"] == []
    assert report["stats"] == {"branchings": 10, "instances": 73}
    code, out = run(capsys, "coherence", "--category", str(fixture_dir / "cat-cocycle-j.json"),
                    "--objects", "1,1")
    assert code == 0 and json.loads(out)["stats"] == {"branchings": 10, "instances": 28}


def test_coherence_refuses_over_the_instance_bound(capsys, monkeypatch, fixture_dir):
    """cat-vec-turaev-s3 compares 4,105 instances: at that bound it passes,
    and one below it exits 2 naming the count before any branching is
    normalized."""
    from crossedcat import words
    path = str(fixture_dir / "cat-vec-turaev-s3.json")
    monkeypatch.setattr(words, "MAX_COHERENCE_INSTANCES", 4105)
    code, out = run(capsys, "coherence", "--category", path)
    assert code == 0 and json.loads(out)["stats"]["instances"] == 4105

    def unreached(*args):
        raise AssertionError("a branching was normalized")

    monkeypatch.setattr(words, "MAX_COHERENCE_INSTANCES", 4104)
    monkeypatch.setattr(words, "normal_form", unreached)
    assert main(["coherence", "--category", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "coherence would compare 4105 instances, over the limit of 4104"}


@pytest.mark.parametrize("argv", [["center"], ["coherence", "--category"]])
def test_failing_category_names_its_check_and_witness(capsys, fixture_dir, tmp_path, argv):
    """A command that loads a validated category names the first failing
    check and its witness as the report lists them."""
    obj = json.loads((fixture_dir / "cat-cocycle-chi.json").read_text())
    obj["chi"][1][0][1] = 1
    path = tmp_path / "chi-mutant.json"
    path.write_text(json.dumps(obj))
    assert main([*argv, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "category axioms fail: chi_cocycle at [1, 0, 0, 1]"}


def test_pretty_flag_renders_text(capsys, fixture_dir):
    code, out = run(capsys, "--pretty", "verify", "matched-pair",
                    str(fixture_dir / "z2-z3-inversion.json"))
    assert code == 0
    assert "matched-pair: PASS" in out


def test_jobs_flag_is_rejected(capsys, fixture_dir):
    assert main(["--jobs", "4", "verify", "matched-pair",
                 str(fixture_dir / "s4-z4-s3.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "unknown option '--jobs'"}


def _fixture_with(name, value, *path):
    """Fixture file `name` with the node at key `path` replaced by `value`."""
    obj = json.loads((FIXTURE_DIR / f"{name}.json").read_text())
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return obj


@pytest.mark.parametrize("kind,obj,error", [
    ("group", [1, 2], "group must be a JSON object"),
    ("group", {"name": "Z3", "identity": 7, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
     "identity 7 out of range 0..2"),
    ("matched-pair", _fixture_with("z2-z3-inversion", 3, "G"), "group must be a JSON object"),
    ("category", 5, "category must be a JSON object"),
    # a string where an object belongs is refused, never opened as a path
    ("matched-pair", _fixture_with("z2-z3-inversion", ".", "G"), "group must be a JSON object"),
    # JSON true/false are not integers, though Python's bool subclasses int
    ("group", {"table": [[False, True], [True, False]]},
     "group table must be a list of lists of integers"),
    ("group", {"table": [[0, 1], [1, 0]], "identity": False}, "group identity must be an integer"),
    ("matched-pair", _fixture_with("z2-z3-inversion", True, "act1", 1, 1),
     "act1 must be a list of lists of integers"),
    ("matched-pair", _fixture_with("z2-z3-inversion", [0, 1], "act1", 1),
     "act1 must be |G| x |Gamma|"),
    ("matched-pair", _fixture_with("z2-z3-inversion", [1], "act2", 2),
     "act2 must be |Gamma| x |G|"),
    ("matched-pair", _fixture_with("z2-z3-inversion", 3, "act1", 1, 1), "act1 entry out of range"),
    ("matched-pair", _fixture_with("z2-z3-inversion", -1, "act2", 0, 1),
     "act2 entry out of range"),
    ("category", _fixture_with("cat-vec-z2z3", True, "M"), "M must be a positive integer"),
    ("category", _fixture_with("cat-cocycle-j", True, "J", 1, 1, 1),
     "J must be a list of lists of lists of integers"),
    ("group", _fixture_with("group-z3", 99, "order"),
     "group order 99 does not match the table's 3 rows"),
    ("group", _fixture_with("group-z3", "x", "order"), "group order must be an integer"),
    ("group", _fixture_with("group-z3", True, "order"), "group order must be an integer"),
    # a category's shapes are pointed_category's checks, its exponents the loader's
    ("category", _fixture_with("cat-vec-z2z3", 7, "grading", 1),
     "grading must map Lambda into Gamma"),
    ("category", _fixture_with("cat-vec-z2z3", [0, 1], "grading"),
     "grading must map Lambda into Gamma"),
    ("category", _fixture_with("cat-vec-z2z3", [0, 2], "action", 1),
     "action must be |G| x |Lambda|"),
    ("category", _fixture_with("cat-vec-z2z3", 9, "action", 1, 1), "action entry out of range"),
    ("category", _fixture_with("cat-vec-z2z3", [[[0] * 3] * 3], "J"), "J must be 2x3x3"),
    ("category", _fixture_with("cat-vec-z2z3", [0], "phi"), "phi must have length 2"),
    ("category", _fixture_with("cat-vec-z2z3", [0, 0], "iota"), "iota must have length 3"),
    ("category", _fixture_with("cat-vec-z2z3", [[[0, 0, 0], [0, 5, 0]], [[0] * 3] * 2], "chi"),
     "chi exponent 5 not in 0..1"),
    # a category's top-level G and Gamma are validated as groups, then
    # compared with the pair's (Z2 and Z3 in cat-vec-z2z3)
    ("category", _fixture_with("cat-vec-z2z3", json.loads(
        (FIXTURE_DIR / "group-z3.json").read_text()), "G"),
     "top-level G disagrees with the matched pair's G"),
    ("category", _fixture_with("cat-vec-z2z3", {"table": [[0]]}, "Gamma"),
     "top-level Gamma disagrees with the matched pair's Gamma"),
    # equal to the pair's table under ==, but JSON true/false are not integers
    ("category", _fixture_with("cat-vec-z2z3", [[False, True], [True, False]], "G", "table"),
     "group table must be a list of lists of integers"),
    ("category", _fixture_with("cat-vec-z2z3", [[0.0, 1], [1, 0]], "G", "table"),
     "group table must be a list of lists of integers"),
    ("category", _fixture_with("cat-vec-z2z3", [[0, 1], [1, 1]], "G", "table"),
     "element 1 has no two-sided inverse"),
    ("category", _fixture_with("cat-vec-z2z3", [[0, 1], [1, 2]], "G", "table"),
     "entry 2 out of range 0..1"),
    ("category", _fixture_with("cat-vec-z2z3", 1, "G", "identity"),
     "element 1 is not an identity (fails at 0)"),
    ("category", _fixture_with("cat-vec-z2z3", True, "G", "identity"),
     "group identity must be an integer"),
    ("category", _fixture_with("cat-vec-z2z3", 3, "G", "order"),
     "group order 3 does not match the table's 2 rows"),
    # a name is a JSON string wherever a group or category object sits
    ("group", {"table": [[0, 1], [1, 0]], "name": {"x": [1]}}, "group name must be a string"),
    ("matched-pair", _fixture_with("z2-z3-inversion", None, "G", "name"),
     "group name must be a string"),
    ("braided-pair", _fixture_with("turaev-z2-braided", ["Z2"], "Gamma", "name"),
     "group name must be a string"),
    ("category", _fixture_with("cat-vec-z2z3", 5, "name"), "category name must be a string"),
    ("category", _fixture_with("cat-vec-z2z3", True, "Lambda", "name"),
     "group name must be a string"),
    ("category", _fixture_with("cat-vec-z2z3", 0, "mp", "Gamma", "name"),
     "group name must be a string"),
    ("category", _fixture_with("cat-vec-z2z3", None, "G", "name"), "group name must be a string"),
    ("category", _fixture_with("cat-vec-z2z3", {}, "Gamma", "name"),
     "group name must be a string"),
], ids=["group-not-object", "identity-out-of-range", "G-not-object", "category-not-object",
        "G-string-not-opened", "bool-in-group-table", "bool-identity", "bool-in-action",
        "ragged-act1", "ragged-act2", "act1-range", "act2-range", "bool-M", "bool-in-J",
        "order-not-rows", "order-not-integer", "bool-order", "grading-range", "short-grading",
        "short-action-row", "action-range", "J-one-plane", "short-phi", "short-iota",
        "chi-range", "differing-G-copy", "differing-Gamma-copy", "bool-in-G-copy",
        "float-in-G-copy", "G-copy-no-inverse", "G-copy-range", "G-copy-identity",
        "bool-G-copy-identity", "G-copy-order", "group-name-object", "pair-G-name-null",
        "braided-Gamma-name-list", "category-name-number", "Lambda-name-bool",
        "mp-Gamma-name-number", "G-copy-name-null", "Gamma-copy-name-object"])
def test_shape_malformed_input_exit_2(capsys, tmp_path, kind, obj, error):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify", kind, str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip().splitlines()[-1]) == {"error": error}


@pytest.mark.parametrize("obj,named,error", [
    (_fixture_with("cat-vec-z2z3", "pair.json", "mp"), "z2-z3-inversion",
     "matched pair must be a JSON object"),
    ("pair.json", "cat-vec-z2z3", "category must be a JSON object"),
], ids=["mp-names-a-pair-file", "file-names-a-category-file"])
def test_path_string_is_not_opened(capsys, tmp_path, obj, named, error):
    # pair.json holds a valid object of the kind asked for, but each file is
    # one self-contained JSON value
    (tmp_path / "pair.json").write_text((FIXTURE_DIR / f"{named}.json").read_text())
    (tmp_path / "cat.json").write_text(json.dumps(obj))
    assert main(["verify", "category", str(tmp_path / "cat.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": error}


def test_top_level_copy_without_identity_or_order_is_accepted(capsys, tmp_path):
    obj = json.loads((FIXTURE_DIR / "cat-vec-z2z3.json").read_text())
    for key in ("G", "Gamma"):
        del obj[key]["identity"], obj[key]["order"]
    (tmp_path / "cat.json").write_text(json.dumps(obj))
    code, out = run(capsys, "verify", "category", str(tmp_path / "cat.json"))
    assert code == 0 and json.loads(out)["pass"] is True


def test_category_at_the_input_cap_passes(capsys, tmp_path):
    """Lambda = Z_925 over trivial groups with J omitted, the largest such
    category under MAX_INPUT_BYTES, loads and verifies."""
    n, one = 925, {"table": [[0]]}
    obj = {"Lambda": {"table": [[(a + b) % n for b in range(n)] for a in range(n)]},
           "mp": {"G": one, "Gamma": one, "act1": [[0]], "act2": [[0]]}, "G": one, "Gamma": one,
           "grading": [0] * n, "action": [list(range(n))], "M": 2}
    text = json.dumps(obj)
    assert len(text) <= jsonio.MAX_INPUT_BYTES  # with Z_926, 4,194,866 bytes, it is over
    (tmp_path / "cat.json").write_text(text)
    code, out = run(capsys, "verify", "category", str(tmp_path / "cat.json"))
    assert code == 0 and json.loads(out)["pass"] is True


def _cli_child(*argv: str, cap_memory: bool = False, **kwargs) -> subprocess.CompletedProcess:
    """`crossedcat argv...` in a child process with a timeout, importing the
    package from src/; `cap_memory` caps its address space at 512 MB."""
    if cap_memory:
        resource = pytest.importorskip("resource")
        kwargs["preexec_fn"] = lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                          (512 << 20, 512 << 20))
    return subprocess.run([sys.executable, "-m", "crossedcat.cli", *argv], capture_output=True,
                          text=True, timeout=60,
                          env={"PYTHONPATH": str(FIXTURE_DIR.parent / "src")}, **kwargs)


def _refused(done: subprocess.CompletedProcess) -> str:
    """The error of a command that exited 2 and printed no report."""
    assert (done.returncode, done.stdout) == (2, "")
    return json.loads(done.stderr)["error"]


def test_sub_object_naming_dev_zero_exits_2(tmp_path):
    """A group given as "/dev/zero" exits 2 without opening it.  Were the path
    read, it would fill memory; so the command runs with its address space
    capped."""
    (tmp_path / "cat.json").write_text(json.dumps(_fixture_with("cat-vec-z2z3", "/dev/zero",
                                                                "Lambda")))
    done = _cli_child("verify", "category", str(tmp_path / "cat.json"), cap_memory=True)
    assert _refused(done) == "group must be a JSON object"


def test_input_dev_zero_exits_2():
    # read, the device would fill the capped address space: a MemoryError
    # traceback and exit 1
    done = _cli_child("verify", "group", "/dev/zero", cap_memory=True)
    assert _refused(done) == "cannot read '/dev/zero': not a regular file"


def test_input_piped_to_dev_stdin_exits_2():
    # read once to load and again for the digest, a pipe passed with the
    # digest of no bytes
    done = _cli_child("verify", "category", "/dev/stdin",
                      input=(FIXTURE_DIR / "cat-vec-z2z3.json").read_text())
    assert _refused(done) == "cannot read '/dev/stdin': not a regular file"


def test_input_fifo_without_writer_exits_2(tmp_path):
    # a blocking open would wait for a writer until the timeout
    fifo = tmp_path / "fifo.json"
    os.mkfifo(fifo)
    assert _refused(_cli_child("verify", "group", str(fifo))) == \
        f"cannot read {str(fifo)!r}: not a regular file"


def test_input_over_the_cap_exits_2(tmp_path):
    # a sparse file of NUL bytes, which would fail to parse all the same; the
    # error names the cap
    big = tmp_path / "big.json"
    big.touch()
    os.truncate(big, jsonio.MAX_INPUT_BYTES + 1)
    assert _refused(_cli_child("verify", "group", str(big))) == \
        f"cannot read {str(big)!r}: larger than the input limit of {jsonio.MAX_INPUT_BYTES} bytes"


@pytest.mark.parametrize("obj,witness", [
    ({"table": [[0, 1], [1, 1]]}, [1]),
    ({"table": [[0, 0], [1, 1]], "identity": 0}, [0, 1]),
    ({"table": [[0, 1, 2], [1, 0, 0], [2, 0, 0]]}, [1, 1, 2]),
], ids=["no-inverse", "identity-fails", "associativity-fails"])
def test_verify_group_law_failure_exit_1(capsys, tmp_path, obj, witness):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify", "group", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["checks"] == [{"name": "group_laws", "pass": False,
                                                   "witness": witness}]


def test_group_without_order_loads(capsys, tmp_path):
    obj = json.loads((FIXTURE_DIR / "group-z3.json").read_text())
    del obj["order"]
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", "group", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    assert jsonio.load_group(path) == jsonio.load_group(FIXTURE_DIR / "group-z3.json")


def _fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """`python -c code args...` in a fresh interpreter that imports the package from src/."""
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          check=True, env={"PYTHONPATH": str(FIXTURE_DIR.parent / "src")})


def _imported_after(code: str, modules: set[str]) -> list[str]:
    """Those of `modules` that a fresh interpreter has imported after running `code`."""
    probe = f"{code}\nimport sys\nprint(' '.join(m for m in sys.argv[1:] if m in sys.modules))"
    return _fresh_python(probe, *sorted(modules)).stdout.splitlines()[-1].split()


def test_cli_import_leaves_numpy_and_threads_out():
    # every command is a fresh process: `dataclasses` (which imports `inspect`)
    # costs a short command about a quarter of its time, and `argparse` with
    # `gettext` and `locale`, or a module the command does not run, a few ms more;
    # `hashlib` maps OpenSSL, about 3.5 MB of peak RSS
    openssl = {"hashlib", "_hashlib"}
    assert _imported_after("import crossedcat.cli", {
        "numpy", "concurrent.futures", "dataclasses", "inspect"} | openssl) == []
    run = "from crossedcat.cli import main\nassert main({argv!r}) == 0"
    z2 = str(FIXTURE_DIR / "group-z2.json")
    assert _imported_after(run.format(argv=["verify", "group", z2]), {
        "argparse", "gettext", "locale", "crossedcat.center", "crossedcat.words",
        "crossedcat.braided", "crossedcat.matched", "crossedcat.pointed"} | openssl) == []
    cat = str(FIXTURE_DIR / "cat-vec-z2z3.json")
    assert _imported_after(run.format(argv=["verify", "category", cat]), {
        "crossedcat.center", "crossedcat.words", "crossedcat.braided"}) == []
    assert _imported_after(run.format(argv=["verify", "center", cat]), openssl) == []
    assert _imported_after(run.format(argv=["coherence", "--category", cat, "--objects", "0"]),
                           openssl) == []


def test_digest_uses_the_builtin_sha256_of_this_python():
    # CI runs every supported Python, so each side of the split is checked
    assert jsonio.sha256.__module__ == ("_sha2" if sys.version_info >= (3, 12) else "_sha256")


def test_digest_falls_back_to_hashlib_without_the_builtin_hashes():
    # a Python built without `_sha2` (3.12 on) or `_sha256` (before)
    probe = ("import sys\n"
             "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
             "from crossedcat.cli import main\n"
             "print(main(sys.argv[1:]), 'hashlib' in sys.modules)")
    path = FIXTURE_DIR / "group-z2.json"
    report, status = _fresh_python(probe, "verify", "group", str(path)).stdout.splitlines()
    assert status == "0 True"
    assert json.loads(report)["inputDigest"] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_package_exports_resolve_lazily():
    import crossedcat
    for name in crossedcat.__all__:
        value = getattr(crossedcat, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"crossedcat.{name}"]
        else:
            assert value.__module__.startswith("crossedcat."), name
            assert value is getattr(sys.modules[value.__module__], name)
    star: dict = {}
    exec("from crossedcat import *", star)
    assert all(star[name] is getattr(crossedcat, name) for name in crossedcat.__all__)
    with pytest.raises(AttributeError):
        crossedcat.no_such_name
    # what perfbench/traced_cli.py reads after a bare import of the package and the CLI
    probe = ("import sys, crossedcat, crossedcat.cli\n"
             "assert 'crossedcat.center' not in sys.modules\n"
             "print(crossedcat.center.CenterStructure.__name__, crossedcat.words.__name__)")
    assert _fresh_python(probe).stdout.split() == ["CenterStructure", "crossedcat.words"]


def test_cli_process_ends_without_teardown(tmp_path):
    # the entry runs atexit hooks and flushes, then leaves by os._exit: the
    # hook's line follows the report, main's code is the exit code, and no
    # module is torn down.  The object sits on the package, whose dict
    # teardown clears; in the probe's globals it would sit in a reference
    # cycle that only a garbage collection frees, and so show whether
    # teardown collected rather than whether it ran.
    probe = ("import atexit, crossedcat, runpy\n"
             "class Loud:\n"
             "    def __del__(self):\n"
             "        print('finalized')\n"
             "crossedcat.loud = Loud()\n"
             "atexit.register(lambda: print('hook'))\n"
             "runpy.run_module('crossedcat.cli', run_name='__main__')")
    obj = json.loads((FIXTURE_DIR / "z2-z3-inversion.json").read_text())
    obj["act1"][1][2] = (obj["act1"][1][2] + 1) % 3
    bad = tmp_path / "corrupted.json"
    bad.write_text(json.dumps(obj))
    for path, code in ((FIXTURE_DIR / "group-z3.json", 0), (bad, 1)):
        kind = "group" if code == 0 else "matched-pair"
        done = subprocess.run([sys.executable, "-c", probe, "verify", kind, str(path)],
                              capture_output=True, text=True, timeout=60,
                              env={"PYTHONPATH": str(FIXTURE_DIR.parent / "src")})
        report, hook = done.stdout.splitlines()
        assert (done.returncode, json.loads(report)["pass"], hook) == (code, code == 0, "hook")
        assert done.stderr == ""


def test_main_leaves_the_heap_collectable(capsys):
    before = gc.get_freeze_count()
    assert main(["verify", "group", str(FIXTURE_DIR / "group-z3.json")]) == 0
    assert gc.get_freeze_count() == before


def test_console_script_runs_the_entry_of_the_main_block():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((FIXTURE_DIR.parent / "pyproject.toml").read_text())["project"]
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    block = next(node for node in tree.body if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "__name__ == '__main__'")
    [statement] = block.body
    entry = statement.value.func.id
    assert project["scripts"] == {"crossedcat": f"crossedcat.cli:{entry}"}
    assert callable(getattr(cli, entry))


# the --help text byte for byte, which usage() builds from COMMANDS
HELP = """\
usage: crossedcat [--pretty] COMMAND ARGUMENTS

verify and build group-crossed structures

  --pretty    human-readable rendering
  -h, --help  print this text and exit

An option's value is the next argument, or follows '=' as in --objects=0,1.
Bad arguments exit 2 with {"error": ...} on stderr.

commands:
  crossedcat verify {group,matched-pair,braided-pair,category,center} FILE
      run a verifier on a file
  crossedcat zappa-szep FILE -o OUT
      twisted product of a matched pair
  crossedcat factorize FILE --gens-g GENS_G --gens-gamma GENS_GAMMA -o OUT
      extract the matched pair of an exact factorization
      FILE: group JSON
      --gens-g: comma-separated generator indices for G
      --gens-gamma: comma-separated generator indices for Gamma
  crossedcat turaev FILE -o OUT
      adjoint braided pair of a group
      FILE: group JSON
  crossedcat center-pair FILE -o OUT
      the induced braided pair on (G><Gamma, G x Gamma)
      FILE: matched-pair JSON
  crossedcat center FILE [-o OUT]
      enumerate and verify the center of a category
      FILE: category JSON
      -o, --out: also write the report to this path
  crossedcat coherence --category CATEGORY [--objects OBJECTS]
      check that every critical branching commutes
      --objects: comma-separated labels the holes range over; default every label
"""


def test_help_prints_the_usage_of_every_command(capsys):
    done = subprocess.run([sys.executable, "-m", "crossedcat.cli", "--help"],
                          capture_output=True, text=True,
                          env={"PYTHONPATH": str(FIXTURE_DIR.parent / "src")})
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == HELP
    # one synopsis per command, naming each argument of the table in order
    synopses = [line.split() for line in done.stdout.splitlines()
                if line.startswith("  crossedcat ")]
    assert [words[1] for words in synopses] == list(COMMANDS)
    for words, command in zip(synopses, COMMANDS.values()):
        expected = []
        for arg in command.args:
            if arg.flags:
                expected += [arg.flags[0], arg.dest.upper()]
            else:
                expected.append("{" + ",".join(arg.choices) + "}" if arg.choices
                                else arg.dest.upper())
        assert [w.strip("[]") for w in words[2:]] == expected
    # -h after a command prints the same text
    assert main(["verify", "-h"]) == 0
    assert capsys.readouterr().out == done.stdout


@pytest.mark.parametrize("argv,error", [
    (["coherence", "--category", "{cat}", "--objects", "a"],
     "--objects must be comma-separated integers, got 'a'"),
    (["coherence", "--category", "{cat}", "--objects", "99"],
     "--objects label 99 out of range 0..3"),
    (["coherence", "--category", "{cat}", "--objects", ",,"],
     "--objects names no label, got ',,'"),
    (["coherence", "--category", "{cat}", "--objects", ""],
     "--objects names no label, got ''"),
    (["factorize", "{s4}", "--gens-g", "x", "--gens-gamma", "6,8", "-o", "{out}"],
     "--gens-g must be comma-separated integers, got 'x'"),
    # an empty path names no file: the error names the path as typed
    (["center", "{cat}", "--out="], f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: ''"),
    (["verify", "group", ""], f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: ''"),
    # the budget options of the bounded walk are gone
    (["coherence", "--category", "{cat}", "--max-nodes", "6"],
     "coherence: unknown option '--max-nodes'"),
    (["coherence", "--category", "{cat}", "--arity=2"],
     "coherence: unknown option '--arity'"),
    (["coherence", "--category", "{cat}", "--tuple-cap", "64"],
     "coherence: unknown option '--tuple-cap'"),
], ids=["objects-not-int", "objects-out-of-range", "objects-commas", "objects-empty",
        "gens-not-int", "center-out-empty", "verify-group-empty", "max-nodes-unknown",
        "arity-unknown", "tuple-cap-unknown"])
def test_malformed_arguments_exit_2(capsys, fixture_dir, tmp_path, argv, error):
    paths = {"cat": fixture_dir / "cat-z4-over-z2.json", "s4": fixture_dir / "group-s4.json",
             "out": tmp_path / "out.json"}
    assert main([a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": error}
    assert not (tmp_path / "out.json").exists()


def test_right_action_files_rejected(fixture_dir, tmp_path):
    obj = json.loads((fixture_dir / "z2-z3-inversion.json").read_text())
    obj["side1"] = "right"
    bad = tmp_path / "right.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify", "matched-pair", str(bad)]) == 2


def test_center_structure_tables(fixture_dir):
    from conftest import category
    from crossedcat.center import CenterStructure
    Z = CenterStructure(category("z4-over-z2"))
    n = len(Z.simples)
    assert len(Z.tensor_table) == n and all(len(r) == n for r in Z.tensor_table)
    assert all(0 <= v < n for row in Z.g_action_table for v in row)
    assert all(0 <= v < n for row in Z.gamma_action_table for v in row)
    assert all(0 <= e < Z.cat.M for row in Z.braid_table for e in row)


def test_every_fixture_file_loads_and_verifies(fixture_dir):
    from crossedcat.braided import verify_braiding
    from crossedcat.pointed import verify_crossed_category
    for path in sorted(fixture_dir.glob("*.json")):
        name = path.name
        if name.startswith("group-"):
            jsonio.load_group(path)
        elif name.startswith("cat-"):
            cat = jsonio.load_category(path, validate=False)
            if name != "cat-nonsurjective.json":
                assert verify_crossed_category(cat).passed, name
        elif name.endswith("-braided.json") or name.endswith("-center.json"):
            assert verify_braiding(jsonio.load_braided(path)).passed, name
        else:
            assert verify_matched_pair(jsonio.load_matched(path)).passed, name


def test_build_fixtures_reproduces_every_fixture(fixture_dir, tmp_path, monkeypatch):
    import importlib.util
    script = fixture_dir.parent / "scripts" / "build_fixtures.py"
    spec = importlib.util.spec_from_file_location("build_fixtures", script)
    build = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build)
    monkeypatch.setattr(build, "OUT", tmp_path)
    build.main()
    built = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert built == {p.name: p.read_bytes() for p in fixture_dir.iterdir()}


def test_center_survey_script_verifies_every_center(fixture_dir):
    import subprocess
    import sys
    from fixture_builders import CENTER_FIXTURES
    script = fixture_dir.parent / "scripts" / "center_survey.py"
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    heads = [line for line in done.stdout.splitlines() if not line.startswith(" ")]
    assert [h.split(":")[0] for h in heads] == list(CENTER_FIXTURES)
    assert all("verified = True" in h for h in heads), heads
    assert done.stdout.count("zero scalar data: ") == len(CENTER_FIXTURES)
    lines = done.stdout.splitlines()
    z6, s4, eq = (next(i for i, line in enumerate(lines) if line.startswith(f"{name}:"))
                  for name in ("z6-over-z3", "vec-s4-pair", "equivariant-s3"))
    assert lines[z6 + 1] == ("  grades: {(0, 0): 4, (0, 1): 4, (0, 2): 4, "
                             "(1, 0): 4, (1, 1): 4, (1, 2): 4}")
    assert lines[z6 + 4] == "  zero scalar data: center False, center viewed as a category False"
    assert lines[s4 + 4] == "  zero scalar data: center True, center viewed as a category True"
    # nonzero half-braidings can still give the center zero category tables
    assert lines[eq + 4] == "  zero scalar data: center False, center viewed as a category True"
