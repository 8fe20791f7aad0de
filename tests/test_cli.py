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

from conftest import FIXTURE_DIR, cli, fixture_with, python
from crossedcat import jsonio
from crossedcat.cli import COMMANDS
from crossedcat.matched import verify_matched_pair


def test_verify_matched_pair_passes(fixture_dir):
    code, out, _ = cli("verify", "matched-pair", str(fixture_dir / "z2-z3-inversion.json"))
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_center_report_sections(fixture_dir):
    code, out, _ = cli("verify", "center", str(fixture_dir / "cat-z4-over-z2.json"))
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert names == ["oracle_equivalence", "induced_pair_braided", "center_category_axioms",
                     "braiding_axiom_1", "braiding_axiom_2", "braiding_axiom_3"]


def test_center_counts(fixture_dir):
    code, out, _ = cli("center", str(fixture_dir / "cat-z4-over-z2.json"))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["simples"]) == 16
    assert payload["pass"] is True
    code, out, _ = cli("center", str(fixture_dir / "cat-vec-z3-gtrivial.json"))
    assert len(json.loads(out)["simples"]) == 3


def test_verify_center_verifies_each_pair_at_most_twice(fixture_dir, monkeypatch):
    # the input pair: the category check and zappa_szep's input guard; the
    # induced pair: the reported checks induced_pair_braided and
    # center_category_axioms.  Constructions do not verify their output, so
    # the only group of order 36 run through validate_group is the simples'.
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
    code, _, _ = cli("verify", "center", str(fixture_dir / "cat-vec-turaev-s3.json"))
    assert code == 0
    assert 1 <= orders.count((36, 36)) <= 2, orders
    assert 1 <= orders.count((6, 6)) <= 2, orders
    assert [g for g in groups if g[0] == 36] == [(36, "Z(Vec-Turaev-S3)-simples")], groups
    assert {g[0] for g in groups} == {6, 36}, groups


def test_reports_are_byte_identical(fixture_dir):
    _, out1, _ = cli("verify", "category", str(fixture_dir / "cat-cocycle-j.json"))
    _, out2, _ = cli("verify", "category", str(fixture_dir / "cat-cocycle-j.json"))
    assert out1 == out2


def test_zappa_szep_output_is_s3(fixture_dir, tmp_path):
    out_path = tmp_path / "zs.json"
    code, _, _ = cli("zappa-szep", str(fixture_dir / "z2-z3-inversion.json"),
                     "-o", str(out_path))
    assert code == 0
    H = jsonio.load_group(out_path)
    # a group of order 6 with a non-commuting pair is S3; 3 = (1, 0) and
    # 1 = (0, 1) in the encoding g*|Gamma| + s
    assert H.order == 6 and H.table[3][1] != H.table[1][3]


def test_factorize_s4(fixture_dir, tmp_path):
    out_path = tmp_path / "s4pair.json"
    code, _, _ = cli("factorize", str(fixture_dir / "group-s4.json"),
                     "--gens-g", "9", "--gens-gamma", "6,8", "-o", str(out_path))
    assert code == 0
    mp = jsonio.load_matched(out_path)
    assert verify_matched_pair(mp).passed
    assert (mp.G.order, mp.Gamma.order) == (4, 6)


def test_turaev_command(fixture_dir, tmp_path):
    out_path = tmp_path / "tur.json"
    code, out, _ = cli("turaev", str(fixture_dir / "group-d4.json"), "-o", str(out_path))
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_center_pair_command_trivial_z2z2(fixture_dir, tmp_path):
    out_path = tmp_path / "cp.json"
    code, _, _ = cli("center-pair", str(fixture_dir / "direct-z2-z2.json"),
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
def test_input_digest_is_taken_before_output_overwrites_the_input(fixture_dir, tmp_path,
                                                                  argv, source):
    path = tmp_path / source
    path.write_bytes((fixture_dir / source).read_bytes())
    before = hashlib.sha256(path.read_bytes()).hexdigest()
    code, out, _ = cli(argv[0], str(path), *argv[1:], "-o", str(path))
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
def test_input_digest_is_the_sha256_of_the_input_bytes(fixture_dir, tmp_path, argv, source):
    # the oracle is the standard library's hash, not the CLI's own digest
    path = fixture_dir / source
    code, out, _ = cli(*[a.format(out=tmp_path / "out.json") for a in argv], str(path))
    assert code == 0
    assert json.loads(out)["inputDigest"] == hashlib.sha256(path.read_bytes()).hexdigest()


@INPUT_FORMS
def test_each_command_reads_and_hashes_its_input_once(monkeypatch, fixture_dir, tmp_path,
                                                      argv, source):
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
    code, report, _ = cli(*[a.format(out=out) for a in argv], str(path))
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
def test_output_to_dev_null_exits_0(tmp_path, argv):
    # the report is the one a regular file gets; no command reads -o back
    regular = tmp_path / "out.json"
    code, expected, _ = cli(*argv, "-o", str(regular))
    assert code == 0
    code, out, _ = cli(*argv, "-o", os.devnull)
    assert code == 0
    assert out == _written_as(expected, regular, os.devnull)


def test_output_over_the_input_limit_is_not_written(monkeypatch, tmp_path):
    # S4 from its factorization Z4 x S3: a 1,061-byte input, a 4,059-byte group;
    # written, the group could not be read as an input
    source, out = FIXTURE_DIR / "s4-z4-s3.json", tmp_path / "s4.json"
    monkeypatch.setattr(jsonio, "MAX_INPUT_BYTES", 2000)
    code, stdout, stderr = cli("zappa-szep", str(source), "-o", str(out))
    assert (code, stdout) == (2, "")
    assert json.loads(stderr) == {"error": f"cannot write {str(out)!r}: 4059 bytes, "
                                           "larger than the input limit of 2000 bytes"}
    assert not out.exists()
    # under the limit it is written as open() writes a file, with no execute bit
    monkeypatch.setattr(jsonio, "MAX_INPUT_BYTES", 5000)
    assert cli("zappa-szep", str(source), "-o", str(out))[0] == 0
    umask = os.umask(0)
    os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask


def test_coherence_command(fixture_dir):
    code, out, _ = cli("coherence", "--category", str(fixture_dir / "cat-cocycle-j.json"))
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True and report["failures"] == []
    assert report["stats"] == {"branchings": 10, "instances": 73}
    code, out, _ = cli("coherence", "--category", str(fixture_dir / "cat-cocycle-j.json"),
                       "--objects", "1,1")
    assert code == 0 and json.loads(out)["stats"] == {"branchings": 10, "instances": 28}


def test_coherence_refuses_over_the_instance_bound(monkeypatch, fixture_dir):
    """cat-vec-turaev-s3 compares 4,105 instances: at that bound it passes,
    and one below it exits 2 naming the count before any branching is
    normalized."""
    from crossedcat import words
    path = str(fixture_dir / "cat-vec-turaev-s3.json")
    monkeypatch.setattr(words, "MAX_COHERENCE_INSTANCES", 4105)
    code, out, _ = cli("coherence", "--category", path)
    assert code == 0 and json.loads(out)["stats"]["instances"] == 4105

    def unreached(*args):
        raise AssertionError("a branching was normalized")

    monkeypatch.setattr(words, "MAX_COHERENCE_INSTANCES", 4104)
    monkeypatch.setattr(words, "normal_form", unreached)
    code, out, err = cli("coherence", "--category", path)
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "coherence would compare 4105 instances, over the limit of 4104"}


def test_pretty_flag_renders_text(fixture_dir):
    code, out, _ = cli("--pretty", "verify", "matched-pair",
                       str(fixture_dir / "z2-z3-inversion.json"))
    assert code == 0
    assert "matched-pair: PASS" in out


def test_top_level_copy_without_identity_or_order_is_accepted(tmp_path):
    obj = json.loads((FIXTURE_DIR / "cat-vec-z2z3.json").read_text())
    for key in ("G", "Gamma"):
        del obj[key]["identity"], obj[key]["order"]
    (tmp_path / "cat.json").write_text(json.dumps(obj))
    code, out, _ = cli("verify", "category", str(tmp_path / "cat.json"))
    assert code == 0 and json.loads(out)["pass"] is True


def test_category_at_the_input_cap_passes(tmp_path):
    """Lambda = Z_925 over trivial groups with J omitted, the largest such
    category under MAX_INPUT_BYTES, loads and verifies."""
    n, one = 925, {"table": [[0]]}
    obj = {"Lambda": {"table": [[(a + b) % n for b in range(n)] for a in range(n)]},
           "mp": {"G": one, "Gamma": one, "act1": [[0]], "act2": [[0]]}, "G": one, "Gamma": one,
           "grading": [0] * n, "action": [list(range(n))], "M": 2}
    text = json.dumps(obj)
    assert len(text) <= jsonio.MAX_INPUT_BYTES  # with Z_926, 4,194,866 bytes, it is over
    (tmp_path / "cat.json").write_text(text)
    code, out, _ = cli("verify", "category", str(tmp_path / "cat.json"))
    assert code == 0 and json.loads(out)["pass"] is True


def _cli_child(*argv: str, cap_memory: bool = False, **kwargs) -> subprocess.CompletedProcess:
    """`crossedcat argv...` in a child process; `cap_memory` caps its address
    space at 512 MB."""
    if cap_memory:
        resource = pytest.importorskip("resource")
        kwargs["preexec_fn"] = lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                          (512 << 20, 512 << 20))
    return python("-m", "crossedcat.cli", *argv, **kwargs)


def _refused(done: subprocess.CompletedProcess) -> str:
    """The error of a command that exited 2 and printed no report."""
    assert (done.returncode, done.stdout) == (2, "")
    return json.loads(done.stderr)["error"]


def test_sub_object_naming_dev_zero_exits_2(tmp_path):
    """A group given as "/dev/zero" exits 2 without opening it.  Were the path
    read, it would fill memory; so the command runs with its address space
    capped."""
    (tmp_path / "cat.json").write_text(json.dumps(fixture_with("cat-vec-z2z3", ("Lambda",),
                                                               "/dev/zero")))
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


def test_group_without_order_loads(tmp_path):
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(fixture_with("group-z3", ("order",))))
    code, out, _ = cli("verify", "group", str(path))
    assert code == 0 and json.loads(out)["pass"] is True
    assert jsonio.load_group(path) == jsonio.load_group(FIXTURE_DIR / "group-z3.json")


def _imported_after(code: str, modules: set[str]) -> list[str]:
    """Those of `modules` that a fresh interpreter has imported after running `code`."""
    probe = f"{code}\nimport sys\nprint(' '.join(m for m in sys.argv[1:] if m in sys.modules))"
    return python("-c", probe, *sorted(modules), check=True).stdout.splitlines()[-1].split()


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
    done = python("-c", probe, "verify", "group", str(path), check=True)
    report, status = done.stdout.splitlines()
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
    assert python("-c", probe, check=True).stdout.split() == ["CenterStructure", "crossedcat.words"]


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
    bad = tmp_path / "not-matched.json"
    bad.write_text(json.dumps(fixture_with("z2-z3-inversion", ("act1", 1, 2), 2)))
    for path, code in ((FIXTURE_DIR / "group-z3.json", 0), (bad, 1)):
        kind = "group" if code == 0 else "matched-pair"
        done = python("-c", probe, "verify", kind, str(path))
        report, hook = done.stdout.splitlines()
        assert (done.returncode, json.loads(report)["pass"], hook) == (code, code == 0, "hook")
        assert done.stderr == ""


def test_main_leaves_the_heap_collectable():
    before = gc.get_freeze_count()
    assert cli("verify", "group", str(FIXTURE_DIR / "group-z3.json"))[0] == 0
    assert gc.get_freeze_count() == before


def test_console_script_runs_the_entry_of_the_main_block():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((FIXTURE_DIR.parent / "pyproject.toml").read_text())["project"]
    module = sys.modules["crossedcat.cli"]
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    block = next(node for node in tree.body if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "__name__ == '__main__'")
    [statement] = block.body
    entry = statement.value.func.id
    assert project["scripts"] == {"crossedcat": f"crossedcat.cli:{entry}"}
    assert callable(getattr(module, entry))


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


def test_help_prints_the_usage_of_every_command():
    done = python("-m", "crossedcat.cli", "--help")
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
    assert cli("verify", "-h") == (0, done.stdout, "")


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
    from fixture_builders import CENTER_FIXTURES
    script = fixture_dir.parent / "scripts" / "center_survey.py"
    done = python(str(script), timeout=120)
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
