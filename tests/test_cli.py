from __future__ import annotations

import json
import subprocess
import sys
import types

import pytest

from conftest import FIXTURE_DIR
from crossedcat import jsonio
from crossedcat.cli import COMMANDS, main, usage
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
    assert "sigma_yang_baxter_gamma" in names
    assert "braiding_axiom_1" in names


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
    assert H.order == 6 and H.mul(3, 1) != H.mul(1, 3)


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
    assert all(bmp.mp.a1(a, x) == x for a in range(4) for x in range(4))


def test_coherence_command(capsys, fixture_dir):
    code, out = run(capsys, "coherence", "--category", str(fixture_dir / "cat-cocycle-j.json"),
                    "--max-nodes", "6", "--arity", "2")
    assert code == 0
    assert json.loads(out)["pass"] is True


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
    ("matched-pair", _fixture_with("z2-z3-inversion", ".", "G"),
     "[Errno 21] Is a directory: '{dir}'"),
    # JSON true/false are not integers, though Python's bool subclasses int
    ("group", {"table": [[False, True], [True, False]]},
     "group table must be a list of lists of integers"),
    ("group", {"table": [[0, 1], [1, 0]], "identity": False}, "group identity must be an integer"),
    ("matched-pair", _fixture_with("z2-z3-inversion", True, "act1", 1, 1),
     "act1 must be a list of lists of integers"),
    ("category", _fixture_with("cat-vec-z2z3", True, "M"), "M must be a positive integer"),
    ("category", _fixture_with("cat-cocycle-j", True, "J", 1, 1, 1),
     "J must be a list of lists of lists of integers"),
], ids=["group-not-object", "identity-out-of-range", "G-not-object", "category-not-object",
        "G-names-a-directory", "bool-in-group-table", "bool-identity", "bool-in-action",
        "bool-M", "bool-in-J"])
def test_shape_malformed_input_exit_2(capsys, tmp_path, kind, obj, error):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify", kind, str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip().splitlines()[-1]) == {
        "error": error.format(dir=tmp_path)}


@pytest.mark.parametrize("obj,witness", [
    ({"table": [[0, 1], [1, 1]]}, [1]),
    ({"table": [[0, 0], [1, 1]], "identity": 0}, [0, 1]),
], ids=["no-inverse", "identity-fails"])
def test_verify_group_law_failure_exit_1(capsys, tmp_path, obj, witness):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify", "group", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["checks"] == [{"name": "group_laws", "pass": False,
                                                   "witness": witness}]


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
    # `gettext` and `locale`, or a module the command does not run, a few ms more
    assert _imported_after("import crossedcat.cli",
                           {"numpy", "concurrent.futures", "dataclasses", "inspect"}) == []
    run = "from crossedcat.cli import main\nassert main({argv!r}) == 0"
    z2 = str(FIXTURE_DIR / "group-z2.json")
    assert _imported_after(run.format(argv=["verify", "group", z2]), {
        "argparse", "gettext", "locale", "crossedcat.center", "crossedcat.words",
        "crossedcat.braided", "crossedcat.matched", "crossedcat.pointed"}) == []
    cat = str(FIXTURE_DIR / "cat-vec-z2z3.json")
    assert _imported_after(run.format(argv=["verify", "category", cat]), {
        "crossedcat.center", "crossedcat.words", "crossedcat.braided"}) == []


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


def test_help_prints_the_usage_of_every_command(capsys):
    done = subprocess.run([sys.executable, "-m", "crossedcat.cli", "--help"],
                          capture_output=True, text=True,
                          env={"PYTHONPATH": str(FIXTURE_DIR.parent / "src")})
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == usage() + "\n"
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
    (["coherence", "--category", "{cat}", "--arity", "1", "--max-nodes", "0"],
     "--max-nodes 0 is below 1: a 1-object tuple has no word with fewer nodes"),
    (["coherence", "--category", "{cat}", "--arity", "3", "--max-nodes", "4"],
     "--max-nodes 4 is below 5: a 3-object tuple has no word with fewer nodes"),
    (["coherence", "--category", "{cat}", "--arity", "0"],
     "--arity and --tuple-cap must be at least 1, got 0 and 64"),
    (["coherence", "--category", "{cat}", "--tuple-cap", "-1"],
     "--arity and --tuple-cap must be at least 1, got 3 and -1"),
    # refused before any tuple is built: 4^40 tuples of arity 40 exist
    (["coherence", "--category", "{cat}", "--arity", "40"],
     "--max-nodes 6 is below 79: a 40-object tuple has no word with fewer nodes"),
    (["coherence", "--category", "{vec}", "--objects", "0", "--max-nodes", "1200"],
     "--max-nodes 1200 is too large: enumerating its words exceeds the recursion limit"),
], ids=["objects-not-int", "objects-out-of-range", "objects-commas", "objects-empty",
        "gens-not-int", "max-nodes-0", "max-nodes-below-arity", "arity-0", "tuple-cap-negative",
        "arity-40", "max-nodes-past-recursion-limit"])
def test_malformed_arguments_exit_2(capsys, fixture_dir, tmp_path, argv, error):
    paths = {"cat": fixture_dir / "cat-z4-over-z2.json", "s4": fixture_dir / "group-s4.json",
             "vec": fixture_dir / "cat-vec-trivial.json", "out": tmp_path / "out.json"}
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
    from crossedcat.fixtures import CENTER_FIXTURES
    script = fixture_dir.parent / "scripts" / "center_survey.py"
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    heads = [line for line in done.stdout.splitlines() if not line.startswith(" ")]
    assert [h.split(":")[0] for h in heads] == list(CENTER_FIXTURES)
    assert all("verified = True" in h for h in heads), heads
    assert done.stdout.count("zero J planes ") == len(CENTER_FIXTURES)
    lines = done.stdout.splitlines()
    z6, s4 = (next(i for i, line in enumerate(lines) if line.startswith(f"{name}:"))
              for name in ("z6-over-z3", "vec-s4-pair"))
    assert lines[z6 + 1] == ("  grades: {(0, 0): 4, (0, 1): 4, (0, 2): 4, "
                             "(1, 0): 4, (1, 1): 4, (1, 2): 4}")
    assert lines[z6 + 4] == "  zero J planes 2/6, zero chi rows 24/36"
    assert lines[z6 + 5] == "  zero scalar data: False"
    assert lines[s4 + 5] == "  zero scalar data: True"
