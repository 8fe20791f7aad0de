"""Command-line interface: verify fixtures, build products, emit reports.

Exit codes: 0 all checks pass, 1 an axiom fails (report carries the
witness), 2 the input or the command line cannot be parsed or validated at
all.  Reports are JSON with sorted keys and no timestamps, so identical
inputs produce byte-identical output; --pretty renders the same data for
humans.

Every command runs in a fresh process, and on desk-scale inputs start-up is
most of its time.  So each command imports the modules it runs inside its
`cmd_*` function, and `parse_args` reads the command line from the table
COMMANDS, which also gives the --help text, instead of building an argparse
parser for all seven commands on every run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .errors import (AssocViolation, CrossedCatError, NoIdentity, NoInverse, NotMatched,
                     ValidationError)
from .records import Record

if TYPE_CHECKING:
    from .report import VerificationReport


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _emit(report: VerificationReport, pretty: bool) -> int:
    print(report.render(pretty=pretty))
    return 0 if report.passed else 1


def _emit_json(payload: dict, pretty: bool) -> None:
    if pretty:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _int_list(text: str, option: str) -> list[int]:
    """The comma-separated integers of a command-line option."""
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise ValidationError(f"{option} must be comma-separated integers, got {text!r}") from None


def cmd_verify(kind: str, file: str, pretty: bool) -> int:
    from . import jsonio
    path = Path(file)
    if kind == "group":
        from .groups import validate_group
        from .report import VerificationReport
        raw = jsonio.read_json(path)
        fields = jsonio.group_fields(raw)
        rep = VerificationReport(subject=f"group {raw.get('name', path.name)}")
        try:
            validate_group(*fields)
            rep.add("group_laws", True)
        except (AssocViolation, NoIdentity, NoInverse) as exc:
            rep.add("group_laws", False, exc.witness)
    elif kind == "matched-pair":
        from .matched import verify_matched_pair
        rep = verify_matched_pair(jsonio.load_matched(path))
    elif kind == "braided-pair":
        from .braided import verify_braiding
        rep = verify_braiding(jsonio.load_braided(path))
    else:  # category or center: parse_args admits no other kind
        from .pointed import verify_crossed_category
        cat = jsonio.load_category(path, validate=False)
        rep = verify_crossed_category(cat)
        if kind == "center" and rep.passed:
            from .center import verify_center_braided
            rep = verify_center_braided(cat)
    rep.input_digest = _digest(path)
    return _emit(rep, pretty)


def cmd_zappa_szep(file: str, out: str, pretty: bool) -> int:
    from . import jsonio
    from .matched import zappa_szep
    H, _, _ = zappa_szep(jsonio.load_matched(file))
    out_path = Path(out)
    jsonio.save_group(H, out_path)
    reloaded = jsonio.load_group(out_path)  # re-validates all group laws
    _emit_json({"written": str(out_path), "order": reloaded.order,
                "inputDigest": _digest(Path(file))}, pretty)
    return 0


def _save_and_verify(file: str, out: str, pretty: bool, built, save, load, verify) -> int:
    """Write `built` to -o, then verify and emit what reads back from there."""
    out_path = Path(out)
    save(built, out_path)
    rep = verify(load(out_path))
    rep.input_digest = _digest(Path(file))
    return _emit(rep, pretty)


def cmd_factorize(file: str, gens_g: str, gens_gamma: str, out: str, pretty: bool) -> int:
    from . import jsonio
    from .groups import subgroup_from_generators
    from .matched import from_exact_factorization, verify_matched_pair
    H = jsonio.load_group(file)
    g = _int_list(gens_g, "--gens-g")
    gamma = _int_list(gens_gamma, "--gens-gamma")
    mp = from_exact_factorization(H, subgroup_from_generators(H, g),
                                  subgroup_from_generators(H, gamma))
    return _save_and_verify(file, out, pretty, mp, jsonio.save_matched, jsonio.load_matched,
                            verify_matched_pair)


def cmd_turaev(file: str, out: str, pretty: bool) -> int:
    from . import jsonio
    from .braided import turaev_braiding, verify_braiding
    bmp = turaev_braiding(jsonio.load_group(file))
    return _save_and_verify(file, out, pretty, bmp, jsonio.save_braided, jsonio.load_braided,
                            verify_braiding)


def cmd_center_pair(file: str, out: str, pretty: bool) -> int:
    from . import jsonio
    from .braided import center_braiding, verify_braiding
    bmp = center_braiding(jsonio.load_matched(file))
    return _save_and_verify(file, out, pretty, bmp, jsonio.save_braided, jsonio.load_braided,
                            verify_braiding)


def cmd_center(file: str, out: Optional[str], pretty: bool) -> int:
    from . import jsonio
    from .center import enumerate_center, verify_center_braided
    cat = jsonio.load_category(file)   # raises ValidationError on bad axioms
    simples = enumerate_center(cat)     # raises NonSingularityViolated
    rep = verify_center_braided(cat, simples=simples)
    rep.input_digest = _digest(Path(file))
    histogram: dict[str, int] = {}
    for z in simples:
        key = f"{z.g},{cat.deg(z.label)}"
        histogram[key] = histogram.get(key, 0) + 1
    payload = {
        "simples": [{"g": z.g, "label": z.label, "chi": list(z.chi)} for z in simples],
        "gradeHistogram": histogram,
        "checks": [c.to_json() for c in rep.checks],
        "pass": rep.passed,
        "inputDigest": rep.input_digest,
    }
    if out:
        jsonio.write_json(payload, out)
    _emit_json(payload, pretty)
    return 0 if rep.passed else 1


def cmd_coherence(category: str, max_nodes: int, arity: int, objects: Optional[str],
                  tuple_cap: int, pretty: bool) -> int:
    from . import jsonio
    from .words import check_coherence, min_word_nodes
    cat = jsonio.load_category(category)
    tuples: list[tuple[int, ...]]
    if objects is not None:
        labels = tuple(_int_list(objects, "--objects"))
        if not labels:
            raise ValidationError(f"--objects names no label, got {objects!r}")
        n = cat.Lambda.order
        for x in labels:
            if not 0 <= x < n:
                raise ValidationError(f"--objects label {x} out of range 0..{n - 1}")
        tuples = [labels]
        k = len(labels)
    else:
        if arity < 1 or tuple_cap < 1:
            raise ValidationError("--arity and --tuple-cap must be at least 1, got "
                                  f"{arity} and {tuple_cap}")
        k = arity
    need = min_word_nodes(k)
    if max_nodes < need:
        raise ValidationError(f"--max-nodes {max_nodes} is below {need}: "
                              f"a {k}-object tuple has no word with fewer nodes")
    if objects is None:
        # the first tuple_cap tuples of each arity, without building the rest
        elements = list(cat.Lambda.elements())
        tuples = [t for a in range(1, arity + 1)
                  for t in itertools.islice(itertools.product(elements, repeat=a), tuple_cap)]
    all_pass = True
    stats = {"tuplesChecked": len(tuples), "maxNodes": max_nodes}
    failures = []
    for objs in tuples:
        try:
            rep = check_coherence(cat, max_nodes, objs)
        except RecursionError:
            # the word enumeration recurses once per node of the budget
            raise ValidationError(f"--max-nodes {max_nodes} is too large: enumerating its "
                                  "words exceeds the recursion limit") from None
        if not rep.passed:
            all_pass = False
            failures.append({"objects": list(objs),
                             "witness": list(rep.first_failure().witness or ())})
            break
    payload = {"subject": f"coherence {cat.name}", "pass": all_pass,
               "stats": stats, "failures": failures,
               "inputDigest": _digest(Path(category))}
    _emit_json(payload, pretty)
    return 0 if all_pass else 1


# -- the command line ------------------------------------------------------------

class Arg(Record):
    """One argument of a command: a positional when `flags` is empty, else an
    option that takes a value.  Its value is passed to the command's function
    as the keyword `dest`."""
    dest: str
    help: str = ""
    flags: tuple = ()
    type: type = str
    choices: tuple = ()
    default: object = None
    required: bool = False


class Command(Record):
    run: Callable[..., int]
    help: str
    args: tuple


def _out(required: bool, text: str = "") -> Arg:
    return Arg("out", text, ("-o", "--out"), required=required)


COMMANDS = {
    "verify": Command(cmd_verify, "run a verifier on a file", (
        Arg("kind", choices=("group", "matched-pair", "braided-pair", "category", "center")),
        Arg("file"))),
    "zappa-szep": Command(cmd_zappa_szep, "twisted product of a matched pair", (
        Arg("file"), _out(True))),
    "factorize": Command(cmd_factorize, "extract the matched pair of an exact factorization", (
        Arg("file", "group JSON"),
        Arg("gens_g", "comma-separated generator indices for G", ("--gens-g",), required=True),
        Arg("gens_gamma", "comma-separated generator indices for Gamma", ("--gens-gamma",),
            required=True),
        _out(True))),
    "turaev": Command(cmd_turaev, "adjoint braided pair of a group", (
        Arg("file", "group JSON"), _out(True))),
    "center-pair": Command(cmd_center_pair, "the induced braided pair on (G><Gamma, G x Gamma)", (
        Arg("file", "matched-pair JSON"), _out(True))),
    "center": Command(cmd_center, "enumerate and verify the center of a category", (
        Arg("file", "category JSON"), _out(False, "also write the report to this path"))),
    "coherence": Command(cmd_coherence, "bounded parallel-composite uniqueness check", (
        Arg("category", flags=("--category",), required=True),
        Arg("max_nodes", flags=("--max-nodes",), type=int, default=6),
        Arg("arity", flags=("--arity",), type=int, default=3),
        Arg("objects", "comma-separated labels; overrides the sweep", ("--objects",)),
        Arg("tuple_cap", "deterministic cap per arity when sweeping tuples", ("--tuple-cap",),
            type=int, default=64))),
}
HELP_FLAGS = ("-h", "--help")


def _name(arg: Arg) -> str:
    return arg.flags[0] if arg.flags else arg.dest.upper()


def _synopsis(arg: Arg) -> str:
    if arg.choices:
        return "{" + ",".join(arg.choices) + "}"
    if not arg.flags:
        return _name(arg)
    text = f"{_name(arg)} {arg.dest.upper()}"
    return text if arg.required else f"[{text}]"


def usage() -> str:
    """The --help text, read from COMMANDS."""
    lines = ["usage: crossedcat [--pretty] COMMAND ARGUMENTS", "",
             "verify and build group-crossed structures", "",
             "  --pretty    human-readable rendering",
             "  -h, --help  print this text and exit", "",
             "An option's value is the next argument, or follows '=' as in --arity=2.",
             "Bad arguments exit 2 with {\"error\": ...} on stderr.", "", "commands:"]
    for name, command in COMMANDS.items():
        lines.append(f"  crossedcat {name} " + " ".join(map(_synopsis, command.args)))
        lines.append(f"      {command.help}")
        for arg in command.args:
            what = ", ".join(arg.flags) if arg.flags else arg.dest.upper()
            notes = [arg.help] if arg.help else []
            if arg.default is not None:
                notes.append(f"default {arg.default}")
            if notes:
                lines.append(f"      {what}: {'; '.join(notes)}")
    return "\n".join(lines)


def _print_usage(pretty: bool) -> int:
    print(usage())
    return 0


def _value(arg: Arg, name: str, text: str):
    """`text` as the value of `arg`, which the command line calls `name`."""
    if arg.choices and text not in arg.choices:
        raise ValidationError(f"{name} must be one of {', '.join(arg.choices)}, got {text!r}")
    if arg.type is int:
        try:
            return int(text)
        except ValueError:
            raise ValidationError(f"{name} must be an integer, got {text!r}") from None
    return text


def parse_args(argv: Sequence[str]) -> tuple[Callable[..., int], dict]:
    """The function that `argv` runs and its keyword arguments; an unusable
    `argv` raises ValidationError.  -h or --help anywhere runs the usage
    printer, unless it is an option's value."""
    tokens = iter(argv)
    pretty = False
    for token in tokens:
        if token == "--pretty":
            pretty = True
        elif token in HELP_FLAGS:
            return _print_usage, {"pretty": pretty}
        elif token in COMMANDS:
            name, command = token, COMMANDS[token]
            break
        elif token.startswith("-"):
            raise ValidationError(f"unknown option {token!r}")
        else:
            raise ValidationError(f"unknown command {token!r}; "
                                  f"expected one of {', '.join(COMMANDS)}")
    else:
        raise ValidationError(f"no command given; expected one of {', '.join(COMMANDS)}")
    options = {flag: arg for arg in command.args for flag in arg.flags}
    positionals = [arg for arg in command.args if not arg.flags]
    values: dict = {"pretty": pretty}
    for token in tokens:
        if token in HELP_FLAGS:
            return _print_usage, {"pretty": pretty}
        if token.startswith("-") and token != "-":
            flag, eq, text = token.partition("=")
            arg = options.get(flag)
            if arg is None:
                raise ValidationError(f"{name}: unknown option {flag!r}")
            if not eq:
                text = next(tokens, None)
                if text is None:
                    raise ValidationError(f"{name}: {flag} needs a value")
            values[arg.dest] = _value(arg, flag, text)
        else:
            given = sum(arg.dest in values for arg in positionals)
            if given == len(positionals):
                raise ValidationError(f"{name}: unexpected argument {token!r}")
            arg = positionals[given]
            values[arg.dest] = _value(arg, _name(arg), token)
    for arg in command.args:
        if arg.dest not in values:
            if arg.required or not arg.flags:
                raise ValidationError(f"{name} needs {_name(arg)}")
            values[arg.dest] = arg.default
    return command.run, values


def main(argv: Optional[Sequence[str]] = None) -> int:
    pretty = False
    try:
        run, kwargs = parse_args(sys.argv[1:] if argv is None else argv)
        pretty = kwargs["pretty"]
        return run(**kwargs)
    except NotMatched as exc:
        print(exc.report.render(pretty=pretty))
        return 1
    except (CrossedCatError, json.JSONDecodeError, OSError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
