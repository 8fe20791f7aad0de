"""Command-line interface: verify fixtures, build products, emit reports.

Exit codes: 0 all checks pass, 1 an axiom fails (report carries the
witness), 2 the input or the command line cannot be parsed or validated at
all, or the report cannot be written, 3 a fault in crossedcat itself (any
exception that is not a CrossedCatError or an OSError).  Exits 0 and 1 are
the value a command returns with its report; `main` turns exceptions into
2 and 3 only.  Reports are JSON with sorted keys and no timestamps, so
identical inputs produce byte-identical output; --pretty renders the same
data for humans.

Every command runs in a fresh process, and on desk-scale inputs start-up is
most of its time.  So each command imports the modules it runs inside its
`cmd_*` function, and `parse_args` reads the command line from the table
COMMANDS, which also gives the --help text, instead of building an argparse
parser for all seven commands on every run.

For the same reason a command's process skips interpreter teardown: `entry`
runs the atexit handlers, flushes stdout and stderr, and ends with
os._exit.  A wrapper that expects the module to return, such as
`python -m cProfile -m crossedcat.cli`, loses its output; profile `main` in
process instead, as perfbench/traced_cli.py does.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .errors import CrossedCatError, GroupValidationError, ValidationError
from .records import Record

if TYPE_CHECKING:
    from .report import VerificationReport


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
    if kind == "group":
        from .groups import validate_group
        from .report import VerificationReport
        raw, digest = jsonio.read_json(file)
        fields = jsonio.group_fields(raw)
        rep = VerificationReport(subject=f"group {raw.get('name', Path(file).name)}")
        try:
            validate_group(*fields)
            rep.add("group_laws", None)
        except GroupValidationError as exc:
            rep.add("group_laws", exc.witness)
    elif kind == "matched-pair":
        from .matched import verify_matched_pair
        mp = jsonio.load_matched(file)
        rep, digest = verify_matched_pair(mp), mp.input_digest
    elif kind == "braided-pair":
        from .braided import verify_braiding
        bmp = jsonio.load_braided(file)
        rep, digest = verify_braiding(bmp), bmp.input_digest
    else:  # category or center: parse_args admits no other kind
        from .pointed import verify_crossed_category
        cat = jsonio.load_category(file, validate=False)
        rep, digest = verify_crossed_category(cat), cat.input_digest
        if kind == "center" and rep.passed:
            from .center import verify_center_braided
            rep = verify_center_braided(cat)
    rep.input_digest = digest
    return _emit(rep, pretty)


def cmd_zappa_szep(file: str, out: str, pretty: bool) -> int:
    from . import jsonio
    from .matched import verify_matched_pair, zappa_szep
    mp = jsonio.load_matched(file)
    rep = verify_matched_pair(mp)
    if not rep.passed:   # the pair's own report, without a digest; -o is not written
        return _emit(rep, pretty)
    H, _, _ = zappa_szep(mp)
    text = jsonio.write_json(jsonio.group_to_json(H), out)
    written = jsonio.group_from_json(json.loads(text))  # re-validates all group laws
    _emit_json({"written": str(Path(out)), "order": written.order,
                "inputDigest": mp.input_digest}, pretty)
    return 0


def _save_and_verify(source, out: str, pretty: bool, built, to_json, from_json, verify) -> int:
    """Write `built` to -o, then verify and emit the record parsed again from
    the text written, with `source`'s digest; -o itself is never read."""
    from . import jsonio
    text = jsonio.write_json(to_json(built), out)
    rep = verify(from_json(json.loads(text)))
    rep.input_digest = source.input_digest
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
    return _save_and_verify(H, out, pretty, mp, jsonio.matched_to_json,
                            jsonio.matched_from_json, verify_matched_pair)


def cmd_turaev(file: str, out: str, pretty: bool) -> int:
    from . import jsonio
    from .braided import turaev_braiding, verify_braiding
    G = jsonio.load_group(file)
    return _save_and_verify(G, out, pretty, turaev_braiding(G), jsonio.braided_to_json,
                            jsonio.braided_from_json, verify_braiding)


def cmd_center_pair(file: str, out: str, pretty: bool) -> int:
    from . import jsonio
    from .braided import center_braiding, verify_braiding
    from .matched import verify_matched_pair
    mp = jsonio.load_matched(file)
    rep = verify_matched_pair(mp)
    if not rep.passed:
        return _emit(rep, pretty)
    return _save_and_verify(mp, out, pretty, center_braiding(mp), jsonio.braided_to_json,
                            jsonio.braided_from_json, verify_braiding)


def cmd_center(file: str, out: Optional[str], pretty: bool) -> int:
    from . import jsonio
    from .center import enumerate_center, verify_center_braided
    cat = jsonio.load_category(file)   # raises ValidationError on bad axioms
    rep = verify_center_braided(cat)    # the oracle's bound refuses before any search
    simples = enumerate_center(cat)
    histogram: dict[str, int] = {}
    for z in simples:
        key = f"{z.g},{cat.grading[z.label]}"
        histogram[key] = histogram.get(key, 0) + 1
    payload = {
        "simples": [{"g": z.g, "label": z.label, "chi": list(z.chi)} for z in simples],
        "gradeHistogram": histogram,
        "checks": [c.to_json() for c in rep.checks],
        "pass": rep.passed,
        "inputDigest": cat.input_digest,
    }
    if out is not None:
        jsonio.write_json(payload, out)
    _emit_json(payload, pretty)
    return 0 if rep.passed else 1


def cmd_coherence(category: str, objects: Optional[str], pretty: bool) -> int:
    from . import jsonio
    from .words import verify_coherence
    cat = jsonio.load_category(category)   # raises ValidationError on bad axioms
    labels = None
    if objects is not None:
        labels = _int_list(objects, "--objects")
        if not labels:
            raise ValidationError(f"--objects names no label, got {objects!r}")
        n = cat.Lambda.order
        for x in labels:
            if not 0 <= x < n:
                raise ValidationError(f"--objects label {x} out of range 0..{n - 1}")
    # the branchings restate the scalar checks the load has just passed, so
    # this re-checks the load's verdict: on every input the command accepts
    # it passes, and a failing branching shows only in process
    rep = verify_coherence(cat, labels)
    payload = {"subject": rep.subject, "pass": rep.passed, "stats": rep.stats,
               "failures": [c.to_json() for c in rep.checks if not c.passed],
               "inputDigest": cat.input_digest}
    _emit_json(payload, pretty)
    return 0 if rep.passed else 1


# -- the command line ------------------------------------------------------------

class Arg:
    """One argument of a command: a positional when `flags` is empty, else an
    option that takes a value.  Its text is passed to the command's function
    as the keyword `dest`, None for an option not given."""

    def __init__(self, dest: str, help: str = "", flags: tuple = (), choices: tuple = (),
                 required: bool = False):
        self.dest, self.help, self.flags = dest, help, flags
        self.choices, self.required = choices, required


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
    "coherence": Command(cmd_coherence, "check that every critical branching commutes", (
        Arg("category", flags=("--category",), required=True),
        Arg("objects", "comma-separated labels the holes range over; default every label",
            ("--objects",)))),
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
             "An option's value is the next argument, or follows '=' as in --objects=0,1.",
             "Bad arguments exit 2 with {\"error\": ...} on stderr.", "", "commands:"]
    for name, command in COMMANDS.items():
        lines.append(f"  crossedcat {name} " + " ".join(map(_synopsis, command.args)))
        lines.append(f"      {command.help}")
        for arg in command.args:
            if arg.help:
                what = ", ".join(arg.flags) if arg.flags else arg.dest.upper()
                lines.append(f"      {what}: {arg.help}")
    return "\n".join(lines)


def _print_usage(pretty: bool) -> int:
    print(usage())
    return 0


def _value(arg: Arg, name: str, text: str) -> str:
    """`text`, checked against the choices of `arg`, which the command line
    calls `name`."""
    if arg.choices and text not in arg.choices:
        raise ValidationError(f"{name} must be one of {', '.join(arg.choices)}, got {text!r}")
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
            values[arg.dest] = None
    return command.run, values


def _flush_stdout() -> None:
    """Write out what the command printed, so that a failed write exits 2.

    Left to the interpreter's flush at exit, a report that cannot be
    written (a pipe whose reader is gone, a full disk) prints a traceback
    and exits 120.  After a failed write the unwritten bytes are dropped by
    pointing fd 1 at the null device, as the Python docs advise for SIGPIPE,
    so that the flush at exit cannot fail again."""
    try:
        sys.stdout.flush()
    except OSError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        raise


def _error(exc: Exception) -> int:
    print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
    return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        try:
            run, kwargs = parse_args(sys.argv[1:] if argv is None else argv)
            return run(**kwargs)
        finally:
            _flush_stdout()
    except (CrossedCatError, OSError) as exc:
        return _error(exc)
    except Exception as exc:
        # a program error is never a verdict: its traceback, then the error line
        import traceback
        traceback.print_exc()
        print(json.dumps({"error": f"internal error: {type(exc).__name__}: {exc}"}),
              file=sys.stderr)
        return 3


def entry() -> None:
    """Run the command line in this process and exit with main's code: the
    entry of `python -m crossedcat.cli` and of the `crossedcat` script.

    Interpreter teardown (full garbage collections, module teardown, the
    finalizers of every live object) would cost the command about 3 ms
    more, and nothing it does is needed once the report is out.  So the
    process runs its atexit handlers, flushes stdout and stderr itself, and
    ends with os._exit.  A flush that fails exits 2, as in main.  main()
    leaves the process as it is, so in-process callers keep the usual exit.
    """
    code = main()
    atexit._run_exitfuncs()
    try:
        _flush_stdout()
    except OSError as exc:
        code = _error(exc)
    try:
        sys.stderr.flush()
    except OSError:
        pass  # nowhere left to report it
    os._exit(code)


if __name__ == "__main__":
    entry()
