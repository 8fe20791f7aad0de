"""Command-line interface: verify fixtures, build products, emit reports.

Exit codes: 0 all checks pass, 1 an axiom fails (report carries the
witness), 2 the input cannot be parsed or validated at all.  Reports are
JSON with sorted keys and no timestamps, so identical inputs produce
byte-identical output; --pretty renders the same data for humans.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import jsonio
from .braided import center_braiding, turaev_braiding, verify_braiding
from .center import enumerate_center, verify_center_braided
from .errors import (AssocViolation, CrossedCatError, NoIdentity, NoInverse, NotMatched,
                     ValidationError)
from .groups import subgroup_from_generators, validate_group
from .matched import from_exact_factorization, verify_matched_pair, zappa_szep
from .pointed import verify_crossed_category
from .report import VerificationReport
from .words import check_coherence, min_word_nodes


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


def cmd_verify(args) -> int:
    path = Path(args.file)
    kind = args.kind
    if kind == "group":
        raw = jsonio.read_json(path)
        fields = jsonio.group_fields(raw)
        rep = VerificationReport(subject=f"group {raw.get('name', path.name)}")
        try:
            validate_group(*fields)
            rep.add("group_laws", True)
        except (AssocViolation, NoIdentity, NoInverse) as exc:
            rep.add("group_laws", False, exc.witness)
    elif kind == "matched-pair":
        mp = jsonio.load_matched(path)
        rep = verify_matched_pair(mp)
    elif kind == "braided-pair":
        bmp = jsonio.load_braided(path)
        rep = verify_braiding(bmp)
    elif kind == "category":
        cat = jsonio.load_category(path, validate=False)
        rep = verify_crossed_category(cat)
    elif kind == "center":
        cat = jsonio.load_category(path, validate=False)
        rep = verify_crossed_category(cat)
        if rep.passed:
            rep = verify_center_braided(cat)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(kind)
    rep.input_digest = _digest(path)
    return _emit(rep, args.pretty)


def cmd_zappa_szep(args) -> int:
    mp = jsonio.load_matched(args.file)
    H, _, _ = zappa_szep(mp)
    out = Path(args.out)
    jsonio.save_group(H, out)
    reloaded = jsonio.load_group(out)  # re-validates all group laws
    _emit_json({"written": str(out), "order": reloaded.order,
                "inputDigest": _digest(Path(args.file))}, args.pretty)
    return 0


def _save_and_verify(args, built, save, load, verify) -> int:
    """Write `built` to -o, then verify and emit what reads back from there."""
    out = Path(args.out)
    save(built, out)
    rep = verify(load(out))
    rep.input_digest = _digest(Path(args.file))
    return _emit(rep, args.pretty)


def cmd_factorize(args) -> int:
    H = jsonio.load_group(args.file)
    gens_g = _int_list(args.gens_g, "--gens-g")
    gens_gamma = _int_list(args.gens_gamma, "--gens-gamma")
    mp = from_exact_factorization(H, subgroup_from_generators(H, gens_g),
                                  subgroup_from_generators(H, gens_gamma))
    return _save_and_verify(args, mp, jsonio.save_matched, jsonio.load_matched,
                            verify_matched_pair)


def cmd_turaev(args) -> int:
    bmp = turaev_braiding(jsonio.load_group(args.file))
    return _save_and_verify(args, bmp, jsonio.save_braided, jsonio.load_braided, verify_braiding)


def cmd_center_pair(args) -> int:
    bmp = center_braiding(jsonio.load_matched(args.file))
    return _save_and_verify(args, bmp, jsonio.save_braided, jsonio.load_braided, verify_braiding)


def cmd_center(args) -> int:
    cat = jsonio.load_category(args.file)   # raises ValidationError on bad axioms
    simples = enumerate_center(cat)          # raises NonSingularityViolated
    rep = verify_center_braided(cat, simples=simples)
    rep.input_digest = _digest(Path(args.file))
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
    if args.out:
        Path(args.out).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    _emit_json(payload, args.pretty)
    return 0 if rep.passed else 1


def cmd_coherence(args) -> int:
    cat = jsonio.load_category(args.category)
    tuples: list[tuple[int, ...]]
    if args.objects:
        objects = tuple(_int_list(args.objects, "--objects"))
        n = cat.Lambda.order
        for x in objects:
            if not 0 <= x < n:
                raise ValidationError(f"--objects label {x} out of range 0..{n - 1}")
        tuples = [objects]
    else:
        if args.arity < 1 or args.tuple_cap < 1:
            raise ValidationError("--arity and --tuple-cap must be at least 1, got "
                                  f"{args.arity} and {args.tuple_cap}")
        tuples = []
        labels = list(cat.Lambda.elements())
        for k in range(1, args.arity + 1):
            pool = list(itertools.product(labels, repeat=k))
            tuples.extend(pool[: args.tuple_cap])
    k = max(len(t) for t in tuples)
    need = min_word_nodes(k)
    if args.max_nodes < need:
        raise ValidationError(f"--max-nodes {args.max_nodes} is below {need}: "
                              f"a {k}-object tuple has no word with fewer nodes")
    all_pass = True
    stats = {"tuplesChecked": len(tuples), "maxNodes": args.max_nodes}
    failures = []
    for objs in tuples:
        rep = check_coherence(cat, args.max_nodes, objs)
        if not rep.passed:
            all_pass = False
            failures.append({"objects": list(objs),
                             "witness": list(rep.first_failure().witness or ())})
            break
    payload = {"subject": f"coherence {cat.name}", "pass": all_pass,
               "stats": stats, "failures": failures,
               "inputDigest": _digest(Path(args.category))}
    _emit_json(payload, args.pretty)
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="crossedcat",
                                description="verify and build group-crossed structures")
    p.add_argument("--pretty", action="store_true", help="human-readable rendering")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verifier on a file")
    v.add_argument("kind", choices=["group", "matched-pair", "braided-pair", "category", "center"])
    v.add_argument("file")
    v.set_defaults(fn=cmd_verify)

    z = sub.add_parser("zappa-szep", help="twisted product of a matched pair")
    z.add_argument("file")
    z.add_argument("-o", "--out", required=True)
    z.set_defaults(fn=cmd_zappa_szep)

    f = sub.add_parser("factorize", help="extract the matched pair of an exact factorization")
    f.add_argument("file", help="group JSON")
    f.add_argument("--gens-g", required=True, help="comma-separated generator indices for G")
    f.add_argument("--gens-gamma", required=True, help="comma-separated generator indices for Gamma")
    f.add_argument("-o", "--out", required=True)
    f.set_defaults(fn=cmd_factorize)

    t = sub.add_parser("turaev", help="adjoint braided pair of a group")
    t.add_argument("file", help="group JSON")
    t.add_argument("-o", "--out", required=True)
    t.set_defaults(fn=cmd_turaev)

    c = sub.add_parser("center-pair", help="the induced braided pair on (G><Gamma, G x Gamma)")
    c.add_argument("file", help="matched-pair JSON")
    c.add_argument("-o", "--out", required=True)
    c.set_defaults(fn=cmd_center_pair)

    y = sub.add_parser("center", help="enumerate and verify the center of a category")
    y.add_argument("file", help="category JSON")
    y.add_argument("-o", "--out", help="also write the report to this path")
    y.set_defaults(fn=cmd_center)

    k = sub.add_parser("coherence", help="bounded parallel-composite uniqueness check")
    k.add_argument("--category", required=True)
    k.add_argument("--max-nodes", type=int, default=6)
    k.add_argument("--arity", type=int, default=3)
    k.add_argument("--objects", help="comma-separated labels; overrides the sweep")
    k.add_argument("--tuple-cap", type=int, default=64,
                   help="deterministic cap per arity when sweeping tuples")
    k.set_defaults(fn=cmd_coherence)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NotMatched as exc:
        print(exc.report.render(pretty=getattr(args, "pretty", False)))
        return 1
    except (CrossedCatError, json.JSONDecodeError, OSError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
