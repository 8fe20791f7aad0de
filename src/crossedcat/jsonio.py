"""JSON file formats for groups, matched pairs, braided pairs, and categories.

Values referencing another file may be given inline or as a path string,
resolved relative to the referencing file.  Loaders check shapes and ranges
(raising ParseError / ValidationError, the CLI's exit-2 class) but leave the
subject's own axioms to the verifiers, so a corrupted pair still loads and
then fails verification with a witness (the CLI's exit-1 class).  A loader
imports the module of the record it builds only when it builds one, so that
`verify group` loads no pair or category code.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional, Union

from .errors import ParseError, ValidationError
from .groups import FiniteGroup, validate_group

if TYPE_CHECKING:
    from .braided import BraidedMatchedPair
    from .matched import MatchedPair
    from .pointed import PointedCrossedCategory

PathLike = Union[str, Path]


def read_json(path: PathLike) -> Any:
    """The JSON value in `path`; unreadable or undecodable input raises an exit-2 error."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg}", exc.colno) from exc
    except (ValueError, RecursionError) as exc:
        # a NUL byte or lone surrogate in the path, bytes that are not UTF-8,
        # or nesting deeper than the decoder's recursion limit
        raise ValidationError(f"cannot read {str(path)!r}: {exc}") from exc


def write_json(obj: Any, path: PathLike) -> None:
    """Write `obj` to `path` as indented JSON with sorted keys; a path that
    cannot name a file (a NUL byte, a lone surrogate) raises an exit-2 error."""
    try:
        Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")
    except ValueError as exc:
        raise ValidationError(f"cannot write {str(path)!r}: {exc}") from exc


def _resolve(obj: Any, base: Optional[Path]) -> Any:
    if isinstance(obj, str):
        ref = Path(obj)
        if base is not None and not ref.is_absolute():
            ref = base / ref
        return read_json(ref)
    return obj


def _object(obj: Any, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object")
    return obj


def _ints(obj: Any, depth: int, what: str) -> Any:
    """`obj`, checked to be integers nested `depth` lists deep."""
    if not _is_ints(obj, depth):
        shape = "a list of " + "lists of " * (depth - 1) + "integers" if depth else "an integer"
        raise ValidationError(f"{what} must be {shape}")
    return obj


def _is_ints(obj: Any, depth: int) -> bool:
    if depth == 0:
        # JSON true/false load as bool, a subclass of int; they are not integers here
        return isinstance(obj, int) and not isinstance(obj, bool)
    return isinstance(obj, list) and all(_is_ints(v, depth - 1) for v in obj)


# -- groups ---------------------------------------------------------------------

def group_to_json(G: FiniteGroup) -> dict:
    return {"name": G.name, "order": G.order, "identity": G.identity,
            "table": [list(row) for row in G.table]}


def group_fields(obj: Any) -> tuple[list, Optional[int], Any]:
    """Table, identity (or None) and name of a group object, shape-checked."""
    obj = _object(obj, "group")
    if "table" not in obj:
        raise ValidationError("group object missing field 'table'")
    identity = obj.get("identity")
    if identity is not None:
        _ints(identity, 0, "group identity")
    return _ints(obj["table"], 2, "group table"), identity, obj.get("name", "G")


def group_from_json(obj: Any, base: Optional[Path] = None) -> FiniteGroup:
    return validate_group(*group_fields(_resolve(obj, base)))


def save_group(G: FiniteGroup, path: PathLike) -> None:
    write_json(group_to_json(G), path)


def load_group(path: PathLike) -> FiniteGroup:
    return group_from_json(read_json(path), Path(path).parent)


# -- matched pairs ----------------------------------------------------------------

def matched_to_json(mp: MatchedPair) -> dict:
    return {
        "G": group_to_json(mp.G),
        "Gamma": group_to_json(mp.Gamma),
        "act1": [list(r) for r in mp.act1],
        "act2": [list(r) for r in mp.act2],
        "side1": "left",
        "side2": "left",
    }


def matched_from_json(obj: Any, base: Optional[Path] = None) -> MatchedPair:
    obj = _object(_resolve(obj, base), "matched pair")
    try:
        G = group_from_json(obj["G"], base)
        Gamma = group_from_json(obj["Gamma"], base)
        act1, act2 = _ints(obj["act1"], 2, "act1"), _ints(obj["act2"], 2, "act2")
    except KeyError as exc:
        raise ValidationError(f"matched-pair object missing field {exc}") from exc
    for key in ("side1", "side2"):
        if obj.get(key, "left") != "left":
            raise ValidationError(f"{key} must be 'left'; right-action files are not accepted")
    from .matched import matched_pair
    return matched_pair(G, Gamma, act1, act2)


def save_matched(mp: MatchedPair, path: PathLike) -> None:
    write_json(matched_to_json(mp), path)


def load_matched(path: PathLike) -> MatchedPair:
    return matched_from_json(read_json(path), Path(path).parent)


# -- braided pairs ------------------------------------------------------------------

def braided_to_json(bmp: BraidedMatchedPair) -> dict:
    body = matched_to_json(bmp.mp)
    body["phi"] = list(bmp.phi.image)
    body["psi"] = list(bmp.psi.image)
    return body


def braided_from_json(obj: Any, base: Optional[Path] = None) -> BraidedMatchedPair:
    obj = _resolve(obj, base)
    mp = matched_from_json(obj, base)
    try:
        phi, psi = _ints(obj["phi"], 1, "phi"), _ints(obj["psi"], 1, "psi")
    except KeyError as exc:
        raise ValidationError(f"braided-pair object missing field {exc}") from exc
    # hom axioms are the verifier's business, not the loader's
    from .braided import braided_pair
    return braided_pair(mp, phi, psi)


def save_braided(bmp: BraidedMatchedPair, path: PathLike) -> None:
    write_json(braided_to_json(bmp), path)


def load_braided(path: PathLike) -> BraidedMatchedPair:
    return braided_from_json(read_json(path), Path(path).parent)


# -- categories ----------------------------------------------------------------------

def category_to_json(cat: PointedCrossedCategory) -> dict:
    def flat3(t):
        return [[list(r) for r in plane] for plane in t]

    return {
        "name": cat.name,
        "Lambda": group_to_json(cat.Lambda),
        "Gamma": group_to_json(cat.Gamma),
        "G": group_to_json(cat.G),
        "mp": matched_to_json(cat.mp),
        "grading": list(cat.grading),
        "action": [list(r) for r in cat.action],
        "M": cat.M,
        "J": "trivial" if _zero3(cat.jtable) else flat3(cat.jtable),
        "phi": "trivial" if all(v == 0 for v in cat.phitable) else list(cat.phitable),
        "chi": "trivial" if _zero3(cat.chitable) else flat3(cat.chitable),
        "iota": "trivial" if all(v == 0 for v in cat.iotatable) else list(cat.iotatable),
    }


def _zero3(t) -> bool:
    return all(v == 0 for plane in t for row in plane for v in row)


def _exp3_from(obj: Any, a: int, b: int, c: int, M: int, what: str):
    if obj == "trivial" or obj is None:
        return None
    _ints(obj, 3, what)
    if len(obj) != a or any(len(p) != b for p in obj) or any(len(r) != c for p in obj for r in p):
        raise ValidationError(f"{what} must be {a}x{b}x{c}")
    for plane in obj:
        for row in plane:
            for v in row:
                if not 0 <= v < M:
                    raise ValidationError(f"{what} exponent {v} not in 0..{M - 1}")
    return obj


def _exp1_from(obj: Any, a: int, M: int, what: str):
    if obj == "trivial" or obj is None:
        return None
    _ints(obj, 1, what)
    if len(obj) != a:
        raise ValidationError(f"{what} must have length {a}")
    for v in obj:
        if not 0 <= v < M:
            raise ValidationError(f"{what} exponent {v} not in 0..{M - 1}")
    return obj


def category_from_json(obj: Any, base: Optional[Path] = None) -> PointedCrossedCategory:
    obj = _object(_resolve(obj, base), "category")
    try:
        Lambda = group_from_json(obj["Lambda"], base)
        mp = matched_from_json(obj["mp"], base)
        grading, action = _ints(obj["grading"], 1, "grading"), _ints(obj["action"], 2, "action")
        M = obj["M"]
    except KeyError as exc:
        raise ValidationError(f"category object missing field {exc}") from exc
    if not _is_ints(M, 0) or M < 1:
        raise ValidationError("M must be a positive integer")
    # the top-level G/Gamma must agree with the matched pair's
    for key, ref in (("G", mp.G), ("Gamma", mp.Gamma)):
        if key in obj:
            given = group_from_json(obj[key], base)
            if given.table != ref.table or given.identity != ref.identity:
                raise ValidationError(f"top-level {key} disagrees with the matched pair's {key}")
    if len(grading) != Lambda.order or any(not 0 <= v < mp.Gamma.order for v in grading):
        raise ValidationError("grading must map Lambda into Gamma")
    if len(action) != mp.G.order or any(len(r) != Lambda.order for r in action):
        raise ValidationError("action must be |G| x |Lambda|")
    if any(not 0 <= v < Lambda.order for r in action for v in r):
        raise ValidationError("action entry out of range")
    n, ng = Lambda.order, mp.G.order
    j = _exp3_from(obj.get("J"), ng, n, n, M, "J")
    chi = _exp3_from(obj.get("chi"), ng, ng, n, M, "chi")
    phi = _exp1_from(obj.get("phi"), ng, M, "phi")
    iota = _exp1_from(obj.get("iota"), n, M, "iota")
    from .pointed import pointed_category
    return pointed_category(Lambda, mp, grading, action, M,
                            jtable=j, phitable=phi, chitable=chi, iotatable=iota,
                            name=obj.get("name", "cat"))


def save_category(cat: PointedCrossedCategory, path: PathLike) -> None:
    write_json(category_to_json(cat), path)


def load_category(path: PathLike, validate: bool = True) -> PointedCrossedCategory:
    """Load and, by default, verify; a failing axiom raises ValidationError."""
    cat = category_from_json(read_json(path), Path(path).parent)
    if validate:
        from .pointed import verify_crossed_category
        rep = verify_crossed_category(cat)
        if not rep.passed:
            raise ValidationError(f"category axioms fail: {rep.first_failure()}")
    return cat
