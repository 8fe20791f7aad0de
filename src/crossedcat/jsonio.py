"""JSON file formats for groups, matched pairs, braided pairs, and categories.

Each file is one self-contained JSON value: a group, pair or category object
nested in another is given inline, and a string in its place is refused as
not a JSON object, never opened as a path.  Each input is read once: a
loader keeps the SHA-256 of the bytes it parsed on its record as
`input_digest`, an attribute that is not a field.  Loaders check objects,
fields and scalars (identity, order, M, sides) and that exponents are in
0..M-1; each index table is checked once, entries, shape and ranges, by
the record constructor that freezes it.  Either raises an exit-2 error.
The subject's own axioms are left to the verifiers, so a corrupted pair
still loads and then fails verification with a witness (the CLI's exit-1
class).  A loader imports the module of the record it builds only when it
builds one, so that `verify group` loads no pair or category code.
"""

from __future__ import annotations

import json
import os
import stat
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Optional, Union

from .errors import ValidationError
from .groups import FiniteGroup, in_range, validate_group

if TYPE_CHECKING:
    from .braided import BraidedMatchedPair
    from .matched import MatchedPair
    from .pointed import PointedCrossedCategory

PathLike = Union[str, Path]

# The input digest uses CPython's built-in SHA-256 module, `_sha2` from
# Python 3.12 on and `_sha256` before.  `hashlib` would map OpenSSL's
# libcrypto, adding about 3.5 MB to the peak RSS and 3.5 ms to the start-up
# of every command; it serves only a build without the built-in hashes.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

# The most bytes an input file may hold, a thousand times the largest
# fixture (4 KB).  Measured in a fresh process (Python 3.11, 2 vCPUs; VmHWM
# counts the interpreter's 14 MB): a category just under the cap, Lambda =
# Z_925 over trivial groups, parses in 0.10-0.15 s at a VmHWM of 47 MB and
# passes `verify category` in 0.30-0.37 s at 47 MB; the JSON with the most
# objects per byte, a list of empty lists, parses in 0.64-0.66 s at 118 MB.
# At 16 MiB the same three read 0.55 s at 151 MB (Z_1766), 1.0-1.2 s at
# 152 MB and 3.2-3.4 s at 431 MB.
MAX_INPUT_BYTES = 4 << 20


def _nonblocking(path: str, flags: int) -> int:
    return os.open(path, flags | os.O_NONBLOCK, 0o666)  # the mode of open()'s own opener


def read_input(path: PathLike) -> bytes:
    """The bytes of the regular file `path`, read once and at most
    MAX_INPUT_BYTES + 1 of them.  A pipe, device, FIFO or socket, or a file
    over the cap, raises an exit-2 error before its content is read.  The
    open does not block: a FIFO with no writer is refused at once."""
    with open(path, "rb", opener=_nonblocking) as fh:
        st = os.fstat(fh.fileno())
        if not stat.S_ISREG(st.st_mode):
            raise ValidationError(f"cannot read {str(path)!r}: not a regular file")
        # the byte past the cap shows a file whose size understates it (one
        # that grows, a procfs file)
        data = b"" if st.st_size > MAX_INPUT_BYTES else fh.read(MAX_INPUT_BYTES + 1)
    if max(st.st_size, len(data)) > MAX_INPUT_BYTES:
        raise ValidationError(f"cannot read {str(path)!r}: larger than the input limit of "
                              f"{MAX_INPUT_BYTES} bytes")
    return data


def read_json(path: PathLike) -> tuple[Any, str]:
    """The JSON value in `path` and its bytes' SHA-256; bad input raises an exit-2 error."""
    try:
        data = read_input(path)
        # universal newlines, as a text-mode read gives, so that every
        # parse error names the same column
        value = json.loads(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: {exc.msg} (column {exc.colno})") from exc
    except (ValueError, RecursionError) as exc:
        # a NUL byte or lone surrogate in the path, bytes that are not UTF-8,
        # or nesting deeper than the decoder's recursion limit
        raise ValidationError(f"cannot read {str(path)!r}: {exc}") from exc
    return value, sha256(data).hexdigest()


def _load(path: PathLike, from_json: Callable[[Any], Any]) -> Any:
    obj, digest = read_json(path)
    record = from_json(obj)
    object.__setattr__(record, "input_digest", digest)
    return record


def write_json(obj: Any, path: PathLike) -> str:
    """Write `obj` to `path` as indented JSON with sorted keys; return the text.
    Text over MAX_INPUT_BYTES, which no loader reads, or a path that cannot name
    a file raises an exit-2 error; a FIFO with no reader raises ENXIO at once."""
    text = json.dumps(obj, sort_keys=True, indent=1) + "\n"  # ASCII: one byte a character
    if len(text) > MAX_INPUT_BYTES:
        raise ValidationError(f"cannot write {str(path)!r}: {len(text)} bytes, larger than the "
                              f"input limit of {MAX_INPUT_BYTES} bytes")
    try:
        with open(path, "w", encoding="utf-8", opener=_nonblocking) as fh:
            os.set_blocking(fh.fileno(), True)
            fh.write(text)
    except ValueError as exc:
        raise ValidationError(f"cannot write {str(path)!r}: {exc}") from exc
    return text


def _object(obj: Any, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object")
    return obj


def _int(obj: Any, what: str) -> int:
    # JSON true/false load as bool, a subclass of int; they are not integers here
    if type(obj) is not int:
        raise ValidationError(f"{what} must be an integer")
    return obj


# -- groups ---------------------------------------------------------------------

def group_to_json(G: FiniteGroup) -> dict:
    return {"name": G.name, "order": G.order, "identity": G.identity,
            "table": [list(row) for row in G.table]}


def group_fields(obj: Any) -> tuple[Any, Optional[int], Any]:
    """Table, identity (or None) and name of a group object.  The identity
    must be an integer, an `order` field, when present, the number of table
    rows, and a name a string; the table's entries are validate_group's
    check."""
    obj = _object(obj, "group")
    if "table" not in obj:
        raise ValidationError("group object missing field 'table'")
    identity = obj.get("identity")
    if identity is not None:
        _int(identity, "group identity")
    table = obj["table"]
    if isinstance(table, list) and _int(obj.get("order", len(table)), "group order") != len(table):
        raise ValidationError(f"group order {obj['order']} does not match the table's "
                              f"{len(table)} rows")
    name = obj.get("name", "G")
    if not isinstance(name, str):
        raise ValidationError("group name must be a string")
    return table, identity, name


def group_from_json(obj: Any) -> FiniteGroup:
    return validate_group(*group_fields(obj))


def save_group(G: FiniteGroup, path: PathLike) -> None:
    write_json(group_to_json(G), path)


def load_group(path: PathLike) -> FiniteGroup:
    return _load(path, group_from_json)


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


def matched_from_json(obj: Any) -> MatchedPair:
    obj = _object(obj, "matched pair")
    try:
        G, Gamma = group_from_json(obj["G"]), group_from_json(obj["Gamma"])
        act1, act2 = obj["act1"], obj["act2"]
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
    return _load(path, matched_from_json)


# -- braided pairs ------------------------------------------------------------------

def braided_to_json(bmp: BraidedMatchedPair) -> dict:
    body = matched_to_json(bmp.mp)
    body["phi"] = list(bmp.phi)
    body["psi"] = list(bmp.psi)
    return body


def braided_from_json(obj: Any) -> BraidedMatchedPair:
    mp = matched_from_json(obj)
    try:
        phi, psi = obj["phi"], obj["psi"]
    except KeyError as exc:
        raise ValidationError(f"braided-pair object missing field {exc}") from exc
    # hom axioms are the verifier's business, not the loader's
    from .braided import braided_pair
    return braided_pair(mp, phi, psi)


def save_braided(bmp: BraidedMatchedPair, path: PathLike) -> None:
    write_json(braided_to_json(bmp), path)


def load_braided(path: PathLike) -> BraidedMatchedPair:
    return _load(path, braided_from_json)


# -- categories ----------------------------------------------------------------------

# the scalar tables in pointed_category's order, with the depth of their lists
SCALARS = (("J", 3), ("phi", 1), ("chi", 3), ("iota", 1))


def _rows(table: Any, depth: int) -> list:
    return [table] if depth == 1 else [row for plane in table for row in plane]


def category_to_json(cat: PointedCrossedCategory) -> dict:
    body = {
        "name": cat.name,
        "Lambda": group_to_json(cat.Lambda),
        "Gamma": group_to_json(cat.Gamma),
        "G": group_to_json(cat.G),
        "mp": matched_to_json(cat.mp),
        "grading": list(cat.grading),
        "action": [list(r) for r in cat.action],
        "M": cat.M,
    }
    # "trivial" stands for all zeros
    for (key, depth), t in zip(SCALARS, (cat.jtable, cat.phitable, cat.chitable, cat.iotatable)):
        if not any(map(any, _rows(t, depth))):
            body[key] = "trivial"
        else:
            body[key] = list(t) if depth == 1 else [[list(r) for r in plane] for plane in t]
    return body


def category_from_json(obj: Any) -> PointedCrossedCategory:
    obj = _object(obj, "category")
    try:
        Lambda = group_from_json(obj["Lambda"])
        mp = matched_from_json(obj["mp"])
        grading, action, M = obj["grading"], obj["action"], obj["M"]
    except KeyError as exc:
        raise ValidationError(f"category object missing field {exc}") from exc
    if type(M) is not int or M < 1:
        raise ValidationError("M must be a positive integer")
    # the top-level G/Gamma must agree with the matched pair's
    for key, ref in (("G", mp.G), ("Gamma", mp.Gamma)):
        if key in obj:
            given = group_from_json(obj[key])
            if given.table != ref.table or given.identity != ref.identity:
                raise ValidationError(f"top-level {key} disagrees with the matched pair's {key}")
    # "trivial", or no table, is all zeros.  pointed_category checks each
    # table and reduces its exponents mod M; a file holds them in 0..M-1.
    scalars = [None if obj.get(key) == "trivial" else obj.get(key) for key, _ in SCALARS]
    name = obj.get("name", "cat")
    if not isinstance(name, str):
        raise ValidationError("category name must be a string")
    from .pointed import pointed_category
    cat = pointed_category(Lambda, mp, grading, action, M, *scalars, name=name)
    for (key, depth), t in zip(SCALARS, scalars):
        for row in [] if t is None else _rows(t, depth):
            if not in_range(row, M):
                bad = next(v for v in row if not 0 <= v < M)
                raise ValidationError(f"{key} exponent {bad} not in 0..{M - 1}")
    return cat


def save_category(cat: PointedCrossedCategory, path: PathLike) -> None:
    write_json(category_to_json(cat), path)


def load_category(path: PathLike, validate: bool = True) -> PointedCrossedCategory:
    """Load and, by default, verify; a failing axiom raises ValidationError
    naming the first failing check and its witness as the report lists them."""
    cat = _load(path, category_from_json)
    if validate:
        from .pointed import verify_crossed_category
        rep = verify_crossed_category(cat)
        if not rep.passed:
            raise ValidationError(f"category axioms fail: {rep.first_failure()}")
    return cat
