"""Seeded inputs and command lists for the two benchmark workloads.

`generate(workload, seed, root, workdir)` writes every input file the
commands need under `workdir/in/` and returns the command list.  The CLI
only ever sees these generated files, never `fixtures/` itself, and every
path in a command line is relative to `workdir`, so reports do not depend
on where the checkout lives.  The same seed always writes the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("center-large", "small-inputs")
DEFAULT_SEED = 1

LARGE_CENTERS = ("cat-vec-turaev-s3", "cat-vec-s4-pair", "cat-z6-over-z3")
# the largest default coherence sweep under the 0.7 s ceiling of
# small-inputs: 84 tuples in one process, so word-graph shapes get reused
COHERENCE_SWEEP = "cat-z4-over-z2-graded"
# center-pair on turaev-d4 takes about 1.4 s at the seed commit, over the
# 0.7 s ceiling of small-inputs; every other matched pair stays under it.
SLOW_CENTER_PAIRS = ("turaev-d4",)
CATEGORY_MUTANTS, MATCHED_MUTANTS, BRAIDED_MUTANTS = 12, 9, 9


@dataclass(frozen=True)
class Command:
    """One CLI invocation; `inputs` are the files whose bytes decide its outcome."""

    id: str
    argv: tuple[str, ...]
    inputs: tuple[str, ...]

    @property
    def verdict(self) -> bool:
        """Whether stdout carries a `pass` field (zappa-szep reports a build only)."""
        return self.argv[0] != "zappa-szep"

    def input_digest(self, workdir: Path) -> str:
        h = hashlib.sha256()
        for rel in self.inputs:
            h.update((workdir / rel).read_bytes())
        return h.hexdigest()


def fixture_kind(obj) -> str:
    if "table" in obj:
        return "group"
    if "Lambda" in obj:
        return "category"
    if "phi" in obj:
        return "braided-pair"
    return "matched-pair"


class _Writer:
    def __init__(self, root: Path, workdir: Path):
        self.fixtures = root / "fixtures"
        self.workdir = workdir
        (workdir / "in").mkdir(parents=True, exist_ok=True)
        (workdir / "out").mkdir(parents=True, exist_ok=True)

    def copy(self, name: str) -> str:
        rel = f"in/{name}.json"
        (self.workdir / rel).write_bytes((self.fixtures / f"{name}.json").read_bytes())
        return rel

    def load(self, name: str):
        return json.loads((self.fixtures / f"{name}.json").read_text())

    def write(self, name: str, obj) -> str:
        rel = f"in/{name}.json"
        (self.workdir / rel).write_text(json.dumps(obj, sort_keys=True) + "\n")
        return rel


def _cmd(cid: str, *argv: str, inputs: tuple[str, ...]) -> Command:
    return Command(cid, tuple(argv), inputs)


def _center_large(w: _Writer, rng: random.Random) -> list[Command]:
    cmds = []
    for n in LARGE_CENTERS:
        p = w.copy(n)
        cmds.append(_cmd(f"verify-center/{n}", "verify", "center", p, inputs=(p,)))
    return cmds


def _expand3(obj, a: int, b: int, c: int):
    return [[[0] * c for _ in range(b)] for _ in range(a)] if obj == "trivial" else obj


def _expand1(obj, a: int):
    return [0] * a if obj == "trivial" else obj


def _mutate_category(obj, rng: random.Random) -> str:
    """Add a nonzero exponent to one entry of J, chi, phi or iota."""
    ng, nl, M = obj["G"]["order"], obj["Lambda"]["order"], obj["M"]
    obj["J"] = _expand3(obj["J"], ng, nl, nl)
    obj["chi"] = _expand3(obj["chi"], ng, ng, nl)
    obj["phi"] = _expand1(obj["phi"], ng)
    obj["iota"] = _expand1(obj["iota"], nl)
    table = rng.choice(("J", "chi", "phi", "iota"))
    delta = rng.randrange(1, M)
    if table in ("J", "chi"):
        t = obj[table]
        i, j, k = rng.randrange(len(t)), rng.randrange(len(t[0])), rng.randrange(len(t[0][0]))
        t[i][j][k] = (t[i][j][k] + delta) % M
        return f"{table}[{i}][{j}][{k}]+{delta}"
    t = obj[table]
    i = rng.randrange(len(t))
    t[i] = (t[i] + delta) % M
    return f"{table}[{i}]+{delta}"


def _mutate_entry(obj, keys: tuple[str, ...], rng: random.Random) -> str:
    """Replace one entry of one of the named tables by another in-range value."""
    key = rng.choice(keys)
    t = obj[key]
    if key == "act1":
        rows, cols, rng_size = obj["G"]["order"], obj["Gamma"]["order"], obj["Gamma"]["order"]
    elif key == "act2":
        rows, cols, rng_size = obj["Gamma"]["order"], obj["G"]["order"], obj["G"]["order"]
    else:  # phi / psi: Gamma -> G
        rows, cols, rng_size = 1, obj["Gamma"]["order"], obj["G"]["order"]
    i, j = rng.randrange(rows), rng.randrange(cols)
    old = t[i][j] if key in ("act1", "act2") else t[j]
    new = (old + rng.randrange(1, rng_size)) % rng_size
    if key in ("act1", "act2"):
        t[i][j] = new
        return f"{key}[{i}][{j}]={new}"
    t[j] = new
    return f"{key}[{j}]={new}"


def _small_inputs(w: _Writer, rng: random.Random) -> list[Command]:
    cmds: list[Command] = []
    names = sorted(p.stem for p in w.fixtures.glob("*.json"))
    kinds = {n: fixture_kind(w.load(n)) for n in names}
    paths = {n: w.copy(n) for n in names}
    by_kind = {k: [n for n in names if kinds[n] == k] for k in set(kinds.values())}
    for n in names:
        cmds.append(_cmd(f"verify/{n}", "verify", kinds[n], paths[n], inputs=(paths[n],)))
    for n in by_kind["matched-pair"]:
        cmds.append(_cmd(f"zappa-szep/{n}", "zappa-szep", paths[n], "-o", f"out/zs-{n}.json",
                         inputs=(paths[n],)))
        if n not in SLOW_CENTER_PAIRS:
            cmds.append(_cmd(f"center-pair/{n}", "center-pair", paths[n],
                             "-o", f"out/cp-{n}.json", inputs=(paths[n],)))
    for n in by_kind["group"]:
        cmds.append(_cmd(f"turaev/{n}", "turaev", paths[n], "-o", f"out/tu-{n}.json",
                         inputs=(paths[n],)))
    s4 = paths["group-s4"]
    cmds.append(_cmd("factorize/group-s4", "factorize", s4, "--gens-g", "9",
                     "--gens-gamma", "6,8", "-o", "out/fa-s4.json", inputs=(s4,)))
    cmds.append(_cmd("factorize/group-s4-not-exact", "factorize", s4, "--gens-g", "9",
                     "--gens-gamma", "9", "-o", "out/fa-s4-bad.json", inputs=(s4,)))
    for n in by_kind["category"]:
        order = w.load(n)["Lambda"]["order"]
        objs = f"{rng.randrange(order)},{rng.randrange(order)}"
        cmds.append(_cmd(f"coherence/{n}", "coherence", "--category", paths[n],
                         "--objects", objs, inputs=(paths[n],)))
    p = paths[COHERENCE_SWEEP]
    cmds.append(_cmd(f"coherence-sweep/{COHERENCE_SWEEP}", "coherence", "--category", p,
                     inputs=(p,)))
    # the single-chi-entry mutant of acceptance criterion 8
    obj = w.load("cat-cocycle-chi")
    obj["chi"][1][0][1] = 1
    p = w.write("cat-cocycle-chi-mutant", obj)
    cmds.append(_cmd("coherence/cat-cocycle-chi-mutant", "coherence", "--category", p,
                     "--objects", "1", inputs=(p,)))
    # the shape-malformed inputs are the same for every seed, so their
    # recorded outcome applies to every run
    bad_pair = w.load("z2-z3-inversion")
    bad_pair["G"] = 3
    malformed = {
        "group-not-object": ("group", [1, 2]),
        "group-identity-out-of-range": ("group", {"name": "Z3", "order": 3, "identity": 7,
                                                  "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}),
        "matched-pair-G-not-object": ("matched-pair", bad_pair),
        "category-not-object": ("category", 5),
    }
    for label, (kind, obj) in malformed.items():
        p = w.write(f"malformed-{label}", obj)
        cmds.append(_cmd(f"malformed/{label}", "verify", kind, p, inputs=(p,)))
    # a replaced entry needs another value to take, so pairs over a trivial
    # group get no mutants
    pools = {"category": by_kind["category"]}
    for k in ("matched-pair", "braided-pair"):
        pools[k] = [n for n in by_kind[k]
                    if min(w.load(n)["G"]["order"], w.load(n)["Gamma"]["order"]) > 1]
    mutants = ([("category", None)] * CATEGORY_MUTANTS
               + [("matched-pair", ("act1", "act2"))] * MATCHED_MUTANTS
               + [("braided-pair", ("act1", "act2", "phi", "psi"))] * BRAIDED_MUTANTS)
    for i, (kind, keys) in enumerate(mutants):
        n = rng.choice(pools[kind])
        obj = w.load(n)
        where = _mutate_category(obj, rng) if keys is None else _mutate_entry(obj, keys, rng)
        p = w.write(f"mutant-{i:02d}", obj)
        cmds.append(_cmd(f"mutant/{i:02d}/{n}/{where}", "verify", kind, p, inputs=(p,)))
    return cmds


_GENERATORS = {"center-large": _center_large, "small-inputs": _small_inputs}


def generate(workload: str, seed: int, root: Path, workdir: Path) -> list[Command]:
    """Write the workload's inputs for `seed` under workdir and return its commands.

    The seed picks the mutants and coherence tuples of small-inputs and the
    command order of every workload.
    """
    rng = random.Random(f"{workload}:{seed}")
    cmds = _GENERATORS[workload](_Writer(root, workdir), rng)
    rng.shuffle(cmds)
    return cmds
