"""Run one crossedcat CLI command with spans around the package's coarse
public entry points, then write the spans as JSON.

    python traced_cli.py SPANS_OUT CMD_ID SPAWN_TIME -- ARGV...

SPAWN_TIME is the parent's `time.perf_counter()` just before it started
this process (the clock is system-wide monotonic on Linux).  Spans stay in
memory until the command ends.  The exit code, stdout and stderr are those
of `python -m crossedcat.cli ARGV...`.  The tracer times itself: installing
the wrappers (`install_s`) plus, for every span, the wrapper's time outside
the call it wraps; their sum is the command's `overhead_s`.

Only whole calls are wrapped: the loaders, `validate_group`, the `verify_*`
functions, the constructions, `enumerate_center`, `relative_center_oracle`,
`CenterStructure.as_category`, `enumerate_words` and `check_coherence`,
at every module attribute that binds them.  Work counters are computed
here from each call's arguments and result, never read from inside.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from typing import Any, Callable, Optional


def matched_tuples(mp) -> int:
    """Sweep size of verify_matched_pair, from the group orders."""
    a, b = mp.G.order, mp.Gamma.order
    return (b + a * a * b) + (a + b * b * a) + a + b + a * b * b + b * a * a


def category_tuples(cat) -> int:
    """Sweep size of verify_crossed_category's own checks (the matched pair
    is counted by matched.tuples)."""
    g, n = cat.G.order, cat.Lambda.order
    return (n * n + n + g * g * n + g + g * n + g * n * n + g * n ** 3 + g * n
            + g ** 3 * n + g * n + g * g * n * n + g * g + n * n + 1 + n * g)


def braiding_tuples(cat, z: int) -> int:
    """Sweep size of the center's braiding checks: 2|Z|^3 + |G x Gamma| |Z|^2."""
    return 2 * z ** 3 + cat.G.order * cat.Gamma.order * z * z


class Tracer:
    """Wraps entry points of an imported crossedcat and records their spans."""

    def __init__(self, cmd: str = ""):
        self.cmd = cmd
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self._center_cats: list = []  # held so their ids stay unique
        self._skeletons: set = set()
        self._center_size = 0
        self.overhead = 0.0  # seconds the tracer itself spent in this process

    # -- span recording
    def _wrap(self, fn: Callable, name: Callable[[tuple], str],
              count: Optional[Callable[[tuple, Any], dict]]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            span = {"name": name(args), "cmd": self.cmd, "start": 0.0, "end": 0.0,
                    "parent": self._stack[-1] if self._stack else None, "count": {}}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span["count"] = count(args, result)
            # the wrapper's own time, outside the call it wraps
            self.overhead += time.perf_counter() - entered - (span["end"] - span["start"])
            return result
        return traced

    # -- counters, from arguments and results only
    def _is_center_cat(self, cat) -> bool:
        return any(c is cat for c in self._center_cats)

    def _count_as_category(self, args, result) -> dict:
        self._center_cats.append(result)
        return {}

    def _count_enumerate_center(self, args, result) -> dict:
        self._center_size = len(result)
        return {"center.simples": len(result)}

    def _count_check_coherence(self, args, result) -> dict:
        cat, max_nodes, objects = args[:3]
        key = (max_nodes, len(objects), cat.G.table)
        reused = key in self._skeletons
        self._skeletons.add(key)
        st = result.stats
        return {"words.words": st["words"], "words.edges": st["edges"],
                "words.components": st["components"], "words.calls": 1,
                "words.reused": int(reused)}

    def _targets(self, cc) -> list[tuple[Any, str, Callable, Optional[Callable]]]:
        """(owner, attribute, span namer, counter) for every wrapped entry point."""
        def fixed(label):
            return lambda args: label

        load_count = (lambda args, r: {"jsonio.bytes_read": os.path.getsize(args[0])})
        return [
            *[(cc.jsonio, f, fixed("jsonio.load"), load_count)
              for f in ("load_group", "load_matched", "load_braided", "load_category")],
            (cc.groups, "validate_group", fixed("groups.validate"),
             lambda args, r: {"groups.assoc_triples": len(args[0]) ** 3}),
            (cc.matched, "verify_matched_pair", fixed("matched.verify"),
             lambda args, r: {"matched.tuples": matched_tuples(args[0])}),
            (cc.matched, "zappa_szep", fixed("matched.build"), None),
            (cc.matched, "from_exact_factorization", fixed("matched.build"), None),
            (cc.braided, "verify_braiding", fixed("braided.verify"), None),
            (cc.braided, "turaev_braiding", fixed("braided.build"), None),
            (cc.braided, "center_braiding", fixed("braided.build"), None),
            (cc.pointed, "verify_crossed_category",
             lambda args: ("pointed.verify_center_cat" if self._is_center_cat(args[0])
                           else "pointed.verify_input"),
             lambda args, r: {"pointed.tuples": category_tuples(args[0])}),
            (cc.center, "enumerate_center", fixed("center.enumerate"),
             self._count_enumerate_center),
            (cc.center, "relative_center_oracle", fixed("center.oracle"), None),
            (cc.center.CenterStructure, "as_category", fixed("center.as_category"),
             self._count_as_category),
            (cc.center, "verify_center_braided", fixed("center.verify_self"),
             lambda args, r: {"center.braiding_tuples":
                              braiding_tuples(args[0], self._center_size)}),
            (cc.words, "enumerate_words", fixed("words.enumerate"), None),
            (cc.words, "check_coherence", fixed("words.check"), self._count_check_coherence),
        ]

    def install(self) -> None:
        """Replace each entry point at every crossedcat attribute bound to it."""
        import crossedcat
        import crossedcat.cli  # noqa: F401  (binds the CLI's own names)
        wrappers = {}
        for owner, attr, name, count in self._targets(crossedcat):
            original = getattr(owner, attr)
            wrappers[id(original)] = self._wrap(original, name, count)
        owners = [m for n, m in sorted(sys.modules.items())
                  if n == "crossedcat" or n.startswith("crossedcat.")]
        owners.append(crossedcat.center.CenterStructure)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((owner, attr, value))
                    setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def main(argv: list[str]) -> int:
    spans_out, cmd, spawn = argv[0], argv[1], float(argv[2])
    cli_argv = argv[4:] if argv[3] == "--" else argv[3:]
    import crossedcat.cli

    tracer = Tracer(cmd)
    installed = time.perf_counter()
    tracer.install()
    install_s = time.perf_counter() - installed
    try:
        code = crossedcat.cli.main(cli_argv)
    finally:
        main_end = time.perf_counter()
        sys.stdout.flush()
        with open(spans_out, "w") as fh:
            json.dump({"cmd": cmd, "spawn": spawn, "main_end": main_end,
                       "install_s": install_s, "overhead_s": install_s + tracer.overhead,
                       "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
