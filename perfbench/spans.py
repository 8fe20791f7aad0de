"""Spans recorded by the traced run, and the per-layer metrics made from them.

A span is a dict with `name`, `cmd`, `start`, `end`, `parent` (index of
the enclosing span in the same command, or None) and `count` (work
counters computed by the benchmark from the call's arguments and result).
A layer's self time is its spans' duration minus the part of that interval
that child spans cover.
"""

from __future__ import annotations

from typing import Iterable

# span names; a layer's time metric is its span name plus "_s" (self time
# summed over a pass)
LAYERS = ("jsonio.load", "groups.validate", "matched.verify", "matched.build",
          "braided.verify", "braided.build", "pointed.verify_input",
          "pointed.verify_center_cat", "center.enumerate", "center.oracle",
          "center.as_category", "center.verify_self", "words.enumerate", "words.check")

# work counters summed over a pass; every one is computed by the benchmark
COUNT_METRICS = ("jsonio.bytes_read", "groups.assoc_triples", "matched.tuples",
                 "pointed.tuples", "center.simples", "center.braiding_tuples",
                 "words.words", "words.edges")


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out.append(s["end"] - s["start"] - covered)
    return out


def layer_metrics(commands: Iterable[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Each element of `commands` is what one traced CLI process wrote:
    `spawn` (perf_counter just before the parent started it, on the same
    monotonic clock), `main_end`, `install_s` and `overhead_s` (the tracer's
    own time, installing included), and `spans`.
    """
    m = {name: 0.0 for name in ["cli.startup_s", *(n + "_s" for n in LAYERS),
                                "trace.overhead_s"]}
    m.update({name: 0 for name in COUNT_METRICS})
    components = calls = reused = 0
    for c in commands:
        spans = c["spans"]
        first = min((s["start"] for s in spans), default=c["main_end"])
        m["cli.startup_s"] += first - c["spawn"] - c["install_s"]
        m["trace.overhead_s"] += c["overhead_s"]
        for s, own in zip(spans, self_times(spans)):
            m[s["name"] + "_s"] += own
            for key, v in s["count"].items():
                if key in m:
                    m[key] += v
            components += s["count"].get("words.components", 0)
            calls += s["count"].get("words.calls", 0)
            reused += s["count"].get("words.reused", 0)
    # independent cycles of the word graphs: E - N + C, computed here
    # because the program's own `parallel_classes` counts every revisit
    m["words.cycles"] = m["words.edges"] - m["words.words"] + components
    m["words.skeleton_reuse_share"] = reused / calls if calls else 0.0
    return m
