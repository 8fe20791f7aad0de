#!/usr/bin/env python3
"""Regenerate the JSON fixtures under fixtures/ from first principles."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from crossedcat import jsonio  # noqa: E402
from crossedcat.braided import center_braiding, turaev_braiding  # noqa: E402
from fixture_builders import CATEGORIES, GROUPS, MATCHED_PAIRS, nonsingular_violation  # noqa: E402

OUT = ROOT / "fixtures"


def main() -> None:
    OUT.mkdir(exist_ok=True)
    for name, builder in GROUPS.items():
        jsonio.save_group(builder(), OUT / f"group-{name}.json")
    for name, builder in MATCHED_PAIRS.items():
        jsonio.save_matched(builder(), OUT / f"{name}.json")
    for name in ("turaev-z2", "turaev-s3", "turaev-d4"):
        G = MATCHED_PAIRS[name]().G
        jsonio.save_braided(turaev_braiding(G), OUT / f"{name}-braided.json")
    for name in ("trivial-pair", "z2-z3-inversion", "s3-factorized", "d4-z4-z2"):
        jsonio.save_braided(center_braiding(MATCHED_PAIRS[name]()), OUT / f"{name}-center.json")
    for name, builder in CATEGORIES.items():
        jsonio.save_category(builder(), OUT / f"cat-{name}.json")
    jsonio.save_category(nonsingular_violation(), OUT / "cat-nonsurjective.json")
    print(f"wrote fixtures to {OUT}")


if __name__ == "__main__":
    main()
