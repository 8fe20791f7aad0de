#!/usr/bin/env python3
"""Survey the centers of all category fixtures: counts, grades, coefficients,
and how many J planes and chi rows of each center, viewed as a category,
are all zero (the blocks the crossed-category sweeps skip).

Run as `python scripts/center_survey.py`.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from crossedcat.center import CenterStructure, verify_center_braided  # noqa: E402
from crossedcat.fixtures import CATEGORIES, CENTER_FIXTURES  # noqa: E402


def main() -> None:
    for name in CENTER_FIXTURES:
        cat = CATEGORIES[name]()
        t0 = time.monotonic()
        Z = CenterStructure(cat)
        rep = verify_center_braided(cat)
        dt = time.monotonic() - t0
        grades = Counter(Z.grade(z) for z in Z.simples)
        coeffs = Counter(Z.braid_exponent(a, b) for a in Z.simples for b in Z.simples)
        sigma_vals = Counter(Z.sigma(g, s, z)
                             for g in cat.G.elements()
                             for s in cat.Gamma.elements()
                             for z in Z.simples)
        print(f"{name}: |Z| = {len(Z.simples)}  verified = {rep.passed}  ({dt:.2f}s)")
        print(f"  grades: {dict(sorted(grades.items()))}")
        print(f"  braiding exponents (mod {cat.M}): {dict(sorted(coeffs.items()))}")
        print(f"  swap-scalar exponents: {dict(sorted(sigma_vals.items()))}")
        zcat = Z.as_category()
        zero_j = sum(not any(map(any, plane)) for plane in zcat.jtable)
        chi_rows = [row for plane in zcat.chitable for row in plane]
        zero_chi = sum(not any(row) for row in chi_rows)
        print(f"  zero J planes {zero_j}/{len(zcat.jtable)}, "
              f"zero chi rows {zero_chi}/{len(chi_rows)}")


if __name__ == "__main__":
    main()
