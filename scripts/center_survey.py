#!/usr/bin/env python3
"""Survey the centers of all category fixtures: counts, grades, coefficients,
and whether the center's scalar data is zero (CenterStructure.zero: its
scalar checks then pass unread) next to whether the center viewed as a
category is (PointedCrossedCategory.zero: the scalar checks of
verify_crossed_category then pass unread).

Run as `python scripts/center_survey.py`.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from crossedcat.center import CenterStructure, verify_center_braided  # noqa: E402
from fixture_builders import CATEGORIES, CENTER_FIXTURES  # noqa: E402


def main() -> None:
    for name in CENTER_FIXTURES:
        cat = CATEGORIES[name]()
        Z = CenterStructure(cat)
        rep = verify_center_braided(cat)
        n = len(Z.simples)
        grades = Counter(divmod(code, cat.Gamma.order) for code in Z.grade_table[:n])
        coeffs = Counter(v for row in Z.braid_table[:n] for v in row[:n])
        sigma_vals = Counter(v for plane in Z.sigma_table for row in plane for v in row[:n])
        print(f"{name}: |Z| = {len(Z.simples)}  verified = {rep.passed}")
        print(f"  grades: {dict(sorted(grades.items()))}")
        print(f"  braiding exponents (mod {cat.M}): {dict(sorted(coeffs.items()))}")
        print(f"  swap-scalar exponents: {dict(sorted(sigma_vals.items()))}")
        print(f"  zero scalar data: center {Z.zero}, "
              f"center viewed as a category {Z.as_category().zero}")


if __name__ == "__main__":
    main()
