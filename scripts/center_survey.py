#!/usr/bin/env python3
"""Survey the centers of all category fixtures: counts, grades, coefficients,
how many J planes and chi rows of each center, viewed as a category, are all
zero (the blocks the crossed-category sweeps skip), whether the center's
scalar data is zero (CenterStructure.zero: its scalar checks then pass
unread), and which cocycle sweeps of the center viewed as a category the
zero rule skips whole.

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
        n = len(Z.simples)
        grades = Counter(divmod(code, cat.Gamma.order) for code in Z.grade_table[:n])
        coeffs = Counter(v for row in Z.braid_table[:n] for v in row[:n])
        sigma_vals = Counter(v for plane in Z.sigma_table for row in plane for v in row[:n])
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
        print(f"  zero scalar data: {Z.zero}")
        # a cocycle sweep of the category returns at once when the J planes
        # and chi rows its equations read are all zero
        j_zero, chi_zero = zero_j == len(zcat.jtable), zero_chi == len(chi_rows)
        skipped = [c for c, zero in (("axiom2_j_cocycle", j_zero), ("chi_cocycle", chi_zero),
                                     ("axiom3_j_chi", j_zero and chi_zero)) if zero]
        print(f"  skipped category sweeps of the center: {', '.join(skipped) or 'none'}")


if __name__ == "__main__":
    main()
