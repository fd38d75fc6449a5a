"""Discretized fractal generators and the (delta, s)-set machinery.

Builds Cantor-type sets and their products, then shows how the
greedy tree pruning extracts spacing-controlled subsets and how the
exhaustive window scan judges them.
"""

from dataclasses import replace

import numpy as np

from projlab.fractal import (
    cantor_1d,
    extract_delta_s_set,
    frostman_constant,
    full_grid,
    product_set,
    validate_delta_s_set,
)

print("= generators =")
c3 = cantor_1d(1 / 3, 5)
print(f"cantor(1/3, 5):   {len(c3):5d} cells at delta=2^-{c3.level}, dim {c3.nominal_dim:.4f}")
c2 = cantor_1d(1 / 2, 5)
print(f"cantor(1/2, 5):   {len(c2):5d} cells (the full grid), dim {c2.nominal_dim:.4f}")
prod = product_set(c3, c3, c3)
print(f"triple product:   {len(prod):5d} cells in the unit ball, dim {prod.nominal_dim:.4f}")

print()
print("= extraction and validation at delta = 2^-8 =")
grid = full_grid(8)
for s in (0.3, 0.5, 0.8):
    sub = extract_delta_s_set(grid, s, 1.0)
    rep = validate_delta_s_set(sub, s)
    full_rep = validate_delta_s_set(grid, s)
    print(
        f"  s={s}: extracted {len(sub):3d} of {len(grid)} cells -> "
        f"constant {rep.worst_constant:5.2f} (valid={rep.valid}); "
        f"full grid constant {full_rep.worst_constant:6.2f} (valid={full_rep.valid})"
    )

print()
print("weights concentrate where the tree keeps the heaviest branches:")
w = np.linspace(1, 3, len(grid))
weighted = replace(grid, weights=w / w.sum())
sub = extract_delta_s_set(weighted, 0.5, 1.0)
print(f"  kept cells lie at indices {sub.indices[:, 0].tolist()}")
print(f"  Frostman constant of the kept mass: {frostman_constant(sub):.3f}")
