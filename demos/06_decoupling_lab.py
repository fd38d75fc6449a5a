"""Frequency-side measurements: high/low splits, decoupling, wave envelopes.

Builds the cap geometry over the model curve, synthesizes slab bump sums,
splits them at radial height 1/K, and measures the fractal small-cap
decoupling ratio and the wave-envelope right-hand side for random-phase
functions.  All claimed inequalities are checked as finite-scale
non-violation statistics, not proofs.
"""

import numpy as np

from projlab.curve import model_curve
from projlab.fourier import (
    GridFunction,
    build_geometry,
    choose_K,
    decoupling_ratio,
    high_low_split,
    random_cap_function,
    synth_tube_function,
    tspacing_subsample,
    wave_envelope_rhs,
)
from projlab.incidence import make_family

curve = model_curve()

print("= geometry over the model curve =")
for k in (4, 5, 6):
    geo = build_geometry(curve, 2.0**-k)
    on = int((geo.assignment >= 0).sum())
    print(
        f"  delta=2^-{k}: {geo.n_caps} caps over {on} lattice points, "
        f"sigma planks {geo.n_sigma()}"
    )

print()
print("= tube function and the high/low split (delta=2^-5, s=0.5) =")
geo = build_geometry(curve, 2.0**-5)
K = choose_K(2.0**-5, 0.5)
print(f"  K = {K}")
fam = make_family(0.2, [-0.5, 0.0, 0.25], delta=2.0**-5, s=0.5)
f = synth_tube_function(fam, geo)
fh, fl = high_low_split(f, 0.2, K, geo)
rec = np.max(np.abs(f.samples - fh.samples - fl.samples)) / np.max(np.abs(f.samples))
print(f"  peak |f| = {np.max(np.abs(f.samples)):.3f}, reconstruction error {rec:.2e}")
print(f"  energy split: high {fh.physical_energy():.1f} / low {fl.physical_energy():.1f}")

print()
print("= decoupling ratios for random-phase t-spacing functions =")
print("  delta    t    caps   ratio (5 seeds)")
for k in (4, 5, 6):
    geo = build_geometry(curve, 2.0**-k)
    for t in (0.3, 0.5, 0.7):
        ratios = []
        for seed in range(5):
            caps = tspacing_subsample(geo, t, seed)
            g = random_cap_function(geo, caps, seed=seed + 50)
            ratios.append(decoupling_ratio(g, caps, geo).ratio)
        print(
            f"  2^-{k}  {t:.1f}  {len(caps):4d}   "
            + " ".join(f"{r:.2f}" for r in ratios)
        )

print()
print("= wave-envelope right-hand side (delta=2^-4) =")
geo = build_geometry(curve, 2.0**-4)
on = geo.assignment >= 0
rng = np.random.default_rng(1)
coeffs = np.zeros(16**3, dtype=complex)
coeffs[on] = np.exp(2j * np.pi * rng.random(int(on.sum())))
f = GridFunction.from_coeffs(coeffs.reshape((16,) * 3))
rep = wave_envelope_rhs(f, geo)
for s, val in sorted(rep.per_s.items()):
    print(f"  scale s={s:5.3g}: contribution {val:.4g}")
print(f"  ||f||_4^4 = {rep.l4:.4g}, total = {rep.total:.4g}, quotient {rep.quotient:.3f}")
print(f"  non-violation band 2*delta^-1/2 = {2 * (2.0**-4) ** -0.5:.1f}")
