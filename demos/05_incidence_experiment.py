"""Slab incidence counting against the discretized bound.

For each scale a seeded admissible configuration is generated: a
(delta, t)-net of directions, a (delta, s)-set of slab offsets per
direction, and candidate balls sampled on the slabs and filtered through
the heavy threshold.  The fitted constant (#Theta)^4 #H * delta^(2t+s+2+eps)
should stay bounded across scales.
"""

from projlab.curve import model_curve
from projlab.incidence import (
    IncidenceSpec,
    heavy_subset,
    incidence_count,
    random_admissible_config,
    verify_incidence_bound,
)

curve = model_curve()

print("= one configuration in detail (delta=2^-5, s=t=0.5, seed 11) =")
spec = IncidenceSpec(delta=2.0**-5, s=0.5, t=0.5, seed=11)
cfg = random_admissible_config(spec)
m = incidence_count(cfg, curve)
print(f"  directions {len(cfg.net)}, slabs/direction ~{len(cfg.families[0])}, balls {len(cfg.balls)}")
print(f"  incidences {m.total}: sum over balls {int(m.row_counts().sum())} "
      f"== sum over directions {int(m.col_counts().sum())}")
heavy = heavy_subset(m, cfg)
print(f"  heavy balls {len(heavy)} (threshold #Theta/(log2 1/delta)^2 = "
      f"{len(cfg.net) / 25:.2f} slabs)")

print()
print("= fitted constants across scales =")
print("  delta      #Theta  #H    lhs           fitted_C")
for s, t in ((0.5, 0.5), (0.3, 0.7), (0.7, 0.3)):
    for k in (4, 5, 6, 7):
        spec = IncidenceSpec(delta=2.0**-k, s=s, t=t, seed=3)
        c = random_admissible_config(spec)
        rep = verify_incidence_bound(c, curve, epsilon=0.1)
        print(
            f"  2^-{k}  s={s} t={t}  {rep.theta_count:3d}  {rep.heavy_count:5d}  "
            f"{rep.lhs:12.4g}  {rep.fitted_c:.4f}"
        )
    print()
