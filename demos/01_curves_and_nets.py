"""Direction curves on the sphere and (delta, t)-separated parameter nets.

Evaluates the shipped curves, measures how non-degenerate each one is
(the determinant of the frame gamma, gamma', gamma''), and builds thinned
direction nets whose window counts follow a prescribed power law.
"""

import numpy as np

from projlab.curve import (
    direction_net,
    great_circle,
    helix_curve,
    model_curve,
    nondegeneracy_margin,
    validate_direction_net,
)

print("= curve evaluation =")
for curve in (model_curve(), helix_curve(), great_circle()):
    v0 = curve.points(np.array([0.0]))[0]
    margin = nondegeneracy_margin(curve)
    tag = "admissible" if margin > 0 else "DEGENERATE"
    print(
        f"{curve.label:>12}: gamma(0)=({v0[0]:+.4f},{v0[1]:+.4f},{v0[2]:+.4f})  "
        f"margin={margin:.6f}  [{tag}]"
    )

print()
print("= direction nets at delta = 2^-8 =")
print("a (delta,t)-net keeps at most ~(r/delta)^t parameters in any window of length r")
for t in (0.0, 0.3, 0.5, 0.7, 1.0):
    net = direction_net(2.0**-8, t, seed=7)
    separated, worst, witness = validate_direction_net(net)
    print(
        f"  t={t:.1f}: {len(net):4d} points, separated={separated}, "
        f"window constant {worst:.2f} (worst at r={witness[0]})"
    )

print()
print("the t=0.5 net, as parameters:")
net = direction_net(2.0**-6, 0.5, seed=7)
print("  " + ", ".join(f"{th:.4f}" for th in net.thetas))
