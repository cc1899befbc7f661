#!/usr/bin/env python3
"""Certify invariant boxes and contraction constants for driven state maps.

Two settings:

1. The power-plus-trig map driven by Lorenz u-observations: all eight boxes
   around the autonomous fixed points (+-1, +-1, +-1) are verified forward
   invariant with exact interval images, and the state-contraction constant
   is certified both in closed form and by grid sampling.

2. A small recurrent network driven by observations of the hyperbolic
   2-torus map: scaling the connectivity shows the certificate flipping
   from "unique response + differentiable synchronization" to "unique
   response only".
"""

import numpy as np

from gsync import (AxisBox, CatMap, CoordinateProjection, Esn, InputRange,
                   OrbitConstants, PowerSine, certify, check_invariance,
                   lipschitz_bounds, lorenz_system, observe_trajectory)

lorenz = lorenz_system()
obs = CoordinateProjection([0], phase_dim=3)
traj = lorenz.trajectory([0.0, 1.0, 1.05], 4000)
z = observe_trajectory(obs, traj)
u_range = InputRange.from_observations(z)
print(f"observed input range: [{u_range.lo[0]:+.3f}, {u_range.hi[0]:+.3f}]")

F = PowerSine(alpha=0.9, lam=0.009, k=0.1)
centers = [np.array(p) for p in
           [(1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1),
            (-1, -1, 1), (-1, 1, -1), (1, -1, -1), (-1, -1, -1)]]
boxes = [AxisBox(c - 0.1, c + 0.1, label=f"V{i+1}") for i, c in enumerate(centers)]

print("\ninvariance of the eight boxes (exact interval images):")
for box in boxes:
    res = check_invariance(F, box, u_range)
    print(f"  {box.label}: ok={res.ok}  margin={res.margin:.3e}  ({res.method})")

b = lipschitz_bounds(F, boxes[0], u_range, resolution=50)
print(f"\ncontraction constant on V1: analytic {b.analytic['l_fx']:.6f}, "
      f"grid {b.grid['l_fx']:.6f}")
print(f"input sensitivity: {b.l_fz:.6f};  second partials: "
      f"{b.l_fxx:.4f} / {b.l_fxz:.4f}")

orbit = OrbitConstants.of(lorenz, obs, traj.points[2000:], max_tangent_samples=500)
cert = certify(F, boxes[0], orbit)
print("\nfull certificate on V1 (Lorenz driver):")
print("  " + cert.report_text().replace("\n", "\n  "))
print("  note: the sampled inverse tangent norm exceeds 1/l_fx here, so the")
print("  differentiability inequality is not established on this driver,")
print("  while the unique-response (contraction) verdict holds.")

print("\nrecurrent network on the hyperbolic torus map:")
cat = CatMap()
cat_obs = CoordinateProjection([0], phase_dim=2)
cat_orbit = OrbitConstants.of(cat, cat_obs, cat.trajectory([0.1234, 0.5678], 400).points)
for scale in (0.3, 0.5):
    E = Esn(scale * np.eye(2), np.array([[0.1], [0.1]]), squashing="tanh")
    c = certify(E, AxisBox([-1, -1], [1, 1], label=f"scale{scale}"), cat_orbit)
    print(f"  connectivity norm {scale}: esp_ok={c.esp_ok}  diff_ok={c.diff_ok}"
          f"  (threshold 1/|T phi^-1| = {1.0 / c.tangent_inv_norm:.5f})")
