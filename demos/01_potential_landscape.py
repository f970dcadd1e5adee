"""Plot the building blocks of the formation controller.

Renders the smooth range cutoff, the uneven sigmoid, and the combined
pairwise action potential as functions of inter-agent distance, and marks
the equilibrium spacing where the force changes sign. Writes
``demo_out/potential_landscape.svg``.

Run:  python3 demos/01_potential_landscape.py
"""

import os

import numpy as np

from mapflock import ControlParams, bump, phi_action, phi_uneven, sigma_scalar

params = ControlParams()   # epsilon=0.1, a=b=5, d=20 m, r=24 m

# evaluate everything over plain Euclidean distance, mapping through the
# sigma-norm exactly as the controller does
dist = np.linspace(0.1, 30.0, 600)
z_sigma = sigma_scalar(dist, params.epsilon)

gate = bump(z_sigma / params.r_sigma, params.gamma, 1.0)
sigmoid = phi_uneven(z_sigma - params.d_sigma, params.a, params.b, params.c)
action = phi_action(z_sigma, params)

print(f"desired spacing d = {params.d} m  ->  sigma image {params.d_sigma:.3f}")
print(f"comm range     r = {params.r} m  ->  sigma image {params.r_sigma:.3f}")

# the action potential crosses zero exactly at d and vanishes at r
sign_change = dist[np.flatnonzero(np.diff(np.sign(action)) > 0)[0]]
print(f"force sign change near {sign_change:.2f} m (repulsive below, attractive above)")
print(f"potential at r and beyond: {phi_action(params.r_sigma, params):.1f}")

from mapflock.outputs import write_line_svg

os.makedirs("demo_out", exist_ok=True)
write_line_svg("demo_out/potential_landscape.svg", dist, {
    "range gate": gate,
    "sigmoid": sigmoid,
    "action potential": action,
}, x_label="inter-agent distance [m]")
print("wrote demo_out/potential_landscape.svg")
