"""How many agents does the mission need?

Sweeps the fleet size over {40, 60, 80, 100} with a few seeds each and
prints the seed-mean final coverage ratio and Fiedler value. Small fleets
cover most users but cannot also staff the inter-cluster relay bridges,
so the network stays disconnected (Fiedler value exactly zero); past the
threshold both coverage and connectivity are achieved. Writes
``demo_out/fleet_size_sweep.svg``.

Run:  python3 demos/03_fleet_size_sweep.py     (about 10 s: twelve 60 s missions)
"""

import os
from dataclasses import replace

import numpy as np

from mapflock import ScenarioConfig, run
from mapflock.outputs import write_line_svg

COUNTS = (40, 60, 80, 100)
SEEDS = (1, 2, 3)
base = ScenarioConfig()

mean_cov, mean_lam = [], []
for count in COUNTS:
    finals = [run(replace(base, map_count=count, seed=s)).final for s in SEEDS]
    cov = float(np.mean([f.coverage_ratio for f in finals]))
    lam = float(np.mean([f.fiedler for f in finals]))
    mean_cov.append(cov)
    mean_lam.append(lam)
    verdict = "connected" if lam > 0 else "disconnected"
    print(f"{count:4d} agents: coverage {cov:.3f}   fiedler {lam:.4f}   ({verdict})")

os.makedirs("demo_out", exist_ok=True)
write_line_svg("demo_out/fleet_size_sweep.svg", np.array(COUNTS, float),
               {"mean final coverage": np.array(mean_cov),
                "mean final fiedler": np.array(mean_lam)},
               x_label="fleet size")
print("wrote demo_out/fleet_size_sweep.svg")
