"""Watch one nominal scenario unfold.

Runs the default scenario (100 aerial access points, 4 clusters of 500
ground users) and narrates what the fleet does: spreading from the spawn
square, covering clusters, settling into relay bridges, and the coverage
ratio / algebraic connectivity it achieves. Writes metric curves and the
final deployment map to ``demo_out/``.

Run:  python3 demos/02_formation_run.py        (about ten seconds)
"""

import os

import numpy as np

from mapflock import MODE_NAMES, ScenarioConfig, run
from mapflock.outputs import write_line_svg, write_run_outputs

config = ScenarioConfig(seed=1)
print(f"scenario: {config.map_count} agents, "
      f"{len(config.cluster_centers)} x {config.msds_per_cluster} users, "
      f"{config.t_end:.0f} s at dt = {config.dt} s")

result = run(config)

for t_mark in (0.0, 10.0, 20.0, 40.0, 60.0):
    s = result.samples[int(round(t_mark / config.dt))]
    m0, m1, m2 = s.mode_counts
    print(f"t = {s.t:5.1f} s   coverage {s.coverage_ratio:.3f}   "
          f"fiedler {s.fiedler:.4f}   modes {MODE_NAMES[0]}:{m0} "
          f"{MODE_NAMES[1]}:{m1} {MODE_NAMES[2]}:{m2}")

final = result.final
print(f"\nfinal coverage ratio  {final.coverage_ratio:.3f}")
print(f"final fiedler value   {final.fiedler:.4f} "
      f"({'connected' if final.fiedler > 0 else 'disconnected'})")
print("per-cluster coverage  "
      + "  ".join(f"{c:.3f}" for c in final.cluster_coverage))
if result.convergence_time is not None:
    print(f"converged (coverage band + quiet modes) at t = {result.convergence_time:.1f} s")
else:
    print("did not meet the convergence criterion within the horizon")

os.makedirs("demo_out", exist_ok=True)
write_run_outputs(result, "demo_out/formation_run")

write_line_svg("demo_out/formation_metrics.svg", [s.t for s in result.samples],
               {"coverage ratio": [s.coverage_ratio for s in result.samples],
                "fiedler value": [s.fiedler for s in result.samples]}, x_label="t [s]")
print("wrote demo_out/formation_run/ and demo_out/formation_metrics.svg")
