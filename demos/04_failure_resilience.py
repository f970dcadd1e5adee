"""Kill part of the fleet mid-mission and watch the recovery.

Runs an 80-agent scenario twice with random agent failures injected at
t = 18 s (10% and 50% of the fleet). The coverage ratio dips at the
injection and partially recovers as surviving roamers re-target the
now-underserved clusters. Writes ``demo_out/failure_resilience.svg``
with the two coverage curves next to the undisturbed baseline.

Run:  python3 demos/04_failure_resilience.py   (about 5 s)
"""

import os
from dataclasses import replace

import numpy as np

from mapflock import ScenarioConfig, run
from mapflock.outputs import write_line_svg

base = ScenarioConfig(map_count=80, seed=2)
curves = {}
for label, fractions in (("baseline", ()), ("10% loss", ((18.0, 0.1),)),
                         ("50% loss", ((18.0, 0.5),))):
    result = run(replace(base, failures=fractions))
    t = np.array([s.t for s in result.samples])
    cov = np.array([s.coverage_ratio for s in result.samples])
    curves[label] = cov
    final = result.final
    # the baseline is sliced at the same step, so the three lows compare
    post_min = cov[int(18.0 / base.dt) + 1:].min()
    print(f"{label:9s}  final coverage {final.coverage_ratio:.3f}   "
          f"post-injection low {post_min:.3f}   "
          f"alive {final.alive_count}/{base.map_count}   "
          f"fiedler {final.fiedler:.4f}")

os.makedirs("demo_out", exist_ok=True)
write_line_svg("demo_out/failure_resilience.svg", t, curves, x_label="t [s]")
print("wrote demo_out/failure_resilience.svg")
