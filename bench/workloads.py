"""The benchmark's workloads: scenario settings and the config files they write.

Each workload is a set of ``ScenarioConfig`` settings that differ from the
defaults. The workload seed becomes the scenario seed, so the seed alone
decides the user positions, the spawn positions and the failure draws.

Missions are shorter than the paper's 60 s so that one run of the
benchmark repeats each job several times; see README.md for the reasons.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    settings: dict                                 # ScenarioConfig fields besides seed
    trajectories: bool = False                     # pass --trajectories to `run`


WORKLOADS = {
    w.name: w for w in (
        # default ScenarioConfig: 4 clusters of 500 users 145 m apart, 100 agents;
        # 20 s is long enough for the fleet to reach and cover the clusters
        Workload("nominal", {"t_end": 20.0}),
        # acceptance criterion 5's replay: half of 80 agents fail at 18 s;
        # 6 s after the failure the survivors' coverage has settled
        Workload("failure_half",
                 {"map_count": 80, "failures": ((18.0, 0.5),), "t_end": 24.0},
                 trajectories=True),
        # 1000 agents spread uniformly over an 800 m field around 4 clusters at
        # the corners of a 600 m square; the users spread wide (sigma 100 m) so
        # that the coverage after 8 steps depends little on the seed
        Workload("relay_wide",
                 {"cluster_centers": ((0.0, 0.0), (600.0, 0.0), (0.0, 600.0), (600.0, 600.0)),
                  "msds_per_cluster": 200,
                  "cluster_sigma": 100.0,
                  "map_count": 1000,
                  "map_spawn_center": (300.0, 300.0),
                  "map_spawn_halfwidth": 400.0,
                  "t_end": 0.8}),
    )
}


def _format(key, value):
    if key == "failures":
        return "; ".join(f"{t!r}:{frac!r}" for t, frac in value)
    if key == "cluster_centers":
        return "; ".join(f"{x!r},{y!r}" for x, y in value)
    if key == "map_spawn_center":
        return f"{value[0]!r},{value[1]!r}"
    return repr(value)


def config_text(settings, seed):
    """The key = value config file for these settings and scenario seed."""
    lines = [f"{key} = {_format(key, value)}" for key, value in settings.items()]
    lines.append(f"seed = {seed}")
    return "\n".join(lines) + "\n"


def step_count(t_end, dt):
    """Steps the simulator takes for a mission of length t_end."""
    return math.ceil(t_end / dt - 1e-9)
