"""Flocking-based aerial base-station formation control.

A deterministic discrete-time simulator of UAV-carried access points that
cover clustered ground users, build inter-cluster relay bridges, and
recover from random agent failures. Library surface plus a small CLI.
"""

from .association import Assignment, assign_msds, cluster_coverages
from .control import (
    MODE_BRIDGE,
    MODE_DYNAMIC,
    MODE_NAMES,
    MODE_STATIC,
    ControlParams,
    ModeThresholds,
    flock_accelerations,
    mode_switch,
    select_bridge_edge,
)
from .netgraph import cluster_mst, connected_components, fiedler_value
from .potentials import bump, phi_action, phi_uneven, sigma_scalar
from .sim import (
    MetricsSample,
    RunResult,
    SimulationDiverged,
    Trajectory,
    inject_failures,
    measure,
    run,
    step,
)
from .world import (
    ConfigError,
    ScenarioConfig,
    World,
    generate_scenario,
    load_config,
    save_config,
)

__version__ = "0.1.0"
