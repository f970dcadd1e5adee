"""Flocking-based aerial base-station formation control.

A deterministic discrete-time simulator of UAV-carried access points that
cover clustered ground users, build inter-cluster relay bridges, and
recover from random agent failures, with a small CLI. The package top
exports the names that the README and the demos import; every other name
is imported from its own module.
"""

from .control import MODE_NAMES, ControlParams
from .potentials import bump, phi_action, phi_uneven, sigma_scalar
from .sim import run
from .world import ScenarioConfig, load_config, save_config

__version__ = "0.1.0"
