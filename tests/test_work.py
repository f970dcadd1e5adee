"""Work counters: how often a whole run calls each kernel, and how much it
hands the eigen solver and the action potential, and how many in-range
pairs its graphs hold, pinned as literals for each golden config.

The counts follow the trajectory, which the golden digests pin, so they do
not depend on the BLAS or SIMD kernels. Computing a quantity twice, or
observing a world state twice, moves a count here even when every output
stays the same. A change that moves a count on purpose updates its literal
and says in CHANGES.md by how much and why.
"""

import numpy as np
import pytest

import mapflock.control as control
import mapflock.sim as sim
from mapflock.sim import run
from mapflock.world import ScenarioConfig
from test_golden import CONFIGS
from test_observation import count_calls

# per config: calls to each of the two observation kernels (one per world
# state), the in-range pairs of all their graphs, component labellings (at
# most one per world state, only for a Fiedler value or a goal sharing that
# needs them), eigvalsh calls and the sum of their matrix orders (one per
# connected sample), mode_switch calls, and the pair distances phi_action gets
WORK = {
    "nominal": dict(observations=121, pairs=15612, components=107, eigvalsh=22,
                    eigvalsh_order=880, mode_switch=65, phi_distances=15530),
    "bridge": dict(observations=61, pairs=4483, components=61, eigvalsh=61,
                   eigvalsh_order=1464, mode_switch=41, phi_distances=4420),
    "failure": dict(observations=62, pairs=3900, components=61, eigvalsh=61,
                    eigvalsh_order=1104, mode_switch=33, phi_distances=3804),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_work_counts(name, monkeypatch):
    settings, _ = CONFIGS[name]
    observations = {kernel: count_calls(monkeypatch, kernel)
                    for kernel in ("assign_msds", "adjacency_matrix")}
    adjacency, pairs = sim.adjacency_matrix, []

    def count_pairs(*args):
        rows, cols = adjacency(*args)
        pairs.append(rows.size)
        return rows, cols

    monkeypatch.setattr(sim, "adjacency_matrix", count_pairs)
    components = count_calls(monkeypatch, "connected_components")
    eigvalsh = count_calls(monkeypatch, "eigvalsh", np.linalg)
    mode_switch = count_calls(monkeypatch, "mode_switch", control)
    phi_action = count_calls(monkeypatch, "phi_action", control)
    run(ScenarioConfig(**settings))
    want = WORK[name]
    assert {kernel: len(calls) for kernel, calls in observations.items()} == dict.fromkeys(
        observations, want["observations"])
    assert sum(pairs) == want["pairs"]
    assert len(components) == want["components"]
    assert len(eigvalsh) == want["eigvalsh"]
    assert sum(shape[0] for shape in eigvalsh) == want["eigvalsh_order"]
    assert len(mode_switch) == want["mode_switch"]
    assert sum(int(np.prod(shape)) for shape in phi_action) == want["phi_distances"]
