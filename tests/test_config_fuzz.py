"""Property: every config text is either rejected with a one-line
ConfigError or runs three steps, failing at most with SimulationDiverged."""

import math
from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mapflock.sim import SimulationDiverged, run
from mapflock.world import ConfigError, ScenarioConfig, config_from_lines, config_to_lines

DEFAULTS = dict(line.split(" = ", 1) for line in config_to_lines(ScenarioConfig()))
PAIR_KEYS = ("cluster_centers", "map_spawn_center", "failures")
INT_KEYS = tuple(k for k, v in DEFAULTS.items() if k not in PAIR_KEYS and v.isdigit())
FLOAT_KEYS = tuple(k for k in DEFAULTS if k not in PAIR_KEYS + INT_KEYS)

magnitude = st.floats(1e-3, 1e3)
bad = st.one_of(magnitude.map(lambda x: -x),
                st.sampled_from([0.0, math.nan, math.inf, -math.inf]))


def mostly(good, other, odds=4):
    """`good`, except once in `odds` draws, so that many examples also run."""
    return st.integers(1, odds).flatmap(lambda i: other if i == 1 else good)


number = mostly(magnitude, bad)
# counts stay small so that one example runs in milliseconds
count = st.integers(-3, 120)
pair = st.tuples(number, number)
unit = mostly(st.floats(0.0, 1.0), number)   # failure times and fractions


def _text(x):
    return repr(x) if isinstance(x, float) else str(x)


def _pairs(pairs, sep):
    return "; ".join(f"{_text(a)}{sep}{_text(b)}" for a, b in pairs)


line = st.one_of(
    st.tuples(st.sampled_from(FLOAT_KEYS), number).map(lambda kv: f"{kv[0]} = {_text(kv[1])}"),
    st.tuples(st.sampled_from(INT_KEYS), mostly(count, number))
    .map(lambda kv: f"{kv[0]} = {_text(kv[1])}"),
    st.lists(pair, max_size=4).map(lambda ps: "cluster_centers = " + _pairs(ps, ",")),
    pair.map(lambda p: "map_spawn_center = " + _pairs([p], ",")),
    st.lists(st.tuples(unit, unit), max_size=2)
    .map(lambda ps: "failures = " + _pairs(ps, ":")),
)


# a fixed set of examples keeps the suite deterministic and leaves no files behind
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
# one line per key: a repeated key is rejected before its values are checked or run
@given(st.lists(line, max_size=8, unique_by=lambda text: text.split(" = ", 1)[0]))
@example(["r = inf"])
@example(["k = inf"])
@example(["rho = 1"])
@example(["epsilon = inf"])
@example(["seed = -1"])
@example(["n_max = " + "9" * 400])
@example(["msds_per_cluster = 20", "map_count = 10", "dt = 5.0", "t_end = 2000"])
@example(["dt = 5.0"])
@example(["map_height = 30"])
@example(["cluster_centers = 0,0; 1e200,0"])
@example(["map_spawn_center = 1e200,0"])
def test_config_is_rejected_or_runs_three_steps(lines):
    try:
        config = config_from_lines(lines)
    except ConfigError as exc:
        assert "\n" not in str(exc)
        return
    try:
        run(replace(config, t_end=3 * config.dt), record_trajectories=True)
    except SimulationDiverged:
        pass
