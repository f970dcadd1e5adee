import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from mapflock.control import MODE_DYNAMIC, ControlParams, ModeThresholds
from mapflock.sim import run
from mapflock.world import (
    ConfigError,
    ScenarioConfig,
    adjacency_matrix,
    agent_tree,
    config_from_lines,
    config_to_lines,
    generate_scenario,
    load_config,
    save_config,
)
from oracles import directed_pairs


def small_config(**kwargs):
    defaults = dict(msds_per_cluster=50, map_count=12, t_end=5.0)
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestGenerateScenario:
    def test_population_counts(self):
        cfg = ScenarioConfig(msds_per_cluster=500, map_count=30, t_end=1.0)
        world = generate_scenario(cfg, np.random.default_rng(0))
        assert len(world.msd_pos) == 4 * 500
        assert len(world.map_pos) == 30
        assert len(world.centroids) == 4
        np.testing.assert_array_equal(np.bincount(world.msd_cluster), [500] * 4)

    def test_same_seed_bit_identical(self):
        cfg = small_config(seed=7)
        w1 = generate_scenario(cfg, np.random.default_rng(cfg.seed))
        w2 = generate_scenario(cfg, np.random.default_rng(cfg.seed))
        assert np.array_equal(w1.msd_pos, w2.msd_pos)
        assert np.array_equal(w1.map_pos, w2.map_pos)
        assert np.array_equal(w1.map_vel, w2.map_vel)
        assert np.array_equal(w1.goal_a, w2.goal_a)

    def test_zero_sigma_collapses_to_centroid(self):
        cfg = small_config(cluster_sigma=0.0)
        world = generate_scenario(cfg, np.random.default_rng(1))
        for cluster_id, centroid in enumerate(world.centroids):
            np.testing.assert_allclose(world.msd_pos[world.msd_cluster == cluster_id],
                                       np.broadcast_to(centroid, (50, 2)))

    def test_initial_state_contracts(self):
        cfg = small_config(initial_speed=1.0, map_spawn_halfwidth=30.0)
        world = generate_scenario(cfg, np.random.default_rng(2))
        assert np.all(world.mode == MODE_DYNAMIC)
        assert np.all(world.alive)
        assert np.all(np.abs(world.map_vel) <= 1.0)
        spawn = np.asarray(cfg.map_spawn_center)
        assert np.all(np.abs(world.map_pos - spawn) <= 30.0)
        # initial goal is the nearest cluster center
        d = np.linalg.norm(world.map_pos[:, None, :] - world.centroids[None], axis=2)
        np.testing.assert_array_equal(world.goal_a, np.argmin(d, axis=1))

    @pytest.mark.parametrize("centers,goal", [
        (((40.0, 40.0), (3.0, 4.0), (5.0, 0.0), (0.0, -5.0)), 1),
        (((0.0, -5.0), (5.0, 0.0), (3.0, 4.0)), 0),
        (((9.0, 9.0), (-4.0, 3.0), (40.0, 40.0), (4.0, -3.0)), 1),
    ])
    def test_exact_ties_go_to_the_first_center(self, centers, goal):
        # every agent spawns at the origin, exactly 5 m from each tied center
        cfg = small_config(cluster_centers=centers, map_spawn_center=(0.0, 0.0),
                           map_spawn_halfwidth=0.0)
        world = generate_scenario(cfg, np.random.default_rng(6))
        assert np.all(world.map_pos == 0.0)
        assert np.all(world.goal_a == goal)

    def test_initial_goal_needs_no_agent_by_center_temporaries(self):
        # 2000 agents and 100 centers: an (L, K, 2) broadcast of the squared
        # differences peaked at 4.6 MiB; the running minimum's temporaries are
        # L-sized, and the peak, 0.38 MiB, is mostly the world's (L, K)
        # achieved table
        centers = tuple((float(x), float(y)) for x in range(0, 1000, 100)
                        for y in range(0, 1000, 100))
        cfg = small_config(cluster_centers=centers, msds_per_cluster=1, map_count=2000,
                           map_spawn_center=(450.0, 450.0), map_spawn_halfwidth=450.0)
        rng = np.random.default_rng(7)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            generate_scenario(cfg, rng)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20

    def test_achieved_starts_as_an_all_false_bool_array(self):
        cfg = small_config(cluster_centers=((0.0, 0.0), (60.0, 0.0), (0.0, 60.0)))
        world = generate_scenario(cfg, np.random.default_rng(4))
        assert world.achieved.dtype == bool
        assert world.achieved.shape == (12, 3)
        assert not world.achieved.any()

    def test_centroids_are_config_inputs(self):
        cfg = small_config(cluster_sigma=40.0)
        world = generate_scenario(cfg, np.random.default_rng(3))
        np.testing.assert_allclose(world.centroids, np.asarray(cfg.cluster_centers))


def neighbors(map_pos, alive, comm_range):
    """Neighbour ids of each agent, from the in-range pairs of alive agents."""
    ids = np.flatnonzero(alive)
    rows, cols = directed_pairs(*adjacency_matrix(agent_tree(map_pos, alive), comm_range))
    return [ids[cols[ids[rows] == i]] for i in range(len(map_pos))]


class TestNeighbors:
    def test_boundary_inclusive(self):
        pos = np.array([[0.0, 0.0], [24.0, 0.0]])
        alive = np.ones(2, dtype=bool)
        nb = neighbors(pos, alive, 24.0)
        assert list(nb[0]) == [1]
        assert list(nb[1]) == [0]

    def test_single_agent_empty(self):
        nb = neighbors(np.zeros((1, 2)), np.ones(1, dtype=bool), 24.0)
        assert len(nb[0]) == 0

    def test_dead_excluded_everywhere(self):
        pos = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
        alive = np.array([True, False, True])
        nb = neighbors(pos, alive, 24.0)
        assert list(nb[0]) == [2]
        assert len(nb[1]) == 0
        assert list(nb[2]) == [0]

    def test_matches_brute_force_pair_scan(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 25))
            pos = rng.uniform(-60, 60, size=(n, 2))
            alive = rng.random(n) > 0.2
            r = float(rng.uniform(5, 60))
            nb = neighbors(pos, alive, r)
            for i in range(n):
                expect = [j for j in range(n)
                          if j != i and alive[i] and alive[j]
                          and np.linalg.norm(pos[i] - pos[j]) <= r]
                assert list(nb[i]) == expect

    def test_symmetry(self):
        rng = np.random.default_rng(12)
        pos = rng.uniform(-50, 50, size=(30, 2))
        nb = neighbors(pos, np.ones(30, dtype=bool), 24.0)
        for i, ids in enumerate(nb):
            for j in ids:
                assert i in nb[j]

    def test_bad_range(self):
        # the communication range is checked where it is configured
        with pytest.raises(ValueError):
            ControlParams(r=0.0)
        with pytest.raises(ConfigError):
            config_from_lines(["r = 0"])


class TestScenarioConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"msds_per_cluster": 0}, {"map_count": 0}, {"dt": 0.0}, {"t_end": -1.0},
        {"cluster_sigma": float("nan")}, {"map_height": 0.0},
        {"failures": ((10.0, 1.5),)}, {"failures": ((-1.0, 0.5),)},
    ])
    def test_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ScenarioConfig(**kwargs)


class TestConfigHoles:
    """Inputs that used to be accepted, or to fail inside numpy."""

    @pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
    def test_non_finite_failure_time(self, time):
        with pytest.raises(ConfigError, match="is not finite") as info:
            config_from_lines([f"failures = {time}:0.5"])
        assert "\n" not in str(info.value)

    def test_empty_cluster_centers(self):
        with pytest.raises(ConfigError, match="at least one centre") as info:
            config_from_lines(["cluster_centers = "])
        assert "\n" not in str(info.value)

    def test_duplicate_cluster_centers(self):
        with pytest.raises(ConfigError, match="must not repeat a centre") as info:
            config_from_lines(["cluster_centers = 0,0; 145,0; 0.0,-0.0"])
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("line", [
        # non-finite controller constants and thresholds, a negative seed
        "r = inf", "k = inf", "c2 = inf", "epsilon = inf", "seed = -1",
        "a = nan", "gamma = -inf", "r0 = nan",
        # failure entries that are not one time:fraction pair
        "failures = 1:0.5:7", "failures = 5", "failures = 1:",
    ])
    def test_rejected_with_one_line_error(self, line):
        with pytest.raises(ConfigError) as info:
            config_from_lines([line])
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("lines", [
        ["dt = 0.1", "dt = 0.2"], ["dt = 0.1", "dt = 0.1"], ["seed = 4", "", "seed=4 # again"],
    ])
    def test_repeated_key_rejected(self, lines):
        # the later value used to win silently
        with pytest.raises(ConfigError, match="duplicate key") as info:
            config_from_lines(lines)
        assert "\n" not in str(info.value)

    def test_distinct_close_centres_accepted(self):
        cfg = config_from_lines(["cluster_centers = 0,0; 0,1e-9"])
        assert len(cfg.cluster_centers) == 2

    @pytest.mark.parametrize("lines", [
        # the goal term's dt bound: c1*dt^2 + 2*c2*dt < 4
        ["msds_per_cluster = 20", "map_count = 10", "dt = 5.0", "t_end = 2000"],
        ["dt = 5.0"], ["dt = 2.17"], ["c1 = 3", "dt = 1.0"],
        # agents at or above the range never cover a user
        ["map_height = 30"], ["map_height = 24"], ["r = 21", "map_height = 22"],
    ])
    def test_unstable_dt_or_unreachable_users_rejected(self, lines):
        with pytest.raises(ConfigError, match="unstable|out of range") as info:
            config_from_lines(lines)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("dt", [1.0, 2.0, 2.16])
    def test_dt_below_the_bound_accepted_and_runs(self, dt):
        cfg = config_from_lines([f"dt = {dt}", "msds_per_cluster = 30", "map_count = 12"])
        assert len(run(replace(cfg, t_end=3 * dt)).samples) == 4

    @pytest.mark.parametrize("lines", [
        # overflowed squared distances in generate_scenario, then a diverged run
        ["cluster_centers = 0,0; 1e200,0"], ["map_spawn_center = 1e200,0"],
        ["cluster_centers = 0,0; 0,-1.5e9"], ["cluster_sigma = 1e200"],
        ["map_spawn_halfwidth = 2e9"],
    ])
    def test_scene_beyond_the_extent_limit_rejected(self, lines):
        with pytest.raises(ConfigError, match=r"must not exceed 1e\+09 m") as info:
            config_from_lines(lines)
        assert "\n" not in str(info.value)

    def test_scene_at_the_extent_limit_accepted(self):
        cfg = config_from_lines(["cluster_centers = 0,0; -1e9,0", "map_spawn_center = 0,1e9",
                                 "msds_per_cluster = 10", "map_count = 5", "t_end = 0.3"])
        assert len(run(cfg).samples) == 4


class TestConfigFiles:
    def test_round_trip(self):
        cfg = ScenarioConfig(seed=9, map_count=42, cluster_sigma=17.5,
                             failures=((18.0, 0.5),))
        assert config_from_lines(config_to_lines(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = ScenarioConfig(seed=3, t_end=12.5)
        path = tmp_path / "scenario.cfg"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_lines(["map_count = 10", "warp_drive = 1"])

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            config_from_lines(["map_count = ten"])

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            config_from_lines(["map_count 10"])

    def test_comments_and_blanks_ignored(self):
        cfg = config_from_lines(["# scenario", "", "map_count = 7  # small"])
        assert cfg.map_count == 7

    def test_defaults_apply_for_missing_keys(self):
        cfg = config_from_lines(["seed = 4"])
        assert cfg == ScenarioConfig(seed=4)

    def test_keys_are_the_config_fields_in_declaration_order(self):
        names = [f.name for cls in (ScenarioConfig, ControlParams, ModeThresholds)
                 for f in fields(cls) if f.type in (int, float, tuple)]
        assert [line.split(" = ")[0] for line in config_to_lines(ScenarioConfig())] == names

    def test_each_key_round_trips_a_value_off_its_default(self):
        pairs = {"cluster_centers": ((1.0, 2.0), (50.0, -3.5)),
                 "map_spawn_center": (-7.25, 8.0), "failures": ((2.5, 0.25),)}
        base = ScenarioConfig()
        for owner in (None, "control", "thresholds"):
            part = getattr(base, owner) if owner else base
            for f in fields(part):
                if f.name in pairs:
                    value = pairs[f.name]
                elif f.type in (int, float):
                    default = getattr(part, f.name)
                    value = default + 1 if f.type is int else default * 1.01
                else:
                    continue
                changed = replace(part, **{f.name: value})
                cfg = replace(base, **{owner: changed}) if owner else changed
                (line,) = [line for line in config_to_lines(cfg)
                           if line.startswith(f"{f.name} = ")]
                assert cfg != base and config_from_lines([line]) == cfg, line


class TestConfigFormatPinned:
    """The exact text of the config format: `summary.txt` echoes the written
    lines, so their order and number formats are part of the outputs."""

    def test_default_config_text(self):
        assert config_to_lines(ScenarioConfig()) == [
            "cluster_centers = 0.0,0.0; 145.0,0.0; 0.0,145.0; 145.0,145.0",
            "msds_per_cluster = 500", "map_count = 100", "seed = 1",
            "cluster_sigma = 13.0", "map_spawn_halfwidth = 30.0", "initial_speed = 1.0",
            "map_height = 20.0", "dt = 0.1", "t_end = 60.0",
            "map_spawn_center = -150.0,50.0", "failures = ",
            "d = 20.0", "r = 24.0", "epsilon = 0.1", "a = 5.0", "b = 5.0", "gamma = 0.2",
            "c1 = 0.3", "c2 = 0.6", "k = 10.0", "n_max = 80",
            "r0 = 0.95", "n0 = 3", "n1 = 10",
        ]

    def test_config_text_with_failures_and_a_moved_spawn(self):
        cfg = ScenarioConfig(cluster_centers=((0.0, 0.0), (60.0, -12.5), (1e-3, 60.0)),
                             map_spawn_center=(30.25, -7.0),
                             failures=((3.0, 0.5), (18.0, 0.25)))
        lines = config_to_lines(cfg)
        assert lines[0] == "cluster_centers = 0.0,0.0; 60.0,-12.5; 0.001,60.0"
        assert lines[10:12] == ["map_spawn_center = 30.25,-7.0",
                                "failures = 3.0:0.5; 18.0:0.25"]
        assert lines[1:10] + lines[12:] == [
            line for line in config_to_lines(ScenarioConfig())
            if not line.startswith(("cluster_centers", "map_spawn_center", "failures"))]
        assert config_from_lines(lines) == cfg

    @pytest.mark.parametrize("lines, message", [
        (["map_count 10"], "line 1: expected 'key = value', got 'map_count 10'"),
        (["seed = 4", "warp_drive = 1"], "line 2: unknown key 'warp_drive'"),
        (["map_count = ten"], "line 1: bad value for 'map_count': 'ten'"),
        (["", "# fleet", "n_max = 1.5"], "line 3: bad value for 'n_max': '1.5'"),
        (["dt = fast"], "line 1: bad value for 'dt': 'fast'"),
        # a malformed pair names its line and the pair
        (["cluster_centers = 0,0; 1"], "line 1: expected x,y pair, got '1'"),
        (["map_spawn_center = 1,2; 3,4"], "line 1: bad value for 'map_spawn_center': '1,2; 3,4'"),
        (["seed = 4", "failures = 1:0.5:7"], "line 2: expected x:y pair, got '1:0.5:7'"),
        (["dt = 0.1", "dt = 0.2"], "line 2: duplicate key 'dt' (first on line 1)"),
    ])
    def test_error_text(self, lines, message):
        with pytest.raises(ConfigError) as info:
            config_from_lines(lines)
        assert str(info.value) == message
