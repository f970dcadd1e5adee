"""Scenario state and generation: ground-user clusters, aerial agents, adjacency.

Ground users (MSDs) live on the z = 0 plane and never move; aerial access
points (MAPs) fly at a fixed common height, so MAP-MAP geometry is planar
while MAP-MSD distances are 3-D. Cluster centroids are configuration
inputs, not recomputed from the sampled users.

Randomness comes from a single seeded ``numpy.random.Generator``
(PCG64). The draw order is fixed and documented in
:func:`generate_scenario` so a seed fully determines the world.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .control import MODE_DYNAMIC, ControlParams, ModeThresholds
from .grid import candidate_pairs


# the largest centre coordinate or width a scene may have [m]: far beyond any
# UAV mission, and far below where squared distances overflow
MAX_SCENE_EXTENT = 1e9


class ConfigError(ValueError):
    """Invalid or unknown scenario configuration."""


@dataclass
class World:
    """Full mutable simulation state (arrays indexed by agent / user id)."""

    centroids: np.ndarray         # (K, 2)
    msd_pos: np.ndarray           # (M, 2), immutable for the whole run
    msd_cluster: np.ndarray       # (M,) cluster id per user
    map_pos: np.ndarray           # (L, 2)
    map_vel: np.ndarray           # (L, 2)
    map_height: float
    alive: np.ndarray             # (L,) bool
    mode: np.ndarray              # (L,) int, see control.MODE_*
    goal_a: np.ndarray            # (L,) cluster id (target, or first bridge endpoint)
    goal_b: np.ndarray            # (L,) second bridge endpoint, -1 otherwise
    achieved: list                # list[set[int]] per-agent achieved-goal knowledge

    @property
    def n_maps(self):
        return len(self.map_pos)

    @property
    def n_msds(self):
        return len(self.msd_pos)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce a run, loadable from a key=value file."""

    cluster_centers: tuple = ((0.0, 0.0), (145.0, 0.0), (0.0, 145.0), (145.0, 145.0))
    msds_per_cluster: int = 500
    cluster_sigma: float = 13.0
    map_count: int = 100
    map_spawn_center: tuple = (-150.0, 50.0)
    map_spawn_halfwidth: float = 30.0
    initial_speed: float = 1.0     # velocities uniform in [-v, v]^2
    map_height: float = 20.0
    seed: int = 1
    dt: float = 0.1
    t_end: float = 60.0
    control: ControlParams = field(default_factory=ControlParams)
    thresholds: ModeThresholds = field(default_factory=ModeThresholds)
    failures: tuple = ()           # ((time_s, fraction), ...)

    def __post_init__(self):
        if self.msds_per_cluster <= 0 or self.map_count <= 0:
            raise ConfigError("counts must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.dt <= 0 or self.t_end <= 0:
            raise ConfigError("dt and t_end must be positive")
        if self.cluster_sigma < 0 or self.map_spawn_halfwidth < 0:
            raise ConfigError("widths must be non-negative")
        if self.map_height <= 0:
            raise ConfigError("map_height must be positive")
        if self.initial_speed < 0:
            raise ConfigError("initial_speed must be non-negative")
        extents = [v for center in self.cluster_centers for v in center]
        extents += [*self.map_spawn_center, self.cluster_sigma, self.map_spawn_halfwidth]
        if not np.all(np.isfinite(extents + [self.initial_speed, self.map_height,
                                             self.dt, self.t_end])):
            raise ConfigError("configuration values must be finite")
        if max(abs(v) for v in extents) > MAX_SCENE_EXTENT:
            raise ConfigError(f"centre coordinates, cluster_sigma and map_spawn_halfwidth "
                              f"must not exceed {MAX_SCENE_EXTENT:g} m in magnitude")
        c1, c2, dt, r = self.control.c1, self.control.c2, self.dt, self.control.r
        if not c1 * dt * dt + 2.0 * c2 * dt < 4.0:   # Jury's test on a lone agent's goal pull
            raise ConfigError(f"dt = {dt} is unstable: need c1*dt^2 + 2*c2*dt < 4, i.e. dt < "
                              f"{4.0 / (c2 + math.sqrt(c2 * c2 + 4.0 * c1)):.6g}")
        if self.map_height >= r:
            raise ConfigError(f"map_height = {self.map_height} puts every user out of range r = {r}")
        if not self.cluster_centers:
            raise ConfigError("cluster_centers must list at least one centre")
        if len({tuple(center) for center in self.cluster_centers}) < len(self.cluster_centers):
            raise ConfigError("cluster_centers must not repeat a centre")
        for t, frac in self.failures:
            if not (0.0 <= frac <= 1.0):
                raise ConfigError(f"failure fraction {frac} outside [0, 1]")
            if not np.isfinite(t):
                raise ConfigError(f"failure time {t} is not finite")
            if t < 0:
                raise ConfigError("failure times must be non-negative")


def generate_scenario(config: ScenarioConfig, rng: np.random.Generator) -> World:
    """Sample a fresh world. Deterministic given the generator state.

    Draw order (fixed contract): for each cluster in listed order, its
    member offsets as (n, 2) standard normals; then MAP positions as an
    (L, 2) uniform block over the spawn square; then MAP velocities as an
    (L, 2) uniform block over [-v, v]^2.
    """
    centroids = np.asarray(config.cluster_centers, dtype=float)
    chunks = []
    for center in centroids:
        offsets = rng.standard_normal((config.msds_per_cluster, 2)) * config.cluster_sigma
        chunks.append(center + offsets)
    msd_pos = np.concatenate(chunks, axis=0)
    msd_cluster = np.repeat(np.arange(len(centroids)), config.msds_per_cluster)

    spawn = np.asarray(config.map_spawn_center, dtype=float)
    hw = config.map_spawn_halfwidth
    map_pos = spawn + rng.uniform(-hw, hw, size=(config.map_count, 2))
    map_vel = rng.uniform(-config.initial_speed, config.initial_speed,
                          size=(config.map_count, 2))

    # every agent starts in Dynamic mode, aimed at its nearest cluster center
    d2 = ((map_pos[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    goal_a = np.argmin(d2, axis=1).astype(int)

    n = config.map_count
    return World(
        centroids=centroids,
        msd_pos=msd_pos,
        msd_cluster=msd_cluster,
        map_pos=map_pos,
        map_vel=map_vel,
        map_height=config.map_height,
        alive=np.ones(n, dtype=bool),
        mode=np.full(n, MODE_DYNAMIC, dtype=int),
        goal_a=goal_a,
        goal_b=np.full(n, -1, dtype=int),
        achieved=[set() for _ in range(n)],
    )


def adjacency_matrix(map_pos, alive, comm_range):
    """Boolean alive-and-in-range matrix over all agent ids (zero diagonal).

    Only the pairs of alive agents in the 3x3 block of grid cells around each
    other (``grid.candidate_pairs``, cells at least `comm_range` wide) are
    tested; any pair farther apart is out of range. Agents i != j are adjacent
    when ``d2 <= comm_range**2``, with ``d2`` the squared distance of
    ``q_i - q_j``; the range is inclusive.
    """
    n = len(map_pos)
    adj = np.zeros((n, n), dtype=bool)
    ids = np.flatnonzero(alive)
    if ids.size:
        pos = map_pos[ids]
        i, j = candidate_pairs(pos, pos, comm_range)
        diff = np.take(pos, i, axis=0) - np.take(pos, j, axis=0)
        within = (np.einsum("ij,ij->i", diff, diff) <= comm_range * comm_range) & (i != j)
        adj[ids[i[within]], ids[j[within]]] = True
    return adj


# ---------------------------------------------------------------------------
# plain-text configuration files
# ---------------------------------------------------------------------------
#
# Format: one `key = value` per line; blank lines and `#` comments ignored.
# Unknown keys are rejected. Keys and units (SI):
#
#   cluster_centers      semicolon-separated x,y pairs [m], each within +-1e9
#   msds_per_cluster     int
#   cluster_sigma        Gaussian std of user clusters [m], at most 1e9
#   map_count            int
#   map_spawn_center     x,y [m], each within +-1e9
#   map_spawn_halfwidth  [m], at most 1e9
#   initial_speed        [m/s]
#   map_height           [m], below r
#   seed                 int
#   dt                   [s], c1*dt^2 + 2*c2*dt < 4 (2.163 at the defaults); a run
#                        that diverges anyway stops with a one-line message naming
#                        the step, agent, mode, position and velocity
#   t_end                [s]
#   failures             semicolon-separated time:fraction pairs (may be empty)
#   d r epsilon a b gamma n_max c1 c2 k rho eta       controller constants
#   r0 n0 n1                                          mode-switch thresholds

_SCALAR_FLOAT = ("cluster_sigma", "map_spawn_halfwidth", "initial_speed",
                 "map_height", "dt", "t_end")
_SCALAR_INT = ("msds_per_cluster", "map_count", "seed")
_CONTROL_FLOAT = ("d", "r", "epsilon", "a", "b", "gamma", "c1", "c2", "k", "rho", "eta")
_CONTROL_INT = ("n_max",)
_THRESH_FLOAT = ("r0",)
_THRESH_INT = ("n0", "n1")


def _parse_pairs(text, pair_sep=";", item_sep=","):
    out = []
    for part in text.split(pair_sep):
        part = part.strip()
        if not part:
            continue
        items = [p.strip() for p in part.split(item_sep)]
        if len(items) != 2:
            raise ConfigError(f"expected x{item_sep}y pair, got {part!r}")
        out.append((float(items[0]), float(items[1])))
    return out


def config_to_lines(config: ScenarioConfig):
    """Serialize a config to the key=value line format (round-trips exactly)."""
    centers = "; ".join(f"{x!r},{y!r}" for x, y in config.cluster_centers)
    failures = "; ".join(f"{t!r}:{f!r}" for t, f in config.failures)
    lines = [f"cluster_centers = {centers}"]
    for key in _SCALAR_INT:
        lines.append(f"{key} = {getattr(config, key)}")
    for key in _SCALAR_FLOAT:
        lines.append(f"{key} = {getattr(config, key)!r}")
    lines.append(f"map_spawn_center = {config.map_spawn_center[0]!r},{config.map_spawn_center[1]!r}")
    lines.append(f"failures = {failures}")
    for key in _CONTROL_FLOAT:
        lines.append(f"{key} = {getattr(config.control, key)!r}")
    for key in _CONTROL_INT:
        lines.append(f"{key} = {getattr(config.control, key)}")
    for key in _THRESH_FLOAT:
        lines.append(f"{key} = {getattr(config.thresholds, key)!r}")
    for key in _THRESH_INT:
        lines.append(f"{key} = {getattr(config.thresholds, key)}")
    return lines


def config_from_lines(lines):
    """Parse the key=value line format into a ScenarioConfig.

    Unknown keys raise :class:`ConfigError`; unspecified keys keep their
    defaults.
    """
    scenario = {}
    control = {}
    thresholds = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            if key == "cluster_centers":
                scenario["cluster_centers"] = tuple(_parse_pairs(value))
            elif key == "map_spawn_center":
                (scenario["map_spawn_center"],) = _parse_pairs(value, pair_sep=";")
            elif key == "failures":
                scenario["failures"] = tuple(_parse_pairs(value, item_sep=":"))
            elif key in _SCALAR_FLOAT:
                scenario[key] = float(value)
            elif key in _SCALAR_INT:
                scenario[key] = int(value)
            elif key in _CONTROL_FLOAT:
                control[key] = float(value)
            elif key in _CONTROL_INT:
                control[key] = int(value)
            elif key in _THRESH_FLOAT:
                thresholds[key] = float(value)
            elif key in _THRESH_INT:
                thresholds[key] = int(value)
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {value!r}") from exc
    try:
        return ScenarioConfig(control=ControlParams(**control),
                              thresholds=ModeThresholds(**thresholds),
                              **scenario)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_lines(fh.read().splitlines())


def save_config(config: ScenarioConfig, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(config_to_lines(config)) + "\n")
