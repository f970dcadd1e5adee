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
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np
from scipy.spatial import cKDTree

from .association import squared_distances, user_table
from .control import MODE_DYNAMIC, ControlParams, ModeThresholds


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
    msd_cluster: np.ndarray       # (M,) int32 cluster id per user
    map_pos: np.ndarray           # (L, 2)
    map_vel: np.ndarray           # (L, 2)
    map_height: float
    alive: np.ndarray             # (L,) bool
    mode: np.ndarray              # (L,) int8, see control.MODE_*
    goal_a: np.ndarray            # (L,) int32 cluster id (target, or first bridge endpoint)
    goal_b: np.ndarray            # (L,) int32 second bridge endpoint, -1 otherwise
    achieved: np.ndarray          # (L, K) bool, the goals each agent knows are covered
    # fixed for the run, since users never move; generate_scenario computes them once
    user_table: cKDTree           # the users' k-d tree, for matching
    cluster_users: np.ndarray     # (K,) users per cluster
    user_extent: float            # largest absolute user coordinate, for the step guard


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce a run, loadable from a key=value file."""

    # x,y; x,y; ... [m], each coordinate within +-1e9
    cluster_centers: tuple = ((0.0, 0.0), (145.0, 0.0), (0.0, 145.0), (145.0, 145.0))
    msds_per_cluster: int = 500        # positive
    map_count: int = 100               # positive
    seed: int = 1                      # non-negative
    cluster_sigma: float = 13.0        # Gaussian std of user clusters [m], at most 1e9
    map_spawn_halfwidth: float = 30.0  # [m], at most 1e9
    initial_speed: float = 1.0         # [m/s], velocities uniform in [-v, v]^2
    map_height: float = 20.0           # [m], below r
    # [s], c1*dt^2 + 2*c2*dt < 4 (2.163 at the defaults); a run that diverges anyway
    # stops with a one-line message naming the step, agent, mode, position and velocity
    dt: float = 0.1
    t_end: float = 60.0                # [s]
    map_spawn_center: tuple = (-150.0, 50.0)   # x,y [m], each within +-1e9
    failures: tuple = ()               # ((time_s, fraction), ...) [s]:[0, 1], may be empty
    control: ControlParams = field(default_factory=ControlParams)
    thresholds: ModeThresholds = field(default_factory=ModeThresholds)

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

    The users' k-d tree, the users per cluster and the users' extent are
    computed here, once per run.

    Draw order (fixed contract): the member offsets of every user as one
    (K * n, 2) block of standard normals, cluster by cluster in listed
    order; then MAP positions as an (L, 2) uniform block over the spawn
    square; then MAP velocities as an (L, 2) uniform block over [-v, v]^2.
    """
    centroids = np.asarray(config.cluster_centers, dtype=float)
    per_cluster = config.msds_per_cluster
    offsets = rng.standard_normal((len(centroids) * per_cluster, 2)) * config.cluster_sigma
    msd_pos = np.repeat(centroids, per_cluster, axis=0) + offsets
    msd_cluster = np.repeat(np.arange(len(centroids), dtype=np.int32), per_cluster)

    spawn = np.asarray(config.map_spawn_center, dtype=float)
    hw = config.map_spawn_halfwidth
    map_pos = spawn + rng.uniform(-hw, hw, size=(config.map_count, 2))
    map_vel = rng.uniform(-config.initial_speed, config.initial_speed,
                          size=(config.map_count, 2))

    # every agent starts in Dynamic mode, aimed at its nearest cluster center:
    # a running minimum over the centers in O(L) memory, where a strict < keeps
    # an exact tie on the first center, as argmin does
    n = config.map_count
    goal_a = np.zeros(n, dtype=np.int32)
    nearest = np.full(n, np.inf)
    x, y = map_pos.T
    for k, (cx, cy) in enumerate(centroids.tolist()):
        dx, dy = x - cx, y - cy
        d2 = dx * dx + dy * dy
        goal_a[d2 < nearest] = k
        np.minimum(nearest, d2, out=nearest)

    return World(
        centroids=centroids,
        msd_pos=msd_pos,
        msd_cluster=msd_cluster,
        map_pos=map_pos,
        map_vel=map_vel,
        map_height=config.map_height,
        alive=np.ones(n, dtype=bool),
        mode=np.full(n, MODE_DYNAMIC, dtype=np.int8),
        goal_a=goal_a,
        goal_b=np.full(n, -1, dtype=np.int32),
        achieved=np.zeros((n, len(centroids)), dtype=bool),
        user_table=user_table(msd_pos),
        cluster_users=np.bincount(msd_cluster, minlength=len(centroids)),
        user_extent=float(np.abs(msd_pos).max()),
    )


def agent_tree(map_pos, alive):
    """The k-d tree of the alive agents' positions, in id order."""
    return cKDTree(map_pos.take(alive.nonzero()[0], axis=0),
                   balanced_tree=False, compact_nodes=False)


def adjacency_matrix(agents, comm_range):
    """The graph of the alive agents, numbered in id order, as its int32
    pairs ``(rows, cols)``: each adjacent pair once, with ``rows < cols``,
    in row-major order. The symmetric graph's other half, and its component
    labels, are left to the consumers that need them
    (:func:`netgraph.connected_components`).

    `agents` is the :func:`agent_tree` of the agents' positions; only the
    pairs it finds within a slightly wider range are tested, at the
    positions the tree holds.
    Agents i != j are adjacent when ``d2 <= comm_range**2``, with ``d2`` the
    squared distance of ``q_i - q_j``; the range is inclusive.
    """
    n = agents.n
    # the 1e-9 widening keeps every pair the exact test admits a candidate,
    # whatever the rounding of the tree's own distances; the tree gives i < j
    i, j = agents.query_pairs(comm_range * (1.0 + 1e-9), output_type="ndarray").T
    # agents.data is map_pos[alive], as the tree keeps it
    within = squared_distances(agents.data, i, agents.data, j) <= comm_range * comm_range
    # the row-major key of each pair, sorted, then split back into its row and column
    key = i[within]
    key *= n
    key += j[within]
    del i, j, within
    key.sort()
    rows, cols = np.divmod(key, n)
    return rows.astype(np.int32), cols.astype(np.int32)


# ---------------------------------------------------------------------------
# plain-text configuration files
# ---------------------------------------------------------------------------
#
# Format: one `key = value` per line; blank lines and `#` comments ignored.
# Unknown keys are rejected. The keys are the int, float and pair fields of
# ScenarioConfig, ControlParams and ModeThresholds, in declaration order, with
# their SI units or constraints as field comments. An int parses with int and
# formats with str, a float with float and repr, a pair by `_PAIR_KEYS`.


def _parse_pairs(item_sep, text):
    out = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        items = [p.strip() for p in part.split(item_sep)]
        if len(items) != 2:
            raise ConfigError(f"expected x{item_sep}y pair, got {part!r}")
        out.append((float(items[0]), float(items[1])))
    return tuple(out)


def _format_pairs(item_sep, pairs):
    return "; ".join(f"{a!r}{item_sep}{b!r}" for a, b in pairs)


def _parse_point(text):
    (point,) = _parse_pairs(",", text)
    return point


_PAIR_KEYS = {
    "cluster_centers": (partial(_parse_pairs, ","), partial(_format_pairs, ",")),
    "map_spawn_center": (_parse_point, lambda point: _format_pairs(",", [point])),
    "failures": (partial(_parse_pairs, ":"), partial(_format_pairs, ":")),
}
_SCALARS = {int: (int, str), float: (float, repr)}
_OWNERS = {"scenario": ScenarioConfig, "control": ControlParams, "thresholds": ModeThresholds}

# key -> (owner, parser, formatter), in the order that summary.txt echoes
_KEYS = {f.name: (owner, *(_PAIR_KEYS.get(f.name) or _SCALARS[f.type]))
         for owner, cls in _OWNERS.items() for f in fields(cls)
         if f.name in _PAIR_KEYS or f.type in _SCALARS}


def config_to_lines(config: ScenarioConfig):
    """Serialize a config to the key=value line format (round-trips exactly)."""
    owners = {"scenario": config, "control": config.control, "thresholds": config.thresholds}
    return [f"{key} = {fmt(getattr(owners[owner], key))}"
            for key, (owner, _, fmt) in _KEYS.items()]


def config_from_lines(lines):
    """Parse the key=value line format into a ScenarioConfig.

    Unknown and repeated keys raise :class:`ConfigError`; unspecified keys
    keep their defaults.
    """
    kwargs = {owner: {} for owner in _OWNERS}
    seen = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if seen.setdefault(key, lineno) != lineno:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} (first on line {seen[key]})")
        owner, parse, _ = _KEYS[key]
        try:
            kwargs[owner][key] = parse(value)
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise ConfigError(f"line {lineno}: {exc}") from exc
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {value!r}") from exc
    try:
        return ScenarioConfig(control=ControlParams(**kwargs["control"]),
                              thresholds=ModeThresholds(**kwargs["thresholds"]),
                              **kwargs["scenario"])
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_lines(fh.read().splitlines())


def save_config(config: ScenarioConfig, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(config_to_lines(config)) + "\n")
