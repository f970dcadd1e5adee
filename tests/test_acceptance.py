"""End-to-end acceptance checks against the published experiment targets.

Each test prints a single PASS/FAIL line for its criterion (bypassing
pytest capture) and asserts the same condition. The expensive full-scale
runs (5 seeds x fleet sizes {40, 60, 80, 100}, plus failure injections)
are computed once and shared across criteria.
"""

import functools
import itertools
from dataclasses import replace

import numpy as np
import pytest

from mapflock.association import assign_msds, user_table
from mapflock.cli import cli_main
from mapflock.control import MODE_DYNAMIC, ControlParams
from mapflock.netgraph import cluster_mst, connected_components, fiedler_value
from mapflock.outputs import config_from_summary, metrics_header, read_csv
from mapflock.potentials import phi_action
from mapflock.sim import run
from mapflock.world import ScenarioConfig, agent_tree, save_config
from oracles import (
    attract_repulse,
    brute_force_mst_weight,
    dense_laplacian,
    power_score_assign,
    sigma_norm,
    upper_pairs,
)

SEEDS = (1, 2, 3, 4, 5)
BASE = ScenarioConfig()          # nominal scenario: 4 x 500 users, 60 s
R0 = BASE.thresholds.r0


@pytest.fixture
def report(capfd):
    """Print one PASS/FAIL line per criterion, visible despite capture."""
    def _report(num, ok, detail):
        line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


@functools.lru_cache(maxsize=None)
def fleet_run(count, seed):
    return run(replace(BASE, map_count=count, seed=seed),
               record_trajectories=(count == 100))


@functools.lru_cache(maxsize=None)
def failure_run(fraction, seed):
    return run(replace(BASE, map_count=80, seed=seed,
                       failures=((18.0, fraction),)))


def mean_final(metric, count):
    return float(np.mean([getattr(fleet_run(count, s).final, metric)
                          for s in SEEDS]))


class TestExperimentTargets:
    def test_criterion_1_nominal_coverage(self, report):
        rc100 = mean_final("coverage_ratio", 100)
        rc80 = mean_final("coverage_ratio", 80)
        ok = rc100 >= 0.93 and rc80 >= 0.93
        report(1, ok, f"mean final coverage 100 maps {rc100:.3f}, "
                      f"80 maps {rc80:.3f} (both >= 0.93)")

    def test_criterion_2_underprovisioned_coverage(self, report):
        rc40 = mean_final("coverage_ratio", 40)
        worst = [min(fleet_run(40, s).final.cluster_coverage) for s in SEEDS]
        ok = 0.55 <= rc40 <= 0.85 and all(w < R0 for w in worst)
        report(2, ok, f"40 maps mean final coverage {rc40:.3f} in [0.55, 0.85], "
                      f"worst cluster below {R0} in every seed")

    def test_criterion_3_connectivity_threshold(self, report):
        zeros = {n: [fleet_run(n, s).final.fiedler for s in SEEDS] for n in (40, 60)}
        means = {n: mean_final("fiedler", n) for n in (40, 60, 80, 100)}
        ok = (all(v == 0.0 for vals in zeros.values() for v in vals)
              and means[80] > 0.0 and means[100] > 0.0
              and all(means[a] <= means[b] + 1e-12
                      for a, b in itertools.pairwise((40, 60, 80, 100))))
        report(3, ok, "fiedler exactly 0 at 40/60 maps, positive mean at 80/100, "
                      "monotone in fleet size "
                      + "/".join(f"{means[n]:.4f}" for n in (40, 60, 80, 100)))

    def test_criterion_4_fiedler_magnitude(self, report):
        lam = mean_final("fiedler", 100)
        ok = 0.005 <= lam <= 0.06
        report(4, ok, f"100 maps mean final fiedler {lam:.4f} in [0.005, 0.06]")

    def test_criterion_5_failure_resilience(self, report):
        inj = int(round(18.0 / BASE.dt))      # sample index at injection time
        ok = True
        details = []
        for frac in (0.1, 0.5):
            finals, drops, rises = [], [], []
            for s in SEEDS:
                res = failure_run(frac, s)
                cov = np.array([x.coverage_ratio for x in res.samples])
                finals.append(cov[-1])
                drops.append(cov[inj + 1] - cov[inj])
                post = cov[inj + 1:]
                rises.append(cov[-1] - post.min())
            if frac == 0.5:
                lam_zero = all(failure_run(frac, s).final.fiedler == 0.0
                               for s in SEEDS)
                ok &= (np.mean(drops) < 0 and np.mean(finals) >= 0.75 and lam_zero)
                details.append(f"50%: drop {np.mean(drops):+.3f}, "
                               f"final {np.mean(finals):.3f} >= 0.75, fiedler 0")
            else:
                ok &= (np.mean(finals) >= 0.90 and np.mean(rises) >= 0.02)
                details.append(f"10%: final {np.mean(finals):.3f} >= 0.90, "
                               f"recovery {np.mean(rises):.3f} >= 0.02")
        report(5, ok, "; ".join(details))

    def test_criterion_6_property_suite(self, report):
        ok = True
        rng = np.random.default_rng(0)

        # sigma-norm gradient vs central finite differences
        for _ in range(100):
            v = rng.uniform(-50, 50, 2)
            _, grad = sigma_norm(v, 0.1)
            fd = np.array([(sigma_norm(v + h, 0.1)[0] - sigma_norm(v - h, 0.1)[0]) / 2e-6
                           for h in (np.array([1e-6, 0]), np.array([0, 1e-6]))])
            ok &= np.linalg.norm(grad - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))

        # action potential root and cutoff
        pp = ControlParams()
        ok &= abs(phi_action(pp.d_sigma, pp)) < 1e-12
        ok &= phi_action(pp.r_sigma, pp) == 0.0

        # Laplacian invariants and fiedler-value oracle
        for _ in range(100):
            n = int(rng.integers(2, 20))
            adj = (rng.random((n, n)) < 0.3).astype(float)
            adj = np.triu(adj, 1)
            adj += adj.T
            lap = dense_laplacian(adj)
            ok &= np.array_equal(lap, lap.T)
            ok &= np.allclose(lap.sum(1), 0.0)
            ok &= np.linalg.eigvalsh(lap)[0] >= -1e-9
            eig = np.sort(np.linalg.eigvals(lap).real)
            labels = connected_components(len(adj), *upper_pairs(adj))
            expect = eig[1] if labels.max() == 0 else 0.0
            ok &= abs(fiedler_value(n, upper_pairs(adj), lambda: labels) - expect) <= 1e-7

        # MST weight vs exhaustive spanning-tree enumeration
        for _ in range(50):
            k = int(rng.integers(2, 8))
            cent = rng.uniform(-100, 100, (k, 2))
            got = sum(w for *_, w in cluster_mst(range(k), cent))
            ok &= abs(got - brute_force_mst_weight(range(k), cent)) <= 1e-9 * max(1.0, got)

        # assignment vs nearest-in-range oracle + scale invariance
        for _ in range(500):
            msd = rng.uniform(-40, 40, (int(rng.integers(1, 12)), 2))
            maps = rng.uniform(-40, 40, (int(rng.integers(1, 8)), 2))
            alive = rng.random(len(maps)) > 0.25
            asg = assign_msds(user_table(msd), agent_tree(maps, alive), alive, 20.0, 24.0)
            other = power_score_assign(msd, maps, 20.0, alive, 7.0, 2.0, 24.0)
            ok &= np.array_equal(asg.owner, other.owner)
            for i in range(len(msd)):
                dist = np.sqrt(((msd[i] - maps) ** 2).sum(1) + 400.0)
                cand = [j for j in range(len(maps)) if alive[j] and dist[j] <= 24.0]
                best = min(cand, key=lambda j: (dist[j], j)) if cand else -1
                ok &= asg.owner[i] == best

        # mode trajectories absorbing over a full nominal run
        for modes in fleet_run(100, 1).trajectory.mode.T.tolist():
            settled = [m for m in modes if m != MODE_DYNAMIC]
            ok &= all(m == settled[0] for m in settled)
            if settled:
                first = modes.index(settled[0])
                ok &= all(m == MODE_DYNAMIC for m in modes[:first])

        # two agents relax to the design spacing within 5%
        params = ControlParams()
        pos = np.array([[0.0, 0.0], [22.0, 0.0]])
        vel = np.zeros((2, 2))
        for _ in range(600):
            f0 = attract_repulse(0, pos, np.zeros(2, int), [1], params)
            f1 = attract_repulse(1, pos, np.zeros(2, int), [0], params)
            vel += 0.05 * (np.stack([f0, f1]) - params.c2 * vel)
            pos += 0.05 * vel
        ok &= abs(np.linalg.norm(pos[1] - pos[0]) - params.d) <= 0.05 * params.d

        # same seed -> identical metric series
        cfg = replace(BASE, msds_per_cluster=30, map_count=12, t_end=3.0)
        a, b = run(cfg), run(cfg)
        ok &= [s.coverage_ratio for s in a.samples] == [s.coverage_ratio for s in b.samples]

        report(6, ok, "analytic oracles, graph/MST/assignment oracles, "
                      "absorbing modes, spacing, determinism")

    def test_criterion_7_cli_contract(self, tmp_path, report):
        cfg = replace(BASE, msds_per_cluster=30, map_count=12, t_end=3.0, seed=5)
        cfg_path = tmp_path / "scenario.cfg"
        save_config(cfg, cfg_path)
        out = tmp_path / "out"
        ok = cli_main(["run", str(cfg_path), "--out-dir", str(out)]) == 0
        names, cols = read_csv(out / "metrics.csv")
        ok &= ",".join(names) == metrics_header(4)
        echoed = config_from_summary(out / "summary.txt")
        ok &= echoed == cfg
        rerun = run(echoed)
        ok &= rerun.final.coverage_ratio == pytest.approx(
            cols["coverage_ratio"][-1], abs=1e-6)
        ok &= cli_main(["sweep-maps", str(cfg_path), "--counts", "8",
                        "--replicates", "1",
                        "--out-dir", str(tmp_path / "sm")]) == 0
        ok &= cli_main(["sweep-failure", str(cfg_path), "--fractions", "0.5",
                        "--at", "1.0", "--replicates", "1",
                        "--out-dir", str(tmp_path / "sf")]) == 0
        ok &= cli_main(["plot", str(out / "metrics.csv"),
                        "--cols", "coverage_ratio",
                        "--out", str(tmp_path / "p.svg")]) == 0
        ok &= (tmp_path / "p.svg").read_text().count("<polyline") == 1
        report(7, bool(ok), "run/sweep-maps/sweep-failure/plot from config files, "
                            "bit-exact CSV header, summary echo reproduces the run")

