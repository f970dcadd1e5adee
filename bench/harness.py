"""Measurement of one workload at one seed: jobs, timing, tracing and checks.

Imported only after the BLAS thread pin and the mapflock import in run.py.
"""

import copy
import io
import json
import os
import shutil
import statistics
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import mapflock.cli as cli
from mapflock.world import ScenarioConfig

from checks import check_outputs, check_sample, digests, summary_value
from spans import MemoryPeaks, SpanTracer
from workloads import config_text, step_count

BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = BENCH_DIR.parent / ".bench_work"

SPAN_TARGETS = (
    "association.assign_msds", "association.cluster_coverages",
    "world.load_config", "world.generate_scenario", "world.adjacency_matrix",
    "netgraph.connected_components", "netgraph.fiedler_value", "netgraph.cluster_mst",
    "control.flock_accelerations", "control.mode_switch", "control.select_bridge_edge",
    "potentials.phi_action", "potentials.sigma_grad_scale", "potentials.bump",
    "sim.run", "sim.step", "sim.measure", "sim.share_achieved_goals",
    "sim.euler_update", "sim.inject_failures", "sim.detect_convergence",
    "outputs.write_metrics_csv", "outputs.write_summary", "outputs.write_trajectories_csv",
    "cli.cli_main",
)
MEMORY_TARGETS = ("association.assign_msds", "world.adjacency_matrix",
                  "control.flock_accelerations", "netgraph.fiedler_value")


class Session:
    """One workload at one seed: its config files, its jobs and their tallies."""

    def __init__(self, workload, seed, work_dir):
        self.workload, self.seed, self.work_dir = workload, seed, work_dir
        self.jobs = {}
        mission = workload.settings
        setup = {**mission, "t_end": ScenarioConfig(**mission).dt}   # one step
        for kind, settings in (("mission", mission), ("setup", setup)):
            path = os.path.join(work_dir, f"{kind}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(config_text(settings, seed))
            expected = ScenarioConfig(seed=seed, **settings)
            self.jobs[kind] = (path, expected, step_count(expected.t_end, expected.dt))
        self.attempted = self.failed = 0
        self.problems = []
        self.digests = {}          # kind -> output digests of its first job
        self.final_coverage = None

    def job(self, kind, extra_check=None):
        """Run one job and check it; returns its wall seconds, or None if it failed."""
        path, expected, steps = self.jobs[kind]
        out_dir = os.path.join(self.work_dir, "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = ["run", path, "--seed", str(self.seed), "--out-dir", out_dir]
        if self.workload.trajectories:
            argv.append("--trajectories")
        self.attempted += 1
        log = io.StringIO()
        try:
            with redirect_stdout(log), redirect_stderr(log):
                start = time.perf_counter()
                code = cli.cli_main(argv)
                wall = time.perf_counter() - start
            if code != 0:
                problems = [f"exit code {code}: {log.getvalue().strip()}"]
            else:
                problems = check_outputs(out_dir, expected, steps, self.workload.trajectories)
                found = digests(out_dir)
                if found != self.digests.setdefault(kind, found):
                    problems.append("outputs differ from the first repeat's")
                if kind == "mission":
                    self.final_coverage = summary_value(out_dir, "final_coverage_ratio")
                if extra_check is not None:
                    problems += extra_check()
        except Exception:          # a job that raises is a failed job, not a crash
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            self.problems.append({"job": kind, "problems": problems})
            return None
        return wall


def timed_jobs(session, seconds, kinds):
    """Rounds of one job of each kind, back to back, until the next round
    would end past `seconds`; returns the wall seconds of each kind's jobs."""
    times = {kind: [] for kind in kinds}
    rounds = 0
    start = time.perf_counter()
    while True:
        for kind in kinds:
            wall = session.job(kind)
            if wall is not None:
                times[kind].append(wall)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return times


def memory_pass(session):
    with MemoryPeaks(MEMORY_TARGETS) as peaks:
        session.job("mission")
    return peaks


def traced_job(session):
    """One traced mission job. Its first and final samples are checked against
    the oracle: the final world is the run's, and the world at t = 0 is a copy
    of what generate_scenario returned."""
    capture = {"sim.run": lambda result: result,
               "world.generate_scenario": copy.deepcopy}
    with SpanTracer(SPAN_TARGETS, capture=capture) as tracer:
        def oracle_check():
            result = tracer.captured.get("sim.run")
            if result is None:          # sim.run is missing from the package
                return []
            comm_range = result.config.control.r
            problems = check_sample(result.world, result.final, comm_range)
            start = tracer.captured.get("world.generate_scenario")
            if start is not None:
                problems += check_sample(start, result.samples[0], comm_range)
            return problems
        wall = session.job("mission", extra_check=oracle_check)
    return tracer, wall


def metric(value, unit):
    return {"value": value, "unit": unit}


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def end_to_end(session, seconds):
    """Set-up and mission jobs alternate, so both see the same machine. The
    memory pass comes last: after tracemalloc has run, jobs in the same
    process were up to 30 % faster."""
    session.job("setup")           # untimed warm-up
    times = timed_jobs(session, seconds, ("setup", "mission"))
    runs, setup = times["mission"], times["setup"]
    peaks = memory_pass(session)
    metrics, samples = {}, {}
    if runs:
        metrics["run_s"] = metric(statistics.median(runs), "s")
        samples["run_s"] = {"n": len(runs), "quartiles": quartiles(runs)}
    if setup:
        metrics["setup_s"] = metric(statistics.median(setup), "s")
        samples["setup_s"] = {"n": len(setup), "quartiles": quartiles(setup)}
    if peaks.overall_bytes:
        metrics["peak_mem_mib"] = metric(peaks.overall_bytes / 2 ** 20, "MiB")
    if session.final_coverage is not None:
        metrics["final_coverage"] = metric(session.final_coverage, "ratio")
    return metrics, {"samples": samples}


def per_layer(session, seconds):
    """Untraced jobs for half the window, the traced job, then the memory pass
    (last, as in end_to_end)."""
    session.job("setup")           # untimed warm-up
    runs = timed_jobs(session, seconds / 2, ("mission",))["mission"]
    tracer, traced_wall = traced_job(session)
    peaks = memory_pass(session)
    metrics = {}
    for key in SPAN_TARGETS:
        if key in tracer.missing:
            continue
        durations = tracer.durations_ns[key]
        metrics[f"{key}.calls"] = metric(len(durations), "count")
        metrics[f"{key}.self_ms"] = metric(tracer.self_ns[key] / 1e6, "ms")
        metrics[f"{key}.p50_ms"] = metric(
            statistics.median(durations) / 1e6 if durations else 0.0, "ms")
    steps = tracer.durations_ns.get("sim.step")
    if steps:
        metrics["sim.step.p98_ms"] = metric(
            statistics.quantiles(steps, n=50)[-1] / 1e6 if len(steps) > 1 else steps[0] / 1e6,
            "ms")
    for key in MEMORY_TARGETS:
        if key not in peaks.missing:
            metrics[f"{key}.peak_mib"] = metric(peaks.peak_bytes[key] / 2 ** 20, "MiB")
    if runs and traced_wall is not None:
        untraced = statistics.median(runs)
        metrics["trace.overhead_pct"] = metric(100.0 * (traced_wall - untraced) / untraced, "%")
    missing = sorted(set(tracer.missing) | set(peaks.missing))
    return metrics, {"untraced_jobs": len(runs), "traced_run_s": traced_wall,
                     "missing": missing}


def baseline_comparison(workload, seed, found):
    """Whether this run's outputs equal those recorded in baseline.json."""
    with open(BENCH_DIR / "baseline.json", encoding="utf-8") as fh:
        recorded = json.load(fh)["digests"].get(workload, {}).get(str(seed))
    if recorded is None:
        return "not recorded"
    changed = sorted(name for name in recorded if found.get(name) != recorded[name])
    return "changed: " + ", ".join(changed) if changed else "same"


def bench(workload, seed, seconds, trace):
    """Run one workload; returns (report, result) where result is the contract object."""
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        session = Session(workload, seed, work_dir)
        measure = per_layer if trace else end_to_end
        metrics, details = measure(session, seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:        # another run's files are still there
            pass
    report = {
        "workload": workload.name, "seed": seed, "trace": trace,
        **details,
        "digests": session.digests.get("mission", {}),
        "outputs_vs_baseline": baseline_comparison(
            workload.name, seed, session.digests.get("mission", {})),
        "problems": session.problems,
    }
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }
    return report, result
