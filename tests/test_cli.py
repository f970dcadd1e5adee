import gc
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

import mapflock
from mapflock.cli import _build_parser, cli_main
from mapflock.outputs import config_from_summary, read_csv
from mapflock.sim import SimulationDiverged
from mapflock.world import ScenarioConfig, generate_scenario, save_config


def run_under_address_limit(cfg, limit, tmp_path):
    """``mapflock run`` on `cfg` in a child process whose address space, and
    only its own, is limited to `limit` bytes; outputs go to tmp_path/out."""
    path = tmp_path / "limited.cfg"
    save_config(cfg, path)
    src = os.path.dirname(os.path.dirname(mapflock.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "mapflock", "run", str(path), "--out-dir", str(tmp_path / "out")],
        env=env, preexec_fn=limit_address_space, capture_output=True, text=True, timeout=120)


@pytest.fixture()
def config_path(tmp_path):
    cfg = ScenarioConfig(msds_per_cluster=30, map_count=12, t_end=3.0, seed=5)
    path = tmp_path / "scenario.cfg"
    save_config(cfg, path)
    return str(path)


class TestRunCommand:
    def test_writes_bundle(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli_main(["run", config_path, "--out-dir", str(out)])
        assert code == 0
        assert (out / "metrics.csv").exists()
        assert (out / "summary.txt").exists()
        assert not (out / "trajectories.csv").exists()
        assert "coverage_ratio=" in capsys.readouterr().out

    def test_trajectories_flag(self, config_path, tmp_path):
        out = tmp_path / "out"
        code = cli_main(["run", config_path, "--trajectories", "--out-dir", str(out)])
        assert code == 0
        assert (out / "trajectories.csv").exists()

    def test_job_leaves_no_argparse_cycles(self, config_path, tmp_path):
        # the parser is built once per process, so a job leaves none of its
        # reference cycles for the cyclic collector
        _build_parser()
        gc.collect()
        gc.disable()
        try:
            assert cli_main(["run", config_path, "--out-dir", str(tmp_path / "out")]) == 0
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = [obj for obj in gc.garbage if type(obj).__module__ == "argparse"]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == []

    def test_seed_override_recorded(self, config_path, tmp_path):
        out = tmp_path / "out"
        cli_main(["run", config_path, "--seed", "99", "--out-dir", str(out)])
        assert config_from_summary(out / "summary.txt").seed == 99

    def test_identical_invocations_byte_identical(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli_main(["run", config_path, "--out-dir", str(out1)])
        cli_main(["run", config_path, "--out-dir", str(out2)])
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()

    def test_missing_config_is_error(self, tmp_path, capsys):
        code = cli_main(["run", str(tmp_path / "nope.cfg")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_config_is_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("warp_drive = 9\n")
        code = cli_main(["run", str(bad)])
        assert code == 1
        assert "unknown key" in capsys.readouterr().err

    def test_config_hole_is_one_line_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("cluster_centers = 0,0; 0,0\n")
        assert cli_main(["run", str(bad), "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: cluster_centers must not repeat a centre\n"

    def test_removed_power_constant_is_one_line_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("eta = 3.5\n")
        assert cli_main(["run", str(bad), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "'eta'" in err
        assert not (tmp_path / "out").exists()

    def test_diverged_run_is_one_line_error(self, config_path, tmp_path, monkeypatch, capsys):
        def diverge(config, on_sample=None):
            raise SimulationDiverged("step 7: non-finite state at t=0.700")
        monkeypatch.setattr("mapflock.cli.run", diverge)
        code = cli_main(["run", config_path, "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == "error: step 7: non-finite state at t=0.700\n"
        assert not (tmp_path / "out").exists()

    def test_memory_error_is_one_line_error(self, config_path, tmp_path, monkeypatch, capsys):
        def exhaust(world, params):
            raise MemoryError()
        monkeypatch.setattr("mapflock.sim.observe", exhaust)
        code = cli_main(["run", config_path, "--out-dir", str(tmp_path / "out")])
        assert code == 1
        # 12 agents, 4 clusters of 30 users and 3.0 s at dt = 0.1
        assert capsys.readouterr().err == (
            "error: out of memory running 12 agents, 120 users and 30 steps; "
            "lower map_count, msds_per_cluster or t_end\n")
        assert not (tmp_path / "out").exists()

    def test_memory_error_in_a_sweep_is_one_line_error(self, config_path, tmp_path,
                                                       monkeypatch, capsys):
        def exhaust(config, rng):
            raise MemoryError()
        monkeypatch.setattr("mapflock.sim.generate_scenario", exhaust)
        code = cli_main(["sweep-maps", config_path, "--counts", "8",
                         "--replicates", "1", "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: out of memory running 8 agents, 120 users and 30 steps; "
            "lower map_count, msds_per_cluster or t_end\n")
        assert not any(path.is_file() for path in (tmp_path / "out").rglob("*"))

    def test_failed_recording_run_leaves_no_trajectory_file(self, config_path, tmp_path,
                                                             monkeypatch, capsys):
        out = tmp_path / "out"
        opened = []

        def diverge_after_one_sample(config, on_sample=None):
            on_sample(0, 0.0, generate_scenario(config, np.random.default_rng(config.seed)))
            opened.append((out / "trajectories.csv").is_file())
            raise SimulationDiverged("step 1: non-finite state at t=0.100")
        monkeypatch.setattr("mapflock.cli.run", diverge_after_one_sample)
        code = cli_main(["run", config_path, "--trajectories", "--out-dir", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: step 1: non-finite state at t=0.100\n"
        assert opened == [True]
        assert not (out / "trajectories.csv").exists()
        assert not out.exists()

    def test_failed_run_keeps_an_existing_out_dir_and_its_files(self, config_path, tmp_path,
                                                                monkeypatch, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")

        def diverge(config, on_sample=None):
            raise SimulationDiverged("step 1: non-finite state at t=0.100")
        monkeypatch.setattr("mapflock.cli.run", diverge)
        assert cli_main(["run", config_path, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == "error: step 1: non-finite state at t=0.100\n"
        assert sorted(path.name for path in out.iterdir()) == ["notes.txt"]
        assert (out / "notes.txt").read_text() == "kept\n"

    def test_failed_run_removes_only_the_directories_it_made(self, config_path, tmp_path,
                                                             monkeypatch):
        def diverge(config, on_sample=None):
            raise SimulationDiverged("step 1: non-finite state at t=0.100")
        monkeypatch.setattr("mapflock.cli.run", diverge)
        (tmp_path / "a").mkdir()
        assert cli_main(["run", config_path, "--out-dir", str(tmp_path / "a" / "b" / "c")]) == 1
        assert sorted(path.name for path in tmp_path.rglob("*")) == ["a", "scenario.cfg"]

    def test_out_dir_that_is_a_file_is_one_line_error(self, config_path, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        assert cli_main(["run", config_path, "--out-dir", str(afile)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {afile}: ")
        assert err.count("\n") == 1

    def test_out_dir_that_is_a_file_fails_before_the_run(self, config_path, tmp_path,
                                                           monkeypatch, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        runs = []
        monkeypatch.setattr("mapflock.cli.run", lambda config, on_sample=None: runs.append(config))
        assert cli_main(["run", config_path, "--out-dir", str(afile)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {afile}: ")
        assert err.count("\n") == 1
        assert runs == []
        assert afile.is_file()

    def test_fleet_too_large_for_memory_is_one_line_error(self, tmp_path):
        # two million agents over the default 60 m spawn square: the first
        # observation's pair search cannot fit under a 1 GiB address-space
        # limit, which only the child process gets
        proc = run_under_address_limit(ScenarioConfig(map_count=2_000_000), 1 << 30, tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert "map_count" in proc.stderr
        assert not (tmp_path / "out").exists()


class TestParser:
    """Each subcommand's options and their defaults."""

    @staticmethod
    def options(argv):
        args = vars(_build_parser().parse_args(argv))
        del args["command"]
        args.pop("handler", None)
        return args

    @pytest.mark.parametrize("argv, want", [
        (["run", "cfg"], dict(config="cfg", seed=None, out_dir="out", trajectories=False)),
        (["run", "cfg", "--seed", "3", "--out-dir", "o", "--trajectories"],
         dict(config="cfg", seed=3, out_dir="o", trajectories=True)),
        (["sweep-maps", "cfg", "--counts", "8", "12"],
         dict(config="cfg", counts=[8, 12], replicates=5, seed=None, out_dir="out")),
        (["sweep-maps", "cfg", "--counts", "8", "--replicates", "2", "--seed", "3",
          "--out-dir", "o"], dict(config="cfg", counts=[8], replicates=2, seed=3, out_dir="o")),
        (["sweep-failure", "cfg", "--fractions", "0.5", "--at", "1"],
         dict(config="cfg", fractions=[0.5], at=1.0, replicates=5, seed=None, out_dir="out")),
        (["sweep-failure", "cfg", "--fractions", "0.1", "0.2", "--at", "3", "--replicates", "2",
          "--seed", "7", "--out-dir", "o"],
         dict(config="cfg", fractions=[0.1, 0.2], at=3.0, replicates=2, seed=7, out_dir="o")),
        (["plot", "a.csv", "--out", "b"], dict(csv="a.csv", out="b", cols=None)),
        (["plot", "a.csv", "--out", "b", "--cols", "t,fiedler"],
         dict(csv="a.csv", out="b", cols="t,fiedler")),
    ])
    def test_options_and_defaults(self, argv, want):
        assert self.options(argv) == want

    @pytest.mark.parametrize("command", ["run", "sweep-maps", "sweep-failure", "plot"])
    def test_help(self, command, capsys):
        assert cli_main([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: mapflock {command} ")

    @pytest.mark.parametrize("argv", [
        ["run", "cfg", "--replicates", "2"],
        ["plot", "a.csv", "--out", "b", "--seed", "1"],
        ["sweep-maps", "cfg", "--counts", "8", "--trajectories"],
    ])
    def test_another_commands_option(self, argv, capsys):
        assert cli_main(argv) == 2
        assert "unrecognized arguments: " in capsys.readouterr().err


class TestUsageErrors:
    def test_no_command(self):
        assert cli_main([]) == 2

    def test_unknown_command(self):
        assert cli_main(["frobnicate"]) == 2

    def test_missing_required_flag(self, config_path):
        assert cli_main(["sweep-maps", config_path]) == 2
        assert cli_main(["sweep-failure", config_path, "--fractions", "0.1"]) == 2

    @pytest.mark.parametrize("replicates", ["0", "-2"])
    def test_replicates_below_one(self, config_path, tmp_path, capsys, replicates):
        out_dir = tmp_path / "sweep"
        for argv in (["sweep-maps", config_path, "--counts", "10"],
                     ["sweep-failure", config_path, "--fractions", "0.1", "--at", "1"]):
            assert cli_main([*argv, "--replicates", replicates, "--out-dir", str(out_dir)]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: --replicates must be at least 1, got {replicates}\n"
            assert captured.out == ""
            assert not out_dir.exists()    # nothing ran

    def test_sweep_points_sharing_a_name(self, config_path, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        for argv, names in (
                (["sweep-maps", config_path, "--counts", "6", "8", "6"], "maps_6 maps_8 maps_6"),
                (["sweep-failure", config_path, "--fractions", "0.1", "0.1000001", "--at", "1"],
                 "failure_0.1 failure_0.1")):
            assert cli_main([*argv, "--out-dir", str(out_dir)]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: sweep point names must be distinct, got {names}\n"
            assert captured.out == ""
            assert not out_dir.exists()    # nothing ran

    def test_bad_sweep_point_writes_nothing(self, config_path, tmp_path, capsys):
        # the valid first point must not run before the bad second one is found
        out_dir = tmp_path / "sweep"
        for argv in (["sweep-maps", config_path, "--counts", "8", "0"],
                     ["sweep-failure", config_path, "--fractions", "0.5", "1.5", "--at", "1"]):
            assert cli_main([*argv, "--replicates", "1", "--out-dir", str(out_dir)]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert captured.out == ""
            assert not out_dir.exists()    # no point directory, no summary


class TestSweeps:
    def test_sweep_maps_layout(self, config_path, tmp_path):
        out = tmp_path / "sweep"
        code = cli_main(["sweep-maps", config_path, "--counts", "8", "12",
                         "--replicates", "2", "--out-dir", str(out)])
        assert code == 0
        summary = (out / "sweep_summary.txt").read_text().splitlines()
        kv = dict(line.split(" = ", 1) for line in summary)
        assert kv["maps_8.seeds"] == "5,6"
        assert 0.0 <= float(kv["maps_12.mean_final_coverage_ratio"]) <= 1.0
        for count in (8, 12):
            for seed in (5, 6):
                assert (out / f"maps_{count}" / f"seed_{seed}" / "metrics.csv").exists()

    def test_sweep_mean_matches_per_seed_finals(self, config_path, tmp_path):
        out = tmp_path / "sweep"
        cli_main(["sweep-maps", config_path, "--counts", "8",
                  "--replicates", "2", "--out-dir", str(out)])
        finals = []
        for seed in (5, 6):
            _, cols = read_csv(out / "maps_8" / f"seed_{seed}" / "metrics.csv")
            finals.append(cols["coverage_ratio"][-1])
        kv = dict(line.split(" = ", 1)
                  for line in (out / "sweep_summary.txt").read_text().splitlines())
        assert float(kv["maps_8.mean_final_coverage_ratio"]) == \
            pytest.approx(np.mean(finals), abs=1e-6)

    def test_sweep_failure_layout(self, config_path, tmp_path):
        out = tmp_path / "fail"
        code = cli_main(["sweep-failure", config_path, "--fractions", "0.5",
                         "--at", "1.0", "--replicates", "1", "--out-dir", str(out)])
        assert code == 0
        assert (out / "failure_0.5" / "seed_5" / "summary.txt").exists()
        cfg = config_from_summary(out / "failure_0.5" / "seed_5" / "summary.txt")
        assert cfg.failures == ((1.0, 0.5),)
        _, cols = read_csv(out / "failure_0.5" / "seed_5" / "metrics.csv")
        assert cols["alive"][-1] == 6   # half of 12 removed

    def test_unwritable_summary_is_one_line_error(self, config_path, tmp_path, capsys):
        out = tmp_path / "sweep"
        (out / "sweep_summary.txt").mkdir(parents=True)
        code = cli_main(["sweep-maps", config_path, "--counts", "8",
                         "--replicates", "1", "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: cannot write {out / 'sweep_summary.txt'}: ")
        assert err.count("\n") == 1
        # the summary is opened before the first run, so no run was made
        assert not any(path.is_file() for path in out.rglob("*"))

    def test_out_dir_under_a_file_is_one_line_error(self, config_path, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        code = cli_main(["sweep-maps", config_path, "--counts", "8",
                         "--replicates", "1", "--out-dir", str(afile / "x")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: cannot write {afile / 'x'}: ")
        assert err.count("\n") == 1


class TestPlot:
    def test_plot_from_run_output(self, config_path, tmp_path):
        out = tmp_path / "out"
        cli_main(["run", config_path, "--out-dir", str(out)])
        svg = tmp_path / "coverage.svg"
        code = cli_main(["plot", str(out / "metrics.csv"),
                         "--cols", "coverage_ratio,fiedler", "--out", str(svg)])
        assert code == 0
        text = svg.read_text()
        assert text.count("<polyline") == 2

    def test_plot_default_all_columns(self, config_path, tmp_path):
        out = tmp_path / "out"
        cli_main(["run", config_path, "--out-dir", str(out)])
        svg = tmp_path / "all.svg"
        cli_main(["plot", str(out / "metrics.csv"), "--out", str(svg)])
        names, _ = read_csv(out / "metrics.csv")
        assert svg.read_text().count("<polyline") == len(names) - 1

    def test_unknown_column_is_error(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        cli_main(["run", config_path, "--out-dir", str(out)])
        code = cli_main(["plot", str(out / "metrics.csv"),
                         "--cols", "bogus", "--out", str(tmp_path / "x.svg")])
        assert code == 1
        assert "unknown columns" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["t,rc\n60,nan\n780,nan\n", "t,rc\n", "t,rc\n60,abc\n",
                                      "t,a,a\n1,2,3\n2,4,5\n"],
                             ids=["nan", "header-only", "word", "repeated-column"])
    def test_bad_csv_is_one_line_error(self, tmp_path, capsys, text):
        csv, svg = tmp_path / "bad.csv", tmp_path / "bad.svg"
        csv.write_text(text)
        code = cli_main(["plot", str(csv), "--out", str(svg)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith(f"error: {csv}: ")
        assert not svg.exists()
