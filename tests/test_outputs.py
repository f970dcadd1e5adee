import hashlib
from xml.dom import minidom

import numpy as np
import pytest

import mapflock.outputs as outputs
from mapflock.cli import cli_main
from mapflock.control import MODE_BRIDGE, MODE_DYNAMIC, MODE_STATIC
from mapflock.outputs import (
    TRAJECTORY_ROW,
    config_from_summary,
    fmt,
    metrics_header,
    read_csv,
    write_line_svg,
    write_metrics_csv,
    write_run_outputs,
    write_summary,
    write_trajectories_csv,
)
from mapflock.sim import run
from mapflock.world import ScenarioConfig


def rows_one_by_one(trajectory):
    """A trajectory's CSV lines, each field of each row formatted on its own."""
    lines = ["t,map_id,x,y,vx,vy,mode,alive"]
    for k, t in enumerate(trajectory.t):
        for i in range(trajectory.pos.shape[1]):
            (x, y), (vx, vy) = trajectory.pos[k, i], trajectory.vel[k, i]
            lines.append(",".join([fmt(t), str(i), fmt(x), fmt(y), fmt(vx), fmt(vy),
                                   str(trajectory.mode[k, i]),
                                   str(int(trajectory.alive[k, i]))]))
    return lines


@pytest.fixture(scope="module")
def result():
    cfg = ScenarioConfig(msds_per_cluster=30, map_count=12, t_end=3.0, seed=5)
    return run(cfg, record_trajectories=True)


class TestFormatting:
    def test_six_significant_digits(self):
        assert fmt(0.123456789) == "0.123457"
        assert fmt(1.0) == "1"
        assert fmt(0.5) == "0.5"
        assert fmt(1234567.0) == "1.23457e+06"

    def test_header_exact(self):
        assert metrics_header(4) == \
            "t,coverage_ratio,fiedler,alive,m0,m1,m2,rg_0,rg_1,rg_2,rg_3"


class TestMetricsCsv:
    def test_row_count(self, result, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, result)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(result.samples)   # header + one per sample
        assert lines[0] == metrics_header(4)

    def test_round_trip_values(self, result, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, result)
        names, cols = read_csv(path)
        assert names[0] == "t"
        np.testing.assert_allclose(cols["t"], [s.t for s in result.samples],
                                   atol=1e-6)
        np.testing.assert_allclose(
            cols["coverage_ratio"], [s.coverage_ratio for s in result.samples],
            atol=1e-6)
        np.testing.assert_array_equal(cols["alive"],
                                      [s.alive_count for s in result.samples])

    def test_byte_identical_rewrites(self, result, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_csv(a, result)
        write_metrics_csv(b, result)
        assert a.read_bytes() == b.read_bytes()


class TestTrajectoriesCsv:
    def test_header_and_row_count(self, result, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectories_csv(path, result)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,map_id,x,y,vx,vy,mode,alive"
        assert len(lines) == 1 + len(result.samples) * len(result.world.map_pos)

    def test_requires_recorded_run(self, tmp_path):
        cfg = ScenarioConfig(msds_per_cluster=10, map_count=4, t_end=0.5)
        bare = run(cfg)
        with pytest.raises(ValueError):
            write_trajectories_csv(tmp_path / "t.csv", bare)


class TestSummary:
    def test_final_values_match_last_csv_row(self, result, tmp_path):
        csv_path = tmp_path / "metrics.csv"
        write_metrics_csv(csv_path, result)
        summary_path = tmp_path / "summary.txt"
        write_summary(summary_path, result)
        _, cols = read_csv(csv_path)
        kv = dict(line.split(" = ", 1)
                  for line in summary_path.read_text().splitlines())
        assert float(kv["final_coverage_ratio"]) == cols["coverage_ratio"][-1]
        assert float(kv["final_fiedler"]) == cols["fiedler"][-1]
        assert int(kv["final_alive"]) == cols["alive"][-1]
        for k in range(4):
            assert float(kv[f"final_rg_{k}"]) == cols[f"rg_{k}"][-1]

    def test_config_echo_reproduces_run(self, result, tmp_path):
        path = tmp_path / "summary.txt"
        write_summary(path, result)
        cfg = config_from_summary(path)
        assert cfg == result.config
        again = run(cfg)
        assert again.final.coverage_ratio == result.final.coverage_ratio
        np.testing.assert_array_equal(again.world.map_pos, result.world.map_pos)

    def test_convergence_none_spelled_out(self, tmp_path):
        cfg = ScenarioConfig(msds_per_cluster=10, map_count=4, t_end=1.0)
        short = run(cfg)   # far shorter than the convergence window
        path = tmp_path / "summary.txt"
        write_summary(path, short)
        assert "convergence_time = none" in path.read_text().splitlines()


class TestRunBundle:
    def test_standard_files(self, result, tmp_path):
        paths = write_run_outputs(result, tmp_path / "bundle")
        names = sorted(p.split("/")[-1] for p in paths)
        assert names == ["metrics.csv", "summary.txt", "trajectories.csv"]
        for p in paths:
            assert (tmp_path / "bundle").joinpath(p.split("/")[-1]).exists()


class TestReadCsv:
    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="ragged"):
            read_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_csv(path)


    @pytest.mark.parametrize("text, where", [
        ("t,rc\n60,0.5\n\n780,nan\n", "line 4, column rc: 'nan' is not a finite number"),
        ("t,rc\n60,-inf\n", "line 2, column rc: '-inf' is not a finite number"),
        ("t,rc\n60,0.5\n780, x1 \n", "line 3, column rc: 'x1' is not a finite number"),
        ("t,rc\n60,0.5\n780\n", "line 3: ragged CSV row, 1 of 2 columns"),
        ("t,rc\n\n", "no data rows under the header"),
        ("t,a,a\n1,2,3\n2,4,5\n", "line 1: the header repeats column a"),
        ("\nt,rc,t\n1,2,3\n", "line 2: the header repeats column t"),
    ], ids=["nan", "inf", "word", "ragged", "header-only", "repeated", "repeated-x"])
    def test_bad_cell_named_in_one_line(self, tmp_path, text, where):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            read_csv(path)
        assert str(info.value) == f"{path}: {where}"


class TestSvg:
    def test_polyline_per_series(self, tmp_path):
        path = tmp_path / "plot.svg"
        x = np.linspace(0, 10, 50)
        write_line_svg(path, x, {"one": np.sin(x), "two": np.cos(x)})
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert ">one<" in text and ">two<" in text

    def test_constant_series_does_not_divide_by_zero(self, tmp_path):
        path = tmp_path / "flat.svg"
        write_line_svg(path, [0.0, 1.0], {"flat": [0.5, 0.5]})
        assert "nan" not in path.read_text().lower()

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_line_svg(tmp_path / "x.svg", [0.0, 1.0], {})

    def test_bytes_pinned(self, tmp_path):
        """The 800 x 500 chart of three series, a constant one among them, byte
        for byte: a change to the layout or the number format moves the digest."""
        path = tmp_path / "plot.svg"
        x = np.linspace(0.0, 12.0, 25)
        write_line_svg(path, x, {"coverage": np.sin(x) ** 2, "fiedler": 0.01 * x,
                                 "flat": [0.5] * 25}, x_label="t [s]")
        assert hashlib.sha256(path.read_bytes()).hexdigest() \
            == "ecffcecb89f7b125d2df52891d57991b7cd0ec121badc237a8d485f1fd3f2fff"

    def test_markup_in_column_names_is_escaped(self, tmp_path):
        """`mapflock plot` of a CSV whose column names hold XML markup writes a
        well-formed SVG that shows the names as written."""
        csv = tmp_path / "amp.csv"
        csv.write_text("t,a&b,c<d\n0,1,2\n1,3,4\n")
        out = tmp_path / "amp.svg"
        assert cli_main(["plot", str(csv), "--out", str(out)]) == 0
        texts = minidom.parse(str(out)).getElementsByTagName("text")
        labels = {node.firstChild.data for node in texts}
        assert {"t", "a&b", "c<d"} <= labels


class TestTrajectoryRows:
    VALUES = [-0.0, 5e-324, 1e21, 0.1 + 0.2, 123456.5]

    def test_row_format_matches_fmt(self):
        for value in self.VALUES:
            for field in (0, 2, 3, 4, 5):
                row = [0.25, 7, 1.5, -2.5, 3.0, -0.125, 2, 1]
                row[field] = value
                want = [fmt(row[0]), str(row[1]), *(fmt(v) for v in row[2:6]),
                        str(row[6]), str(row[7])]
                assert (TRAJECTORY_ROW % tuple(row)).rstrip("\n").split(",") == want

    def test_chunks_join_to_the_joined_rows(self, result, tmp_path, monkeypatch):
        chunks = []
        write_chunks = outputs._write_chunks

        def collect(path, parts):
            chunks.extend(parts)
            write_chunks(path, chunks)

        monkeypatch.setattr(outputs, "_write_chunks", collect)
        path = tmp_path / "traj.csv"
        write_trajectories_csv(path, result)
        # the header, then one write per sample
        assert len(chunks) == 1 + len(result.samples)
        assert all(chunk.count("\n") == len(result.world.map_pos) for chunk in chunks[1:])
        assert path.read_text().split("\n") == [*rows_one_by_one(result.trajectory), ""]

    def test_matches_rows_formatted_one_by_one(self, tmp_path):
        cfg = ScenarioConfig(msds_per_cluster=60, map_count=30, t_end=15.0, seed=1,
                             failures=((8.0, 0.5),))
        failed = run(cfg, record_trajectories=True)
        traj = failed.trajectory
        assert set(traj.mode[-1].tolist()) == {MODE_DYNAMIC, MODE_BRIDGE, MODE_STATIC}
        assert traj.alive[0].all() and not traj.alive[-1].all()
        path = tmp_path / "traj.csv"
        write_trajectories_csv(path, failed)
        assert path.read_text().split("\n") == [*rows_one_by_one(traj), ""]

    def test_unwritable_path(self, result, tmp_path):
        with pytest.raises(OSError, match="cannot write"):
            write_trajectories_csv(tmp_path / "missing" / "traj.csv", result)
