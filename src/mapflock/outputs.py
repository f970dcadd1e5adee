"""Deterministic plain-text outputs: metrics CSV, key=value summary, SVG plots.

All numbers are written with 6 significant digits so identical runs
produce byte-identical files.
"""

import os

import numpy as np

from .world import ScenarioConfig, config_from_lines, config_to_lines


def fmt(x):
    """6-significant-digit decimal formatting."""
    return format(float(x), ".6g")


def metrics_header(n_clusters):
    return "t,coverage_ratio,fiedler,alive,m0,m1,m2," \
        + ",".join(f"rg_{k}" for k in range(n_clusters))


def write_metrics_csv(path, result):
    """One row per sample: time, global metrics, per-cluster coverage."""
    n_clusters = len(result.samples[0].cluster_coverage)
    lines = [metrics_header(n_clusters)]
    for s in result.samples:
        row = [fmt(s.t), fmt(s.coverage_ratio), fmt(s.fiedler),
               str(s.alive_count), *(str(c) for c in s.mode_counts),
               *(fmt(c) for c in s.cluster_coverage)]
        lines.append(",".join(row))
    _write_lines(path, lines)


# one trajectory row; "%.6g" formats a float as fmt does
TRAJECTORY_ROW = "%.6g,%d,%.6g,%.6g,%.6g,%.6g,%d,%d\n"


def write_trajectories_csv(path, result):
    """One row per agent and sample, written one sample at a time."""
    traj = result.trajectory
    if traj is None:
        raise ValueError("run was executed without trajectory recording")
    n = traj.pos.shape[1]
    t_field, agent_fields = TRAJECTORY_ROW.split(",", 1)
    values = [0] * (7 * n)         # a sample's agent fields, row after row
    values[0::7] = range(n)

    def samples():
        yield "t,map_id,x,y,vx,vy,mode,alive\n"
        for k, t in enumerate(traj.t.tolist()):
            values[1::7], values[2::7] = traj.pos[k].T.tolist()
            values[3::7], values[4::7] = traj.vel[k].T.tolist()
            values[5::7] = traj.mode[k].tolist()
            values[6::7] = traj.alive[k].tolist()
            yield ((t_field % t + "," + agent_fields) * n) % tuple(values)

    _write_chunks(path, samples())


def write_summary(path, result):
    """key=value summary: final metrics, convergence, and a config echo
    sufficient to reproduce the run exactly."""
    final = result.final
    lines = [
        f"final_coverage_ratio = {fmt(final.coverage_ratio)}",
        f"final_fiedler = {fmt(final.fiedler)}",
        f"final_alive = {final.alive_count}",
        f"convergence_time = "
        + (fmt(result.convergence_time) if result.convergence_time is not None else "none"),
        f"seed = {result.config.seed}",
    ]
    for k, cov in enumerate(final.cluster_coverage):
        lines.append(f"final_rg_{k} = {fmt(cov)}")
    lines.extend("config." + line for line in config_to_lines(result.config))
    _write_lines(path, lines)


def config_from_summary(path) -> ScenarioConfig:
    """Rebuild the exact run configuration from a summary's config echo."""
    with open(path, "r", encoding="utf-8") as fh:
        echo = [line[len("config."):] for line in fh.read().splitlines()
                if line.startswith("config.")]
    return config_from_lines(echo)


def write_run_outputs(result, out_dir):
    """Standard output bundle for one run; returns the file paths."""
    os.makedirs(out_dir, exist_ok=True)
    metrics = os.path.join(out_dir, "metrics.csv")
    summary = os.path.join(out_dir, "summary.txt")
    write_metrics_csv(metrics, result)
    write_summary(summary, result)
    paths = [metrics, summary]
    if result.trajectory is not None:
        traj = os.path.join(out_dir, "trajectories.csv")
        write_trajectories_csv(traj, result)
        paths.append(traj)
    return paths


def read_csv(path):
    """Parse a metrics-style CSV into (column names, dict of float arrays).

    No data rows, a header that repeats a column name, a ragged row or a
    cell that is not a finite number raise a one-line ``ValueError`` naming
    the path, and the line and column.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(no, line.split(",")) for no, line in enumerate(fh.read().splitlines(), 1)
                 if line.strip()]
    if len(lines) < 2:
        raise ValueError(f"{path}: {'no data rows under the header' if lines else 'empty CSV'}")
    (header, names), rows = lines[0], lines[1:]
    cols = {}
    for name in names:
        if name in cols:
            raise ValueError(f"{path}: line {header}: the header repeats column {name}")
        cols[name] = np.empty(len(rows))
    for r, (no, row) in enumerate(rows):
        if len(row) != len(names):
            raise ValueError(f"{path}: line {no}: ragged CSV row, "
                             f"{len(row)} of {len(names)} columns")
        for name, text in zip(names, row):
            try:
                cols[name][r] = float(text)
            except ValueError:
                cols[name][r] = np.nan
            if not np.isfinite(cols[name][r]):
                raise ValueError(f"{path}: line {no}, column {name}: "
                                 f"{text.strip()!r} is not a finite number")
    return names, cols


# XML text escapes, as xml.sax.saxutils.escape's, whose import loads urllib.request
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f")


def write_line_svg(path, x, series, x_label="t"):
    """Minimal SVG line chart: one polyline per series plus axes and legend;
    the series names and the x label are written as escaped XML text."""
    x = np.asarray(x, dtype=float)
    if not series:
        raise ValueError("nothing to plot")
    ml, mr, mt, mb = 60, 20, 20, 40
    pw, ph = 800 - ml - mr, 500 - mt - mb     # the plot area of the 800 x 500 canvas
    ys = np.concatenate([np.asarray(v, float) for v in series.values()])
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * pw

    def sy(v):
        return mt + ph - (v - y_lo) / (y_hi - y_lo) * ph

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="500" '
        'viewBox="0 0 800 500">',
        '<rect x="0" y="0" width="800" height="500" fill="white"/>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<text x="{ml + pw / 2}" y="{mt + ph + mb - 8}" text-anchor="middle" '
        f'font-size="14">{x_label.translate(_XML_TEXT)}</text>',
        f'<text x="{ml - 8}" y="{mt + ph}" text-anchor="end" font-size="12">{fmt(y_lo)}</text>',
        f'<text x="{ml - 8}" y="{mt + 12}" text-anchor="end" font-size="12">{fmt(y_hi)}</text>',
        f'<text x="{ml}" y="{mt + ph + 18}" text-anchor="middle" font-size="12">{fmt(x_lo)}</text>',
        f'<text x="{ml + pw}" y="{mt + ph + 18}" text-anchor="middle" font-size="12">{fmt(x_hi)}</text>',
    ]
    for idx, (name, y) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{sx(xv):.2f},{sy(yv):.2f}" for xv, yv in zip(x, np.asarray(y, float)))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{pts}"/>')
        parts.append(f'<text x="{ml + pw - 6}" y="{mt + 16 + 16 * idx}" text-anchor="end" '
                     f'font-size="12" fill="{color}">{name.translate(_XML_TEXT)}</text>')
    parts.append("</svg>")
    _write_lines(path, parts)


def _write_lines(path, lines):
    _write_chunks(path, ["\n".join(lines), "\n"])


def _write_chunks(path, chunks):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
