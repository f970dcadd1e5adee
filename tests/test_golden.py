"""Behaviour pin: sha256 of the output files of three short runs.

A change that alters any byte of `metrics.csv`, `summary.txt` or (for the
failure run) `trajectories.csv` fails here. Recording new digests is a
deliberate act: rerun with the new code, paste the values printed by

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md which output changed and why.
"""

import hashlib
import os
import sys
import tempfile

import pytest

from mapflock.cli import cli_main
from mapflock.world import ScenarioConfig, save_config

# three clusters 60 m apart with the fleet spawned between them: agents
# settle, bridge and (in "failure") lose half their number mid-run
_TRIANGLE = dict(cluster_centers=((0.0, 0.0), (60.0, 0.0), (0.0, 60.0)),
                 msds_per_cluster=60, cluster_sigma=6.0,
                 map_spawn_center=(30.0, 30.0), map_spawn_halfwidth=20.0)

CONFIGS = {
    # default four-cluster field, a 40-agent fleet travelling in from the spawn
    "nominal": (dict(msds_per_cluster=100, map_count=40, t_end=12.0, seed=3), False),
    "bridge": (dict(_TRIANGLE, map_count=24, t_end=6.0, seed=2), False),
    "failure": (dict(_TRIANGLE, map_count=24, t_end=6.0, seed=7,
                     failures=((3.0, 0.5),)), True),
}

GOLDEN = {
    "nominal": {
        "metrics.csv": "b54a1fc6999c70122e85df50a9630e2e60486ce9a0d30aee5960b84e31902b6a",
        "summary.txt": "4379385d3a473fd5cb557bff40b3012d48167060d7e8f521f47840260ac5fb64",
    },
    "bridge": {
        "metrics.csv": "34741202ef38952fa45c82897003528e3aa24ddb7670cae5169ff8a857e5c0bb",
        "summary.txt": "520961c9fb290fef4cd38c26b3382b0d0f67bcb50114312c4ac45d9a47afb6ea",
    },
    "failure": {
        "metrics.csv": "82e67b3047f8e1730e3c3be71d3c30255754b07a1f8f59d70c34ac0e2836109f",
        "summary.txt": "c1cf37863e41fee348379c128966046b7c9a4bf7c1195a85360556e9802187d8",
        "trajectories.csv": "11d7329d808af641a2c902774b481d6f876a2e139fba5d70b17b6134e41be6bb",
    },
}


def output_digests(name, work_dir):
    """Run config `name` through the CLI; sha256 of each file it wrote."""
    settings, trajectories = CONFIGS[name]
    config_path = os.path.join(work_dir, f"{name}.cfg")
    out_dir = os.path.join(work_dir, name)
    save_config(ScenarioConfig(**settings), config_path)
    argv = ["run", config_path, "--out-dir", out_dir]
    if trajectories:
        argv.append("--trajectories")
    assert cli_main(argv) == 0
    digests = {}
    for file in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, file), "rb") as fh:
            digests[file] = hashlib.sha256(fh.read()).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_golden_digests(name, tmp_path):
    assert output_digests(name, str(tmp_path)) == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        for config_name in CONFIGS:
            print(config_name, output_digests(config_name, work), file=sys.stderr)
