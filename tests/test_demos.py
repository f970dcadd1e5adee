"""Every name a demo imports from mapflock exists (the demos are not run),
and the package exports the public names that the demos and the README use."""

import ast
import importlib
import types
from pathlib import Path

import pytest

import mapflock

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def mapflock_imports(path):
    """(module, name) for each name imported from mapflock; name None for
    a plain ``import mapflock...``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mapflock":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "mapflock")


# the package's non-underscore attributes other than its submodules
PUBLIC_NAMES = [
    "Assignment", "ConfigError", "ControlParams", "MODE_BRIDGE", "MODE_DYNAMIC", "MODE_NAMES",
    "MODE_STATIC", "MetricsSample", "ModeThresholds", "RunResult", "ScenarioConfig",
    "SimulationDiverged", "Trajectory", "World", "assign_msds", "bump", "cluster_coverages",
    "cluster_mst", "connected_components", "fiedler_value", "flock_accelerations",
    "generate_scenario", "inject_failures", "load_config", "measure", "mode_switch",
    "phi_action", "phi_uneven", "run", "save_config", "select_bridge_edge", "sigma_scalar",
    "step",
]


def test_public_names():
    assert sorted(name for name, value in vars(mapflock).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)) \
        == PUBLIC_NAMES


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = list(mapflock_imports(path))
    assert imports, f"{path.name} imports nothing from mapflock"
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is None or hasattr(mod, name):
            continue
        try:
            importlib.import_module(f"{module}.{name}")   # a submodule
        except ImportError:
            pytest.fail(f"{path.name}: cannot import {name!r} from {module!r}")
