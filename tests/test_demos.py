"""Every name a demo or a README code block imports from mapflock exists
(neither is run), and the package exports the public names that the demos
and the README use."""

import ast
import importlib
import re
import types
from pathlib import Path

import pytest

import mapflock

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def mapflock_imports(source, filename):
    """(module, name) for each name that `source` imports from mapflock; name
    None for a plain ``import mapflock...``."""
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mapflock":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "mapflock")


# the package's non-underscore attributes other than its submodules: the
# names the README and the demos import
PUBLIC_NAMES = [
    "ControlParams", "MODE_NAMES", "ScenarioConfig", "bump", "load_config", "phi_action",
    "phi_uneven", "run", "save_config", "sigma_scalar",
]


def test_public_names():
    assert sorted(name for name, value in vars(mapflock).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)) \
        == PUBLIC_NAMES


def test_demos_found():
    assert len(DEMOS) >= 4


def assert_imports_resolve(source, filename):
    imports = list(mapflock_imports(source, filename))
    assert imports, f"{filename} imports nothing from mapflock"
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is None or hasattr(mod, name):
            continue
        try:
            importlib.import_module(f"{module}.{name}")   # a submodule
        except ImportError:
            pytest.fail(f"{filename}: cannot import {name!r} from {module!r}")


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    assert_imports_resolve(path.read_text(encoding="utf-8"), path.name)


def test_readme_imports_resolve():
    # every fenced python block of the README, such as its quick start
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    assert_imports_resolve("\n".join(blocks), README.name)
