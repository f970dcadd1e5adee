"""Every name a demo imports from mapflock exists (the demos are not run)."""

import ast
import importlib
from pathlib import Path

import pytest

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
