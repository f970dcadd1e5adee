"""Every function the benchmark traces still exists under its declared name.

`BENCHMARK.json` declares per-layer metrics named
``<module>.<function>.<stat>``. The trace binds its wrappers by those names,
so a function that is deleted or renamed does not fail the traced run: its
metrics just go missing from the result, which then no longer holds every
declared metric.
"""

import importlib
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def traced_functions():
    with open(BENCHMARK, encoding="utf-8") as fh:
        names = [metric["name"] for metric in json.load(fh)["per_layer"]]
    # `trace.overhead_pct` and the like measure the tracer, not a function
    return sorted({name.rsplit(".", 1)[0] for name in names if name.count(".") == 2})


def test_benchmark_declares_traced_functions():
    # an empty list would leave the check below with nothing to check
    assert traced_functions()


@pytest.mark.parametrize("target", traced_functions())
def test_traced_function_is_defined(target):
    module, function = target.split(".")
    assert callable(getattr(importlib.import_module(f"mapflock.{module}"), function, None)), \
        f"mapflock.{target} is traced by the benchmark but not defined"
