"""The benchmark's span list names functions that exist in cpsforge.

perfbench/spans.py times each (module, attribute path) in SPANS by wrapping
it; a renamed function would only surface when the benchmark harness runs.
"""
import importlib
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402


@pytest.mark.parametrize("module,path", [(m, p) for m, p, _ in spans.SPANS])
def test_span_resolves(module, path):
    obj = importlib.import_module(f"cpsforge.{module}")
    for attr in path.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)
