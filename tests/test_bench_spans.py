"""Every function the benchmark's tracer wraps still exists.

``bench/spans.py`` names its targets as strings; a deleted or renamed
target would only fail once ``bench/run.py --trace 1`` installs the
tracer. The module is loaded from its file, unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", _SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize("mod_name, path, name", _spans(), ids=lambda v: str(v))
def test_span_target_exists(mod_name, path, name):
    mod = importlib.import_module(f"rayleighsums.{mod_name}")
    if "." in path:
        cls_name, attr = path.split(".")
        # the tracer reads the class __dict__, so an inherited or missing
        # method fails there; staticmethods count as they are stored
        assert attr in vars(getattr(mod, cls_name)), path
    else:
        assert callable(getattr(mod, path, None)), path
