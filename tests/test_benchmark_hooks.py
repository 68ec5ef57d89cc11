"""The benchmark's span tracer wraps package functions by name; every name
it lists must still exist, or its traced run breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    targets = _load_tracer().TARGETS
    assert targets
    for _name, owner, attr, _measure in targets:
        module = importlib.import_module(f"adhocmimo.{owner}")
        assert callable(getattr(module, attr, None)), f"adhocmimo.{owner}.{attr}"
