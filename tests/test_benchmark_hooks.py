"""The benchmark's span tracer wraps package functions by name; every name
it lists must still exist, or its traced run breaks. The in-process A/B
timer imports a tree's package by path, so it must still run on this one."""

import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


def test_ab_timer_runs_this_tree_against_itself():
    script = ROOT / "scripts" / "ab_inprocess.py"
    done = subprocess.run(
        [sys.executable, str(script), str(ROOT), str(ROOT), "--pairs", "1", "--", "sinr-map"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert re.match(r"\s*new faster in [01] of 1 pairs;", done.stdout.splitlines()[-1])
