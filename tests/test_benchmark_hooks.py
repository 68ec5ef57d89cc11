"""The benchmark's span tracer wraps package functions by name; every name
it lists must still exist, or its traced run breaks. The benchmark's own
output checks must accept what each workload's run writes. The in-process
A/B timer imports a tree's package by path, so it must still run on this
one."""

import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

from adhocmimo.experiments_cli import main

from conftest import CACHE_DIR, seed_tables

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # where dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    targets = _load("tracer").TARGETS
    assert targets
    for _name, owner, attr, _measure in targets:
        module = importlib.import_module(f"adhocmimo.{owner}")
        assert callable(getattr(module, attr, None)), f"adhocmimo.{owner}.{attr}"


@pytest.mark.parametrize("name", ["ber-validate", "dprc-sweep"])
def test_workload_outputs_pass_the_benchmarks_checks(tmp_path, name):
    # a run whose outputs check_outputs rejects fails the benchmark, so each
    # workload's own argv must write outputs it accepts in full
    workloads = _load("workloads")
    w = workloads.WORKLOADS[name]
    out = tmp_path / "out"
    if w.stage_tables:
        seed_tables(out)
    assert main(w.argv(0, 1, out)) == 0
    res = workloads.check_outputs(w, out, CACHE_DIR)
    assert res.failed == 0, res.notes


def test_ab_timer_runs_this_tree_against_itself():
    script = ROOT / "scripts" / "ab_inprocess.py"
    done = subprocess.run(
        [sys.executable, str(script), str(ROOT), str(ROOT), "--pairs", "1", "--", "sinr-map"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert re.match(r"\s*new faster in [01] of 1 pairs;", done.stdout.splitlines()[-1])


def test_ab_timer_refuses_a_process_pool():
    # process CPU time counts no pool worker: --jobs 2 used to print a few
    # ms per call and exit 0
    script = ROOT / "scripts" / "ab_inprocess.py"
    done = subprocess.run(
        [sys.executable, str(script), str(ROOT), str(ROOT), "--pairs", "1", "--",
         "sinr-map", "--jobs", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "--jobs 2 runs a process pool" in done.stderr
