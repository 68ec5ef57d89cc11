"""Self-check of the benchmark itself.

Usage (from the repository root):

    python3 perfbench/selfcheck.py [--workload NAME ...]

For each workload it makes two traced runs at seed 0 and one at seed 1, and
checks that
- the exact per-layer counts (tracer.EXACT_METRICS) repeat identically;
- every run is correct, which includes the traced --jobs 1 outputs matching
  the untraced outputs at the workload's --jobs byte for byte;
- at seed 1 every output check still runs;
- rate-tables at the shipped table settings (2000 draws) reproduce
  tests/data/tables byte for byte at the fixture seed 0, and at seed 1 the
  byte comparison is reported as skipped;
and that BENCHMARK.json names exactly the metrics the benchmark emits.
Exits 1 when any of these fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import END_TO_END, ROOT, WORK, WORKLOADS, _invoke, run_workload
from tracer import EXACT_METRICS, LAYER_METRICS
from workloads import RATE_TABLES


def _check_manifest() -> list[str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, emitted in (("end_to_end", END_TO_END), ("per_layer", LAYER_METRICS)):
        declared = [(m["name"], m["unit"]) for m in doc[key]]
        if declared != list(emitted):
            problems.append(f"BENCHMARK.json {key} does not match the emitted metrics")
    if sorted(w["name"] for w in doc["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads do not match workloads.py")
    return problems


def _check_fixture_tables() -> list[str]:
    """Build the N1 rate tables at the shipped settings."""
    work = WORK / "selfcheck-fixture"
    work.mkdir(parents=True, exist_ok=True)
    problems = []
    try:
        for seed in (0, 1):
            inv = _invoke(RATE_TABLES, seed, RATE_TABLES.jobs, False, work, seed)
            skipped = any("comparison with the fixture skipped" in n for n in inv.check.notes)
            if inv.check.failed or skipped != (seed == 1):
                problems.append(f"rate-tables at fixture settings, seed {seed}: "
                                f"{inv.check.notes or 'byte comparison not skipped'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=list(WORKLOADS), default=list(WORKLOADS))
    args = parser.parse_args()
    problems = _check_manifest()
    problems += _check_fixture_tables()
    for name in args.workload:
        workload = WORKLOADS[name]
        runs = [run_workload(workload, seed, 1, trace=True) for seed in (0, 0, 1)]
        for seed, (line, record) in zip((0, 0, 1), runs):
            if not line["correct"]:
                notes = [n for inv in record["invocations"] for n in inv["notes"]]
                problems.append(f"{name} seed {seed}: not correct: {notes}")
        first, second = runs[0][0]["metrics"], runs[1][0]["metrics"]
        for metric in EXACT_METRICS:
            a = first.get(metric, {}).get("value")
            b = second.get(metric, {}).get("value")
            if a != b:
                problems.append(f"{name}: {metric} differs between traced runs: {a} != {b}")
        print(f"{name}: {len(EXACT_METRICS)} exact counts compared; "
              f"trace overhead {first.get('trace_overhead_frac', {}).get('value')}",
              flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
