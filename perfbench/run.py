"""Benchmark of the adhocmimo simcli scenarios, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of ber-validate, dprc-sweep, or `all` to run each in
turn. Every scenario runs in a fresh interpreter
(perfbench/child.py) against the package sources under src/, with BLAS and
OpenMP pinned to one thread.

--trace 0 measures the end-to-end metrics with tracing off. A few fresh
interpreters stop where the scenario would start, to time set-up; then one
interpreter runs the scenario on the same inputs again and again for the
rest of the S seconds. The run reports the mean time of those repetitions
after the first, which warms up (README.md says why), and the median set-up
time. --trace 1 runs the scenario untraced at the workload's --jobs and at
the other --jobs setting, then traced and untraced at --jobs 1 in turn, and
reports the per-layer metrics of perfbench/tracer.py plus the tracing
overhead.

Every run's outputs are checked (workloads.py) and digested without the
nondeterministic runtime_ms column; every repetition and every traced run
must reproduce the first digest. A run record with the host, versions,
seeds, digests and a host-drift probe goes to perfbench/work/records/. The
last line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from calib import NOMINAL_S
from workloads import WORKLOADS, CheckResult, Workload, check_outputs, digest_outputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "data" / "tables"
WORK = BENCH / "work"

SETUP_SAMPLES = 4         # set-up-only interpreters per untraced run, besides the timed one
MIN_LOOP_S = 5.0          # the timed loop's least length, whatever --seconds says
CHILD_TIMEOUT_S = 150.0
RUN_BUDGET_S = 120.0      # stop repeating invocations past this, whatever --seconds says
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (
    ("scaled_wall_s", "s"),
    ("scaled_items_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Invocation:
    jobs: int
    traced: bool
    setup_s: float = float("nan")
    wall_s: float = float("nan")
    peak_rss_mb: float = 0.0
    cpu_s: float = 0.0
    digest: str | None = None
    files: dict[str, str] = field(default_factory=dict)
    out_bytes: int = 0
    check: CheckResult = field(default_factory=CheckResult)
    versions: dict = field(default_factory=dict)
    trace: dict | None = None
    rep_times_s: list[float] = field(default_factory=list)   # warm-up first
    rep_failed: int = 0          # items of repetitions that differ from the first
    cal_times_s: list[float] = field(default_factory=list)   # a pass after each repetition

    @property
    def items_run(self) -> int:
        return max(1, len(self.rep_times_s))

    @property
    def failed(self) -> int:
        """Failed items over all the repetitions of this invocation."""
        return self.check.failed * self.items_run + self.rep_failed

    def record(self) -> dict:
        return {
            "jobs": self.jobs, "traced": self.traced, "setup_s": self.setup_s,
            "wall_s": self.wall_s, "cpu_s": self.cpu_s, "peak_rss_mb": self.peak_rss_mb,
            "sha256": self.digest, "files_sha256": self.files,
            "failed": self.check.failed, "notes": self.check.notes,
            "quality": self.check.quality, "rep_times_s": self.rep_times_s,
            "cal_times_s": self.cal_times_s,
        }


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(req: dict, req_path: Path) -> tuple[float, dict, str]:
    """Run child.py on one request; return (spawn time, result, stderr)."""
    req_path.write_text(json.dumps(req))
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), str(req_path)],
        cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # the child and its pool workers
        _, err = proc.communicate()
        err = f"timed out after {CHILD_TIMEOUT_S} s\n{err}"
    result_path = Path(str(req_path) + ".result")
    result = json.loads(result_path.read_text()) if result_path.exists() else {"ok": False}
    if proc.returncode != 0:
        result["ok"] = False
    return t_spawn, result, err + result.get("error", "")


def _invoke(workload: Workload, seed: int, jobs: int, traced: bool, work: Path,
            idx: int, repeat_s: float = 0.0, setup_only: bool = False) -> Invocation:
    """One child interpreter: a single scenario run, a timed loop of
    repetitions (repeat_s > 0), or set-up alone (setup_only)."""
    inv = Invocation(jobs=jobs, traced=traced)
    out = work / f"inv{idx}"
    trace_path = work / f"inv{idx}.spans.json"
    req = {"argv": workload.argv(seed, jobs, out),
           "stage_from": str(FIXTURES) if workload.stage_tables else None,
           "trace_path": str(trace_path) if traced else None,
           "run_id": f"{workload.name}-seed{seed}-inv{idx}",
           "repeat_s": repeat_s, "setup_only": setup_only}
    t_spawn, result, err = _spawn(req, work / f"inv{idx}.json")
    inv.peak_rss_mb = result.get("peak_rss_mb", 0.0)
    inv.cpu_s = result.get("cpu_s", 0.0)
    inv.versions = result.get("versions", {})
    if not result["ok"]:
        inv.check.fail(workload.items, f"scenario failed: {err.strip()[-2000:]}")
        return inv
    inv.setup_s = result["t_start"] - t_spawn
    inv.wall_s = result["t_end"] - result["t_start"]
    if setup_only:
        shutil.rmtree(out, ignore_errors=True)
        return inv
    checked = out / result.get("out_subdir", "")
    try:
        inv.digest, inv.files, inv.out_bytes = digest_outputs(checked, result["outputs"])
        inv.check = check_outputs(workload, checked, FIXTURES)
    except Exception:
        # malformed output of any kind fails the invocation, not the benchmark
        inv.check.fail(workload.items, f"unreadable output: {traceback.format_exc()}")
    if "rep_times_s" in result:
        inv.rep_times_s = result["rep_times_s"]
        inv.cal_times_s = result["cal_times_s"]
        differing = sum(d != inv.digest for d in result["rep_digests"][1:])
        if differing:
            inv.rep_failed = workload.items * differing
            inv.check.notes.append(f"{differing} repetitions differ from the first one")
    if traced:
        inv.trace = json.loads(trace_path.read_text())
    shutil.rmtree(out, ignore_errors=True)
    return inv


def _require_same(inv: Invocation, ref: Invocation, workload: Workload, what: str) -> None:
    """Fail every item of inv when its outputs differ from ref's."""
    if inv.digest is not None and ref.digest is not None and inv.digest != ref.digest:
        differing = sorted(k for k in inv.files if inv.files[k] != ref.files.get(k))
        inv.check.fail(workload.items - inv.check.failed,
                       f"{what}: outputs differ ({', '.join(differing[:5])})")


# ---------------------------------------------------------------------------
# host context

def _drift_probe() -> float:
    """Fixed pure-Python work, median of three timings (s). Context only: it
    shows how fast the host ran during the run, it is not a metric."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(400_000):
            x = (x * 31 + i) & 0xFFFFFFFF
        hashlib.sha256(b"\0" * (1 << 22)).digest()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs of this machine, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            vals = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (vals[7] if len(vals) > 7 else 0), sum(vals)


def _host() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "adhocmimo").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": cpu, "nproc": os.cpu_count(),
        "platform": platform.platform(), "git_commit": commit,
        "src_sha256": src_hash.hexdigest(), "thread_env": THREAD_ENV,
    }


# ---------------------------------------------------------------------------
# one run

def _scaled_wall(loop: Invocation) -> float:
    """Scenario time per repetition, rescaled to the host speed at which one
    calibration pass takes calib.NOMINAL_S: the total time of the timed
    repetitions (all but the first, which warms up) over the total of the
    passes around each of them (the mean of the pass just before it and the
    one just after), times NOMINAL_S."""
    cal = loop.cal_times_s
    reps = range(1, len(loop.rep_times_s))
    gauged = sum(0.5 * (cal[i - 1] + cal[i]) for i in reps)
    return NOMINAL_S * sum(loop.rep_times_s[i] for i in reps) / gauged


def _loop_summary(loop: Invocation) -> dict:
    """The timed loop's spread, for the record and the printout."""
    return {
        "repetitions_timed": len(loop.rep_times_s) - 1,
        "wall_s_mean": statistics.mean(loop.rep_times_s[1:]),
        "wall_s_median": statistics.median(loop.rep_times_s[1:]),
        "wall_s_min": min(loop.rep_times_s[1:]),
        "calibration_s_median": statistics.median(loop.cal_times_s),
        "calibration_nominal_s": NOMINAL_S,
    }


def run_workload(workload: Workload, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; return (result line, run record)."""
    work = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    t_begin = time.monotonic()
    probe_start = _drift_probe()
    ticks0 = _cpu_ticks()
    invs: list[Invocation] = []
    setups: list[Invocation] = []   # set-up-only interpreters (--trace 0)

    def invoke(jobs: int, traced: bool, repeat_s: float = 0.0) -> None:
        inv = _invoke(workload, seed, jobs, traced, work, len(invs) + len(setups), repeat_s)
        if invs:
            _require_same(inv, invs[0], workload,
                          f"--jobs {jobs}{' traced' if traced else ''} against the first run")
        invs.append(inv)
        if traced:   # keep the spans of the fastest traced run only
            kept = [i for i in invs if i.trace is not None]
            best = min(kept, key=lambda i: i.wall_s, default=None)
            for i in kept:
                if i is not best:
                    i.trace = None

    try:
        if trace:
            invoke(workload.jobs, False)
            # the twin runs the other --jobs setting: fan-out must not change outputs
            invoke(1 if workload.jobs > 1 else 2, False)
            t_measure = time.monotonic()
            rounds = 0
            while True:
                invoke(1, True)
                invoke(1, False)
                rounds += 1
                used = time.monotonic() - t_measure
                if used * (1 + 1 / rounds) > seconds or \
                        time.monotonic() - t_begin + used / rounds > RUN_BUDGET_S:
                    break
        else:
            for _ in range(SETUP_SAMPLES):
                setups.append(_invoke(workload, seed, workload.jobs, False, work,
                                      len(setups), setup_only=True))
            # one interpreter repeats the scenario for the rest of the run
            left = seconds - (time.monotonic() - t_begin)
            invoke(workload.jobs, False, repeat_s=min(max(left, MIN_LOOP_S), RUN_BUDGET_S))
    finally:
        ticks1 = _cpu_ticks()
        probe_end = _drift_probe()
        shutil.rmtree(work, ignore_errors=True)

    failed_setups = [inv for inv in setups if inv.check.failed]
    attempted = sum(workload.items * inv.items_run for inv in invs + failed_setups)
    failed = sum(inv.failed for inv in invs + failed_setups)
    ok = [inv for inv in invs if inv.failed == 0]
    untraced = [inv for inv in ok if not inv.traced]
    metrics: dict[str, dict] = {}
    if trace:
        from tracer import LAYER_METRICS, layer_metrics

        traced = [inv for inv in ok if inv.trace is not None]
        at_jobs = [inv.wall_s for inv in untraced if inv.jobs == workload.jobs]
        serial = [inv.wall_s for inv in untraced if inv.jobs == 1]
        if traced and at_jobs and serial:
            best = min(traced, key=lambda inv: inv.wall_s)
            values = layer_metrics(
                best.trace, wall_s=min(at_jobs), serial_wall_s=min(serial),
                traced_wall_s=best.wall_s, jobs=workload.jobs, out_bytes=best.out_bytes,
            )
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in LAYER_METRICS}
    elif untraced and not failed_setups:
        loop = untraced[0]
        wall = _scaled_wall(loop)
        values = {
            "scaled_wall_s": wall,
            "scaled_items_per_s": workload.items / wall,
            "setup_s": statistics.median([inv.setup_s for inv in setups + [loop]]),
            "peak_rss_mb": loop.peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    steal = ticks1[0] - ticks0[0]
    total = ticks1[1] - ticks0[1]
    line = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics}
    record = {
        "workload": workload.name, "scenario": workload.scenario,
        "argv": workload.argv(seed, workload.jobs, Path("OUT")),
        "seed": seed, "table_seed": seed if workload.scenario == "rate-table" else None,
        "trace": int(trace), "seconds": seconds,
        "host": _host(), "versions": next((i.versions for i in invs if i.versions), {}),
        "drift_probe_s": {"start": probe_start, "end": probe_end},
        "host_steal_frac": steal / total if total else 0.0,
        "timed_loop": _loop_summary(untraced[0]) if untraced and not trace else None,
        "invocations": [inv.record() for inv in setups + invs],
        "quality": invs[0].check.quality if invs else {},
        "result": line,
    }
    return line, record


def _write_record(record: dict) -> Path:
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = records / (f"{stamp}-{record['workload']}-seed{record['seed']}"
                      f"-trace{record['trace']}-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def _print_summary(record: dict, record_path: Path) -> None:
    line = record["result"]
    invs = record["invocations"]
    print(f"== {record['workload']} (simcli {record['scenario']}) seed={record['seed']} "
          f"trace={record['trace']} invocations={len(invs)}")
    for name, m in line["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    frac = line["failed"] / line["attempted"] if line["attempted"] else float("nan")
    print(f"  {'failed_frac':<44} {frac:>14.6g} ratio "
          f"({line['failed']}/{line['attempted']} items)")
    for name, (value, unit) in record["quality"].items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    loop = record["timed_loop"]
    if loop:
        print(f"  measured, not rescaled: {loop['repetitions_timed']} repetitions, mean "
              f"{loop['wall_s_mean']:.4f} s, median {loop['wall_s_median']:.4f} s, "
              f"fastest {loop['wall_s_min']:.4f} s; calibration pass median "
              f"{loop['calibration_s_median']:.4f} s (nominal {NOMINAL_S} s)")
    drift = record["drift_probe_s"]
    busy = [f"{i['cpu_s'] / (i['setup_s'] + i['wall_s']):.2f}"
            for i in invs if math.isfinite(i["wall_s"])]
    print(f"  host: drift probe {drift['start']:.4f} s -> {drift['end']:.4f} s, "
          f"steal {100 * record['host_steal_frac']:.2f}%, cpu/wall {' '.join(busy)}")
    for note, count in Counter(n for inv in invs for n in inv["notes"]).items():
        print(f"  note: {note}" + (f" (x{count})" if count > 1 else ""))
    print(f"  record: {record_path.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "adhocmimo" / "experiments_cli.py").is_file() or not FIXTURES.is_dir():
        print(f"perfbench: no adhocmimo sources under {SRC} or fixtures under {FIXTURES}",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        line, record = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        _print_summary(record, _write_record(record))
        lines[name] = line
    print(json.dumps(lines if args.workload == "all" else lines[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
