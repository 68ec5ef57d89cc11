"""Run one simcli scenario in a fresh interpreter and report its timings.

Usage: python3 perfbench/child.py REQUEST.json

The request names the simcli arguments, the directory holding the rate-table
fixtures to stage (or null), for a traced run where to write the spans, and
`repeat_s`. The child resolves the spec through `adhocmimo.experiments_cli`,
stages the tables, stamps the end of set-up on the system-wide monotonic
clock and then:

- with `setup_only`, exits there;
- with `repeat_s` 0, runs `run_experiment` once;
- with `repeat_s` > 0, runs `run_experiment` on the same inputs again and
  again, each time into a fresh output directory with freshly staged tables,
  until `repeat_s` seconds are used (at least MIN_REPEATS times). Every
  repetition is timed on its own and followed by a calibration pass; the
  first repetition's outputs are kept for the parent to check, every later
  one is digested and must reproduce them.

It writes a result JSON next to the request. Set-up time is measured by the
parent from the moment it spawned this interpreter.
"""

import dataclasses
import json
import os
import resource
import shutil
import sys
import time
import traceback

MIN_REPEATS = 3


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, pool) / 1024.0


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _prepare(cli, spec, stage_from) -> None:
    """Stage the shipped rate tables where the scenario reads them."""
    if stage_from is None:
        return
    table_dir = spec.out_dir / "tables"
    table_dir.mkdir(parents=True, exist_ok=True)
    for n_rx in spec.n_rx_values:
        for name in spec.flag_names:
            fname = cli.table_filename(n_rx, name)
            shutil.copyfile(os.path.join(stage_from, fname), table_dir / fname)


def _repeat(cli, spec, req: dict, result: dict) -> None:
    """Time run_experiment again and again on the same inputs.

    The first repetition warms up; the peak RSS is taken right after it. A
    calibration pass (calib.py) follows every repetition, so each later one
    runs between two passes that gauge the host's speed around it."""
    from calib import calibrate
    from workloads import digest_outputs

    base = spec.out_dir
    times, digests, cal = [], [], []
    t_loop = time.monotonic()
    while True:
        out = base / f"rep{len(times)}"
        rep = dataclasses.replace(spec, out_dir=out)
        _prepare(cli, rep, req["stage_from"])
        t0 = time.perf_counter()
        outputs = cli.run_experiment(rep)
        times.append(time.perf_counter() - t0)
        rel = [str(p.relative_to(out)) for p in outputs]
        digests.append(digest_outputs(out, rel)[0])
        if len(times) == 1:
            result["outputs"] = rel
            result["out_subdir"] = out.name
            result["peak_rss_mb"] = _peak_rss_mb()
            calibrate()   # warms the calibration's own first calls up
        elif digests[-1] == digests[0]:
            shutil.rmtree(out)   # a differing repetition stays for inspection
        cal.append(calibrate())   # after repetition i, before repetition i + 1
        used = time.monotonic() - t_loop
        if len(times) >= MIN_REPEATS and used * (1 + 1 / len(times)) > req["repeat_s"]:
            break
    result["rep_times_s"] = times
    result["rep_digests"] = digests
    result["cal_times_s"] = cal


def main() -> int:
    req_path = sys.argv[1]
    with open(req_path) as fh:
        req = json.load(fh)
    result = {"ok": False}
    try:
        from adhocmimo import experiments_cli as cli

        spec = cli.spec_from_args(req["argv"])
        _prepare(cli, spec, req["stage_from"])
        result["t_start"] = time.monotonic()
        if req.get("setup_only"):
            result["t_end"] = result["t_start"]
            result["outputs"] = []
            result["ok"] = True
            return 0
        if req.get("repeat_s", 0) > 0:
            _repeat(cli, spec, req, result)
            result["t_end"] = time.monotonic()
            result["ok"] = True
            return 0
        tracer = None
        if req["trace_path"] is not None:
            from tracer import Tracer

            tracer = Tracer(req["run_id"])
            tracer.install()
        try:
            outputs = cli.run_experiment(spec)
        finally:
            result["t_end"] = time.monotonic()
            if tracer is not None:
                tracer.uninstall()
                tracer.dump(req["trace_path"])
        result["outputs"] = [str(p.relative_to(spec.out_dir)) for p in outputs]
        result["ok"] = True
    except Exception:
        result["error"] = traceback.format_exc()
        return 1
    finally:
        import numpy
        import scipy

        result.setdefault("peak_rss_mb", _peak_rss_mb())
        result.update(
            cpu_s=_cpu_s(),
            versions={
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            },
        )
        with open(req_path + ".result", "w") as fh:
            json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
