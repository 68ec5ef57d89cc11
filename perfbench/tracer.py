"""Outside-in tracing of the adhocmimo layers, from the benchmark's own files.

`Tracer.install` wraps the public functions listed in `TARGETS` at every
`adhocmimo` module attribute bound to them, which is where their callers
resolve them at call time (for example `adhocmimo.dprc.best_response_power`
or `adhocmimo.link_abstraction.erfc`). Each call records one span: name,
start, end and the index of the enclosing span. Spans stay in memory and are
written once, by `Tracer.dump`, after the scenario ends. `uninstall` puts every
original attribute back.

Functions called ~1e5 times or more per scenario (`sigmoid_utility`, `_q`)
are deliberately not wrapped; their cost lands in the parent span's self time.

`layer_metrics` turns a dumped trace into the per-layer metrics of the
benchmark. Self time is a span's duration minus the time covered by its
direct child spans; all wrapped calls run in one thread, so children nest
without overlap and that coverage is the sum of their durations.
"""

from __future__ import annotations

import json
import math
import sys
import time

import numpy as np


def _leading_rows(args, result):
    """Matrices solved: product of the batch dimensions of the first arg."""
    return math.prod(np.shape(args[0])[:-2])


def _allocations(args, result):
    """Power allocations evaluated: rows of a (K,) or (B, K) input."""
    return math.prod(np.shape(args[0])[:-1])


def _size_of_arg(args, result):
    return int(np.size(args[0]))


def _size_of_result(args, result):
    return int(result.size)


def _vectors(args, result):
    return int(result.n_vectors)


# (span name, defining module, attribute, per-call work measure or None)
# select_mode is defined by link_abstraction but is counted under dprc:
# DPRC's final mode pick is its only caller in the scenarios.
TARGETS = (
    ("experiments_cli.run_experiment", "experiments_cli", "run_experiment", None),
    ("link_abstraction.ber_end_to_end", "link_abstraction", "ber_end_to_end", None),
    ("link_abstraction.mmse_weights", "link_abstraction", "mmse_weights", _leading_rows),
    ("link_abstraction.erfc", "link_abstraction", "erfc", _size_of_arg),
    ("impairment_model.sinr_after_rfo", "impairment_model", "sinr_after_rfo", None),
    ("mc_oracle.simulate_link_ber", "mc_oracle", "simulate_link_ber", _vectors),
    ("rng.complex_normal", "rng", "complex_normal", _size_of_result),
    ("rng.substream", "rng", "substream", None),
    ("radio_env.sample_topology", "radio_env", "sample_topology", None),
    ("network_opt.maximize_sum_throughput", "network_opt", "maximize_sum_throughput", None),
    ("network_opt.sinr_in_all", "network_opt", "sinr_in_all", _allocations),
    ("dprc.run_dprc", "dprc", "run_dprc", None),
    ("dprc.stage1", "dprc", "stage1", None),
    ("dprc.stage2", "dprc", "stage2", None),
    ("dprc.best_response_power", "dprc", "best_response_power", None),
    ("dprc.select_mode", "link_abstraction", "select_mode", None),
)


class Tracer:
    """Span recorder for one scenario run; not thread-safe by design, since
    traced runs execute every item in the calling process (--jobs 1)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []          # [name, start, end, parent index]
        self.work: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list = []       # (module, attribute, original)

    def _wrap(self, name, fn, measure):
        spans, stack, work, clock = self.spans, self._stack, self.work, time.perf_counter
        work.setdefault(name, 0)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                work[name] += measure(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "adhocmimo" or n.startswith("adhocmimo."))
        ]
        for name, owner, attr, measure in TARGETS:
            original = getattr(sys.modules[f"adhocmimo.{owner}"], attr)
            wrapper = self._wrap(name, original, measure)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans, "work": self.work}, fh)


# ---------------------------------------------------------------------------
# per-layer metrics from a dumped trace

LAYER_METRICS = (
    ("experiments_cli.run_experiment.s", "s"),
    ("experiments_cli.self_s", "s"),
    ("experiments_cli.out_bytes", "bytes"),
    ("experiments_cli.fanout_eff", "ratio"),
    ("link_abstraction.ber_end_to_end.s", "s"),
    ("link_abstraction.ber_end_to_end.calls", "count"),
    ("link_abstraction.mmse_weights.s", "s"),
    ("link_abstraction.mmse_weights.calls", "count"),
    ("link_abstraction.mmse_weights.rows", "count"),
    ("link_abstraction.erfc.s", "s"),
    ("link_abstraction.erfc.elems", "count"),
    ("link_abstraction.kernel_self_s", "s"),
    ("impairment_model.sinr_after_rfo.calls", "count"),
    ("impairment_model.sinr_after_rfo.s", "s"),
    ("mc_oracle.simulate_link_ber.s", "s"),
    ("mc_oracle.simulate_link_ber.calls", "count"),
    ("mc_oracle.vectors_per_s", "1/s"),
    ("rng.complex_normal.s", "s"),
    ("rng.complex_normal.elems", "count"),
    ("rng.substream.calls", "count"),
    ("radio_env.sample_topology.s", "s"),
    ("radio_env.sample_topology.calls", "count"),
    ("network_opt.maximize_sum_throughput.s", "s"),
    ("network_opt.maximize_sum_throughput.calls", "count"),
    ("network_opt.maximize_sum_throughput.p50_ms", "ms"),
    ("network_opt.maximize_sum_throughput.p90_ms", "ms"),
    ("network_opt.sinr_in_all.calls", "count"),
    ("network_opt.sinr_in_all.rows", "count"),
    ("dprc.run_dprc.s", "s"),
    ("dprc.run_dprc.calls", "count"),
    ("dprc.stage1.s", "s"),
    ("dprc.stage2.s", "s"),
    ("dprc.best_response_power.s", "s"),
    ("dprc.best_response_power.calls", "count"),
    ("dprc.select_mode.calls", "count"),
    ("trace_overhead_frac", "ratio"),
)

# counts that must repeat exactly when the same code runs the same inputs
EXACT_METRICS = tuple(
    name for name, unit in LAYER_METRICS
    if unit in ("count", "bytes")
)


def _percentile(sorted_vals, q):
    """Nearest-rank percentile of an ascending list; 0 when empty."""
    if not sorted_vals:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_vals)))
    return sorted_vals[rank - 1]


def layer_metrics(trace: dict, *, wall_s: float, serial_wall_s: float,
                  traced_wall_s: float, jobs: int, out_bytes: int) -> dict[str, float]:
    """Per-layer values keyed by the names in LAYER_METRICS.

    wall_s and serial_wall_s are the fastest untraced scenario times at the
    workload's --jobs and at --jobs 1; traced_wall_s is the traced run's."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    for name, start, end, parent in spans:
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        durations.setdefault(name, []).append(dur)
        if parent >= 0:
            child_time[parent] += dur
    self_time: dict[str, float] = {}
    for (name, start, end, _), covered in zip(spans, child_time):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - covered

    out: dict[str, float] = {}
    for metric, _ in LAYER_METRICS:
        span, _, stat = metric.rpartition(".")
        if stat == "s":
            out[metric] = total.get(span, 0.0)
        elif stat == "calls":
            out[metric] = calls.get(span, 0)
        elif stat in ("rows", "elems"):
            out[metric] = trace["work"].get(span, 0)
        elif stat in ("p50_ms", "p90_ms"):
            vals = sorted(durations.get(span, []))
            out[metric] = 1e3 * _percentile(vals, 0.5 if stat == "p50_ms" else 0.9)
    run_s = total.get("experiments_cli.run_experiment", 0.0)
    cli_self = self_time.get("experiments_cli.run_experiment", 0.0)
    out["experiments_cli.self_s"] = cli_self
    out["experiments_cli.out_bytes"] = out_bytes
    # busy time of the items: everything below run_experiment, i.e. the part
    # a process pool could spread over the jobs, with the tracing overhead
    # taken out so that a serial run scores at most 1
    busy = (run_s - cli_self) * serial_wall_s / traced_wall_s
    out["experiments_cli.fanout_eff"] = busy / (jobs * wall_s)
    # the BER kernel's own axis-loop glue
    out["link_abstraction.kernel_self_s"] = self_time.get("link_abstraction.ber_end_to_end", 0.0)
    sim_s = total.get("mc_oracle.simulate_link_ber", 0.0)
    out["mc_oracle.vectors_per_s"] = (
        trace["work"].get("mc_oracle.simulate_link_ber", 0) / sim_s if sim_s else 0.0
    )
    out["trace_overhead_frac"] = traced_wall_s / serial_wall_s - 1.0
    return out
