"""Command-line front end: scenario orchestration and result persistence.

Each scenario writes CSV data files plus a manifest.json holding the fully
resolved configuration and seed, so any output can be reproduced from its
manifest alone. Nothing here contains method logic; it samples topologies,
drives the library modules over chunks of trials, and serializes.

Exit codes: 0 success, 1 usage error (bad flags or config file), 2 runtime
failure (such as a missing rate-table cache when building is not allowed).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .config import ConfigError, SystemParams, linear_to_db, db_to_linear, mw_to_dbm
from .dprc import DprcState, run_dprc
from .impairment_model import sinr_baseband
from .link_abstraction import (
    FLAG_SETS,
    ImpairmentFlags,
    RateTable,
    ber_end_to_end,
    build_rate_table,
    make_mod_scheme,
    table_build_key,
)
from .mc_oracle import OracleConfig, simulate_link_ber
from .network_opt import maximize_sum_throughput
from .radio_env import PAIR_MIN_M, sample_topology
from .rng import derive_seed, substream

class UsageError(Exception):
    pass


class RuntimeFailure(Exception):
    pass


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved run description; everything the manifest records."""

    scenario: str
    params: SystemParams
    k_values: tuple[int, ...]
    n_rx_values: tuple[int, ...]
    flag_names: tuple[str, ...]
    n_trials: int
    seed: int
    out_dir: Path
    jobs: int = 1
    build_tables: bool = False
    table_seed: int = 0
    table_draws: int = 2000
    trace_trials: int = 5

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise UsageError(f"unknown scenario: {self.scenario}")
        if self.n_trials < 1:
            raise UsageError("n_trials must be at least 1")
        if self.jobs < 1:
            raise UsageError("jobs must be at least 1")
        if min(self.k_values, default=1) < 1:
            raise UsageError("pair counts (--k) must be at least 1")
        if min(self.n_rx_values, default=1) < 1:
            raise UsageError("receive antenna counts (--nrx) must be at least 1")
        if self.seed < 0 or self.table_seed < 0:
            raise UsageError("--seed and --table-seed must be non-negative")
        if self.table_draws < 1:
            raise UsageError("--table-draws must be at least 1")
        unknown = [f for f in self.flag_names if f not in FLAG_SETS]
        if unknown:
            raise UsageError(f"unknown flag set: {unknown[0]}")
        # scenarios with pair counts draw topologies, whose pair distances
        # start at PAIR_MIN_M and must not reach below the path-loss model
        if SCENARIOS[self.scenario].k_values and self.params.d0_m > PAIR_MIN_M:
            raise UsageError(
                f"d0_m must not exceed the shortest pair distance {PAIR_MIN_M} m"
            )


def _fmt(x: float) -> str:
    return f"{float(x):.10g}"


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _manifest(spec: ExperimentSpec, outputs: list[str]) -> dict:
    return {
        "tool_version": __version__,
        "scenario": spec.scenario,
        "seed": spec.seed,
        "n_trials": spec.n_trials,
        "k_values": list(spec.k_values),
        "n_rx_values": list(spec.n_rx_values),
        "flag_sets": list(spec.flag_names),
        "jobs": spec.jobs,
        "table_seed": spec.table_seed,
        "table_draws": spec.table_draws,
        "trace_trials": spec.trace_trials,
        "params": spec.params.to_config_dict(),
        "outputs": sorted(outputs),
    }


# ---------------------------------------------------------------------------
# rate-table cache


def table_filename(n_rx: int, flag_name: str) -> str:
    return f"rates_N{n_rx}_{flag_name}.json"


def build_tables(spec: ExperimentSpec) -> list[Path]:
    """Build any missing or stale cached tables for the spec's axes.

    A cache file is fresh when its build block equals the table build key of
    the spec's parameters, table seed and draw count; fresh files are left
    untouched so rebuilds are idempotent and byte-stable.
    """
    table_dir = spec.out_dir / "tables"
    table_dir.mkdir(parents=True, exist_ok=True)
    want = table_build_key(spec.params, seed=spec.table_seed, n_draws=spec.table_draws)
    written = []
    for n_rx in spec.n_rx_values:
        for name in spec.flag_names:
            path = table_dir / table_filename(n_rx, name)
            if path.exists():
                try:
                    if RateTable.load(path).build_info == want:
                        continue
                except (ValueError, KeyError, json.JSONDecodeError):
                    pass
            table = build_rate_table(
                n_rx, FLAG_SETS[name], spec.params,
                seed=spec.table_seed, n_draws=spec.table_draws,
            )
            table.save(path)
            written.append(path)
    return written


def _load_tables(spec: ExperimentSpec) -> dict[tuple[int, str], RateTable]:
    """Load every table the scenario needs, building when allowed."""
    if spec.build_tables or spec.scenario == "rate-table":
        build_tables(spec)
    tables = {}
    missing = []
    want = table_build_key(spec.params, seed=spec.table_seed, n_draws=spec.table_draws)
    for n_rx in spec.n_rx_values:
        for name in spec.flag_names:
            path = spec.out_dir / "tables" / table_filename(n_rx, name)
            if not path.exists():
                missing.append(path)
                continue
            table = RateTable.load(path)
            if table.build_info != want:
                raise RuntimeFailure(
                    f"cached table {path} was built with different settings; "
                    "rerun with --build-tables to rebuild it"
                )
            tables[(n_rx, name)] = table
    if missing:
        paths = ", ".join(str(p) for p in missing)
        raise RuntimeFailure(
            f"missing rate table cache: {paths}; rerun with --build-tables"
        )
    return tables


# ---------------------------------------------------------------------------
# scenario workers (module-level so process pools can pickle them)

# members per batched GA or DPRC call: bounds a chunk's working set to a few MB
_CHUNK_MEMBERS = 64


def _map_tasks(fn, tasks: list, jobs: int) -> list:
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))


def _chunk_topologies(task: dict) -> list:
    k, params = task["k"], task["params"]
    return [
        sample_topology(k, params, substream(task["seed"], f"topology-k{k}", trial))
        for trial in task["trials"]
    ]


def _ga_reference(task: dict, topos: list, extra_seeds=None) -> tuple[list, float]:
    """One batched GA call over every (trial, table) member of a chunk.

    Flag sets share the GA seed of their (trial, K, n_rx), so loss shares
    compare the same search. Returns the sums as a (trials, tables) list
    and each member's equal share of the call's time (ms).
    """
    k, tables = task["k"], task["tables"]
    members = [
        (topo, table, derive_seed(task["seed"], f"ga-k{k}-n{n_rx}", trial))
        for trial, topo in zip(task["trials"], topos)
        for (n_rx, _), table in tables
    ]
    topo_m, table_m, seed_m = zip(*members)
    t0 = perf_counter()
    _, mst = maximize_sum_throughput(
        topo_m, table_m, task["params"], seed=seed_m, extra_seeds=extra_seeds
    )
    share_ms = (perf_counter() - t0) * 1e3 / len(members)
    return mst.reshape(len(topos), len(tables)).tolist(), share_ms


def _mst_chunk(task: dict) -> list[dict]:
    mst, share_ms = _ga_reference(task, _chunk_topologies(task))
    return [
        {
            "trial": trial,
            "k": task["k"],
            "results": [
                (n_rx, name, value, share_ms)
                for ((n_rx, name), _), value in zip(task["tables"], row)
            ],
        }
        for trial, row in zip(task["trials"], mst)
    ]


def _trace_rows(state: DprcState, table: RateTable) -> list[list]:
    """A traced member's trace CSV rows, one per (round, pair), converted to
    dBm and dB as whole (rounds, K) arrays."""
    _, _, p, sinr, r = (np.array(column) for column in zip(*state.history))
    with np.errstate(divide="ignore"):
        power_dbm = np.where(p > 0, mw_to_dbm(p), -np.inf).tolist()
        sinr_db = np.where(sinr > 0, linear_to_db(sinr), -np.inf).tolist()
    rate = [str(int(x)) for x in table.rates_by_index]
    return [
        [step, pair, _fmt(dbm), _fmt(db), rate[idx]]
        for step, row in enumerate(zip(power_dbm, sinr_db, r.tolist()))
        for pair, (dbm, db, idx) in enumerate(zip(*row))
    ]


def _dprc_chunk(task: dict) -> list[dict]:
    """One batched run_dprc call over every (trial, table) member of a
    chunk, then the GA reference on the same topologies. Members of the
    first trace_trials trials keep their per-round history for the trace
    CSVs; runtime_ms is each member's equal share of both calls."""
    k, tables = task["k"], task["tables"]
    topos = _chunk_topologies(task)
    members = [
        (trial, topo, key, table,
         substream(derive_seed(task["seed"], f"dprc-k{k}-n{key[0]}-{key[1]}"), "dprc", trial))
        for trial, topo in zip(task["trials"], topos)
        for key, table in tables
    ]
    trial_m, topo_m, _, table_m, rng_m = zip(*members)
    traced = [trial < task["trace_trials"] for trial in trial_m]
    t0 = perf_counter()
    states, dprc_bps = run_dprc(topo_m, table_m, task["params"], rng_m, trace=traced)
    dprc_ms = (perf_counter() - t0) * 1e3 / len(members)
    # centralized reference on the same topologies; warm-started with the
    # DPRC allocations so elitism guarantees distributed <= centralized
    mst, ga_ms = _ga_reference(task, topos, extra_seeds=[s.p for s in states])
    per_trial = {t: {"trial": t, "k": k, "results": [], "traces": {}} for t in task["trials"]}
    for (trial, _, key, table, _), state, is_traced, dprc, value in zip(
            members, states, traced, dprc_bps.tolist(), [v for row in mst for v in row]):
        per_trial[trial]["results"].append((*key, dprc, value, dprc_ms + ga_ms))
        if is_traced:
            per_trial[trial]["traces"][key] = _trace_rows(state, table)
    return list(per_trial.values())


def _ber_point(task: dict) -> dict:
    params, flags = task["params"], task["flags"]
    m, n, u, sinr_db = task["m"], task["n"], task["u"], task["sinr_db"]
    mod = make_mod_scheme(u)
    sinr = db_to_linear(sinr_db)
    rng = substream(task["seed"], f"ber-analytic-{m}-{n}-{u}-{flags.label()}",
                    task["index"])
    ber_a, se_a = ber_end_to_end(
        sinr, m, n, mod, flags, params, n_draws=task["n_draws"], rng=rng
    )
    # the oracle consumes the post-phase-noise SINR so the two paths share
    # the deterministic ICI stage and differ only in the BER machinery
    sinr_b = sinr_baseband(sinr, params.f_ici) if flags.phase_noise else sinr
    oracle = simulate_link_ber(
        OracleConfig(
            m=m, n=n, u=u, sinr_b=float(sinr_b),
            rfo=flags.rfo, imperfect_ce=flags.channel_est,
            n_symbols=task["n_symbols"], n_sub=params.ns,
            seed=derive_seed(task["seed"], f"ber-oracle-{m}-{n}-{u}", task["index"]),
        )
    )
    return {
        "key": (sinr_db, m, n, u, flags.label()),
        "analytic": (ber_a, se_a, task["n_draws"]),
        "oracle": (oracle.ber, oracle.stderr, oracle.n_bits),
    }


# ---------------------------------------------------------------------------
# scenarios


def _run_sinr_map(spec: ExperimentSpec) -> list[str]:
    grid_db = np.arange(-10.0, 60.0 + 1e-9, 0.5)
    sinr_b = sinr_baseband(db_to_linear(grid_db), spec.params.f_ici)
    rows = [
        [_fmt(s_in), _fmt(linear_to_db(s_b))]
        for s_in, s_b in zip(grid_db, sinr_b)
    ]
    _write_csv(spec.out_dir / "sinr_map.csv", ["sinr_in_db", "sinr_b_db"], rows)
    return ["sinr_map.csv"]


def _run_ber_validate(spec: ExperimentSpec) -> list[str]:
    flags = ImpairmentFlags(
        phase_noise=False,
        rfo="rfo" in spec.flag_names,
        channel_est="ce" in spec.flag_names,
    )
    tasks = []
    index = 0
    for n in spec.n_rx_values:
        for u in (1, 2, 4):
            for sinr_db in np.arange(0.0, 25.0 + 1e-9, 5.0):
                tasks.append(
                    {
                        "params": spec.params,
                        "m": n, "n": n, "u": u, "sinr_db": float(sinr_db),
                        "flags": flags,
                        "n_draws": 2000,
                        "n_symbols": 100_000,
                        "seed": spec.seed,
                        "index": index,
                    }
                )
                index += 1
    results = _map_tasks(_ber_point, tasks, spec.jobs)
    analytic_rows, oracle_rows = [], []
    for res in results:
        sinr_db, m, n, u, label = res["key"]
        ber, se, n_draws = res["analytic"]
        analytic_rows.append(
            [_fmt(sinr_db), m, n, u, label, _fmt(ber), _fmt(se), n_draws]
        )
        ber, se, n_bits = res["oracle"]
        oracle_rows.append(
            [_fmt(sinr_db), m, n, u, label, _fmt(ber), _fmt(se), n_bits]
        )
    _write_csv(
        spec.out_dir / "ber_analytic.csv",
        ["sinr_db", "m", "n", "u", "flags", "ber", "stderr", "n_draws"],
        analytic_rows,
    )
    _write_csv(
        spec.out_dir / "ber_oracle.csv",
        ["sinr_db", "m", "n", "u", "flags", "ber", "stderr", "n_bits"],
        oracle_rows,
    )
    return ["ber_analytic.csv", "ber_oracle.csv"]


def _run_rate_table(spec: ExperimentSpec) -> list[str]:
    build_tables(spec)
    # report every table on the axes, whether just built or already fresh
    return [
        str(Path("tables") / table_filename(n, f))
        for n in spec.n_rx_values
        for f in spec.flag_names
    ]


def _chunk_tasks(spec: ExperimentSpec, tables) -> list[dict]:
    """Contiguous chunks of trials of one K: one chunk per K at --jobs 1 and
    jobs chunks per K otherwise, split further so that no chunk's batched
    GA or DPRC call holds more than _CHUNK_MEMBERS (trial, table) members."""
    keyed = sorted(tables.items())
    size = min(-(-spec.n_trials // spec.jobs), _CHUNK_MEMBERS // len(keyed))
    size = max(size, 1)
    return [
        {
            "params": spec.params,
            "tables": keyed,
            "k": k,
            "trials": list(range(start, min(start + size, spec.n_trials))),
            "seed": spec.seed,
        }
        for k in spec.k_values
        for start in range(0, spec.n_trials, size)
    ]


def _flatten(chunks: list[list[dict]]) -> list[dict]:
    return [res for chunk in chunks for res in chunk]


def _aggregate(rows, value_idx: int):
    """Group rows by (k, n_rx, flag name) and average one value column."""
    groups: dict[tuple, list[float]] = {}
    for row in rows:
        groups.setdefault(row[:3], []).append(row[value_idx])
    out = []
    for key in sorted(groups):
        vals = np.array(groups[key])
        se = vals.std(ddof=1) / np.sqrt(len(vals)) if len(vals) > 1 else 0.0
        out.append(
            {
                "k": key[0],
                "n_rx": key[1],
                "flags": key[2],
                "mean_bps": float(vals.mean()),
                "se_bps": float(se),
                "n_trials": len(vals),
            }
        )
    return out


def _label(column: str, name: str) -> str:
    """A trial row's flag-set cell: the flag name, or whether it is impaired."""
    return name if column == "flags" else str(name != "ideal").lower()


def _loss_ratios(spec: ExperimentSpec, agg: list[dict]) -> list[dict]:
    """Each impaired flag set's share of the ideal mean sum throughput lost."""
    means = {
        (entry["k"], entry["n_rx"], entry["flags"]): entry["mean_bps"]
        for entry in agg
    }
    ratios = []
    for k in spec.k_values:
        for n_rx in spec.n_rx_values:
            ref = means.get((k, n_rx, "ideal"))
            if not ref:
                continue
            for name in spec.flag_names:
                if name == "ideal":
                    continue
                ratios.append(
                    {
                        "k": k,
                        "n_rx": n_rx,
                        "flags": name,
                        "loss_ratio": (ref - means[(k, n_rx, name)]) / ref,
                    }
                )
    return ratios


def _run_ga_sweep(spec: ExperimentSpec, *, stem: str, label: str,
                  loss_ratios: bool) -> list[str]:
    """GA sum throughput per trial into <stem>_trials.csv (label names the
    flag-set column) and the means, plus loss ratios if asked, into
    <stem>_aggregate.json."""
    tables = _load_tables(spec)
    results = _flatten(_map_tasks(_mst_chunk, _chunk_tasks(spec, tables), spec.jobs))
    csv_rows, flat = [], []
    for res in results:
        for n_rx, name, mst, runtime_ms in res["results"]:
            csv_rows.append(
                [
                    res["trial"], res["k"], n_rx, _label(label, name),
                    str(int(round(mst))), _fmt(runtime_ms),
                ]
            )
            flat.append((res["k"], n_rx, name, mst))
    trials, aggregate = f"{stem}_trials.csv", f"{stem}_aggregate.json"
    _write_csv(
        spec.out_dir / trials,
        ["trial_id", "K", "n_rx", label, "mst_bps", "runtime_ms"],
        csv_rows,
    )
    doc = {"mean_mst": _aggregate(flat, 3)}
    if loss_ratios:
        doc["loss_ratios"] = _loss_ratios(spec, doc["mean_mst"])
    _write_json(spec.out_dir / aggregate, doc)
    return [trials, aggregate]


def _run_dprc_sweep(spec: ExperimentSpec) -> list[str]:
    tables = _load_tables(spec)
    tasks = _chunk_tasks(spec, tables)
    for task in tasks:
        task["trace_trials"] = spec.trace_trials
    results = _flatten(_map_tasks(_dprc_chunk, tasks, spec.jobs))
    csv_rows, flat, outputs = [], [], []
    for res in results:
        for n_rx, name, dprc_bps, mst, runtime_ms in res["results"]:
            csv_rows.append(
                [
                    res["trial"], res["k"], n_rx, _label("impaired", name),
                    str(int(round(dprc_bps))), str(int(round(mst))),
                    _fmt(runtime_ms),
                ]
            )
            flat.append((res["k"], n_rx, name, dprc_bps))
        for (n_rx, name), rows in res["traces"].items():
            trace_name = f"dprc_trace_k{res['k']}_n{n_rx}_{name}_t{res['trial']}.csv"
            _write_csv(
                spec.out_dir / trace_name,
                ["iteration", "pair", "power_dbm", "sinr_db", "rate_bps"],
                rows,
            )
            outputs.append(trace_name)
    _write_csv(
        spec.out_dir / "dprc_trials.csv",
        [
            "trial_id", "K", "n_rx", "impaired",
            "dprc_bps", "mst_bps", "runtime_ms",
        ],
        csv_rows,
    )
    _write_json(
        spec.out_dir / "dprc_aggregate.json",
        {"mean_dprc": _aggregate(flat, 3)},
    )
    return ["dprc_trials.csv", "dprc_aggregate.json"] + outputs


class _Scenario(NamedTuple):
    k_values: tuple[int, ...]       # defaults, overridden by --k
    n_rx_values: tuple[int, ...]    # defaults, overridden by --nrx
    flag_names: tuple[str, ...]
    run: Callable[[ExperimentSpec], list[str]]


SCENARIOS = {
    "sinr-map": _Scenario((), (), (), _run_sinr_map),
    "ber-validate": _Scenario((), (1, 2, 4), ("rfo", "ce"), _run_ber_validate),
    "rate-table": _Scenario((), (1, 2, 4), ("ideal", "imp"), _run_rate_table),
    "mst-sweep": _Scenario(
        (2, 6, 10), (1, 2, 4), ("ideal", "imp"),
        partial(_run_ga_sweep, stem="mst", label="impaired", loss_ratios=False),
    ),
    "loss-ratio": _Scenario(
        (10,), (4,), ("ideal", "imp", "pn", "ce", "rfo"),
        partial(_run_ga_sweep, stem="loss", label="flags", loss_ratios=True),
    ),
    "dprc-sweep": _Scenario((2, 6, 10), (4,), ("ideal", "imp"), _run_dprc_sweep),
}


def run_experiment(spec: ExperimentSpec) -> list[Path]:
    """Execute one scenario and return the paths of everything written."""
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    outputs = SCENARIOS[spec.scenario].run(spec)
    _write_json(spec.out_dir / "manifest.json", _manifest(spec, outputs))
    return [spec.out_dir / "manifest.json"] + [spec.out_dir / o for o in outputs]


# ---------------------------------------------------------------------------
# argument handling


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="simcli", description=__doc__.splitlines()[0])
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", type=Path, default=None,
                        help="key = value parameter file")
    parser.add_argument("--k", type=int, nargs="+", default=None,
                        help="pair counts to sweep")
    parser.add_argument("--nrx", type=int, nargs="+", default=None,
                        help="receive antenna counts to sweep")
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", type=Path, default=Path("out"))
    parser.add_argument("--paper", action="store_true",
                        help="full-size trial counts (1000 per grid point)")
    parser.add_argument("--build-tables", action="store_true",
                        help="build missing rate-table caches before running")
    parser.add_argument("--table-seed", type=int, default=0)
    parser.add_argument("--table-draws", type=int, default=2000)
    parser.add_argument("--trace-trials", type=int, default=5,
                        help="dprc-sweep: trials that emit per-iteration traces")
    return parser


def spec_from_args(argv: list[str]) -> ExperimentSpec:
    args = _build_parser().parse_args(argv)
    try:
        params = (
            SystemParams.from_file(args.config)
            if args.config is not None
            else SystemParams()
        )
    except ConfigError as exc:
        raise UsageError(str(exc)) from exc
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    axes = SCENARIOS[args.scenario]
    trials = 1000 if args.paper else args.trials
    return ExperimentSpec(
        scenario=args.scenario,
        params=params,
        k_values=tuple(args.k) if args.k else axes.k_values,
        n_rx_values=tuple(args.nrx) if args.nrx else axes.n_rx_values,
        flag_names=axes.flag_names,
        n_trials=trials,
        seed=args.seed,
        out_dir=args.out,
        jobs=args.jobs,
        build_tables=args.build_tables,
        table_seed=args.table_seed,
        table_draws=args.table_draws,
        trace_trials=args.trace_trials,
    )


def main(argv: list[str] | None = None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    try:
        spec = spec_from_args(argv)
        outputs = run_experiment(spec)
    except UsageError as exc:
        print(f"simcli: {exc}", file=sys.stderr)
        return 1
    except RuntimeFailure as exc:
        print(f"simcli: {exc}", file=sys.stderr)
        return 2
    for path in outputs:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
