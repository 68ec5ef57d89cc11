"""Command-line front end: scenario orchestration and result persistence.

Each scenario writes CSV data files plus a manifest.json holding the settings
it read and the resolved parameters, so any output can be reproduced from its
manifest alone. Nothing here contains method logic; it samples topologies,
drives the library modules over chunks of trials, and serializes.

Exit codes: 0 success, 1 usage error (bad flags or config file), 2 runtime
failure (such as a missing rate-table cache when building is not allowed).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from functools import partial
from itertools import chain, product
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import __version__
from .config import ConfigError, SystemParams, linear_to_db, db_to_linear, mw_to_dbm
from .dprc import run_dprc
from .impairment_model import sinr_baseband
from .link_abstraction import (
    FLAG_SETS,
    RateTable,
    ber_end_to_end,
    build_rate_table,
    make_mod_scheme,
    table_build_key,
)
from .mc_oracle import simulate_link_ber
from .network_opt import maximize_sum_throughput
from .radio_env import PAIR_MIN_M, sample_topology
from .rng import derive_seed, substream

class UsageError(Exception):
    pass


class RuntimeFailure(Exception):
    pass


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved run description; the manifest records the fields its
    scenario reads. spec_from_args fills every field, each default written
    once, in the parser."""

    scenario: str
    params: SystemParams
    k_values: tuple[int, ...]
    n_rx_values: tuple[int, ...]
    n_trials: int
    seed: int
    out_dir: Path
    jobs: int
    build_tables: bool
    table_seed: int
    table_draws: int
    trace_trials: int

    @property
    def flag_names(self) -> tuple[str, ...]:
        """The FLAG_SETS names the scenario runs."""
        return SCENARIOS[self.scenario].flag_names

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise UsageError(f"unknown scenario: {self.scenario}")
        for flag, value in (("--trials", self.n_trials), ("--jobs", self.jobs),
                            ("--table-draws", self.table_draws)):
            if value < 1:
                raise UsageError(f"{flag} must be at least 1")
        for flag, values in (("--k", self.k_values), ("--nrx", self.n_rx_values)):
            if min(values, default=1) < 1 or len(set(values)) < len(values):
                raise UsageError(f"{flag} values must be at least 1 and distinct")
        if min(self.seed, self.table_seed, self.trace_trials) < 0:
            raise UsageError(
                "--seed, --table-seed and --trace-trials must be non-negative"
            )
        # scenarios with pair counts draw topologies, whose pair distances
        # start at PAIR_MIN_M and must not reach below the path-loss model
        if SCENARIOS[self.scenario].k_values and self.params.d0_m > PAIR_MIN_M:
            raise UsageError(
                f"d0_m must not exceed the shortest pair distance {PAIR_MIN_M} m"
            )


def _fmt(x: float) -> str:
    return f"{float(x):.10g}"


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _manifest(spec: ExperimentSpec, outputs: list[str]) -> dict:
    doc = {name: getattr(spec, name) for name in SCENARIOS[spec.scenario].reads}
    if spec.flag_names:
        doc["flag_sets"] = spec.flag_names
    return doc | {
        "tool_version": __version__,
        "scenario": spec.scenario,
        "params": spec.params.to_config_dict(),
        "outputs": sorted(outputs),
    }


# ---------------------------------------------------------------------------
# rate-table cache


def table_filename(n_rx: int, flag_name: str) -> str:
    return f"rates_N{n_rx}_{flag_name}.json"


def _cached_table(
    path: Path, want: dict, n_rx: int, flag_name: str
) -> tuple[RateTable | None, str]:
    """The (n_rx, flag set) table cached at path if it is fresh, else None
    and what is wrong. Fresh means it parses, its build block equals want,
    and it holds the antenna count and flag set it is filed under."""
    if not path.exists():
        return None, f"missing rate table cache: {path}"
    try:
        table = RateTable.load(path)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return None, f"cannot read cached table {path} ({type(exc).__name__}: {exc})"
    if table.build_info != want:
        return None, f"cached table {path} was built with different settings"
    label = FLAG_SETS[flag_name].label()
    if (table.n_rx, table.flags_label) != (n_rx, label):
        return None, (f"cached table {path} holds the N{table.n_rx} "
                      f"{table.flags_label} table, not N{n_rx} {label}")
    return table, ""


def _load_tables(spec: ExperimentSpec) -> dict[tuple[int, str], RateTable]:
    """Every table on the spec's axes, read once from <out>/tables.

    A cached table is fresh when it parses, its build block equals the
    table build key of the spec's parameters, table seed and draw count,
    and its antenna count and flags label match its file name.
    With --build-tables (and always for the rate-table scenario) a table
    that is not fresh is built and saved, and fresh files are left untouched,
    so rebuilds are idempotent and byte-stable; otherwise it is a
    RuntimeFailure naming every such path. A tables directory that cannot
    be made (say, a dangling symlink) is a RuntimeFailure before any build.
    """
    build = spec.build_tables or spec.scenario == "rate-table"
    want = table_build_key(spec.params, seed=spec.table_seed, n_draws=spec.table_draws)
    tables, problems = {}, []
    for n_rx in spec.n_rx_values:
        for name in spec.flag_names:
            path = spec.out_dir / "tables" / table_filename(n_rx, name)
            table, problem = _cached_table(path, want, n_rx, name)
            if table is None and build:
                try:
                    path.parent.mkdir(parents=True, exist_ok=True)
                except OSError as exc:
                    raise RuntimeFailure(
                        f"cannot create the rate table directory {path.parent} "
                        f"({type(exc).__name__}: {exc})") from exc
                table = build_rate_table(
                    n_rx, FLAG_SETS[name], spec.params,
                    seed=spec.table_seed, n_draws=spec.table_draws,
                )
                table.save(path)
            elif table is None:
                problems.append(problem)
                continue
            tables[(n_rx, name)] = table
    if problems:
        raise RuntimeFailure("; ".join(problems) + "; rerun with --build-tables")
    return tables


# ---------------------------------------------------------------------------
# scenario workers (module-level so process pools can pickle them)

# members per batched GA or DPRC call: bounds a chunk's working set to a few MB
_CHUNK_MEMBERS = 64
# analytic channel draws and oracle symbol vectors per ber-validate point
_BER_DRAWS = 2000
_ORACLE_SYMBOLS = 100_000


def _map_tasks(fn, tasks: list, jobs: int) -> list:
    # a fork pool starts all its workers at the first submit, so never ask
    # for more than there are tasks or cores
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(t) for t in tasks]
    # imported here, so that a serial run never loads the pool machinery
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


class _Chunk(NamedTuple):
    """Contiguous trials of one K, with every ((n_rx, flag name), table) of
    the spec's axes."""

    spec: ExperimentSpec
    tables: tuple[tuple[tuple[int, str], RateTable], ...]
    k: int
    trials: range


def _trace_text(p, sinr, r, table: RateTable) -> str:
    """One member's trace CSV, a line per (round, pair), from its (rounds, K)
    history arrays, converted to dBm and dB as whole arrays and formatted by
    one % call (%.10g is _fmt's format). The lines are what csv.writer gives
    for these fields: CRLF ends, nothing quoted."""
    with np.errstate(divide="ignore"):
        power_dbm = np.where(p > 0, mw_to_dbm(p), -np.inf).ravel().tolist()
        sinr_db = np.where(sinr > 0, linear_to_db(sinr), -np.inf).ravel().tolist()
    rate = [str(round(x)) for x in table.rates_by_index.tolist()]
    rounds, k = p.shape
    fields = zip(np.repeat(np.arange(rounds), k).tolist(), list(range(k)) * rounds,
                 power_dbm, sinr_db, [rate[idx] for idx in r.ravel().tolist()])
    return "iteration,pair,power_dbm,sinr_db,rate_bps\r\n" + (
        "%d,%d,%.10g,%.10g,%s\r\n" * (rounds * k)) % tuple(chain.from_iterable(fields))


def _sweep_chunk(chunk: _Chunk) -> tuple[list[tuple], dict[str, str]]:
    """A chunk's (trial, K, n_rx, flag name, *sums) rows and its traced
    members' trace CSV texts, keyed by trace file name.

    Every (trial, table) member of the chunk runs in one batched call per
    algorithm. For dprc-sweep, run_dprc comes first and its allocations
    warm-start the GA, so elitism guarantees distributed <= centralized;
    members of the first trace_trials trials write their slice of the
    batch's per-round history.
    Flag sets share the GA seed and the DPRC stage-1 start of their
    (trial, K, n_rx), whose stage 1 runs once: loss shares compare one search
    and game.
    """
    spec, tables, k, trials = chunk
    topos = [
        sample_topology(k, spec.params, substream(spec.seed, f"topology-k{k}", trial))
        for trial in trials
    ]
    members = [
        (trial, topo, n_rx, name, table)
        for trial, topo in zip(trials, topos)
        for (n_rx, name), table in tables
    ]
    _, topo_m, _, _, table_m = zip(*members)
    sums, traces, warm = [], {}, None
    if spec.scenario == "dprc-sweep":
        # one generator per (trial, n_rx): its flag sets share one stage 1
        keys = [(trial, n_rx) for trial, _, n_rx, _, _ in members]
        slot = {key: j for j, key in enumerate(dict.fromkeys(keys))}
        rngs = [substream(derive_seed(spec.seed, f"dprc-k{k}-n{n_rx}"), "dprc", trial)
                for trial, n_rx in slot]
        state, dprc_bps = run_dprc(topo_m, table_m, spec.params, rngs,
                                   [slot[key] for key in keys])
        warm = state.p
        sums.append(dprc_bps.tolist())
        traces = {
            f"dprc_trace_k{k}_n{n_rx}_{name}_t{trial}.csv":
                _trace_text(*(h[j] for h in state.history), table)
            for j, (trial, _, n_rx, name, table) in enumerate(members)
            if trial < spec.trace_trials
        }
    seeds = [derive_seed(spec.seed, f"ga-k{k}-n{n_rx}", trial)
             for trial, _, n_rx, _, _ in members]
    _, mst = maximize_sum_throughput(
        topo_m, table_m, spec.params, seeds=seeds, extra_seeds=warm
    )
    sums.append(mst.tolist())
    rows = [(trial, k, n_rx, name, *values)
            for (trial, _, n_rx, name, _), *values in zip(members, *sums)]
    return rows, traces


def _ber_curve(task: tuple) -> tuple[list, list]:
    """The analytic and the oracle CSV rows of one ber-validate curve, given
    as (spec, index, flag name, n, u, sinr_db grid) on an n x n link, whose
    points are numbered from index. Each analytic point draws from its own
    substream; the oracle runs the whole curve in one call seeded by its
    first point, each batch's draws serving every point."""
    spec, index, name, n, u, grid_db = task
    flags = FLAG_SETS[name]
    mod = make_mod_scheme(u)
    sinr = [db_to_linear(sinr_db) for sinr_db in grid_db]
    oracle = simulate_link_ber(
        np.array(sinr), n, n, mod, flags, spec.params, n_symbols=_ORACLE_SYMBOLS,
        seed=derive_seed(spec.seed, f"ber-oracle-{n}-{n}-{u}", index),
    )
    analytic, simulated = [], []
    for i, (sinr_db, s) in enumerate(zip(grid_db, sinr)):
        rng = substream(spec.seed, f"ber-analytic-{n}-{n}-{u}-{flags.label()}", index + i)
        ber, se = ber_end_to_end(s, n, n, mod, flags, spec.params, n_draws=_BER_DRAWS, rng=rng)
        point = [_fmt(sinr_db), n, n, u, flags.label()]
        analytic.append([*point, _fmt(ber), _fmt(se), _BER_DRAWS])
        simulated.append([*point, _fmt(oracle.ber[i]), _fmt(oracle.stderr[i]), oracle.n_bits])
    return analytic, simulated


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
    grid_db = tuple(np.arange(0.0, 25.0 + 1e-9, 5.0).tolist())
    curves = [
        (spec, index * len(grid_db), name, n, u, grid_db)
        for index, (name, n, u) in enumerate(
            product(spec.flag_names, spec.n_rx_values, (1, 2, 4)))
    ]
    analytic, oracle = zip(*_map_tasks(_ber_curve, curves, spec.jobs))
    header = ["sinr_db", "m", "n", "u", "flags", "ber", "stderr"]
    _write_csv(spec.out_dir / "ber_analytic.csv", header + ["n_draws"],
               chain.from_iterable(analytic))
    _write_csv(spec.out_dir / "ber_oracle.csv", header + ["n_bits"],
               chain.from_iterable(oracle))
    return ["ber_analytic.csv", "ber_oracle.csv"]


def _run_rate_table(spec: ExperimentSpec) -> list[str]:
    # report every table on the axes, whether just built or already fresh
    return [str(Path("tables") / table_filename(*key)) for key in _load_tables(spec)]


def _aggregate(rows: list[tuple]) -> list[dict]:
    """Group trial rows by (K, n_rx, flag name) and average their first sum."""
    groups: dict[tuple, list[float]] = {}
    for row in rows:
        groups.setdefault(row[1:4], []).append(row[4])
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


def _loss_ratios(spec: ExperimentSpec, agg: list[dict]) -> list[dict]:
    """Each impaired flag set's share of the ideal mean sum throughput lost."""
    means = {(e["k"], e["n_rx"], e["flags"]): e["mean_bps"] for e in agg}
    return [
        {"k": k, "n_rx": n_rx, "flags": name,
         "loss_ratio": (ref - means[k, n_rx, name]) / ref}
        for k, n_rx, name in product(spec.k_values, spec.n_rx_values, spec.flag_names)
        if name != "ideal" and (ref := means[k, n_rx, "ideal"])
    ]


def _run_sweep(spec: ExperimentSpec, *, stem: str, label: str) -> list[str]:
    """Sum throughput per (trial, table) into <stem>_trials.csv, whose label
    column holds the flag name ("flags") or whether the set is impaired
    ("impaired"); the means of the first sum, plus loss ratios for
    loss-ratio, into <stem>_aggregate.json; and the dprc-sweep traces.

    Trials run in contiguous chunks of one K: one chunk per K and worker
    (--jobs, at most one per core), split further so that no batched call
    holds more than _CHUNK_MEMBERS (trial, table) members. A member's result
    does not depend on its chunk, so neither do the outputs.
    """
    tables = tuple(sorted(_load_tables(spec).items()))
    workers = min(spec.jobs, os.cpu_count() or 1)
    size = max(min(-(-spec.n_trials // workers), _CHUNK_MEMBERS // len(tables)), 1)
    chunks = [
        _Chunk(spec, tables, k, range(start, min(start + size, spec.n_trials)))
        for k in spec.k_values
        for start in range(0, spec.n_trials, size)
    ]
    rows, traces = [], {}
    for chunk_rows, chunk_traces in _map_tasks(_sweep_chunk, chunks, spec.jobs):
        rows += chunk_rows
        traces.update(chunk_traces)
    dprc = spec.scenario == "dprc-sweep"
    _write_csv(
        spec.out_dir / f"{stem}_trials.csv",
        ["trial_id", "K", "n_rx", label, *(["dprc_bps"] if dprc else []), "mst_bps"],
        [
            [trial, k, n_rx, name if label == "flags" else str(name != "ideal").lower(),
             *(str(int(round(value))) for value in values)]
            for trial, k, n_rx, name, *values in rows
        ],
    )
    doc = {"mean_dprc" if dprc else "mean_mst": _aggregate(rows)}
    if spec.scenario == "loss-ratio":
        doc["loss_ratios"] = _loss_ratios(spec, doc["mean_mst"])
    _write_json(spec.out_dir / f"{stem}_aggregate.json", doc)
    for name, text in traces.items():
        (spec.out_dir / name).write_text(text, newline="")
    return [f"{stem}_trials.csv", f"{stem}_aggregate.json", *traces]


class _Scenario(NamedTuple):
    k_values: tuple[int, ...]       # defaults, overridden by --k
    n_rx_values: tuple[int, ...]    # defaults, overridden by --nrx
    flag_names: tuple[str, ...]
    # the ExperimentSpec fields the runner reads besides params, out_dir and
    # build_tables; the manifest records these, params and the flag sets
    reads: tuple[str, ...]
    run: Callable[[ExperimentSpec], list[str]]


_SWEEP_READS = ("k_values", "n_rx_values", "n_trials", "seed", "jobs",
                "table_seed", "table_draws")

SCENARIOS = {
    "sinr-map": _Scenario((), (), (), (), _run_sinr_map),
    "ber-validate": _Scenario(
        (), (1, 2, 4), ("rfo+ce",), ("n_rx_values", "seed", "jobs"), _run_ber_validate,
    ),
    "rate-table": _Scenario(
        (), (1, 2, 4), ("ideal", "imp"), ("n_rx_values", "table_seed", "table_draws"),
        _run_rate_table,
    ),
    "mst-sweep": _Scenario(
        (2, 6, 10), (1, 2, 4), ("ideal", "imp"), _SWEEP_READS,
        partial(_run_sweep, stem="mst", label="impaired"),
    ),
    "loss-ratio": _Scenario(
        (10,), (4,), ("ideal", "imp", "pn", "ce", "rfo"), _SWEEP_READS,
        partial(_run_sweep, stem="loss", label="flags"),
    ),
    "dprc-sweep": _Scenario(
        (2, 6, 10), (4,), ("ideal", "imp"), (*_SWEEP_READS, "trace_trials"),
        partial(_run_sweep, stem="dprc", label="impaired"),
    ),
}


def run_experiment(spec: ExperimentSpec) -> list[Path]:
    """Execute one scenario and return the paths of everything written. An
    output directory that cannot be made (say, a file stands at or above
    it) is a RuntimeFailure before any work."""
    try:
        spec.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise RuntimeFailure(
            f"cannot create the output directory {spec.out_dir} "
            f"({type(exc).__name__}: {exc})") from exc
    outputs = SCENARIOS[spec.scenario].run(spec)
    _write_json(spec.out_dir / "manifest.json", _manifest(spec, outputs))
    return [spec.out_dir / "manifest.json"] + [spec.out_dir / o for o in outputs]


# ---------------------------------------------------------------------------
# argument handling


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    """simcli's options; each option's dest is the ExperimentSpec field it
    sets, and its default is that field's only default."""
    parser = _Parser(prog="simcli", description=__doc__.splitlines()[0])
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", type=Path, default=None,
                        help="key = value parameter file")
    parser.add_argument("--k", dest="k_values", type=int, nargs="+", default=None,
                        help="pair counts to sweep")
    parser.add_argument("--nrx", dest="n_rx_values", type=int, nargs="+", default=None,
                        help="receive antenna counts to sweep")
    parser.add_argument("--trials", dest="n_trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", dest="out_dir", type=Path, default=Path("out"))
    parser.add_argument("--build-tables", action="store_true",
                        help="build missing, stale or unreadable rate-table caches")
    parser.add_argument("--table-seed", type=int, default=0)
    parser.add_argument("--table-draws", type=int, default=2000)
    parser.add_argument("--trace-trials", type=int, default=5,
                        help="dprc-sweep: trials that emit per-iteration traces")
    return parser


def spec_from_args(argv: list[str]) -> ExperimentSpec:
    settings = vars(_build_parser().parse_args(argv))
    config = settings.pop("config")
    try:
        params = SystemParams.from_file(config) if config is not None else SystemParams()
    except ConfigError as exc:
        raise UsageError(str(exc)) from exc
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    axes = SCENARIOS[settings["scenario"]]
    for axis in ("k_values", "n_rx_values"):
        settings[axis] = tuple(settings[axis] or getattr(axes, axis))
    return ExperimentSpec(params=params, **settings)


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
