"""Command-line scenarios: argument resolution, cache discipline, output
layout, and reproducibility of the written artifacts."""

import ast
import concurrent.futures
import csv
import hashlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adhocmimo
from adhocmimo import (
    dprc, experiments_cli as cli, link_abstraction, network_opt, radio_env,
)
from adhocmimo.config import SystemParams, linear_to_db
from adhocmimo.experiments_cli import (
    ExperimentSpec,
    UsageError,
    _cached_table,
    _fmt,
    _trace_text,
    main,
    run_experiment,
    spec_from_args,
    table_filename,
)
from adhocmimo.link_abstraction import FLAG_SETS, RateTable
from adhocmimo.rng import substream

from conftest import CACHE_DIR, fixture_build_key, seed_tables

README = Path(__file__).resolve().parents[1] / "README.md"
DIGESTS = Path(__file__).parent / "data" / "output_digests.json"


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# argument resolution


def test_spec_defaults_per_scenario():
    spec = spec_from_args(["mst-sweep"])
    assert spec.k_values == (2, 6, 10)
    assert spec.n_rx_values == (1, 2, 4)
    assert spec.flag_names == ("ideal", "imp")
    assert spec.n_trials == 200 and spec.seed == 0 and spec.jobs == 1

    spec = spec_from_args(["loss-ratio"])
    assert spec.k_values == (10,)
    assert spec.n_rx_values == (4,)
    assert spec.flag_names == ("ideal", "imp", "pn", "ce", "rfo")

    spec = spec_from_args(["dprc-sweep"])
    assert spec.k_values == (2, 6, 10)
    assert spec.n_rx_values == (4,)

    spec = spec_from_args(["sinr-map"])
    assert spec.k_values == () and spec.n_rx_values == ()


def test_every_scenario_flag_set_is_a_registry_name():
    # no outside input names a flag set: each scenario's come from the registry
    for scenario in cli.SCENARIOS.values():
        assert set(scenario.flag_names) <= set(FLAG_SETS)


def test_spec_overrides():
    spec = spec_from_args(
        ["mst-sweep", "--k", "3", "4", "--nrx", "2", "--trials", "7",
         "--seed", "9", "--out", "elsewhere"]
    )
    assert spec.k_values == (3, 4)
    assert spec.n_rx_values == (2,)
    assert spec.n_trials == 7 and spec.seed == 9
    assert spec.out_dir == Path("elsewhere")


BAD_ARGV = [
    ["mst-sweep", "--trials", "0"],
    ["mst-sweep", "--jobs", "0"],
    ["mst-sweep", "--k", "0"],
    ["ber-validate", "--nrx", "0"],
    ["mst-sweep", "--nrx", "0", "--build-tables"],
    ["sinr-map", "--seed", "-1"],
    ["rate-table", "--table-seed", "-1"],
    ["rate-table", "--table-draws", "0"],
    ["mst-sweep", "--k", "2", "2", "--nrx", "1", "--trials", "2"],
    ["rate-table", "--nrx", "1", "1"],
    ["dprc-sweep", "--trace-trials", "-3"],
]


def test_spec_validation():
    for argv in BAD_ARGV:
        with pytest.raises(UsageError):
            spec_from_args(argv)


def test_main_exit_codes_for_usage_errors(tmp_path, capsys):
    assert main(["no-such-scenario"]) == 1
    assert main(["sinr-map", "--config", str(tmp_path / "nope.cfg")]) == 1
    err = capsys.readouterr().err
    assert "simcli:" in err

    # pair distances start at 10 m, below which the path-loss model is undefined
    near = tmp_path / "near.cfg"
    near.write_text("d0_m = 20\n")
    out = tmp_path / "out"
    for argv in BAD_ARGV + [["mst-sweep", "--config", str(near)]]:
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("simcli: ")
        assert not out.exists()
    # sinr-map draws no topology, so the same config is fine there
    assert main(["sinr-map", "--config", str(near), "--out", str(out)]) == 0


# ---------------------------------------------------------------------------
# table cache discipline


def test_missing_table_cache_is_a_runtime_failure(tmp_path, capsys):
    code = main(
        ["mst-sweep", "--k", "2", "--nrx", "1", "--trials", "1",
         "--out", str(tmp_path / "out")]
    )
    assert code == 2
    assert "missing rate table cache" in capsys.readouterr().err


def test_stale_table_cache_is_reported(tmp_path, capsys):
    out = tmp_path / "out"
    seed_tables(out)
    doc = json.loads((out / "tables" / table_filename(1, "ideal")).read_text())
    doc["build"]["n_draws"] = 999
    (out / "tables" / table_filename(1, "ideal")).write_text(json.dumps(doc))
    code = main(
        ["mst-sweep", "--k", "2", "--nrx", "1", "--trials", "1",
         "--out", str(out)]
    )
    assert code == 2
    assert "built with different settings" in capsys.readouterr().err


@pytest.mark.parametrize("source", [(1, "ideal"), (4, "ideal")],
                         ids=["N1-ideal", "N4-ideal"])
def test_mislabeled_table_cache_is_reported_or_rebuilt(
        tmp_path, capsys, monkeypatch, source):
    # a fresh table filed under another antenna count or flag set is not the
    # table the run asks for: without --build-tables the run exits 2 naming
    # the file, with it the file is rebuilt
    out = tmp_path / "out"
    seed_tables(out)
    wrong = out / "tables" / table_filename(4, "imp")
    shutil.copy(CACHE_DIR / table_filename(*source), wrong)
    argv = ["dprc-sweep", "--k", "2", "--trials", "2", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(wrong) in err and "not N4 pn+rfo+ce" in err

    shipped = CACHE_DIR / table_filename(4, "imp")
    built = []

    def build(n_rx, flags, params, **settings):
        built.append((n_rx, flags))
        return RateTable.load(shipped)

    monkeypatch.setattr(cli, "build_rate_table", build)
    assert main(argv + ["--build-tables"]) == 0
    assert built == [(4, FLAG_SETS["imp"])]
    assert wrong.read_bytes() == shipped.read_bytes()


def test_dangling_tables_link_fails_before_any_build(tmp_path, capsys, monkeypatch):
    # <out>/tables pointing at a missing directory cannot hold a built
    # table: the run exits 2 naming it, and builds nothing first
    out = tmp_path / "out"
    out.mkdir()
    (out / "tables").symlink_to(tmp_path / "missing")

    def build(*args, **kwargs):
        pytest.fail("build_rate_table called")

    monkeypatch.setattr(cli, "build_rate_table", build)
    code = main(["mst-sweep", "--k", "2", "--nrx", "1", "--trials", "1",
                 "--out", str(out), "--build-tables"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("simcli: cannot create the rate table directory")
    assert str(out / "tables") in err


@pytest.mark.parametrize("path", sorted(CACHE_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_fixture_is_fresh_and_round_trips(tmp_path, path):
    # simcli's cache check accepts every fixture at the build key of its
    # defaults, and load -> save reproduces its bytes
    _, n_rx, name = path.stem.split("_")
    table, problem = _cached_table(path, fixture_build_key(), int(n_rx[1:]), name)
    assert table is not None, problem
    table.save(tmp_path / path.name)
    assert (tmp_path / path.name).read_bytes() == path.read_bytes()


def _swap_two_thresholds(doc: dict) -> str:
    first, second = doc["entries"][:2]
    first["threshold_db"], second["threshold_db"] = (
        second["threshold_db"], first["threshold_db"])
    return json.dumps(doc)


def _set(doc: dict, field: str, value, entry: int | None = None) -> str:
    (doc if entry is None else doc["entries"][entry])[field] = value
    return json.dumps(doc)


def _set_mode(doc: dict, entry: int, m: int, u: int) -> str:
    # a rate consistent with the mode, r_base_bps * m * u, and still ascending
    doc["entries"][entry].update(m=m, u=u, rate_bps=doc["build"]["r_base_bps"] * m * u)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "corrupt",
    [lambda doc: "{not json", lambda doc: '{"version": 2}', _swap_two_thresholds,
     lambda doc: _set(doc, "n_rx", 1.7), lambda doc: _set(doc, "n_rx", 10**400),
     lambda doc: _set(doc, "m", 1.5, entry=0),
     lambda doc: _set(doc, "rate_bps", 123.0, entry=0),
     lambda doc: _set_mode(doc, -1, m=2, u=6), lambda doc: _set_mode(doc, 1, m=1, u=3),
     lambda doc: _set(doc, "threshold_db", -math.inf, entry=0)],
    ids=["not-json", "unknown-version", "unsorted", "fractional-n_rx", "n_rx-beyond-float",
         "fractional-m", "rate-not-r_base-m-u", "m-beyond-n_rx", "unsupported-u",
         "threshold-minus-infinity"])
def test_unreadable_table_cache_is_reported(tmp_path, capsys, corrupt):
    # a corrupt, unknown-version or out-of-order cache file is a cache
    # problem (exit 2), not a crash or a silently wrong lookup, for the GA
    # and the DPRC sweeps alike; a fractional count used to be cut to a
    # whole one, and a rate other than r_base_bps * m * u used to be used;
    # a count no float holds is refused as well. A mode with more streams
    # than the receiver has antennas, or an unsupported u, used to be run,
    # and a -inf threshold used to be cleared at zero power
    for scenario in ("mst-sweep", "dprc-sweep"):
        out = tmp_path / scenario
        seed_tables(out)
        path = out / "tables" / table_filename(1, "ideal")
        path.write_text(corrupt(json.loads(path.read_text())))
        code = main(
            [scenario, "--k", "2", "--nrx", "1", "--trials", "1",
             "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("simcli: cannot read cached table")
        assert str(path) in err and "--build-tables" in err


def test_tables_built_for_other_params_are_stale(tmp_path, capsys):
    # the shipped tables hold the default BER target and ICI fraction; a
    # config that changes either must not reuse them
    out = tmp_path / "out"
    seed_tables(out)
    cfg = tmp_path / "sys.cfg"
    cfg.write_text("gamma_ber = 0.001\nf_ici_dbc = -25\n")
    code = main(
        ["mst-sweep", "--nrx", "1", "--k", "2", "--trials", "2",
         "--config", str(cfg), "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "built with different settings" in err
    assert str(out / "tables" / table_filename(1, "ideal")) in err


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "sys.cfg"
    cfg.write_text("psd_a = 6\n")
    code = main(["sinr-map", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


def test_repeated_config_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "sys.cfg"
    cfg.write_text("p_t_dbm = 20\np_t_dbm = 10\n")
    out = tmp_path / "out"
    assert main(["sinr-map", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"{cfg}:2: repeated config key 'p_t_dbm'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", ["alpha = nan", "p_t_dbm = inf", "ns = 64.7",
                                  "f_ici_dbc = -inf", "p_t_dbm = -inf", "p_t_dbm = 4000"])
def test_non_finite_or_fractional_config_value_is_a_usage_error(tmp_path, capsys, line):
    # the first three used to exit 0: NaN and inf sums of 0 bps with a
    # manifest that is not JSON, and ns cut to 64; -inf dB used to exit 1
    # naming the internal f_ici or p_t_mw instead of the key written, and a
    # dB value whose conversion overflows ended in an OverflowError traceback
    cfg = tmp_path / "sys.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    argv = ["dprc-sweep", "--k", "2", "--trials", "1", "--build-tables",
            "--table-draws", "20", "--config", str(cfg), "--out", str(out)]
    assert main(argv) == 1
    assert line.split()[0] in capsys.readouterr().err
    assert not out.exists()


def test_a_huge_whole_ns_runs(tmp_path):
    # ns = 1e20 is a whole number, and an int is finite: the run used to end
    # in a TypeError traceback from np.isfinite; now the noise of 1e20
    # subcarriers silences every link, and the manifest records the int
    cfg = tmp_path / "sys.cfg"
    cfg.write_text("ns = 1e20\n")
    out = tmp_path / "out"
    argv = ["dprc-sweep", "--k", "2", "--nrx", "1", "--trials", "1", "--build-tables",
            "--table-draws", "20", "--config", str(cfg), "--out", str(out)]
    assert main(argv) == 0
    assert json.loads((out / "manifest.json").read_text())["params"]["ns"] == 10**20
    _, rows = read_csv(out / "dprc_trials.csv")
    assert [row[4:] for row in rows] == [["0", "0"], ["0", "0"]]


def test_config_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    # used to end in a UnicodeDecodeError traceback
    cfg = tmp_path / "sys.cfg"
    cfg.write_bytes(b"alpha = 3\xff\n")
    out = tmp_path / "out"
    assert main(["sinr-map", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"{cfg}: not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("below", [False, True], ids=["at", "under"])
def test_out_path_at_or_under_a_file_fails_before_any_work(
        tmp_path, capsys, monkeypatch, below):
    # a file where the output directory, or one of its parents, should be:
    # the run exits 2 naming the path, and runs nothing first
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "sub" if below else afile

    def run(spec):
        pytest.fail("scenario ran")

    monkeypatch.setitem(cli.SCENARIOS, "sinr-map",
                        cli.SCENARIOS["sinr-map"]._replace(run=run))
    assert main(["sinr-map", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"simcli: cannot create the output directory {out} ")
    assert afile.read_text() == "kept\n"


def test_rate_table_scenario_is_idempotent(tmp_path):
    out = tmp_path / "out"
    argv = ["rate-table", "--nrx", "1", "--table-draws", "60",
            "--out", str(out)]
    assert main(argv) == 0
    path = out / "tables" / table_filename(1, "ideal")
    first = path.read_bytes()
    doc = json.loads(first)
    assert doc["build"]["n_draws"] == 60
    assert all(e["m"] == 1 for e in doc["entries"])
    assert len(doc["entries"]) <= 4
    # rerun leaves fresh caches untouched
    assert main(argv) == 0
    assert path.read_bytes() == first
    # and rebuilds a corrupt one
    path.write_text("{not json")
    assert main(argv) == 0
    assert path.read_bytes() == first


# ---------------------------------------------------------------------------
# scenario outputs


def test_sinr_map_outputs_and_reproducibility(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sinr-map", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert str(out / "manifest.json") in printed
    assert str(out / "sinr_map.csv") in printed

    header, rows = read_csv(out / "sinr_map.csv")
    assert header == ["sinr_in_db", "sinr_b_db"]
    s_in = np.array([float(r[0]) for r in rows])
    s_b = np.array([float(r[1]) for r in rows])
    assert s_in[0] == -10.0 and s_in[-1] == 60.0
    assert np.all(np.diff(s_b) > 0.0)
    assert s_b[-1] == pytest.approx(28.886, abs=0.01)

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"] == "sinr-map"
    assert manifest["outputs"] == ["sinr_map.csv"]

    # a rerun is byte-identical
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    assert main(["sinr-map", "--out", str(out)]) == 0
    after = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    assert before == after


def test_mst_sweep_outputs_and_jobs_equivalence(tmp_path):
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"out{jobs}"
        seed_tables(out)
        assert main(
            ["mst-sweep", "--k", "2", "--nrx", "1", "--trials", "2",
             "--jobs", jobs, "--out", str(out)]
        ) == 0
        outs.append(out)

    header, rows = read_csv(outs[0] / "mst_trials.csv")
    assert header == ["trial_id", "K", "n_rx", "impaired", "mst_bps"]
    assert len(rows) == 2 * 2            # trials x flag sets
    assert {r[3] for r in rows} == {"true", "false"}
    assert all(float(r[4]) >= 0.0 for r in rows)
    agg = json.loads((outs[0] / "mst_aggregate.json").read_text())
    assert {e["flags"] for e in agg["mean_mst"]} == {"ideal", "imp"}

    # worker fan-out changes no byte
    for name in ("mst_trials.csv", "mst_aggregate.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_ber_validate_manifest_names_the_flag_set_it_runs(tmp_path):
    out = tmp_path / "out"
    assert main(["ber-validate", "--nrx", "1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["flag_sets"] == ["rfo+ce"]
    for name in ("ber_analytic.csv", "ber_oracle.csv"):
        header, rows = read_csv(out / name)
        assert {row[header.index("flags")] for row in rows} == {"rfo+ce"}


def test_loss_ratio_outputs(tmp_path):
    out = tmp_path / "out"
    seed_tables(out)
    assert main(
        ["loss-ratio", "--k", "2", "--trials", "1", "--out", str(out)]
    ) == 0
    agg = json.loads((out / "loss_aggregate.json").read_text())
    assert {e["flags"] for e in agg["mean_mst"]} == {
        "ideal", "imp", "pn", "ce", "rfo"
    }
    ratios = {e["flags"]: e["loss_ratio"] for e in agg["loss_ratios"]}
    assert set(ratios) == {"imp", "pn", "ce", "rfo"}
    means = {e["flags"]: e["mean_bps"] for e in agg["mean_mst"]}
    for name, ratio in ratios.items():
        assert ratio == pytest.approx(
            (means["ideal"] - means[name]) / means["ideal"], rel=1e-12
        )


def test_dprc_sweep_outputs_and_traces(tmp_path):
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"out{jobs}"
        seed_tables(out)
        assert main(
            ["dprc-sweep", "--k", "2", "--trials", "2", "--jobs", jobs,
             "--out", str(out)]
        ) == 0
        outs.append(out)
    out = outs[0]
    header, rows = read_csv(out / "dprc_trials.csv")
    assert header == ["trial_id", "K", "n_rx", "impaired", "dprc_bps",
                      "mst_bps"]
    assert len(rows) == 2 * 2            # trials x flag sets
    for r in rows:
        assert float(r[4]) <= float(r[5])    # distributed never beats central
    traces = sorted(p.name for p in out.glob("dprc_trace_*.csv"))
    assert traces == sorted(
        f"dprc_trace_k2_n4_{name}_t{t}.csv"
        for name in ("ideal", "imp") for t in (0, 1)
    )
    for name in traces:
        t_header, t_rows = read_csv(out / name)
        assert t_header == ["iteration", "pair", "power_dbm", "sinr_db",
                            "rate_bps"]
        assert t_rows
    manifest = json.loads((out / "manifest.json").read_text())
    assert "dprc_trials.csv" in manifest["outputs"]
    assert manifest["outputs"] == sorted(manifest["outputs"])

    # worker fan-out changes no byte
    assert sorted(p.name for p in outs[1].glob("dprc_trace_*.csv")) == traces
    for name in ["dprc_trials.csv", "dprc_aggregate.json", *traces]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def trace_csv_reference(p, sinr, r, table: RateTable) -> bytes:
    """A member's trace file as csv.writer wrote it from _fmt rows, before
    the trace became one formatted string."""
    with np.errstate(divide="ignore"):
        power_dbm = np.where(p > 0, linear_to_db(p), -np.inf).tolist()
        sinr_db = np.where(sinr > 0, linear_to_db(sinr), -np.inf).tolist()
    rate = [str(int(x)) for x in table.rates_by_index]
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["iteration", "pair", "power_dbm", "sinr_db", "rate_bps"])
    writer.writerows(
        [step, pair, _fmt(dbm), _fmt(db), rate[idx]]
        for step, row in enumerate(zip(power_dbm, sinr_db, r.tolist()))
        for pair, (dbm, db, idx) in enumerate(zip(*row))
    )
    return buf.getvalue().encode()


def test_trace_bytes_match_csv_writer(tmp_path, params, table_cache):
    # the digest test hashes parsed rows, so line ends and quoting are
    # checked here, on raw bytes; silent pairs write -inf dBm and dB
    table = table_cache(4, "ideal")
    topos = [radio_env.sample_topology(10, params, substream(4, "trace", t))
             for t in range(3)]
    rngs = [substream(4, "trace-dprc", t) for t in range(3)]
    state, _ = dprc.run_dprc(topos, [table] * 3, params, rngs)
    texts = []
    for j in range(3):
        history = [h[j] for h in state.history]
        texts.append(_trace_text(*history, table).encode())
        assert texts[-1] == trace_csv_reference(*history, table)
    assert any(b",-inf,-inf," in text for text in texts)

    out = tmp_path / "out"
    seed_tables(out)
    assert main(["dprc-sweep", "--k", "2", "--trials", "3",
                 "--out", str(out)]) == 0
    raw = (out / "dprc_trace_k2_n4_ideal_t2.csv").read_bytes()
    assert b",-inf,-inf," in raw
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(
        [row[0], row[1], *map(_fmt, map(float, row[2:4])), row[4]] if i else row
        for i, row in enumerate(csv.reader(io.StringIO(raw.decode(), newline="")))
    )
    assert raw == buf.getvalue().encode()


def test_trace_rounds_non_whole_rates_as_the_trials_csv_does(tmp_path):
    # at 1000.7 bps per bit the 8-bit mode runs at 8005.6 bps, which the
    # trials CSV writes as 8006; the trace must write the same, not 8005
    cfg = tmp_path / "odd.cfg"
    cfg.write_text("r_base_bps = 1000.7\n")
    out = tmp_path / "out"
    assert main(["dprc-sweep", "--k", "2", "--trials", "1", "--trace-trials", "1",
                 "--build-tables", "--table-draws", "50", "--config", str(cfg),
                 "--out", str(out)]) == 0
    written = set()
    for name in ("ideal", "imp"):
        table = RateTable.from_dict(
            json.loads((out / "tables" / table_filename(4, name)).read_text()))
        assert 8005.6 in table.rates_by_index
        _, rows = read_csv(out / f"dprc_trace_k2_n4_{name}_t0.csv")
        rates = {row[4] for row in rows}
        assert rates <= {str(int(round(x))) for x in table.rates_by_index}
        written |= rates
    assert "8006" in written and "8005" not in written


def test_dprc_tracing_does_not_change_results(tmp_path):
    # traced and untraced members share one batched run_dprc call; writing
    # a member's trace must not change any member's result or trace
    outs = {}
    for trace_trials in (None, "0", "1", "2"):
        out = tmp_path / f"out{trace_trials}"
        seed_tables(out)
        extra = [] if trace_trials is None else ["--trace-trials", trace_trials]
        assert main(["dprc-sweep", "--k", "3", "--trials", "3",
                     "--out", str(out)] + extra) == 0
        outs[trace_trials] = out
    for name in ("dprc_trials.csv", "dprc_aggregate.json"):
        assert (outs["0"] / name).read_bytes() == (outs[None] / name).read_bytes()
    assert not list(outs["0"].glob("dprc_trace_*.csv"))
    for name in ("ideal", "imp"):
        trace = f"dprc_trace_k3_n4_{name}_t0.csv"
        assert (outs["1"] / trace).read_bytes() == (outs["2"] / trace).read_bytes()
        assert (outs["1"] / trace).read_bytes() == (outs[None] / trace).read_bytes()
    assert len(list(outs["1"].glob("dprc_trace_*.csv"))) == 2
    assert len(list(outs["2"].glob("dprc_trace_*.csv"))) == 4


def test_dprc_flag_sets_share_the_stage1_start(monkeypatch, table_cache):
    # stage 1 reads no rate table, so the ideal and imp members of one
    # (trial, K, n_rx) start from one key and play the same power game, as
    # they share one GA seed; only stage 2, on each member's table, differs
    spec = spec_from_args(["dprc-sweep", "--k", "3", "--trials", "3"])
    tables = tuple(((4, name), table_cache(4, name)) for name in ("ideal", "imp"))
    states = []

    def spy(*args):
        state, sums = dprc.run_dprc(*args)
        states.append(state)
        return state, sums

    monkeypatch.setattr(cli, "run_dprc", spy)
    cli._sweep_chunk(cli._Chunk(spec, tables, 3, range(3)))
    (state,) = states
    p_h, sinr_h, _ = state.history
    assert p_h.shape[0] == 3 * 2                    # trials x flag sets
    for h in (p_h, sinr_h):
        assert np.array_equal(h[0::2, : dprc.ROUNDS], h[1::2, : dprc.ROUNDS])
    assert not np.array_equal(p_h[0::2], p_h[1::2])


@pytest.mark.parametrize(
    "scenario, called",
    [("mst-sweep", {"maximize_sum_throughput"}),
     ("dprc-sweep", {"maximize_sum_throughput", "run_dprc"})],
)
def test_workers_get_the_spec_params_unchanged(tmp_path, monkeypatch, scenario,
                                               called):
    # p_t_dbm = 2.3 is 1.6982436524617444 mW; a trip through the dBm value of
    # the config dict would hand the workers a cap one ulp larger
    cfg = tmp_path / "sys.cfg"
    cfg.write_text("p_t_dbm = 2.3\n")
    out = tmp_path / "out"
    seed_tables(out)
    argv = [scenario, "--k", "2", "--nrx", "4", "--trials", "1", "--jobs", "1",
            "--config", str(cfg), "--out", str(out)]
    seen = []

    def spy(name):
        fn = getattr(cli, name)

        def wrapped(*args, **kwargs):
            seen.extend((name, a) for a in (*args, *kwargs.values())
                        if isinstance(a, SystemParams))
            return fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapped)

    spy("maximize_sum_throughput")
    spy("run_dprc")
    assert main(argv) == 0
    assert {name for name, _ in seen} == called
    want = spec_from_args(argv).params
    assert want.p_t_mw == 1.6982436524617444
    assert all(params == want for _, params in seen)


@pytest.mark.parametrize(
    "scenario, csv_name",
    [("mst-sweep", "mst_trials.csv"), ("dprc-sweep", "dprc_trials.csv")],
)
def test_trial_rows_do_not_depend_on_the_trial_count(tmp_path, scenario,
                                                     csv_name):
    # a trial's GA member is bit-identical in any chunk, so adding trials
    # leaves the rows of the earlier ones unchanged
    files = {}
    for trials in ("2", "3"):
        out = tmp_path / f"out{trials}"
        seed_tables(out)
        assert main(
            [scenario, "--k", "3", "--nrx", "4", "--trials", trials,
             "--out", str(out)]
        ) == 0
        files[trials] = (out / csv_name).read_bytes()
    assert len(files["3"].splitlines()) == 1 + 3 * 2     # header, trials x flag sets
    assert files["3"].startswith(files["2"])
    assert len(files["2"].splitlines()) == 1 + 2 * 2


def output_digest(path: Path) -> str:
    """sha256 of an output file, CSVs with their lines joined by newlines."""
    if path.suffix != ".csv":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    header, rows = read_csv(path)
    return hashlib.sha256("\n".join(map(",".join, [header, *rows])).encode()).hexdigest()


@pytest.mark.parametrize("command", [
    "ber-validate --nrx 1",
    pytest.param("ber-validate --nrx 2", id="ber-validate-nrx2"),
    "mst-sweep --k 2 3 --trials 3",
    "loss-ratio --k 3 --trials 3",
    "dprc-sweep --k 2 3 --trials 3 --trace-trials 2",
    # a GA population of 40 and 10-pair fitness sums
    pytest.param("dprc-sweep --k 10 --trials 2 --trace-trials 1", id="dprc-sweep-k10"),
], ids=lambda command: command.split()[0])
def test_outputs_match_recorded_digests(tmp_path, command):
    # every output of these small runs at --seed 0 on the shipped tables,
    # pinned byte for byte; a deliberate output change
    # records the new digests in tests/data/output_digests.json and says why
    # in CHANGES.md
    out = tmp_path / "out"
    seed_tables(out)
    assert main([*command.split(), "--seed", "0", "--out", str(out)]) == 0
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    got = {name: output_digest(out / name) for name in ["manifest.json", *outputs]}
    assert got == json.loads(DIGESTS.read_text())[command]


@pytest.mark.parametrize("argv", [
    ["sinr-map"],
    ["dprc-sweep", "--k", "2", "3", "--trials", "3", "--trace-trials", "2"],
    # six (flag set, n, u) curves, one task each, over up to two workers
    ["ber-validate", "--nrx", "1", "2"],
    ["mst-sweep", "--k", "2", "--nrx", "1", "--trials", "3"],
    ["loss-ratio", "--k", "3", "--trials", "3"],
    # builds the N1 tables afresh, the shipped ones being at another draw count
    ["rate-table", "--nrx", "1", "--table-draws", "200"],
], ids=lambda argv: argv[0])
def test_reruns_at_any_jobs_rewrite_every_file(tmp_path, argv):
    # no output records wall time, so a rerun at either --jobs writes the
    # same files byte for byte; only the manifest's jobs entry differs
    runs = []
    for i, jobs in enumerate(("1", "2", "1")):
        out = tmp_path / f"out{i}"
        seed_tables(out)
        paths = run_experiment(spec_from_args([*argv, "--jobs", jobs, "--out", str(out)]))
        files = {p.relative_to(out): p.read_bytes() for p in paths}
        manifest = json.loads(files.pop(Path("manifest.json")))
        manifest.pop("jobs", None)
        runs.append((files, manifest))
    assert runs[0][0] and runs[0] == runs[1] == runs[2]


def test_process_fan_out_is_capped(tmp_path, monkeypatch):
    # a fork pool starts every worker it is asked for at its first submit, so
    # _map_tasks asks for no more than there are tasks or cores; the stand-in
    # pool maps in this process and starts none
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    # _map_tasks imports the pool class only when it fans out
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    assert cli._map_tasks(abs, [-1, -2, -3], 10_000) == [1, 2, 3]
    assert cli._map_tasks(abs, list(range(-20, 0)), 10_000) == list(range(20, 0, -1))
    assert cli._map_tasks(abs, [-1, -2], 1) == [1, 2]
    # three trials at --jobs 10000 make three one-trial chunks
    out = tmp_path / "out"
    seed_tables(out)
    assert main(["mst-sweep", "--k", "2", "--nrx", "1", "--trials", "3",
                 "--jobs", "10000", "--out", str(out)]) == 0
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._map_tasks(abs, [-1, -2], 10_000) == [1, 2]
    assert asked == [3, 8, 3]


def test_manifest_records_only_the_settings_the_scenario_reads(tmp_path):
    out = tmp_path / "out"
    assert main(["sinr-map", "--trials", "1000", "--k", "3", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"tool_version", "scenario", "params", "outputs"}
    fields = set(ExperimentSpec.__dataclass_fields__)
    for scenario in cli.SCENARIOS.values():
        assert set(scenario.reads) <= fields - {"scenario", "params", "out_dir",
                                                "build_tables"}


def test_run_experiment_returns_written_paths(tmp_path):
    paths = run_experiment(spec_from_args(
        ["sinr-map", "--trials", "1", "--out", str(tmp_path / "out")]))
    assert paths[0].name == "manifest.json"
    assert all(p.exists() for p in paths)


# ---------------------------------------------------------------------------
# package surface


def test_network_scenarios_load_no_scipy_and_no_process_pool(tmp_path):
    # scipy is needed only where a BER is computed, and the process pool only
    # at --jobs > 1; the import and the network scenarios on cached tables
    # must load neither (scipy.special alone is most of the start-up time)
    out = tmp_path / "out"
    seed_tables(out)
    code = f"""
import sys
from adhocmimo import experiments_cli as cli

def heavy():
    return sorted(m for m in sys.modules
                  if m.startswith("scipy") or m == "concurrent.futures.process")

print("loaded", heavy())
for scenario in ("mst-sweep", "loss-ratio", "dprc-sweep"):
    status = cli.main([scenario, "--k", "2", "--trials", "2", "--jobs", "1",
                       "--out", {str(out)!r}])
    print("loaded", scenario, status, heavy())
"""
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    loaded = [line for line in run.stdout.splitlines() if line.startswith("loaded ")]
    assert loaded == ["loaded []", "loaded mst-sweep 0 []", "loaded loss-ratio 0 []",
                      "loaded dprc-sweep 0 []"]


def readme_quick_start() -> str:
    block = README.read_text().split("## Quick start", 1)[1]
    return block.split("```python\n", 1)[1].split("```", 1)[0]


def test_package_exports_the_readme_quick_start_names():
    imported = [
        alias.name
        for node in ast.walk(ast.parse(readme_quick_start()))
        if isinstance(node, ast.ImportFrom) and node.module == "adhocmimo"
        for alias in node.names
    ]
    assert sorted(adhocmimo.__all__) == sorted(imported)
    assert all(hasattr(adhocmimo, name) for name in imported)


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    # the shipped N4 imp table stands in for the table build, which takes
    # minutes; the rest of the block runs as written
    shipped = RateTable.load(CACHE_DIR / "rates_N4_imp.json")
    monkeypatch.setattr(adhocmimo, "build_rate_table", lambda *args, **kwargs: shipped)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(readme_quick_start(), str(README), "exec"), namespace)
    assert RateTable.load(tmp_path / "rates_N4_imp.json").to_dict() == shipped.to_dict()
    assert namespace["powers"].shape == (4, 6) and namespace["totals"].shape == (4,)
    state = namespace["state"]
    assert state.p.shape == state.r.shape == (4, 6)
    assert all(h.shape == (4, 2 * dprc.ROUNDS, 6) for h in state.history)
    assert capsys.readouterr().out


def test_readme_constants_table_matches_the_modules():
    section = README.read_text().split("### Fixed constants", 1)[1].split("\n#", 1)[0]
    rows = [ln.split("|")[1:3] for ln in section.splitlines() if ln.startswith("| `")]
    documented = {name.strip().strip("`"): float(value) for name, value in rows}
    # the numeric upper-case names each module assigns itself, not imports
    defined = {
        f"{mod.__name__.rsplit('.', 1)[1]}.{target.id}": getattr(mod, target.id)
        for mod in (link_abstraction, network_opt, dprc, radio_env)
        for node in ast.parse(Path(mod.__file__).read_text()).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if target.id.isupper() and not target.id.startswith("_")
        and isinstance(getattr(mod, target.id), (int, float))
    }
    assert len(documented) == 19
    assert documented == defined
