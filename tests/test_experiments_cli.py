"""Command-line scenarios: argument resolution, cache discipline, output
layout, and reproducibility of the written artifacts."""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adhocmimo
from adhocmimo import dprc, experiments_cli as cli, network_opt, radio_env
from adhocmimo.config import SystemParams
from adhocmimo.experiments_cli import (
    ExperimentSpec,
    UsageError,
    main,
    run_experiment,
    spec_from_args,
    table_filename,
)

from conftest import CACHE_DIR

README = Path(__file__).resolve().parents[1] / "README.md"


def seed_tables(out_dir: Path) -> None:
    """Copy the suite's cached rate tables into a scenario output tree."""
    table_dir = out_dir / "tables"
    table_dir.mkdir(parents=True, exist_ok=True)
    for path in CACHE_DIR.glob("rates_*.json"):
        shutil.copy(path, table_dir / path.name)


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


def test_spec_overrides():
    spec = spec_from_args(
        ["mst-sweep", "--k", "3", "4", "--nrx", "2", "--trials", "7",
         "--seed", "9", "--out", "elsewhere"]
    )
    assert spec.k_values == (3, 4)
    assert spec.n_rx_values == (2,)
    assert spec.n_trials == 7 and spec.seed == 9
    assert spec.out_dir == Path("elsewhere")


def test_paper_flag_sets_full_trial_count():
    assert spec_from_args(["mst-sweep", "--paper"]).n_trials == 1000
    # an explicit trial count loses to --paper
    assert spec_from_args(["mst-sweep", "--paper", "--trials", "3"]).n_trials == 1000


BAD_ARGV = [
    ["mst-sweep", "--trials", "0"],
    ["mst-sweep", "--jobs", "0"],
    ["mst-sweep", "--k", "0"],
    ["ber-validate", "--nrx", "0"],
    ["mst-sweep", "--nrx", "0", "--build-tables"],
    ["sinr-map", "--seed", "-1"],
    ["rate-table", "--table-seed", "-1"],
    ["rate-table", "--table-draws", "0"],
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

    # the scenario has no timing column, so a rerun is byte-identical
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    assert main(["sinr-map", "--out", str(out)]) == 0
    after = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    assert before == after


def drop_column(rows: list[list[str]], idx: int) -> list[list[str]]:
    return [r[:idx] + r[idx + 1:] for r in rows]


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
    assert header == ["trial_id", "K", "n_rx", "impaired", "mst_bps",
                      "runtime_ms"]
    assert len(rows) == 2 * 2            # trials x flag sets
    assert {r[3] for r in rows} == {"true", "false"}
    assert all(float(r[4]) >= 0.0 for r in rows)

    # worker fan-out changes only the timing column
    _, rows2 = read_csv(outs[1] / "mst_trials.csv")
    t_idx = header.index("runtime_ms")
    assert drop_column(rows, t_idx) == drop_column(rows2, t_idx)
    agg1 = json.loads((outs[0] / "mst_aggregate.json").read_text())
    agg2 = json.loads((outs[1] / "mst_aggregate.json").read_text())
    assert agg1 == agg2
    assert {e["flags"] for e in agg1["mean_mst"]} == {"ideal", "imp"}


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
                      "mst_bps", "runtime_ms"]
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

    # worker fan-out changes only the timing column
    _, rows2 = read_csv(outs[1] / "dprc_trials.csv")
    t_idx = header.index("runtime_ms")
    assert drop_column(rows, t_idx) == drop_column(rows2, t_idx)
    agg1 = json.loads((outs[0] / "dprc_aggregate.json").read_text())
    agg2 = json.loads((outs[1] / "dprc_aggregate.json").read_text())
    assert agg1 == agg2
    assert sorted(p.name for p in outs[1].glob("dprc_trace_*.csv")) == traces
    for name in traces:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_dprc_tracing_does_not_change_results(tmp_path):
    # traced and untraced members share one batched run_dprc call; keeping
    # a member's history must not change any member's result or trace
    outs = {}
    for trace_trials in (None, "0", "1", "2"):
        out = tmp_path / f"out{trace_trials}"
        seed_tables(out)
        extra = [] if trace_trials is None else ["--trace-trials", trace_trials]
        assert main(["dprc-sweep", "--k", "3", "--trials", "3",
                     "--out", str(out)] + extra) == 0
        outs[trace_trials] = out
    header, rows = read_csv(outs[None] / "dprc_trials.csv")
    _, rows0 = read_csv(outs["0"] / "dprc_trials.csv")
    t_idx = header.index("runtime_ms")
    assert drop_column(rows0, t_idx) == drop_column(rows, t_idx)
    assert (outs["0"] / "dprc_aggregate.json").read_bytes() == \
        (outs[None] / "dprc_aggregate.json").read_bytes()
    assert not list(outs["0"].glob("dprc_trace_*.csv"))
    for name in ("ideal", "imp"):
        trace = f"dprc_trace_k3_n4_{name}_t0.csv"
        assert (outs["1"] / trace).read_bytes() == (outs["2"] / trace).read_bytes()
        assert (outs["1"] / trace).read_bytes() == (outs[None] / trace).read_bytes()
    assert len(list(outs["1"].glob("dprc_trace_*.csv"))) == 2
    assert len(list(outs["2"].glob("dprc_trace_*.csv"))) == 4


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
    rows = {}
    for trials in ("2", "3"):
        out = tmp_path / f"out{trials}"
        seed_tables(out)
        assert main(
            [scenario, "--k", "3", "--nrx", "4", "--trials", trials,
             "--out", str(out)]
        ) == 0
        header, got = read_csv(out / csv_name)
        rows[trials] = drop_column(got, header.index("runtime_ms"))
    assert len(rows["3"]) == 3 * 2           # trials x flag sets
    assert rows["3"][: len(rows["2"])] == rows["2"]
    assert all(r[0] in ("0", "1") for r in rows["2"])


def test_run_experiment_returns_written_paths(tmp_path):
    spec = ExperimentSpec(
        scenario="sinr-map",
        params=spec_from_args(["sinr-map"]).params,
        k_values=(),
        n_rx_values=(),
        flag_names=(),
        n_trials=1,
        seed=0,
        out_dir=tmp_path / "out",
    )
    paths = run_experiment(spec)
    assert paths[0].name == "manifest.json"
    assert all(p.exists() for p in paths)


# ---------------------------------------------------------------------------
# package surface


def test_cli_import_leaves_out_scipy_integrate():
    # the quadrature module (with scipy.optimize, sparse and spatial behind
    # it) costs start-up time and nothing on the CLI path needs it
    code = "import sys, adhocmimo.experiments_cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_package_exports_the_readme_quick_start_names():
    block = README.read_text().split("## Quick start", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    imported = [
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "adhocmimo"
        for alias in node.names
    ]
    assert sorted(adhocmimo.__all__) == sorted(imported)
    assert all(hasattr(adhocmimo, name) for name in imported)


def test_readme_constants_table_matches_the_modules():
    section = README.read_text().split("### Fixed constants", 1)[1].split("\n#", 1)[0]
    rows = [ln.split("|")[1:3] for ln in section.splitlines() if ln.startswith("| `")]
    documented = {name.strip().strip("`"): float(value) for name, value in rows}
    defined = {
        f"{mod.__name__.rsplit('.', 1)[1]}.{name}": value
        for mod in (network_opt, dprc, radio_env)
        for name, value in vars(mod).items()
        if name.isupper() and not name.startswith("_")
    }
    assert len(documented) == 15
    assert documented == defined
