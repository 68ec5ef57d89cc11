"""Acceptance gate: ten end-to-end checks, one verdict line each.

Every test measures live behavior against a pinned window and records a
[PRIMARY n] PASS/FAIL line that the terminal summary echoes. A failed
window is reported with the measured value rather than widened.
"""

import csv
import json
import math

import numpy as np
import pytest

import conftest
from adhocmimo.config import SystemParams, db_to_linear, linear_to_db
from adhocmimo.dprc import run_dprc, best_response_power, sigmoid_utility
from adhocmimo.experiments_cli import run_experiment, spec_from_args
from adhocmimo.impairment_model import sinr_baseband
from adhocmimo.link_abstraction import (
    FLAG_SETS,
    ImpairmentFlags,
    ber_end_to_end,
    make_mod_scheme,
)
from adhocmimo.network_opt import maximize_sum_throughput, sinr_in_all, split_gains
from adhocmimo.radio_env import sample_topology, total_noise_power
from adhocmimo.rng import substream


def record(num: int, ok: bool, detail: str) -> None:
    line = f"[PRIMARY {num}] {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def crossing_db(grid_db: np.ndarray, bers: np.ndarray, target: float) -> float:
    """SINR (dB) where a decreasing BER curve crosses target, interpolated
    linearly in log BER."""
    bers = np.asarray(bers)
    below = np.where(bers <= target)[0]
    if below.size == 0:
        return float("inf")
    idx = int(below[0])
    if idx == 0:
        return float(grid_db[0])
    x0, x1 = grid_db[idx - 1], grid_db[idx]
    y0, y1 = math.log10(bers[idx - 1]), math.log10(max(bers[idx], 1e-12))
    return float(x0 + (x1 - x0) * (math.log10(target) - y0) / (y1 - y0))


def shift_at_ber(flags: ImpairmentFlags, params: SystemParams, purpose: str):
    """Threshold shift (dB) of an impaired 2x2 QPSK curve against the clean
    one at the 2 percent BER point, with common random draws per point."""
    mod = make_mod_scheme(2)
    # top end leaves room for the clean 2 percent point (~14.5 dB) plus the
    # largest admissible impairment shift
    grid = np.round(np.arange(-5.0, 22.0 + 1e-9, 0.5), 9)
    curves = {}
    for label, f in (("clean", FLAG_SETS["ideal"]), ("impaired", flags)):
        curves[label] = np.array(
            [
                ber_end_to_end(
                    db_to_linear(s_db), 2, 2, mod, f, params,
                    n_draws=2000, rng=substream(0, purpose, i),
                )[0]
                for i, s_db in enumerate(grid)
            ]
        )
    clean = crossing_db(grid, curves["clean"], params.gamma_ber)
    impaired = crossing_db(grid, curves["impaired"], params.gamma_ber)
    return impaired - clean, clean, impaired


# ---------------------------------------------------------------------------


def test_primary_01_baseband_icimap(params):
    got_db = linear_to_db(sinr_baseband(db_to_linear(60.0), params.f_ici))
    grid = db_to_linear(np.arange(-10.0, 60.0 + 1e-9, 0.5))
    curve = sinr_baseband(grid, params.f_ici)
    monotone = bool(np.all(np.diff(curve) > 0.0))
    ok = abs(got_db - 28.9) <= 0.1 and monotone
    record(
        1, ok,
        f"ICI-limited output saturates at {got_db:.3f} dB for a 60 dB input "
        f"(within 0.1 dB of 28.9), curve monotone: {monotone}",
    )


def test_primary_02_analytic_ber_tracks_oracle(tmp_path):
    # the shipped ber-validate scenario: n x n links for n = 1, 2, 4, u = 1,
    # 2, 4, 0-25 dB in 5 dB steps, rfo+ce, 2000 draws against 100k symbols
    run_experiment(spec_from_args(["ber-validate", "--seed", "0", "--out", str(tmp_path)]))
    with (tmp_path / "ber_analytic.csv").open() as fa, \
            (tmp_path / "ber_oracle.csv").open() as fo:
        pairs = list(zip(csv.DictReader(fa), csv.DictReader(fo)))
    point = ("sinr_db", "m", "n", "u", "flags")
    aligned = all([a[c] for c in point] == [o[c] for c in point] for a, o in pairs)
    hits = 0
    for a, o in pairs:
        # one oracle error count is the resolution floor
        tol = (3.0 * math.hypot(float(a["stderr"]), float(o["stderr"]))
               + 1.0 / int(o["n_bits"]))
        hits += abs(float(a["ber"]) - float(o["ber"])) <= tol
    total = len(pairs)
    ok = aligned and total == 54 and hits >= math.ceil(0.9 * total)
    record(
        2, ok,
        f"ber-validate: analytic BER within 3 combined standard errors of the "
        f"symbol simulation on {hits}/{total} grid points (need 90 percent)",
    )


def test_primary_03_channel_estimation_penalty(params):
    shift, clean, impaired = shift_at_ber(FLAG_SETS["ce"], params, "acc3")
    ok = 1.0 <= shift <= 4.0
    record(
        3, ok,
        f"estimation-error penalty at 2 percent BER is {shift:.2f} dB "
        f"({clean:.2f} -> {impaired:.2f}), window [1.0, 4.0]",
    )


def test_primary_04_residual_offset_penalty(params):
    shift, clean, impaired = shift_at_ber(FLAG_SETS["rfo"], params, "acc4")
    ok = abs(shift) < 0.5
    record(
        4, ok,
        f"residual-offset penalty at 2 percent BER is {shift:.3f} dB "
        f"({clean:.2f} -> {impaired:.2f}), window (-0.5, 0.5)",
    )


def test_primary_05_rate_table_under_impairments(table_cache):
    ideal = table_cache(4, "ideal")
    imp = table_cache(4, "imp")
    top = [e for e in ideal.entries if e.rate_bps == 192e6]
    top_ok = len(top) == 1 and 29.1 <= top[0].threshold_db <= 31.1
    gone_ok = all(e.rate_bps != 192e6 for e in imp.entries)
    ideal_thr = {e.rate_bps: e.threshold_db for e in ideal.entries}
    shifts = [
        e.threshold_db - ideal_thr[e.rate_bps]
        for e in imp.entries
        if e.rate_bps in ideal_thr
    ]
    mean_shift = float(np.mean(shifts))
    shift_ok = 1.5 <= mean_shift <= 4.5
    ok = top_ok and gone_ok and shift_ok
    record(
        5, ok,
        f"4x4 table: top mode at {top[0].threshold_db if top else float('nan'):.1f} dB "
        f"(window [29.1, 31.1]): {top_ok}; dropped when impaired: {gone_ok}; "
        f"mean threshold shift {mean_shift:.2f} dB (window [1.5, 4.5]): {shift_ok}",
    )


def test_primary_06_throughput_trends(tmp_path):
    # the shipped mst-sweep scenario: K = 2, 6, 10 on N1, N2 and N4 ideal and
    # imp tables, 200 trials, seed 0
    out = tmp_path / "out"
    conftest.seed_tables(out)
    run_experiment(spec_from_args(["mst-sweep", "--out", str(out)]))
    agg = json.loads((out / "mst_aggregate.json").read_text())
    means = {
        (e["k"], e["n_rx"], e["flags"]): e["mean_bps"] for e in agg["mean_mst"]
    }
    rx_ok = all(
        means[(k, 1, f)] < means[(k, 2, f)] < means[(k, 4, f)]
        for k in (2, 6, 10) for f in ("ideal", "imp")
    )
    k_ok = all(
        means[(2, n, f)] <= means[(6, n, f)] <= means[(10, n, f)]
        for n in (1, 2, 4) for f in ("ideal", "imp")
    )
    imp_ok = all(
        means[(k, n, "imp")] < means[(k, n, "ideal")]
        for k in (2, 6, 10) for n in (1, 2, 4)
    )
    ok = rx_ok and k_ok and imp_ok
    record(
        6, ok,
        f"mean optimized throughput over 200 trials rises with antennas: {rx_ok}, "
        f"does not fall with pair count: {k_ok}, "
        f"drops under impairments: {imp_ok}",
    )


def test_primary_07_loss_shares(tmp_path):
    # the shipped loss-ratio scenario: K = 10 on the five N4 tables, 200
    # trials, seed 0
    out = tmp_path / "out"
    conftest.seed_tables(out)
    run_experiment(spec_from_args(["loss-ratio", "--out", str(out)]))
    agg = json.loads((out / "loss_aggregate.json").read_text())
    ratios = {e["flags"]: e["loss_ratio"] for e in agg["loss_ratios"]}
    checks = [
        (0.19 <= ratios["imp"] <= 0.35,
         f"all impairments {ratios['imp']:.4f} in [0.19, 0.35]"),
        (0.14 <= ratios["ce"] <= 0.30,
         f"estimation only {ratios['ce']:.4f} in [0.14, 0.30]"),
        (0.03 <= ratios["pn"] <= 0.12,
         f"phase noise only {ratios['pn']:.4f} in [0.03, 0.12]"),
        (ratios["rfo"] < 0.02,
         f"residual offset only {ratios['rfo']:.4f} below 0.02"),
    ]
    ok = all(c for c, _ in checks)
    detail = "; ".join(
        f"{msg}: {'ok' if c else 'MISS'}" for c, msg in checks
    )
    record(7, ok, f"throughput-loss shares at K=10: {detail}")


def test_primary_08_ga_against_brute_force(params, table_cache):
    table = table_cache(4, "ideal")
    noise = total_noise_power(params)
    levels = np.concatenate(
        [[0.0], 10.0 ** (np.arange(-10.0, 20.0 + 1e-9, 1.0) / 10.0)]
    )
    hits = 0
    n_inst = 50
    for i in range(n_inst):
        k = 2 + (i % 2)
        topo = sample_topology(k, params, substream(i, "acc8-topo"))
        _, fit = maximize_sum_throughput([topo], [table], params, seeds=[i])
        grids = np.meshgrid(*([levels] * k), indexing="ij")
        alloc = np.stack(grids, axis=-1).reshape(-1, k)
        sinr = sinr_in_all(alloc, split_gains(topo.rho), noise)
        brute = float(conftest.table_rates(table, sinr).sum(axis=-1).max())
        if fit[0] >= brute - 8e6:
            hits += 1
    ok = hits >= math.ceil(0.9 * n_inst)
    record(
        8, ok,
        f"GA within one rate step of a 1 dB exhaustive grid on "
        f"{hits}/{n_inst} small networks (need 90 percent)",
    )


def test_primary_09_distributed_control(params, table_cache, tmp_path):
    out = tmp_path / "out"
    conftest.seed_tables(out)
    run_experiment(spec_from_args(
        ["dprc-sweep", "--trials", "50", "--trace-trials", "0", "--out", str(out)]))
    rows = (out / "dprc_trials.csv").read_text().splitlines()[1:]
    bound_ok = all(
        float(r.split(",")[4]) <= float(r.split(",")[5]) for r in rows
    )
    agg = json.loads((out / "dprc_aggregate.json").read_text())
    means = {(e["k"], e["flags"]): e["mean_bps"] for e in agg["mean_dprc"]}
    k_ok = all(
        means[(2, f)] < means[(6, f)] < means[(10, f)] for f in ("ideal", "imp")
    )
    imp_ok = all(means[(k, "imp")] < means[(k, "ideal")] for k in (2, 6, 10))

    # every reported rate must clear its threshold at the final powers
    table = table_cache(4, "ideal")
    thr = table.thresholds_linear
    slack = 10.0 ** (-0.001)
    noise = total_noise_power(params)
    feas_ok = True
    for k in (2, 6, 10):
        for i in range(5):
            topo = sample_topology(k, params, substream(i, f"acc9-k{k}"))
            state, _ = run_dprc([topo], [table], params,
                                [substream(i, f"acc9-run-k{k}")])
            p, r = state.p[0], state.r[0]
            sinr = sinr_in_all(p[None], split_gains(topo.rho), noise)[0]
            for j in range(k):
                if r[j] > 0 and sinr[j] < thr[r[j] - 1] * slack:
                    feas_ok = False
    ok = bound_ok and k_ok and imp_ok and feas_ok
    record(
        9, ok,
        f"distributed control never beats the centralized bound: {bound_ok}, "
        f"mean throughput rises with pair count: {k_ok}, drops under "
        f"impairments: {imp_ok}, final rates feasible within 0.01 dB: {feas_ok}",
    )


def test_primary_10_best_response_against_brute_force(params):
    p_t = params.p_t_mw
    grid = np.linspace(0.0, p_t, 10_001)
    step = grid[1] - grid[0]
    rng = substream(0, "acc10")
    ieffs = 10.0 ** rng.uniform(-6.0, 3.0, size=1000)
    misses = 0
    for ieff in ieffs:
        util = sigmoid_utility(grid / ieff, grid)
        brute = grid[int(np.argmax(util))]
        best = best_response_power(float(ieff), p_t)
        if abs(best - brute) > step + 1e-9:
            misses += 1
    ok = misses == 0
    record(
        10, ok,
        f"closed best response within one 0.01 mW grid step of brute force "
        f"on {1000 - misses}/1000 interference draws",
    )
