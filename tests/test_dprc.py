"""Distributed power and rate control: the sigmoid utility game, the
threshold tracker, and the assembled two-stage algorithm."""

import math

import numpy as np
import pytest

from adhocmimo import dprc
from adhocmimo.config import SystemParams
from adhocmimo.dprc import (
    DprcState,
    best_response_power,
    run_dprc,
    sigmoid_utility,
    stage1,
    stage2,
)
from adhocmimo.link_abstraction import RateTable
from adhocmimo.network_opt import (
    interference_plus_noise,
    maximize_sum_throughput,
    rate_indices,
    sinr_in_all,
    split_gains,
    stack_gains,
    stack_tables,
)
from adhocmimo.radio_env import Topology, path_gain, sample_topology, total_noise_power
from adhocmimo.rng import substream

from conftest import HIGH_SINR_D, HIGH_SINR_P, interference_by_hand, table_rates


def topo_from_d(d, params: SystemParams) -> Topology:
    d = np.asarray(d, dtype=float)
    return Topology(k=d.shape[0], d=d, rho=path_gain(d, params))


def member(state: DprcState, j: int) -> DprcState:
    """Member j of a batch's state: (K,) powers and rate indices and a
    (2 * ROUNDS, K) history."""
    return DprcState(p=state.p[j], r=state.r[j],
                     history=tuple(h[j] for h in state.history))


def dprc_one(topo: Topology, table, params: SystemParams, rng):
    """run_dprc on a batch of one: the member's state and float sum."""
    state, totals = run_dprc([topo], [table], params, [rng])
    return member(state, 0), float(totals[0])


def stage2_one(p0, topo: Topology, table, params: SystemParams):
    """stage2 on a batch of one (K,) start: the member's (ROUNDS, K) powers,
    SINRs and aimed-at rate indices, and its final rate indices."""
    thr = stack_tables([table])[0]
    p, sinr, r = stage2(np.array([p0]), stack_gains([topo]), thr, params)
    return p[0], sinr[0], r[0], rate_indices(sinr[:, -1], thr)[0]


def sinr_of(p, topo: Topology, params: SystemParams) -> np.ndarray:
    """(K,) input SINR of one (K,) allocation."""
    return sinr_in_all(p[None], split_gains(topo.rho), total_noise_power(params))[0]


# ---------------------------------------------------------------------------
# utility shape


def test_default_sigmoid_midpoint_value():
    # BETA is the module's own formula, bit for bit
    assert dprc.BETA == dprc.GAMMA_SIG - math.log(
        dprc.SIGMOID_A * dprc.GAMMA_SIG - 1.0) / dprc.SIGMOID_A
    assert dprc.BETA == 7.908755278982246
    # the closed form 1.001 - ln(0.001) is 7.908755278982137: in floating
    # point 1.001 - 1.0 is 0.000999999999999889, 1.1e-13 below 0.001
    # relative, and the log turns that into 1.1e-13 absolute, 1.4e-14 of BETA
    assert dprc.BETA == pytest.approx(1.001 - math.log(0.001), rel=2e-14, abs=0)


def test_sigmoid_utility_midpoint_and_monotonicity():
    assert sigmoid_utility(dprc.BETA, 0.0) == 0.5
    assert sigmoid_utility(2.0, 0.0) < sigmoid_utility(8.0, 0.0)
    # price strictly penalizes power at fixed SINR
    u = [sigmoid_utility(5.0, p) for p in (0.0, 50.0, 100.0)]
    assert u[0] > u[1] > u[2]


# ---------------------------------------------------------------------------
# best response


def test_best_response_shuts_off_above_price_cutoff():
    # alpha * ieff >= a / 4 kills the interior maximum outright
    assert best_response_power(250.0, 100.0) == 0.0
    # just below the cutoff the interior optimum exists but cannot pay
    # its own price within the power budget
    assert best_response_power(249.0, 100.0) == 0.0


def test_best_response_interior_optimum():
    p = best_response_power(1.0, 100.0)
    assert 0.0 < p < 100.0
    # at ieff = 1 the optimum sits where the sigmoid has nearly saturated
    assert sigmoid_utility(p, p) > 0.9


def test_best_response_input_validation():
    with pytest.raises(ValueError):
        best_response_power(0.0, 100.0)
    with pytest.raises(ValueError):
        best_response_power(1.0, 0.0)


def test_best_response_matches_brute_force():
    p_t = 100.0
    p_grid = np.linspace(0.0, p_t, 10_001)
    rng = substream(0, "brute-ieff")
    ieffs = 10.0 ** rng.uniform(-6.0, 3.0, size=200)
    step = p_grid[1] - p_grid[0]
    for ieff in ieffs:
        util = sigmoid_utility(p_grid / ieff, p_grid)
        brute = p_grid[int(np.argmax(util))]
        best = best_response_power(float(ieff), p_t)
        assert abs(best - brute) <= step + 1e-9


def test_sigmoid_utility_matches_scipy_expit():
    from scipy.special import expit

    sinr = np.concatenate([[0.0], np.geomspace(1e-8, 1e8, 100_000 - 1)])
    got = sigmoid_utility(sinr, 0.0)
    want = expit(dprc.SIGMOID_A * (sinr - dprc.BETA))
    assert np.all(np.abs(got - want) <= 2 * np.spacing(want))
    assert sigmoid_utility(dprc.BETA, 0.0) == 0.5
    # far below beta exp(-x) overflows; the sigmoid reads 0 without a warning
    with np.errstate(all="raise"):
        assert sigmoid_utility(-1e4, 0.0) == 0.0


def utility_gain(p_from, p_to, ieff):
    """U(p_to) - U(p_from) for SINR p / ieff, written so that it does not
    subtract two utilities near 1: the sigmoid difference uses
    expit(z1) - expit(z0) = -e0 * expm1(-dz) / ((1 + e0) * (1 + e1)) with
    e = exp(-z). sigmoid_utility itself rounds to 1e-16, more than the
    second-order drop over a 1e-6 relative step when ieff is small."""
    z0 = dprc.SIGMOID_A * (p_from / ieff - dprc.BETA)
    dz = dprc.SIGMOID_A * (p_to - p_from) / ieff
    e0 = np.exp(-z0)
    d_sig = -e0 * np.expm1(-dz) / ((1.0 + e0) * (1.0 + e0 * np.exp(-dz)))
    return d_sig - dprc.PRICE_PER_MW * (p_to - p_from)


def test_best_response_exact_below_the_grid_resolution():
    # log-uniform over 1e-14..1e3 mW reaches the ~5e-12 mW of a 10 m pair,
    # far below the 0.01 mW step of the brute-force grid
    p_t = 100.0
    ieffs = 10.0 ** substream(0, "exact-ieff").uniform(-14.0, 3.0, size=5000)
    p = best_response_power(ieffs, p_t)
    assert p.shape == ieffs.shape
    scalar = np.array([best_response_power(float(x), p_t) for x in ieffs])
    np.testing.assert_array_equal(p, scalar)
    assert isinstance(best_response_power(1.0, p_t), float)

    interior = (p > 0.0) & (p < p_t)
    assert interior.sum() > 1000
    pi, ii = p[interior], ieffs[interior]
    for step in (1.0 + 1e-6, 1.0 - 1e-6):
        assert np.all(utility_gain(pi, pi * step, ii) <= 0.0)


# ---------------------------------------------------------------------------
# stage 1


def test_interference_plus_noise_sums_the_interferers_directly(params):
    # the load stage 1 reads each round is the network layer's sum
    rho = path_gain(np.asarray(HIGH_SINR_D), params)
    noise = total_noise_power(params)
    want = interference_by_hand(HIGH_SINR_P, rho) + noise
    _, cross = split_gains(np.stack([rho, rho]))
    got = interference_plus_noise(HIGH_SINR_P[:, None], cross, noise)[:, 0]
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_stage1_single_pair_settles_in_one_round(params):
    topo = topo_from_d([[10.0]], params)
    p_h, sinr_h = stage1(stack_gains([topo]), params, [substream(0, "s1")])
    assert p_h.shape == sinr_h.shape == (1, dprc.ROUNDS, 1)
    powers = p_h[0, :, 0]
    # without interference the response never changes after the first round
    assert np.all(powers == powers[0])
    assert powers[0] > 0.0
    # stage 1's SINR rows are sinr_in_all's, bit for bit, alone and with
    # three pairs that interfere
    for topo in (topo, topo_from_d(HIGH_SINR_D, params)):
        p_h, sinr_h = stage1(stack_gains([topo]), params, [substream(0, "s1")])
        np.testing.assert_array_equal(sinr_h[0], sinr_in_all(
            p_h[0], split_gains(topo.rho), total_noise_power(params)))


def test_stage1_mutual_outage_shuts_both_off(params):
    # each receiver sits 1 m from the other transmitter and 300 m from its
    # own; any plausible start price both pairs out of the game
    topo = topo_from_d([[300.0, 1.0], [1.0, 300.0]], params)
    p_h, _ = stage1(stack_gains([topo]), params, [substream(3, "s1")])
    np.testing.assert_array_equal(p_h[0, 0], [0.0, 0.0])


def test_stage1_deterministic(params):
    gains = stack_gains([sample_topology(5, params, substream(4, "topo"))])
    a = stage1(gains, params, [substream(7, "s1")])
    b = stage1(gains, params, [substream(7, "s1")])
    for x, y in zip(a, b, strict=True):
        np.testing.assert_array_equal(x, y)


# ---------------------------------------------------------------------------
# stage 2


def test_stage2_one_round_lands_on_threshold(params, table_cache):
    table = table_cache(4, "ideal")
    thr = table.thresholds_linear
    topo = topo_from_d([[10.0]], params)
    noise = total_noise_power(params)
    p0 = [thr[2] * noise / topo.rho[0, 0] * 1.0000001]
    _, sinr_h, _, _ = stage2_one(p0, topo, table, params)
    assert sinr_h[0, 0] == pytest.approx(thr[2], rel=1e-12)


def test_stage2_parks_on_some_threshold(params, table_cache):
    table = table_cache(4, "ideal")
    thr = table.thresholds_linear
    topo = topo_from_d([[10.0]], params)
    noise = total_noise_power(params)
    p0 = [thr[5] * noise / topo.rho[0, 0] * 3.7]
    p_h, _, _, r = stage2_one(p0, topo, table, params)
    sinr = sinr_of(p_h[-1], topo, params)[0]
    assert min(abs(sinr / t - 1.0) for t in thr) < 1e-9
    assert r[0] > 0
    assert p_h[-1, 0] <= p0[0]


def test_stage2_leaves_infeasible_pair_untouched(params, table_cache):
    table = table_cache(4, "ideal")
    topo = topo_from_d([[10.0]], params)
    noise = total_noise_power(params)
    p0 = [0.5 * table.thresholds_linear[0] * noise / topo.rho[0, 0]]
    p_h, _, r_h, r = stage2_one(p0, topo, table, params)
    np.testing.assert_array_equal(p_h, np.broadcast_to(p0, p_h.shape))
    assert not r_h.any() and r[0] == 0


def test_stage2_keeps_the_rate_it_lands_on_from_a_high_sinr(params, table_cache):
    # pair 0 starts near 76 dB over a faint interferer; were its
    # interference total received power minus the signal, the rescaled SINR
    # would land 1e-9 below the top threshold and the next round would read
    # it one mode lower
    table = table_cache(4, "ideal")
    topo = topo_from_d([[10.0, 300.0], [300.0, 10.0]], params)
    _, sinr_h, r_h, r = stage2_one([100.0, 1e-6], topo, table, params)
    top = table.thresholds_linear.size
    assert r_h[:, 0].tolist() == [top] * dprc.ROUNDS
    assert sinr_h[-1, 0] >= table.thresholds_linear[-1] and r[0] == top


def test_stage2_keeps_rate_started_just_above_each_threshold(params, table_cache):
    # rescaling onto a threshold must not round the SINR below it, or the
    # next round reads the pair one mode lower
    table = table_cache(4, "ideal")
    thr = table.thresholds_linear
    topo = topo_from_d([[10.0]], params)
    noise = total_noise_power(params)
    for j in range(thr.size):
        p0 = [thr[j] * noise / topo.rho[0, 0] * (1.0 + 1e-9)]
        _, _, r_h, r = stage2_one(p0, topo, table, params)
        assert r_h[:, 0].tolist() == [j + 1] * dprc.ROUNDS
        assert r[0] == j + 1


# ---------------------------------------------------------------------------
# the assembled algorithm


def test_run_dprc_single_strong_pair(params, table_cache):
    table = table_cache(4, "ideal")
    topo = topo_from_d([[10.0]], params)
    state, total = dprc_one(topo, table, params, substream(0, "dprc"))
    # alone, the pair's stage-1 SINR is the closed-form optimum
    # beta + ln(sg / (1 - sg)) / a at ieff = noise / own gain
    ieff = total_noise_power(params) / topo.rho[0, 0]
    q = 4.0 * dprc.PRICE_PER_MW * ieff / dprc.SIGMOID_A
    sg = 0.5 * (1.0 + math.sqrt(1.0 - q))
    one_minus_sg = q / (2.0 * (1.0 + math.sqrt(1.0 - q)))
    sinr_opt = dprc.BETA + math.log(sg / one_minus_sg) / dprc.SIGMOID_A
    _, sinr_h, r_h = state.history
    assert sinr_h.shape == r_h.shape == (2 * dprc.ROUNDS, 1)
    # the first ROUNDS rows are stage 1's
    np.testing.assert_allclose(sinr_h[: dprc.ROUNDS, 0], sinr_opt, rtol=1e-9)
    # stage-1 rows report the mode that SINR clears, not rate 0
    assert np.all(table.rates_by_index[r_h[: dprc.ROUNDS, 0]] == 64e6)
    assert 10.0 * math.log10(sinr_opt) == pytest.approx(16.11, abs=0.005)
    # the tracker parks on the threshold of the mode that SINR clears
    # (12.9 dB) and keeps that rate
    assert total == table_rates(table, sinr_opt) == 64e6
    assert state.r[0] > 0
    sinr = sinr_of(state.p, topo, params)[0]
    assert sinr >= table.thresholds_linear[state.r[0] - 1]


def test_run_dprc_mutual_outage_is_silent(params, table_cache):
    table = table_cache(4, "ideal")
    topo = topo_from_d([[300.0, 1.0], [1.0, 300.0]], params)
    state, total = dprc_one(topo, table, params, substream(0, "dprc"))
    assert total == 0.0
    np.testing.assert_array_equal(state.r, [0, 0])


def test_run_dprc_powers_stay_in_budget(params, table_cache):
    table = table_cache(4, "imp")
    topo = sample_topology(3, params, substream(9, "topo"))
    state, _ = dprc_one(topo, table, params, substream(9, "dprc"))
    p_h = state.history[0]
    # one row per round of stage 1 and of stage 2
    assert p_h.shape == (2 * dprc.ROUNDS, 3)
    assert np.all(p_h >= 0.0) and np.all(p_h <= params.p_t_mw)


def test_run_dprc_final_rates_are_feasible(params, table_cache):
    table = table_cache(4, "ideal")
    thr = table.thresholds_linear
    slack = 10.0 ** (-0.001)           # 0.01 dB
    for seed in range(30):
        topo = sample_topology(3, params, substream(seed, "feas-topo"))
        state, _ = dprc_one(topo, table, params, substream(seed, "feas"))
        sinr = sinr_of(state.p, topo, params)
        for j in range(topo.k):
            if state.r[j] > 0:
                assert sinr[j] >= thr[state.r[j] - 1] * slack


def test_run_dprc_never_beats_warm_started_optimum(params, table_cache):
    table = table_cache(4, "ideal")
    for seed in range(3):
        topo = sample_topology(3, params, substream(seed, "cmp-topo"))
        state, total = dprc_one(topo, table, params, substream(seed, "cmp"))
        _, best = maximize_sum_throughput(
            [topo], [table], params, seeds=[seed], extra_seeds=[state.p])
        assert total <= best[0]


def _assert_same_state(a, b):
    for x, y in zip((a.p, a.r, *a.history), (b.p, b.r, *b.history), strict=True):
        np.testing.assert_array_equal(x, y)


def test_dprc_batch_members_match_batches_of_one(params, table_cache):
    # a member's result, history included, is bit-identical alone and in
    # any batch order
    tables = [table_cache(4, name) for name in ("ideal", "imp", "pn", "ce")]
    for k in (3, 6):
        topos = [sample_topology(k, params, substream(s, "dprc-batch", k))
                 for s in (21, 22)]
        members = [(t, tab, (s, i)) for s, t in enumerate(topos)
                   for i, tab in enumerate(tables)]
        topo_b, table_b, seed_b = map(list, zip(*members))
        n = len(members)

        def rngs(seeds):
            return [substream(s, "dprc-batch-rng", i) for s, i in seeds]

        state, sums = run_dprc(topo_b, table_b, params, rngs(seed_b))
        assert state.p.shape == state.r.shape == (n, k) and sums.shape == (n,)
        assert all(h.shape == (n, 2 * dprc.ROUNDS, k) for h in state.history)
        for j, (t, tab, s) in enumerate(members):
            alone, alone_total = run_dprc([t], [tab], params, rngs([s]))
            assert alone_total.shape == (1,) and alone_total[0] == sums[j]
            _assert_same_state(member(state, j), member(alone, 0))
        rev, rev_sums = run_dprc(topo_b[::-1], table_b[::-1], params,
                                 rngs(seed_b[::-1]))
        np.testing.assert_array_equal(rev_sums[::-1], sums)
        for j in range(n):
            _assert_same_state(member(rev, n - 1 - j), member(state, j))


def test_history_rate_indices_follow_the_sinr_rows(params, table_cache):
    # a stage-1 row reports the rate index its own SINR clears; a stage-2
    # row the index it aimed at, which the previous row's SINR clears; the
    # final rates are read off the last row's SINR
    tables = [table_cache(4, name) for name in ("ideal", "imp")]
    topos = [sample_topology(6, params, substream(s, "dprc-hist")) for s in range(3)]
    members = [(t, tab) for t in topos for tab in tables]
    rngs = [substream(0, "dprc-hist-rng", i) for i in range(len(members))]
    state, _ = run_dprc(*map(list, zip(*members)), params, rngs)
    _, sinr_h, r_h = state.history
    rounds = dprc.ROUNDS
    shifted = 0
    for j, (_, tab) in enumerate(members):
        idx = np.searchsorted(tab.thresholds_linear, sinr_h[j], side="right")
        np.testing.assert_array_equal(r_h[j, :rounds], idx[:rounds])
        np.testing.assert_array_equal(r_h[j, rounds:], idx[rounds - 1:-1])
        np.testing.assert_array_equal(state.r[j], idx[-1])
        shifted += np.count_nonzero(r_h[j, rounds:] != idx[rounds:])
    # some stage-2 row's own SINR clears another index than the one it aimed
    # at, so the one-row shift is not vacuous
    assert shifted > 0


def test_empty_rate_table_reads_zero(params, table_cache):
    # a table in which no mode met the BER target puts every pair in outage,
    # alone or batched, and leaves a shipped table's member unchanged
    empty = RateTable(n_rx=4, flags_label="none", entries=())
    shipped = table_cache(4, "ideal")
    topo = sample_topology(3, params, substream(0, "empty-table"))

    def rngs(n):
        return [substream(0, "empty-table-rng", i) for i in range(n)]

    _, dprc_alone = run_dprc([topo], [empty], params, rngs(1))
    _, mst_alone = maximize_sum_throughput([topo], [empty], params, seeds=[0])
    assert dprc_alone[0] == 0.0 and mst_alone[0] == 0.0
    state, dprc_sums = run_dprc([topo, topo], [empty, shipped], params, rngs(2))
    ref, ref_sum = run_dprc([topo], [shipped], params, rngs(2)[1:])
    _assert_same_state(member(state, 1), member(ref, 0))
    assert dprc_sums[0] == 0.0 and dprc_sums[1] == ref_sum[0] > 0.0
    _, mst = maximize_sum_throughput([topo, topo], [empty, shipped], params, seeds=[0, 1])
    _, mst_ref = maximize_sum_throughput([topo], [shipped], params, seeds=[1])
    assert mst[0] == 0.0 and mst[1] == mst_ref[0] > 0.0


def test_dprc_batch_input_validation(params, table_cache):
    table = table_cache(4, "ideal")
    t2 = sample_topology(2, params, substream(1, "val"))
    t3 = sample_topology(3, params, substream(2, "val"))

    def rngs(n):
        return [substream(0, "val-rng", i) for i in range(n)]

    with pytest.raises(ValueError):
        run_dprc([t2, t3], [table, table], params, rngs(2))
    with pytest.raises(ValueError):
        run_dprc([t2, t2], [table], params, rngs(2))
    with pytest.raises(ValueError):
        run_dprc([t2, t2], [table, table], params, rngs(1))
