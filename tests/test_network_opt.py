"""Network SINR coupling, the sum-throughput objective, and the GA power
search."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adhocmimo.config import SystemParams, db_to_linear
from adhocmimo.link_abstraction import RateEntry, RateTable
from adhocmimo.network_opt import (
    maximize_sum_throughput, rate_indices, sinr_in_all, split_gains, stack_tables,
)
from adhocmimo.radio_env import (
    Topology,
    noise_variance,
    path_gain,
    sample_topology,
    total_noise_power,
)
from adhocmimo.rng import substream

from conftest import (
    HIGH_SINR_D, HIGH_SINR_P, interference_by_hand, maximize_sum_throughput_reference,
    rate_indices_reference, table_rates,
)


def topo_from_d(d, params: SystemParams) -> Topology:
    d = np.asarray(d, dtype=float)
    return Topology(k=d.shape[0], d=d, rho=path_gain(d, params))


def sum_rate(p, topo: Topology, table, params: SystemParams) -> float:
    """Network sum rate with every pair on its best table mode at the SINR
    that allocation p produces."""
    sinr = sinr_in_all(np.asarray(p)[None], split_gains(topo.rho),
                       total_noise_power(params))
    return table_rates(table, sinr).sum()


def ga_one(topo: Topology, table, params: SystemParams, seed: int, extra=None):
    """The GA on a batch of one: (K,) allocation and its float sum."""
    p, fit = maximize_sum_throughput(
        [topo], [table], params, seeds=[seed],
        extra_seeds=None if extra is None else [extra])
    return p[0], float(fit[0])


# ---------------------------------------------------------------------------
# SINR coupling


def test_single_pair_sinr_formula(params):
    topo = topo_from_d([[10.0]], params)
    p = np.array([[params.p_t_mw]])
    want = params.p_t_mw * path_gain(10.0, params) / total_noise_power(params)
    noise = params.ns * noise_variance(params)
    got = sinr_in_all(p, split_gains(topo.rho), noise)
    assert got[0, 0] == pytest.approx(want, rel=1e-12)


def test_two_pair_sinr_by_hand(params):
    d = [[10.0, 50.0], [80.0, 20.0]]
    topo = topo_from_d(d, params)
    p = np.array([40.0, 90.0])
    noise = total_noise_power(params)
    g = path_gain(np.asarray(d), params)
    want0 = p[0] * g[0, 0] / (p[1] * g[0, 1] + noise)
    want1 = p[1] * g[1, 1] / (p[0] * g[1, 0] + noise)
    got = sinr_in_all(p[None], split_gains(topo.rho), noise)
    np.testing.assert_allclose(got, [[want0, want1]], rtol=1e-12)


def test_symmetric_pairs_see_equal_sinr(params):
    topo = topo_from_d([[30.0, 120.0], [120.0, 30.0]], params)
    got = sinr_in_all(np.array([[50.0, 50.0]]), split_gains(topo.rho),
                      total_noise_power(params))
    assert got[0, 0] == pytest.approx(got[0, 1], rel=1e-12)


def test_zero_power_gives_zero_sinr(params):
    topo = topo_from_d([[10.0, 40.0], [40.0, 10.0]], params)
    got = sinr_in_all(np.zeros((1, 2)), split_gains(topo.rho), total_noise_power(params))
    np.testing.assert_array_equal(got, [[0.0, 0.0]])


def test_sinr_batch_matches_rows(params):
    topo = sample_topology(3, params, substream(0, "topo"))
    noise = total_noise_power(params)
    batch = np.abs(np.random.default_rng(1).normal(50.0, 20.0, (5, 3)))
    got = sinr_in_all(batch, split_gains(topo.rho), noise)
    assert got.shape == (5, 3)
    for b in range(5):
        np.testing.assert_allclose(
            got[b], sinr_in_all(batch[b: b + 1], split_gains(topo.rho), noise)[0],
            rtol=1e-12)

    # (M, B, K) rows against (M, K, K) gains, as the GA and DPRC call it:
    # each member equals its own single-matrix result bit for bit
    for k in (1, 3, 7):
        rho = np.stack([sample_topology(k, params, substream(s, "stack", k)).rho
                        for s in range(4)])
        rows = np.abs(np.random.default_rng(k).normal(50.0, 20.0, (4, 6, k)))
        got = sinr_in_all(rows, split_gains(rho), noise)
        assert got.shape == (4, 6, k)
        for i in range(4):
            np.testing.assert_array_equal(
                got[i], sinr_in_all(rows[i], split_gains(rho[i]), noise))


def test_sinr_sums_the_interference_directly(params):
    # received power minus the signal would be 1e-8 off here
    rho = path_gain(np.asarray(HIGH_SINR_D), params)
    noise = total_noise_power(params)
    want = HIGH_SINR_P * np.diagonal(rho) / (
        interference_by_hand(HIGH_SINR_P, rho) + noise)
    got = sinr_in_all(HIGH_SINR_P, split_gains(rho), noise)
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_sinr_in_validates_allocation_shape(params):
    topo = topo_from_d([[10.0]], params)
    with pytest.raises(ValueError):
        sinr_in_all(np.ones((1, 3)), split_gains(topo.rho), total_noise_power(params))


# ---------------------------------------------------------------------------
# sum throughput


def test_sum_throughput_zero_allocation(params, table_cache):
    topo = topo_from_d([[10.0, 40.0], [40.0, 10.0]], params)
    assert sum_rate(np.zeros(2), topo, table_cache(4, "ideal"), params) == 0.0


def test_sum_throughput_strong_single_link_hits_top_mode(params, table_cache):
    topo = topo_from_d([[10.0]], params)
    got = sum_rate(np.array([params.p_t_mw]), topo,
                   table_cache(4, "ideal"), params)
    assert got == 192e6


def test_sum_throughput_permutation_invariant(params, table_cache):
    table = table_cache(4, "ideal")
    topo = sample_topology(4, params, substream(1, "perm"))
    p = np.abs(np.random.default_rng(2).normal(40.0, 30.0, 4))
    perm = np.array([2, 0, 3, 1])
    topo_p = Topology(k=4, d=topo.d[perm][:, perm], rho=topo.rho[perm][:, perm])
    assert sum_rate(p, topo, table, params) == sum_rate(
        p[perm], topo_p, table, params
    )


def test_sum_throughput_repeatable(params, table_cache):
    table = table_cache(4, "imp")
    topo = sample_topology(5, params, substream(2, "rep"))
    p = np.full(5, 25.0)
    assert sum_rate(p, topo, table, params) == sum_rate(
        p, topo, table, params
    )


# ---------------------------------------------------------------------------
# rate lookup


def ladder(thresholds_db) -> RateTable:
    """A table with one mode per threshold (dB), rates 1, 2, ... bps."""
    return RateTable(n_rx=1, flags_label="none", entries=tuple(
        RateEntry(rate_bps=float(i + 1), m=1, u=1, threshold_db=float(db))
        for i, db in enumerate(thresholds_db)))


@st.composite
def lookup_cases(draw):
    """Stacked thresholds of 1 to 4 tables of 0 to 8 modes each (so +inf
    padding, and tables with no modes), and (M, K) or (M, R, K) SINRs mixing
    exact thresholds, 0, 1e18 and free values."""
    tables = [
        ladder(sorted(draw(st.lists(st.floats(-10.0, 50.0), max_size=8, unique=True))))
        for _ in range(draw(st.integers(1, 4)))
    ]
    thresholds, _ = stack_tables(tables)
    shape = (len(tables), *draw(st.lists(st.integers(1, 5), min_size=1, max_size=2)))
    exact = [float(x) for t in tables for x in t.thresholds_linear] + [0.0, 1e18]
    values = st.one_of(st.sampled_from(exact), st.floats(0.0, 1e18))
    size = math.prod(shape)
    flat = draw(st.lists(values, min_size=size, max_size=size))
    return np.array(flat).reshape(shape), thresholds


@given(lookup_cases())
def test_rate_indices_match_the_column_loop(case):
    sinr, thresholds = case
    got, want = rate_indices(sinr, thresholds), rate_indices_reference(sinr, thresholds)
    assert got.dtype == want.dtype == np.intp
    np.testing.assert_array_equal(got, want)


def test_stack_tables_holds_at_most_255_modes():
    # rate_indices counts in uint8: 255 modes all count, 256 are refused
    full = ladder(np.arange(255) * 0.1)
    thresholds, _ = stack_tables([ladder([0.0]), full])
    idx = rate_indices(np.array([[1e18], [1e18]]), thresholds)
    np.testing.assert_array_equal(idx, [[1], [255]])
    with pytest.raises(ValueError, match="255"):
        stack_tables([ladder([0.0]), ladder(np.arange(256) * 0.1)])


# ---------------------------------------------------------------------------
# GA power search


def test_ga_single_pair_takes_full_power_rate(params, table_cache):
    topo = topo_from_d([[10.0]], params)
    p, fit = ga_one(topo, table_cache(4, "ideal"), params, seed=0)
    assert fit == 192e6
    assert 0.0 <= p[0] <= params.p_t_mw


def test_ga_never_below_corner_baselines(params, table_cache):
    table = table_cache(4, "imp")
    noise = total_noise_power(params)
    for seed in (3, 4):
        topo = sample_topology(4, params, substream(seed, "corner"))
        _, fit = ga_one(topo, table, params, seed=seed)
        corners = np.zeros((6, 4))
        corners[0] = params.p_t_mw
        corners[2:] = params.p_t_mw * np.eye(4)
        sinr = sinr_in_all(corners, split_gains(topo.rho), noise)
        best_corner = max(table_rates(table, sinr).sum(axis=-1))
        assert fit >= best_corner


def test_ga_silences_hopeless_pair(params, table_cache):
    # the second receiver sits next to the first transmitter; the optimum
    # runs one pair at the top rate and keeps the other dark
    table = table_cache(4, "ideal")
    topo = topo_from_d([[10.0, 300.0], [1.0, 250.0]], params)
    p, fit = ga_one(topo, table, params, seed=0)
    assert fit == 192e6
    sinr = sinr_in_all(p[None], split_gains(topo.rho), total_noise_power(params))
    assert (table_rates(table, sinr) > 0).sum() == 1


def test_ga_matches_brute_force_grid(params, table_cache):
    table = table_cache(4, "ideal")
    topo = sample_topology(3, params, substream(42, "brute"))
    _, fit = ga_one(topo, table, params, seed=0)

    levels = np.concatenate([[0.0], db_to_linear(np.arange(-10.0, 20.0 + 1e-9, 1.0))])
    grid = np.stack(np.meshgrid(levels, levels, levels, indexing="ij"), axis=-1)
    grid = grid.reshape(-1, 3)
    sinr = sinr_in_all(grid, split_gains(topo.rho), total_noise_power(params))
    brute = float(table_rates(table, sinr).sum(axis=-1).max())
    # one table step of slack covers grid quantization
    assert fit >= brute - 8e6


def test_ga_deterministic_per_seed(params, table_cache):
    table = table_cache(4, "imp")
    topo = sample_topology(3, params, substream(5, "det"))
    p1, f1 = ga_one(topo, table, params, seed=7)
    p2, f2 = ga_one(topo, table, params, seed=7)
    assert f1 == f2
    np.testing.assert_array_equal(p1, p2)


def test_ga_warm_start_seeds_are_kept(params, table_cache):
    # on this 3-pair layout the GA alone stops at 320 Mbps; the warm row
    # (near the minimum powers of the 96/192/48 Mbps modes) reaches 336 Mbps,
    # so the result matches it only if extra_seeds enters the population
    table = table_cache(4, "ideal")
    topo = sample_topology(3, params, substream(16, "warm"))
    warm = np.array([0.0065, 0.035, 0.0028])
    warm_sum = sum_rate(warm, topo, table, params)
    _, alone = ga_one(topo, table, params, seed=0)
    assert alone < warm_sum == 336e6
    _, fit = ga_one(topo, table, params, seed=0, extra=warm[None, :])
    assert fit == warm_sum


def test_ga_batch_members_match_batches_of_one(params, table_cache):
    # a member's result is bit-identical alone and in any batch order
    tables = [table_cache(4, name) for name in ("ideal", "imp", "pn", "ce")]
    topos = [sample_topology(4, params, substream(s, "batch")) for s in (11, 12)]
    members = [(t, tab, s) for s, t in enumerate(topos) for tab in tables]
    warm = [np.full(4, 2.0 + i) for i in range(len(members))]
    for extra in (None, warm):
        topo_b, table_b, seed_b = map(list, zip(*members))
        p_b, fit_b = maximize_sum_throughput(topo_b, table_b, params,
                                             seeds=seed_b, extra_seeds=extra)
        assert p_b.shape == (len(members), 4) and fit_b.shape == (len(members),)
        for i, (t, tab, seed) in enumerate(members):
            p, fit = maximize_sum_throughput(
                [t], [tab], params, seeds=[seed],
                extra_seeds=None if extra is None else [extra[i]])
            assert p.shape == (1, 4) and fit.shape == (1,)
            assert fit[0] == fit_b[i]
            np.testing.assert_array_equal(p[0], p_b[i])
        p_r, fit_r = maximize_sum_throughput(
            topo_b[::-1], table_b[::-1], params, seeds=seed_b[::-1],
            extra_seeds=None if extra is None else extra[::-1])
        np.testing.assert_array_equal(p_r[::-1], p_b)
        np.testing.assert_array_equal(fit_r[::-1], fit_b)


@pytest.mark.parametrize("k", [1, 2, 3, 6, 10])
def test_ga_matches_reference_bit_for_bit(params, table_cache, k):
    # K=1 has an odd population without extra rows, so one parent is unpaired.
    # The fixture rates are whole multiples of 8e6 bps, on which a fitness sum
    # in any order gives the same bits; at 1000.7 bps per bit the order shows
    fixtures = [table_cache(4, name) for name in ("ideal", "imp", "pn", "ideal")]
    non_whole = [
        RateTable(t.n_rx, t.flags_label, tuple(
            RateEntry(1000.7 * e.m * e.u, e.m, e.u, e.threshold_db) for e in t.entries))
        for t in fixtures
    ]
    topos = [sample_topology(k, params, substream(s, "ga-ref")) for s in range(4)]
    warm = 1.2 * params.p_t_mw * substream(k, "ga-ref-warm").random((4, 3, k))
    for tables in (fixtures, non_whole):
        for seeds in ([7, 7, 7, 7], [3, 4, 5, 6]):
            for extra in (None, warm[:, 0], warm):
                got = maximize_sum_throughput(topos, tables, params, seeds=seeds,
                                              extra_seeds=extra)
                want = maximize_sum_throughput_reference(
                    topos, tables, params, seeds=seeds, extra_seeds=extra)
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tobytes() == want[1].tobytes()


def test_ga_batch_input_validation(params, table_cache):
    table = table_cache(4, "ideal")
    t2 = sample_topology(2, params, substream(1, "val"))
    t3 = sample_topology(3, params, substream(2, "val"))
    with pytest.raises(ValueError):
        maximize_sum_throughput([t2, t3], [table, table], params, seeds=[0, 0])
    with pytest.raises(ValueError):
        maximize_sum_throughput([t2, t2], [table], params, seeds=[0, 0])
    with pytest.raises(ValueError):
        maximize_sum_throughput([t2, t2], [table, table], params, seeds=[0])
