"""Network SINR coupling, the sum-throughput objective, and the GA power
search."""

import numpy as np
import pytest

from adhocmimo.config import SystemParams, dbm_to_mw
from adhocmimo.network_opt import maximize_sum_throughput, sinr_in_all, split_gains
from adhocmimo.radio_env import (
    Topology,
    noise_variance,
    path_gain,
    sample_topology,
    total_noise_power,
)
from adhocmimo.rng import substream

from conftest import HIGH_SINR_D, HIGH_SINR_P, interference_by_hand, table_rates


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

    levels = np.concatenate([[0.0], dbm_to_mw(np.arange(-10.0, 20.0 + 1e-9, 1.0))])
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
