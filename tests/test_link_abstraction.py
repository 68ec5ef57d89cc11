"""Constellations, MMSE detection statistics, the semi-analytic BER chain,
and rate-table construction."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import erfc

from adhocmimo import link_abstraction
from adhocmimo.config import SystemParams, db_to_linear
from adhocmimo.experiments_cli import spec_from_args
from adhocmimo.impairment_model import RFO_EPS_LIMIT, rfo_std, sinr_after_rfo
from adhocmimo.link_abstraction import (
    FLAG_SETS,
    GRID_STEP_DB,
    SINR_HI_DB,
    SINR_LO_DB,
    ImpairmentFlags,
    RateEntry,
    RateTable,
    _ber_given_stats,
    _ber_per_draw,
    _detection_stats,
    _gh_nodes,
    _pareto_front,
    ber_end_to_end,
    build_rate_table,
    make_mod_scheme,
    mmse_weights,
    select_mode,
    table_build_key,
    training_length,
)
from adhocmimo.network_opt import rate_indices, stack_tables
from adhocmimo.rng import complex_normal, substream

from conftest import (
    CACHE_DIR,
    conditional_ber,
    mmse_weights_elimination_reference,
    mmse_weights_reference,
    simulate_conditional_ber,
)


def q_func(x: float) -> float:
    return 0.5 * erfc(x / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# constellations


@pytest.mark.parametrize("u,d", [(1, 1), (2, 2), (4, 10), (6, 42)])
def test_constellation_energy_and_size(u, d):
    mod = make_mod_scheme(u)
    assert mod.edges.tolist() == (mod.levels[:-1] + 1 / math.sqrt(d)).tolist()
    assert len(mod.points) == 2 ** u
    assert np.mean(np.abs(mod.points) ** 2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("u", [2, 4, 6])
def test_gray_labels_differ_by_one_bit_between_neighbor_levels(u):
    mod = make_mod_scheme(u)
    for a, b in zip(mod.gray[:-1], mod.gray[1:]):
        assert bin(int(a) ^ int(b)).count("1") == 1
    # both axes take the one axis' levels and Gray bits: a label's high bits
    # code its real level, its low u/2 bits its imaginary level
    labels = np.arange(2 ** u)
    im_index = np.searchsorted(mod.levels, mod.points.imag)
    np.testing.assert_array_equal(mod.points.real, mod.levels[mod.re_index])
    np.testing.assert_array_equal(mod.points.imag, mod.levels[im_index])
    np.testing.assert_array_equal(mod.gray[mod.re_index], labels >> (u // 2))
    np.testing.assert_array_equal(mod.gray[im_index], labels % 2 ** (u // 2))


def test_bpsk_is_antipodal():
    mod = make_mod_scheme(1)
    np.testing.assert_allclose(mod.points, [-1.0, 1.0])
    assert not mod.has_im_axis


def test_unsupported_bits_per_symbol():
    with pytest.raises(ValueError):
        make_mod_scheme(3)


@pytest.mark.parametrize("u", [1, 2, 4, 6])
def test_decision_edges_are_shared_and_read_only(u):
    # the scheme is cached, so every caller reads the same two edge arrays;
    # a write into one would corrupt every later kernel call and demap
    mod = make_mod_scheme(u)
    assert mod.edges.size == mod.slice_edges.size == len(mod.levels) - 1
    for name in ("edges", "slice_edges"):
        arr = getattr(mod, name)
        assert not arr.flags.writeable
        assert getattr(make_mod_scheme(u), name) is arr


def test_training_length_rounds_up_to_power_of_two():
    assert [training_length(m) for m in (1, 2, 3, 4)] == [1, 2, 4, 4]
    with pytest.raises(ValueError):
        training_length(0)


# ---------------------------------------------------------------------------
# channel estimation and detection


def test_mmse_weights_scalar_closed_form():
    h = np.array([[0.8 - 0.3j]])
    s = 5.0
    w = mmse_weights(h, s)
    want = np.conj(h[0, 0]) / (abs(h[0, 0]) ** 2 + 1.0 / s)
    assert w[0, 0] == pytest.approx(want, rel=1e-12)
    # effective diagonal gain sits strictly inside (0, 1)
    gain = (w @ h)[0, 0]
    assert abs(gain.imag) < 1e-15
    assert 0.0 < gain.real < 1.0


def test_mmse_weights_zero_forcing_limit():
    h = complex_normal(substream(2, "h"), (3, 3))
    w = mmse_weights(h, 1e12)
    np.testing.assert_allclose(w @ h, np.eye(3), atol=1e-6)


def test_mmse_weights_batched_matches_loop():
    h = complex_normal(substream(3, "h"), (5, 4, 2))
    s = np.linspace(1.0, 9.0, 5)
    batched = mmse_weights(h, s)
    for i in range(5):
        np.testing.assert_allclose(batched[i], mmse_weights(h[i], s[i]), rtol=1e-12)


@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 5) for m in range(1, n + 1)])
def test_mmse_weights_match_lapack_reference(n, m):
    # Both forms are exact up to round-off scaled by the condition number of
    # the system each solves; kappa = 1 + sinr |H|_F^2 bounds both the
    # (N, N) and the (M, M) one. Measured differences stay below 2.1 eps kappa
    # of the largest weight, for every (n, m) here, with SINR up to 1e5.
    # The Gram fill skips the diagonal's self-conjugate write, which leaves
    # every bit of the elimination's first form.
    rng = substream(0, "mmse-reference", 10 * n + m)
    sinr = np.logspace(-2, 5, 15)
    cases = [((), 1e-2), ((), 1e5), ((15,), sinr), ((4, 15), sinr), ((4, 15), 30.0)]
    for shape, s in cases:
        h = complex_normal(rng, shape + (n, m))
        got, want = mmse_weights(h, s), mmse_weights_reference(h, s)
        assert got.shape == want.shape == shape + (m, n)
        assert got.tobytes() == mmse_weights_elimination_reference(h, s).tobytes()
        kappa = 1.0 + np.asarray(s) * np.sum(np.abs(h) ** 2, axis=(-1, -2))
        scale = np.max(np.abs(want), axis=(-1, -2))
        diff = np.max(np.abs(got - want), axis=(-1, -2))
        assert np.all(diff <= 16 * np.finfo(float).eps * kappa * scale)
    empty = np.zeros((0, n, m), dtype=complex)
    for s in (2.0, np.ones(0)):
        assert mmse_weights(empty, s).shape == (0, m, n)
        assert mmse_weights_reference(empty, s).shape == (0, m, n)


# ---------------------------------------------------------------------------
# conditional BER


def test_bpsk_awgn_closed_form():
    mod = make_mod_scheme(1)
    h = np.array([[1.0 + 0.0j]])
    for s in (1.0, 4.0, 10.0):
        want = q_func(math.sqrt(2.0 * s))
        assert conditional_ber(h, h, s, mod) == pytest.approx(want, rel=1e-9)


def test_orthogonal_channel_noiseless_limit():
    mod = make_mod_scheme(2)
    h = np.eye(2, dtype=complex)
    assert conditional_ber(h, h, 1e12, mod) < 1e-15


@given(st.integers(min_value=0, max_value=1000))
def test_conditional_ber_bounds(seed):
    rng = substream(seed, "cond-bounds")
    h = complex_normal(rng, (2, 2))
    h_hat = h + math.sqrt(2 / (training_length(2) * 5.0)) * complex_normal(rng, h.shape)
    ber = conditional_ber(h, h_hat, 5.0, make_mod_scheme(4))
    assert 0.0 <= ber <= 1.0


@given(st.integers(min_value=0, max_value=1000))
def test_bpsk_conditional_ber_at_most_half(seed):
    rng = substream(seed, "cond-bpsk")
    h = complex_normal(rng, (3, 2))
    ber = conditional_ber(h, h, 2.0, make_mod_scheme(1))
    assert ber <= 0.5 + 1e-9


def test_conditional_ber_input_validation():
    mod = make_mod_scheme(2)
    h = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        conditional_ber(h, h, 0.0, mod)
    with pytest.raises(ValueError):
        conditional_ber(h, np.eye(3, dtype=complex), 1.0, mod)


def test_conditional_ber_matches_oracle():
    # the post-detection variance model tracks the symbol simulation
    rng = substream(11, "arbitration")
    s = db_to_linear(12.0)
    mod = make_mod_scheme(4)
    h = complex_normal(rng, (4, 4))
    h_hat = h + math.sqrt(4 / (training_length(4) * s)) * complex_normal(rng, h.shape)
    oracle = simulate_conditional_ber(h, h_hat, s, mod, 200_000, rng)
    ber = conditional_ber(h, h_hat, s, mod)
    assert abs(ber - oracle.ber) <= 0.03 * oracle.ber


def _ber_given_stats_by_label(s_diag, sigma2, mod):
    """Brute-force reference for the orbit kernel: every (label, axis) pair
    integrates its own decision regions, one Q evaluation per edge."""
    sig = np.maximum(np.sqrt(np.maximum(sigma2, 0.0) / 2.0), 1e-300)
    edges = mod.edges
    axes = [(np.real, mod.re_index)]
    if mod.has_im_axis:
        axes.append((np.imag, np.searchsorted(mod.levels, mod.points.imag)))
    acc = np.zeros(s_diag.shape)
    for label, z in enumerate(mod.points):
        for part, level_index in axes:
            tail = q_func((edges - part(s_diag * z)[..., None]) / sig[..., None])
            upper = np.concatenate([np.ones(acc.shape + (1,)), tail], axis=-1)
            lower = np.concatenate([tail, np.zeros(acc.shape + (1,))], axis=-1)
            flips = [bin(int(g) ^ int(mod.gray[level_index[label]])).count("1")
                     for g in mod.gray]
            acc += (upper - lower) @ np.array(flips, dtype=float)
    return (acc / (len(mod.points) * mod.u)).mean(axis=-1)


# SINR per bits/symbol at which every draw's BER sits well above the
# round-off of a region probability, so rtol=1e-12 compares the kernels
_KERNEL_SINR_DB = {1: -3.0, 2: 0.0, 4: 6.0, 6: 12.0}


@pytest.mark.parametrize("u", [1, 2, 4, 6])
@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("estimated", [False, True], ids=["hermitian", "complex"])
def test_orbit_kernel_matches_per_label_reference(u, m, estimated):
    # h_hat = h gives a real (Hermitian) diagonal gain; an estimate error
    # makes it complex, which exercises the Im(s z) = Re(s (-i z)) identity
    mod = make_mod_scheme(u)
    s = db_to_linear(_KERNEL_SINR_DB[u])
    rng = substream(u, "orbit-kernel", m)
    h = complex_normal(rng, (200, 4, m))
    h_hat = h + 0.3 * complex_normal(rng, h.shape) if estimated else h
    scale = 1.0 / math.sqrt(m)
    s_diag, sigma2 = _detection_stats(h * scale, h_hat * scale, s)
    assert (np.abs(s_diag.imag).max() > 1e-3) == estimated
    np.testing.assert_allclose(
        _ber_given_stats(s_diag, sigma2, mod),
        _ber_given_stats_by_label(s_diag, sigma2, mod), rtol=1e-12)


def test_orbit_kernel_keeps_bpsk_tail_precision():
    # with a real gain the BPSK BER is Q(s / sigma); the representative's
    # error region lies above its mean, so even a 1e-25 BER keeps full
    # relative precision (a region probability formed as 1 - Q near 1
    # would round to a multiple of 1e-16)
    mod = make_mod_scheme(1)
    s_diag = np.array([[0.9 + 0.0j], [0.99 + 0.0j]])
    sigma2 = np.array([[0.02], [0.0002]])
    want = q_func(s_diag.real / np.sqrt(sigma2 / 2.0))[:, 0]
    assert want.min() < 1e-20
    np.testing.assert_allclose(_ber_given_stats(s_diag, sigma2, mod), want, rtol=1e-12)


def test_split_kernel_keeps_deep_tail_precision():
    # 16-QAM with a real gain: the representatives' error regions below
    # their level are lower tails, which a difference of two upper tails
    # near 1 loses (the first orbit kernel read 3.81e-24 here, 33% low).
    # The reference is the same Gaussian model summed over every (label,
    # axis, region) in 60-digit arithmetic with mpmath.
    mod = make_mod_scheme(4)
    got = _ber_given_stats(np.array([[1.0 + 0.0j]]), np.array([[2e-3]]), mod)
    np.testing.assert_allclose(got, [5.7148897681204005561e-24], rtol=1e-12)


@pytest.mark.parametrize("quad_order", [15, 16])
def test_folded_quadrature_matches_full_node_sum(params, monkeypatch, quad_order):
    # the offset integrand is even, so the non-negative nodes with mirrored
    # weights give the sum over every node, for odd and even orders alike
    monkeypatch.setattr(link_abstraction, "QUAD_ORDER", quad_order)
    mod = make_mod_scheme(4)
    flags = FLAG_SETS["rfo+ce"]
    rng = substream(8, "fold")
    h = complex_normal(rng, (300, 2, 2))
    e_raw = complex_normal(rng, h.shape)
    sinr = db_to_linear(12.0)
    nodes, weights = np.polynomial.hermite.hermgauss(quad_order)
    eps = np.clip(math.sqrt(2.0) * rfo_std(sinr, params.ns) * nodes,
                  -RFO_EPS_LIMIT, RFO_EPS_LIMIT)
    full = np.zeros(h.shape[0])
    scale = 1.0 / math.sqrt(2)
    for w_node, s_node in zip(weights / math.sqrt(math.pi), sinr_after_rfo(sinr, eps)):
        h_hat = h + math.sqrt(2 / (training_length(2) * s_node)) * e_raw
        stats = _detection_stats(h * scale, h_hat * scale, s_node)
        full += w_node * _ber_given_stats(*stats, mod)
    folded = _ber_per_draw(sinr, h, e_raw, mod, flags, params)
    np.testing.assert_allclose(folded, full, rtol=1e-14)


def test_gauss_hermite_nodes_are_cached_per_order_and_read_only():
    nodes, weights = _gh_nodes(15)
    assert _gh_nodes(15)[0] is nodes and _gh_nodes(15)[1] is weights
    assert not nodes.flags.writeable and not weights.flags.writeable
    # keyed by the order, so a patched QUAD_ORDER still gets its own nodes
    assert len(_gh_nodes(7)[0]) == 4 and len(nodes) == 8


# ---------------------------------------------------------------------------
# channel-averaged BER: the end-to-end chain


def test_ber_end_to_end_single_draw_and_determinism(params):
    mod = make_mod_scheme(2)
    ce = FLAG_SETS["ce"]
    ber1, se1 = ber_end_to_end(5.0, 2, 2, mod, ce, params, 1, substream(0, "avg"))
    assert se1 == 0.0
    ber2, _ = ber_end_to_end(5.0, 2, 2, mod, ce, params, 1, substream(0, "avg"))
    assert ber1 == ber2


def test_ber_end_to_end_monotone_under_crn(params):
    mod = make_mod_scheme(2)
    vals = [
        ber_end_to_end(db_to_linear(s_db), 2, 2, mod, FLAG_SETS["ideal"],
                       params, 200, substream(0, "crn"))[0]
        for s_db in (2.0, 6.0, 10.0, 14.0)
    ]
    assert all(a > b for a, b in zip(vals[:-1], vals[1:]))


def test_ber_end_to_end_standard_error_shrinks(params):
    mod = make_mod_scheme(2)
    ce = FLAG_SETS["ce"]
    _, se_small = ber_end_to_end(5.0, 2, 2, mod, ce, params, 500, substream(1, "se"))
    _, se_big = ber_end_to_end(5.0, 2, 2, mod, ce, params, 2000, substream(2, "se"))
    assert 0.3 < se_big / se_small < 0.75


def test_ber_end_to_end_rfo_point_mass_limit():
    # an enormous subcarrier count drives the offset deviation to zero
    huge = SystemParams(ns=10 ** 12, ws_hz=20e6 / 10 ** 12)
    mod = make_mod_scheme(2)
    s = db_to_linear(10.0)
    with_rfo, _ = ber_end_to_end(s, 2, 2, mod, FLAG_SETS["rfo"], huge,
                                 n_draws=300, rng=substream(4, "limit"))
    without, _ = ber_end_to_end(s, 2, 2, mod, FLAG_SETS["ideal"], huge,
                                n_draws=300, rng=substream(4, "limit"))
    assert with_rfo == pytest.approx(without, rel=1e-9)


def test_erfc_is_scipys_and_every_q_call_goes_through_the_module_name(params, monkeypatch):
    # the benchmark's tracer counts BER work by wrapping link_abstraction.erfc:
    # each kernel call makes one erfc call through that name, one element per
    # (draw, stream, representative, edge)
    x = substream(7, "erfc").normal(0.0, 3.0, size=(40, 25))
    np.testing.assert_array_equal(link_abstraction.erfc(x), erfc(x))

    kernel_calls = [0]
    erfc_sizes = []

    def counting_kernel(*args):
        kernel_calls[0] += 1
        return _ber_given_stats(*args)

    def counting_erfc(arg):
        erfc_sizes.append(np.size(arg))
        return erfc(arg)

    monkeypatch.setattr(link_abstraction, "_ber_given_stats", counting_kernel)
    monkeypatch.setattr(link_abstraction, "erfc", counting_erfc)
    flags = FLAG_SETS["imp"]
    n_draws, m, mod = 50, 2, make_mod_scheme(4)
    ber_end_to_end(db_to_linear(15.0), m, 2, mod, flags, params,
                   n_draws=n_draws, rng=substream(7, "hook"))
    per_call = n_draws * m * (len(mod.points) // 2) * (len(mod.levels) - 1)
    assert kernel_calls[0] > 0
    assert erfc_sizes == [per_call] * kernel_calls[0]


def test_ber_end_to_end_quadrature_order_stable(params, monkeypatch):
    mod = make_mod_scheme(2)
    flags = FLAG_SETS["rfo+ce"]
    bers = {}
    for order in (7, 15):
        monkeypatch.setattr(link_abstraction, "QUAD_ORDER", order)
        bers[order], _ = ber_end_to_end(db_to_linear(20.0), 2, 2, mod, flags, params,
                                        n_draws=300, rng=substream(5, "quad"))
    assert bers[7] == pytest.approx(bers[15], rel=0.02)


def test_ber_end_to_end_rejects_bad_sinr(params):
    for bad in (-1e-9, float("nan")):
        with pytest.raises(ValueError):
            ber_end_to_end(bad, 1, 1, make_mod_scheme(1), FLAG_SETS["imp"],
                           params, 1, substream(0, "bad-sinr"))


def test_bad_draw_count_rejected_at_the_library_boundary(params):
    for bad in (0, -3):
        with pytest.raises(ValueError, match="n_draws"):
            ber_end_to_end(10.0, 1, 1, make_mod_scheme(2), FLAG_SETS["imp"],
                           params, bad, substream(0, "bad-draws"))
        with pytest.raises(ValueError, match="n_draws"):
            build_rate_table(1, FLAG_SETS["imp"], params, seed=0, n_draws=bad)


def test_ber_end_to_end_zero_sinr_is_coin_flip(params):
    ber, se = ber_end_to_end(0.0, 2, 2, make_mod_scheme(2),
                             FLAG_SETS["imp"], params, 1, substream(0, "zero"))
    assert (ber, se) == (0.5, 0.0)


def test_ber_end_to_end_rejects_more_streams_than_antennas(params):
    with pytest.raises(ValueError):
        ber_end_to_end(10.0, 3, 2, make_mod_scheme(2),
                       FLAG_SETS["ideal"], params, 1, substream(0, "streams"))
    with pytest.raises(ValueError):
        ber_end_to_end(10.0, 0, 2, make_mod_scheme(2),
                       FLAG_SETS["ideal"], params, 1, substream(0, "streams"))
    with pytest.raises(ValueError):
        ber_end_to_end(-1.0, 2, 2, make_mod_scheme(2),
                       FLAG_SETS["ideal"], params, 1, substream(0, "streams"))


def test_ber_end_to_end_all_flags_off_is_plain_average(params):
    # the same draws the chain takes from its generator: channels, then the
    # (unused) estimate errors
    mod = make_mod_scheme(2)
    s = db_to_linear(8.0)
    chain, _ = ber_end_to_end(s, 2, 2, mod, FLAG_SETS["ideal"], params,
                              n_draws=200, rng=substream(6, "e2e"))
    h = complex_normal(substream(6, "e2e"), (200, 2, 2))
    direct = np.mean([conditional_ber(hi, hi, s, mod) for hi in h])
    assert chain == pytest.approx(direct, rel=1e-12)


def test_ber_end_to_end_phase_noise_floor(params):
    # far above the ICI cap the curve stops improving
    mod = make_mod_scheme(4)
    flags = FLAG_SETS["pn"]
    hi1, _ = ber_end_to_end(db_to_linear(50.0), 4, 4, mod, flags, params,
                            n_draws=200, rng=substream(7, "floor"))
    hi2, _ = ber_end_to_end(db_to_linear(60.0), 4, 4, mod, flags, params,
                            n_draws=200, rng=substream(7, "floor"))
    ideal, _ = ber_end_to_end(db_to_linear(60.0), 4, 4, mod,
                              FLAG_SETS["ideal"], params,
                              n_draws=200, rng=substream(7, "floor"))
    assert hi2 == pytest.approx(hi1, rel=0.02)
    assert ideal < hi2


def test_flag_labels():
    assert FLAG_SETS["ideal"].label() == "none"
    assert FLAG_SETS["imp"].label() == "pn+rfo+ce"
    assert ImpairmentFlags(phase_noise=False, rfo=True, channel_est=True).label() == "rfo+ce"
    # a set named after its impairments is keyed by its label
    assert FLAG_SETS["rfo+ce"].label() == "rfo+ce"


# ---------------------------------------------------------------------------
# rate tables


def _toy_table() -> RateTable:
    return RateTable(
        n_rx=2,
        flags_label="none",
        entries=(
            RateEntry(rate_bps=8e6, m=1, u=1, threshold_db=0.0),
            RateEntry(rate_bps=16e6, m=1, u=2, threshold_db=10.0),
        ),
    )


def test_rate_indices_step_edges(table_cache):
    toy = _toy_table()
    thr, rates = stack_tables([toy])
    idx = rate_indices(db_to_linear(np.array([[-5.0, 0.0, 9.9, 10.0, 40.0]])), thr)
    np.testing.assert_array_equal(idx, [[0, 1, 1, 2, 2]])    # closed lower bounds
    np.testing.assert_array_equal(rates[0, idx[0]], [0.0, 8e6, 8e6, 16e6, 16e6])
    assert rate_indices(np.array([[1e18]]), thr)[0, 0] == 2

    # batched with the 9-mode N4 ce table, the toy row is padded with +inf
    # thresholds and never indexes past its top mode; every row counts as a
    # per-table searchsorted, also on SINRs exactly at a threshold
    ce = table_cache(4, "ce")
    thr, rates = stack_tables([toy, ce])
    assert thr.shape == (2, 9) and rates.shape == (2, 10)
    np.testing.assert_array_equal(thr[0, 2:], np.inf)
    np.testing.assert_array_equal(rates[1], ce.rates_by_index)
    sinr = db_to_linear(np.random.default_rng(0).uniform(-10.0, 45.0, (2, 50, 9)))
    sinr[:, 0] = 1e18
    sinr[:, 1] = ce.thresholds_linear
    idx = rate_indices(sinr, thr)
    assert idx[0].max() == 2 and idx[1].max() == 9
    for row, table in enumerate((toy, ce)):
        np.testing.assert_array_equal(
            idx[row], np.searchsorted(table.thresholds_linear, sinr[row], side="right"))


def test_rate_table_rejects_unsorted_modes():
    # every rate lookup assumes entries strictly ascend in both columns
    low, high = _toy_table().entries
    for entries in ((low, replace(high, threshold_db=low.threshold_db)),
                    (low, replace(high, rate_bps=low.rate_bps)),
                    (high, low)):
        with pytest.raises(ValueError):
            RateTable(n_rx=2, flags_label="none", entries=entries)


def test_pareto_front_keeps_modes_that_undercut_every_faster_one():
    e = [RateEntry(rate_bps=r, m=m, u=u, threshold_db=t)
         for r, m, u, t in ((2.0, 1, 2, 8.0), (4.0, 1, 4, 6.0), (2.0, 2, 1, 6.0),
                            (1.0, 1, 1, 3.0), (4.0, 2, 2, 6.0), (4.0, 4, 1, 9.0))]
    # within a rate the lowest threshold (first of a tie) stands for it; a
    # slower mode must strictly undercut every faster survivor
    assert _pareto_front(e) == (e[3], e[1])
    assert _pareto_front([]) == ()


def test_select_mode_edges():
    table = _toy_table()
    assert select_mode(db_to_linear(-5.0), table) is None
    assert select_mode(db_to_linear(0.0), table) == table.entries[0]
    top = select_mode(1e18, table)
    assert (top.m, top.u, top.rate_bps) == (1, 2, 16e6)


def test_rate_table_json_round_trip(tmp_path):
    table = _toy_table()
    path = tmp_path / "t.json"
    table.save(path)
    loaded = RateTable.load(path)
    assert loaded.entries == table.entries
    assert loaded.n_rx == table.n_rx
    assert loaded.flags_label == table.flags_label
    loaded.save(tmp_path / "t2.json")
    assert (tmp_path / "t2.json").read_bytes() == path.read_bytes()
    # format v1 still carries the two derived fields
    doc = table.to_dict()
    assert (doc["impaired"], doc["grid_step_db"]) == (False, GRID_STEP_DB)


def test_rate_table_version_guard():
    with pytest.raises(ValueError):
        RateTable.from_dict({"version": 2, "entries": []})


def test_build_rate_table_small_grid(params):
    table = build_rate_table(1, FLAG_SETS["ideal"], params, n_draws=80, seed=0)
    assert table.n_rx == 1 and table.flags_label == "none"
    assert len(table.entries) >= 2
    thresholds = [e.threshold_db for e in table.entries]
    rates = [e.rate_bps for e in table.entries]
    assert all(a < b for a, b in zip(thresholds[:-1], thresholds[1:]))
    assert all(a < b for a, b in zip(rates[:-1], rates[1:]))
    for e in table.entries:
        assert e.rate_bps == params.r_base_bps * e.m * e.u
        assert e.m == 1
    assert table.build_info == table_build_key(params, n_draws=80, seed=0)
    assert RateTable.from_dict(table.to_dict()).build_info == table.build_info

    # bracket contract on the shared draw set: pass at the threshold, fail
    # one grid step below
    for e in table.entries:
        def mean_ber(sinr_db: float) -> float:
            return ber_end_to_end(
                db_to_linear(sinr_db), e.m, 1, make_mod_scheme(e.u),
                FLAG_SETS["ideal"], params, 80,
                substream(0, "rate-table-n1-m1-none"),
            )[0]

        assert mean_ber(e.threshold_db) <= params.gamma_ber
        if e.threshold_db > SINR_LO_DB:
            below = round(e.threshold_db - GRID_STEP_DB, 9)
            assert mean_ber(below) > params.gamma_ber


def test_table_build_key_tracks_table_shaping_params(params):
    def key(p, seed=0):
        return table_build_key(p, seed=seed, n_draws=2000)

    base = key(params)
    assert base == key(SystemParams())
    # fields the BER chain or the rates read change the key ...
    for changed in (
        SystemParams(gamma_ber=0.001),
        SystemParams(f_ici=10.0 ** -2.5),
        SystemParams(ns=128, ws_hz=156.25e3),
        SystemParams(r_base_bps=4e6),
    ):
        assert key(changed) != base
    # ... network-level ones do not
    assert key(SystemParams(alpha=3.5, p_t_mw=50.0)) == base
    assert key(params, seed=1) != base


def test_build_rate_table_impairments_shift_thresholds_up(params):
    ideal = build_rate_table(1, FLAG_SETS["ideal"], params, n_draws=80, seed=0)
    imp = build_rate_table(1, FLAG_SETS["imp"], params, n_draws=80, seed=0)
    assert imp.flags_label == "pn+rfo+ce"
    ideal_by_mode = {(e.m, e.u): e.threshold_db for e in ideal.entries}
    shared = [e for e in imp.entries if (e.m, e.u) in ideal_by_mode]
    assert shared
    for e in shared:
        assert e.threshold_db >= ideal_by_mode[(e.m, e.u)]


@pytest.mark.parametrize("flags, never_pass", [("ideal", set()), ("imp", {(2, 6)})],
                         ids=["ideal", "imp"])
def test_bisection_evaluates_each_grid_point_once(params, monkeypatch, flags, never_pass):
    # the top of the grid first, then one bisection over the other 500 points:
    # no grid point is probed twice, a passing mode costs at most
    # 1 + ceil(log2(501)) = 10 evaluations of its draw set, and a mode that
    # fails at the top (under imp, phase noise caps the baseband SINR of
    # (2, 64-QAM) near 1 / (2 f_ici), 28.9 dB) costs that one probe
    probes = []

    def counting(sinr_in, h, e_raw, mod, flags, params):
        probes.append((h.shape[-1], mod.u, sinr_in))
        return _ber_per_draw(sinr_in, h, e_raw, mod, flags, params)

    monkeypatch.setattr(link_abstraction, "_ber_per_draw", counting)
    build_rate_table(2, FLAG_SETS[flags], params, seed=0, n_draws=80)
    assert len(set(probes)) == len(probes)
    per_mode = Counter((m, u) for m, u, _ in probes)
    assert set(per_mode) == {(m, u) for m in (1, 2) for u in (1, 2, 4, 6)}
    assert max(n for mode, n in per_mode.items() if mode not in never_pass) <= 10
    top = db_to_linear(SINR_HI_DB)
    for m, u in never_pass:
        assert [s for mm, uu, s in probes if (mm, uu) == (m, u)] == [top]


@pytest.mark.parametrize("name", ["N1_ideal", "N1_imp", "N2_imp", "N4_pn"])
def test_rebuilt_fixture_tables_are_byte_identical(tmp_path, name):
    # the BER kernel and the quadrature reproduce the shipped tables at
    # simcli's default table seed and draw count
    spec = spec_from_args(["rate-table"])
    n_rx, flags = name.split("_")
    table = build_rate_table(int(n_rx[1:]), FLAG_SETS[flags], spec.params,
                             seed=spec.table_seed, n_draws=spec.table_draws)
    path = tmp_path / f"rates_{name}.json"
    table.save(path)
    assert path.read_bytes() == (CACHE_DIR / path.name).read_bytes()


def test_cached_tables_structure(table_cache):
    n1 = table_cache(1, "ideal")
    assert all(e.m == 1 for e in n1.entries)
    assert len(n1.entries) <= 4
    n4 = table_cache(4, "ideal")
    modes = {(e.m, e.u) for e in n4.entries}
    assert (4, 6) in modes            # the 192 Mbps top mode
    thr = [e.threshold_db for e in n4.entries]
    assert all(a < b for a, b in zip(thr[:-1], thr[1:]))


def _thresholds_by_mode(table: RateTable) -> dict[tuple[int, int], float]:
    return {(e.m, e.u): e.threshold_db for e in table.entries}


def _assert_not_below(low, high):
    # on every mode both tables hold, `high`'s threshold is at least `low`'s
    shared = low.keys() & high.keys()
    assert shared
    for mode in shared:
        assert high[mode] >= low[mode], mode


@pytest.mark.parametrize("name", ["ideal", "imp"])
def test_more_receive_antennas_never_raise_a_shipped_threshold(table_cache, name):
    n1, n2, n4 = (_thresholds_by_mode(table_cache(n_rx, name)) for n_rx in (1, 2, 4))
    _assert_not_below(n2, n1)
    _assert_not_below(n4, n2)


def test_shipped_n4_estimation_thresholds_are_ordered(table_cache):
    # estimation error on top of ideal hardware, and the other impairments
    # on top of it, never lower a threshold; the pn and rfo tables break
    # "never below ideal" by a grid step or two at (3, QPSK) and (4, 64-QAM),
    # which is table noise, so they are not checked here
    ideal, ce, imp = (_thresholds_by_mode(table_cache(4, name))
                      for name in ("ideal", "ce", "imp"))
    _assert_not_below(ce, imp)
    _assert_not_below(ideal, ce)
    _assert_not_below(ideal, imp)
