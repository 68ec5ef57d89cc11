"""Symbol-level simulator: demapping, conditional runs, and the full link
oracle used to arbitrate the analytic chain."""

import hashlib
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import erfc

from adhocmimo.config import db_to_linear
from adhocmimo.impairment_model import sinr_baseband
from adhocmimo.link_abstraction import (
    FLAG_SETS, _orbit, ber_end_to_end, make_mod_scheme, mmse_weights,
)
from adhocmimo.mc_oracle import _detect, _slice, demap, simulate_link_ber
from adhocmimo.rng import complex_normal, substream

from conftest import conditional_ber, simulate_conditional_ber, slice_reference


def test_oracle_rejects_bad_inputs(params):
    mod = make_mod_scheme(2)
    ideal = FLAG_SETS["ideal"]
    for sinr_in, m, n, n_symbols in ((10.0, 3, 2, 100), (10.0, 0, 2, 100),
                                     (0.0, 2, 2, 100), (math.nan, 1, 1, 100),
                                     (10.0, 2, 2, 1), ([10.0, 0.0], 1, 1, 100),
                                     (np.full((2, 2), 10.0), 1, 1, 100)):
        with pytest.raises(ValueError):
            simulate_link_ber(sinr_in, m, n, mod, ideal, params,
                              n_symbols=n_symbols, seed=0)


def test_oracle_shares_the_analytic_chains_arguments():
    # _ber_curve hands both paths one (sinr_in, m, n, mod, flags, params)
    head = list(inspect.signature(ber_end_to_end).parameters)[:6]
    assert list(inspect.signature(simulate_link_ber).parameters)[:6] == head


def test_oracle_phase_noise_is_the_baseband_sinr(params):
    # phase noise only compresses the SINR, as in the analytic chain
    mod = make_mod_scheme(2)
    s = db_to_linear(30.0)
    pn = simulate_link_ber(s, 2, 2, mod, FLAG_SETS["pn"], params,
                           n_symbols=500, seed=8)
    ideal = simulate_link_ber(sinr_baseband(s, params.f_ici), 2, 2, mod,
                              FLAG_SETS["ideal"], params, n_symbols=500, seed=8)
    assert pn == ideal
    assert pn != simulate_link_ber(s, 2, 2, mod, FLAG_SETS["ideal"], params,
                                   n_symbols=500, seed=8)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 30), st.integers(0, 1000))
def test_oracle_detection_is_the_analytic_chains_mmse_detector(n, m, b, seed):
    # the oracle solves on the unscaled channel with noise sqrt(m / s) and
    # nu = m / s; that is the analytic chain's detector, W y with
    # W = mmse_weights(h_hat / sqrt(m), s) on the power-normalized link
    m = min(m, n)
    rng = substream(seed, "oracle-detector")
    h = complex_normal(rng, (b, n, m))
    h_hat = h + 0.3 * complex_normal(rng, (b, n, m))
    x = complex_normal(rng, (b, m))
    noise = complex_normal(rng, (b, n))
    s = db_to_linear(rng.uniform(-5.0, 30.0, size=b))
    scale = 1.0 / math.sqrt(m)
    y = (h * scale @ x[..., None])[..., 0] + noise / np.sqrt(s)[:, None]
    want = (mmse_weights(h_hat * scale, s) @ y[..., None])[..., 0]
    h_herm = np.ascontiguousarray(h_hat.conj().transpose(2, 1, 0))
    hx = np.ascontiguousarray((h * x[:, None]).transpose(2, 1, 0))
    got = _detect(h_herm, hx, np.ascontiguousarray(noise.T), s)
    assert got.shape == (m, b)
    np.testing.assert_allclose(got.T, want, rtol=1e-10)


def test_conjugated_estimate_is_built_bit_for_bit():
    # the oracle builds H_hat^H as conj(E) * sigma + conj(H) from the
    # conjugated draws; negation is exact and rounding symmetric, so that is
    # conj(E * sigma + H), the conjugate of the estimate, byte for byte
    rng = substream(0, "conjugated-estimate")
    for shape in ((4096, 1, 1), (4096, 4, 4), (999, 3, 2)):
        h = complex_normal(rng, shape)
        e = complex_normal(rng, shape)
        sigma = np.sqrt(1.0 / db_to_linear(rng.uniform(-5.0, 40.0, size=shape[0])))
        want = np.conjugate(e * sigma[:, None, None] + h)
        got = np.conjugate(e) * sigma[:, None, None] + np.conjugate(h)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("u", [1, 2, 4, 6])
def test_slicing_in_one_comparison_matches_the_edge_loop(u):
    # the slicer compares with every edge at once, an edge where the upper
    # level wins moved one float down; the loop over the edges compares
    # with >= there. Both count alike on each edge, at both of its float
    # neighbours, and at random points inside and outside the grid
    mod = make_mod_scheme(u)
    edges = mod.levels[:-1] + mod.half_step
    x = np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        mod.levels, [0.0, -0.0],
        substream(u, "slice-one-comparison").standard_normal(10_000) * 1.5,
    ])
    np.testing.assert_array_equal(_slice(x, mod), slice_reference(x, mod))
    grid = x[-10_000:].reshape(100, 100)
    np.testing.assert_array_equal(_slice(grid, mod), slice_reference(grid, mod))
    for xi in x[: 3 * edges.size]:
        assert _slice(xi, mod) == slice_reference(xi, mod)


@pytest.mark.parametrize("u", [1, 2, 4, 6])
def test_demap_recovers_clean_points(u):
    mod = make_mod_scheme(u)
    np.testing.assert_array_equal(demap(mod.points, mod), np.arange(2 ** u))


def test_demap_tie_breaks_toward_lower_label():
    mod = make_mod_scheme(1)
    # y = 0 is equidistant from both antipodal points
    assert demap(0.0 + 0.0j, mod) == 0


def test_demap_matches_brute_force_scan():
    mod = make_mod_scheme(4)
    rng = substream(0, "demap")
    y = complex_normal(rng, (200,)) * 2.0
    got = demap(y, mod)
    for yi, gi in zip(y, got):
        assert gi == int(np.argmin(np.abs(yi - mod.points) ** 2))


@pytest.mark.parametrize("u", [1, 2, 4, 6])
def test_demap_slicer_matches_argmin(u):
    # per-axis slicing picks the nearest point that an argmin over all
    # points picks, from deep inside the grid to far outside it
    mod = make_mod_scheme(u)
    y = complex_normal(substream(u, "demap-slicer"), (100_000,)) * 1.5
    want = np.argmin(np.abs(y[:, None] - mod.points) ** 2, axis=-1)
    np.testing.assert_array_equal(demap(y, mod), want)
    np.testing.assert_array_equal(demap(y.reshape(250, 400), mod), want.reshape(250, 400))


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("u,d,digest", [
    (1, 1, "6bf669d57491033103b30660275a2b2283a4373afe5715ec9c87050fafb90a17"),
    (2, 2, "19736fa0efcda33c7325046c5135de80101d65db41b35b7a35b3c1826bc3488e"),
    (4, 10, "fad580c1220a14b38549e2124d55e79f52cc8c20c993dc58bdcb218fce440e2b"),
    (6, 42, "1c4d45c9a62e7f0166de0c57e648c85ddb34b6e8856ed7ee2a371a0023d303db"),
])
def test_constellation_orbit_and_demap_bytes_are_pinned(u, d, digest):
    # sha256 of the points, the orbit kernel's three arrays and the labels
    # demap gives the points and a grid of every level and decision edge on
    # both axes (the edges are ties), recorded from the two-axis ModScheme:
    # an exact rewrite of the constellation keeps every byte
    mod = make_mod_scheme(u)
    levels = np.unique(mod.points.real)
    coords = np.concatenate([levels, levels[:-1] + 1.0 / math.sqrt(d)])
    grid = coords[:, None] + 1j * coords
    assert _digest(mod.points, *_orbit(u), demap(mod.points, mod), demap(grid, mod)) == digest


def test_conditional_oracle_bpsk_awgn():
    mod = make_mod_scheme(1)
    h = np.array([[1.0 + 0.0j]])
    s = 4.0
    res = simulate_conditional_ber(h, h, s, mod, 200_000, substream(1, "awgn"))
    want = 0.5 * erfc(math.sqrt(2.0 * s) / math.sqrt(2.0))
    assert abs(res.ber - want) <= 3.0 * res.stderr
    assert res.n_bits == 200_000


def test_conditional_oracle_noiseless_identity_channel():
    mod = make_mod_scheme(2)
    h = np.eye(2, dtype=complex)
    res = simulate_conditional_ber(h, h, 1e12, mod, 20_000, substream(2, "clean"))
    assert res.ber == 0.0


def test_link_oracle_zero_sinr_is_coin_flip(params):
    res = simulate_link_ber(1e-9, 1, 1, make_mod_scheme(1), FLAG_SETS["ideal"],
                            params, n_symbols=100_000, seed=3)
    assert abs(res.ber - 0.5) <= 3.0 * res.stderr


def test_link_oracle_determinism_and_counts(params):
    link = (db_to_linear(10.0), 2, 2, make_mod_scheme(2), FLAG_SETS["imp"], params)
    a = simulate_link_ber(*link, n_symbols=20_000, seed=4)
    b = simulate_link_ber(*link, n_symbols=20_000, seed=4)
    c = simulate_link_ber(*link, n_symbols=20_000, seed=5)
    assert a.ber == b.ber and a.stderr == b.stderr
    assert a.ber != c.ber
    assert a.n_bits == 20_000 * 2 * 2
    assert a.n_vectors == 20_000


def test_link_oracle_improves_with_sinr(params):
    bers = []
    for s_db in (0.0, 8.0, 16.0):
        res = simulate_link_ber(db_to_linear(s_db), 2, 2, make_mod_scheme(2),
                                FLAG_SETS["ideal"], params, n_symbols=30_000, seed=6)
        bers.append(res.ber)
    assert bers[0] > bers[1] > bers[2]


def test_conditional_chain_tracks_oracle_on_frozen_channels():
    # the analytic conditional BER carries a small model error on top of
    # the simulation noise; allow 2 percent systematic plus 3 sigma
    mod = make_mod_scheme(2)
    s = db_to_linear(10.0)
    rng = substream(7, "agree")
    hits = 0
    n_inst = 100
    for _ in range(n_inst):
        h = complex_normal(rng, (2, 2))
        res = simulate_conditional_ber(h, h, s, mod, 20_000, rng)
        ana = conditional_ber(h, h, s, mod)
        if abs(ana - res.ber) <= 3.0 * max(res.stderr, 1e-4) + 0.02 * res.ber:
            hits += 1
    assert hits >= 90


@pytest.mark.parametrize("flag_name", list(FLAG_SETS))
@pytest.mark.parametrize("n,m", [(2, 2), (4, 2), (4, 4)])
def test_link_oracle_results_are_pinned(params, flag_name, n, m):
    # the exact results under every flag set, recorded before the oracle's
    # detection was last rewritten: one full batch and one partial batch
    # each, and m < n, which ber-validate never runs; the error counts
    # depend only on the draws and the hard decisions, so any exact rewrite
    # keeps them
    pinned = {
        ("ideal", 2, 2): (0.12559, 0.0008707275134369571),
        ("ideal", 4, 2): (0.027765, 0.0004124269569751638),
        ("ideal", 4, 4): (0.146945, 0.0006743273446144),
        ("imp", 2, 2): (0.176665, 0.0009591094341295291),
        ("imp", 4, 2): (0.069955, 0.0006187424607131044),
        ("imp", 4, 4): (0.19668, 0.0007103779201745919),
        ("pn", 2, 2): (0.127025, 0.00087320757821894),
        ("pn", 4, 2): (0.02857, 0.0004173214232301182),
        ("pn", 4, 4): (0.1483875, 0.0006755057335580822),
        ("rfo", 2, 2): (0.126785, 0.000882654357123198),
        ("rfo", 4, 2): (0.027855, 0.00040564213393289516),
        ("rfo", 4, 4): (0.1475825, 0.0006773299260944782),
        ("ce", 2, 2): (0.174675, 0.0009588313455983654),
        ("ce", 4, 2): (0.068075, 0.0006079650975692555),
        ("ce", 4, 4): (0.1951625, 0.0007130676912967624),
        ("rfo+ce", 2, 2): (0.175035, 0.000956489177075117),
        ("rfo+ce", 4, 2): (0.068375, 0.0006127678144091569),
        ("rfo+ce", 4, 4): (0.195105, 0.000710119165893437),
    }
    res = simulate_link_ber(db_to_linear(12.0), m, n, make_mod_scheme(4),
                            FLAG_SETS[flag_name], params, n_symbols=25_000, seed=11)
    assert (res.ber, res.stderr) == pinned[flag_name, n, m]
    assert (res.n_bits, res.n_vectors) == (25_000 * m * 4, 25_000)


@pytest.mark.parametrize("flag_name", list(FLAG_SETS))
@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (4, 2), (3, 1)])
def test_link_oracle_curve_equals_its_points(params, flag_name, n, m):
    # one call over an array of SINRs shares each batch's draws among its
    # points, and gives each point the bits of a scalar call at it: 4097
    # vectors end in a one-vector block, 25,000 in a partial batch
    sinr = db_to_linear(np.array([0.0, 9.0, 21.0]))
    link = (m, n, make_mod_scheme(2), FLAG_SETS[flag_name], params)
    for n_symbols in (4097, 25_000):
        curve = simulate_link_ber(sinr, *link, n_symbols=n_symbols, seed=12)
        points = [simulate_link_ber(float(s), *link, n_symbols=n_symbols, seed=12)
                  for s in sinr]
        assert all(type(p.ber) is float and type(p.stderr) is float for p in points)
        assert curve.ber.tolist() == [p.ber for p in points]
        assert curve.stderr.tolist() == [p.stderr for p in points]
        assert {(curve.n_bits, curve.n_vectors)} == {(p.n_bits, p.n_vectors) for p in points}
        assert curve.n_vectors == n_symbols and curve.n_bits == n_symbols * m * 2
