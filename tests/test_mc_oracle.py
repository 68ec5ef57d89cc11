"""Symbol-level simulator: demapping, conditional runs, and the full link
oracle used to arbitrate the analytic chain."""

import math

import numpy as np
import pytest
from scipy.special import erfc

from adhocmimo.config import db_to_linear
from adhocmimo.link_abstraction import make_mod_scheme
from adhocmimo.mc_oracle import OracleConfig, demap, simulate_link_ber
from adhocmimo.rng import complex_normal, substream

from conftest import conditional_ber, simulate_conditional_ber


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(m=3, n=2, u=2, sinr_b=10.0)
    with pytest.raises(ValueError):
        OracleConfig(m=2, n=2, u=2, sinr_b=0.0)
    with pytest.raises(ValueError):
        OracleConfig(m=2, n=2, u=2, sinr_b=10.0, n_symbols=1)
    with pytest.raises(ValueError):
        OracleConfig(m=2, n=2, u=2, sinr_b=10.0, batch_size=0)


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


def test_link_oracle_zero_sinr_is_coin_flip():
    cfg = OracleConfig(m=1, n=1, u=1, sinr_b=1e-9, n_symbols=100_000, seed=3)
    res = simulate_link_ber(cfg)
    assert abs(res.ber - 0.5) <= 3.0 * res.stderr


def test_link_oracle_determinism_and_counts():
    cfg = OracleConfig(m=2, n=2, u=2, sinr_b=db_to_linear(10.0),
                       n_symbols=20_000, imperfect_ce=True, rfo=True, seed=4)
    a = simulate_link_ber(cfg)
    b = simulate_link_ber(cfg)
    c = simulate_link_ber(
        OracleConfig(m=2, n=2, u=2, sinr_b=db_to_linear(10.0),
                     n_symbols=20_000, imperfect_ce=True, rfo=True, seed=5)
    )
    assert a.ber == b.ber and a.stderr == b.stderr
    assert a.ber != c.ber
    assert a.n_bits == 20_000 * 2 * 2
    assert a.n_vectors == 20_000


def test_link_oracle_improves_with_sinr():
    bers = []
    for s_db in (0.0, 8.0, 16.0):
        cfg = OracleConfig(m=2, n=2, u=2, sinr_b=db_to_linear(s_db),
                           n_symbols=30_000, seed=6)
        bers.append(simulate_link_ber(cfg).ber)
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
