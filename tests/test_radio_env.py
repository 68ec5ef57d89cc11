"""Path gain, thermal noise, and topology sampling."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from adhocmimo.config import SystemParams
from adhocmimo.radio_env import (
    Topology,
    noise_variance,
    path_gain,
    sample_topology,
    total_noise_power,
)
from adhocmimo.rng import substream


def test_path_gain_reference_distance(params):
    assert path_gain(1.0, params) == pytest.approx(10.0 ** 4.6, rel=1e-12)


def test_path_gain_decade_increments(params):
    # 10 * alpha dB of extra loss per decade of distance
    g1, g10, g100 = (path_gain(d, params) for d in (1.0, 10.0, 100.0))
    assert g10 / g1 == pytest.approx(1e-3, rel=1e-12)
    assert g100 / g10 == pytest.approx(1e-3, rel=1e-12)


@given(st.floats(min_value=1.0, max_value=5e3), st.floats(min_value=1e-6, max_value=5e3))
def test_path_gain_strictly_decreasing(params, d, step):
    assert path_gain(d + step, params) < path_gain(d, params)


def test_path_gain_continuous_at_reference(params):
    at = path_gain(params.d0_m, params)
    near = path_gain(params.d0_m * (1 + 1e-12), params)
    assert near == pytest.approx(at, rel=1e-9)


def test_path_gain_rejects_below_reference(params):
    with pytest.raises(ValueError):
        path_gain(0.5, params)
    with pytest.raises(ValueError):
        path_gain(np.array([2.0, 0.9]), params)


def test_noise_variance_table_values(params):
    want_dbm = -174.0 + 10.0 * math.log10(312_500.0) + 4.0
    assert want_dbm == pytest.approx(-115.0515, abs=5e-5)
    assert noise_variance(params) == pytest.approx(10.0 ** (want_dbm / 10.0), rel=1e-12)
    assert total_noise_power(params) == pytest.approx(64 * noise_variance(params), rel=1e-12)


def test_noise_variance_identity_and_scaling(params):
    unit = SystemParams(ws_hz=1.0, ns=1, f_n_db=0.0)
    assert 10.0 * math.log10(noise_variance(unit)) == pytest.approx(-174.0, abs=1e-9)
    doubled = replace(params, ws_hz=625e3)
    gain_db = 10.0 * math.log10(noise_variance(doubled) / noise_variance(params))
    assert gain_db == pytest.approx(10.0 * math.log10(2.0), abs=1e-9)


def test_single_pair_topology(params):
    topo = sample_topology(1, params, substream(0, "topology"))
    assert topo.d.shape == (1, 1) and topo.rho.shape == (1, 1)
    assert 10.0 <= topo.d[0, 0] <= 300.0
    assert topo.rho[0, 0] == path_gain(topo.d[0, 0], params)


def test_topology_gains_match_distances_exactly(params):
    topo = sample_topology(8, params, substream(3, "topology"))
    np.testing.assert_array_equal(topo.rho, path_gain(topo.d, params))


def test_topology_seeded_determinism(params):
    a = sample_topology(10, params, substream(7, "topology", 3))
    b = sample_topology(10, params, substream(7, "topology", 3))
    np.testing.assert_array_equal(a.d, b.d)
    np.testing.assert_array_equal(a.rho, b.rho)


def test_topology_geometry_constraints(params):
    topo = sample_topology(40, params, substream(1, "topology"))
    off = ~np.eye(40, dtype=bool)
    assert np.all(topo.d[off] >= params.d0_m)
    assert np.all(np.linalg.norm(topo.tx_xy, axis=1) <= 1000.0 + 1e-9)


def test_pair_distance_distribution_is_uniform(params):
    # 1e5 wanted-link distances against the configured uniform range
    rng = substream(0, "topology-ks")
    samples = np.concatenate(
        [np.diagonal(sample_topology(100, params, rng).d) for _ in range(1000)]
    )
    assert samples.size == 100_000
    stat = stats.kstest(samples, stats.uniform(loc=10.0, scale=290.0).cdf)
    assert stat.pvalue > 0.01


def test_topology_validation(params):
    with pytest.raises(ValueError):
        sample_topology(0, params, substream(0, "topology"))
    with pytest.raises(ValueError):
        sample_topology(2, replace(params, d0_m=20.0), substream(0, "topology"))
    with pytest.raises(ValueError):
        Topology(k=2, d=np.ones((2, 3)), rho=np.ones((2, 2)))

