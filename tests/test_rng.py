"""Named-substream determinism, independence, and complex Gaussian
statistics."""

import math

import numpy as np
import pytest
from scipy import stats

from adhocmimo.rng import complex_normal, derive_seed, substream


def test_same_triple_reproduces_the_stream():
    a = substream(7, "topology", 3).standard_normal(16)
    b = substream(7, "topology", 3).standard_normal(16)
    np.testing.assert_array_equal(a, b)


def test_different_purposes_and_indices_diverge():
    base = substream(7, "topology", 3).standard_normal(8)
    for other in (
        substream(7, "fading", 3),
        substream(7, "topology", 4),
        substream(8, "topology", 3),
    ):
        assert not np.array_equal(base, other.standard_normal(8))


def test_negative_seed_or_index_rejected():
    with pytest.raises(ValueError):
        substream(-1, "x")
    with pytest.raises(ValueError):
        substream(0, "x", -2)
    with pytest.raises(ValueError):
        derive_seed(-1, "x")


def test_derive_seed_is_deterministic_and_distinct():
    assert derive_seed(0, "ga", 5) == derive_seed(0, "ga", 5)
    seeds = {derive_seed(0, p, i) for p in ("a", "b", "c") for i in range(20)}
    assert len(seeds) == 60
    assert all(isinstance(s, int) and s >= 0 for s in seeds)


def test_complex_normal_moments():
    rng = substream(0, "moments")
    z = complex_normal(rng, 200_000)
    # unit total variance, split evenly between the parts, zero mean
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.01
    assert abs(z.real.var() - 0.5) < 0.01
    assert abs(z.imag.var() - 0.5) < 0.01
    assert abs(z.mean()) < 0.01


def test_complex_normal_power_is_exponential():
    # a Rayleigh fading gain: |z|^2 is exponential with unit mean
    z = complex_normal(substream(2, "fading"), 50_000)
    stat = stats.kstest(np.abs(z) ** 2, stats.expon.cdf)
    assert stat.pvalue > 0.01


def test_complex_normal_shape():
    rng = substream(0, "shape")
    assert complex_normal(rng, (3, 4)).shape == (3, 4)
    assert complex_normal(rng, ()).shape == ()


@pytest.mark.parametrize(
    "shape", [(20000, 1, 1), (2000, 4, 4), (20000, 1), (7,), 5, ()])
def test_complex_normal_keeps_the_draws_of_the_out_of_place_formula(shape):
    got_rng, want_rng = substream(4, "draws"), substream(4, "draws")
    got = complex_normal(got_rng, shape)
    re = want_rng.standard_normal(shape)
    im = want_rng.standard_normal(shape)
    want = np.asarray((re + 1j * im) / math.sqrt(2.0))
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
