"""Baseband SINR compression by phase-noise ICI and the residual
frequency-offset model."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adhocmimo.impairment_model import (
    RFO_EPS_LIMIT,
    RFO_ICI_COEFF,
    rfo_std,
    sinr_after_rfo,
    sinr_baseband,
)

def test_sinr_baseband_identity_and_zero():
    assert sinr_baseband(0.0, 1e-3) == 0.0
    assert sinr_baseband(123.0, 0.0) == 123.0


def test_sinr_baseband_cap():
    f_ici = 10.0 ** (-3.19)
    cap = 1.0 / (2.0 * f_ici)
    assert sinr_baseband(1e12, f_ici) < cap
    assert sinr_baseband(1e12, f_ici) == pytest.approx(cap, rel=1e-4)


@given(st.floats(min_value=0.0, max_value=1e8))
def test_sinr_baseband_monotone(s):
    # a one-percent step stays resolvable in floats even out on the plateau
    f_ici = 10.0 ** (-3.19)
    assert sinr_baseband(s * 1.01 + 1e-12, f_ici) > sinr_baseband(s, f_ici)


def test_rfo_std_examples():
    ns = 64
    s = 1.0 / ((2.0 * math.pi) ** 2 * ns)
    assert rfo_std(s, ns) == pytest.approx(1.0, rel=1e-12)
    assert rfo_std(4.0, ns) == pytest.approx(rfo_std(1.0, ns) / 2.0, rel=1e-12)
    assert rfo_std(100.0, 64) == pytest.approx(1.0 / (2.0 * math.pi * 80.0), rel=1e-12)


def test_rfo_std_domain():
    with pytest.raises(ValueError):
        rfo_std(0.0, 64)
    with pytest.raises(ValueError):
        rfo_std(math.nan, 64)
    with pytest.raises(ValueError):
        rfo_std(1.0, 0)


def test_sinr_after_rfo_identity_even_and_degrading():
    assert sinr_after_rfo(100.0, 0.0) == 100.0
    assert sinr_after_rfo(100.0, 0.05) == sinr_after_rfo(100.0, -0.05)
    assert sinr_after_rfo(100.0, 0.05) < 100.0


def test_sinr_after_rfo_keeps_the_bits_of_the_sinc_formula():
    # one shared sine gives np.sinc's attenuation and the ICI term bit for bit
    def formula(sinr, eps):
        ici = RFO_ICI_COEFF * sinr * np.sin(np.pi * eps) ** 2
        return sinr * np.sinc(eps) ** 2 / (1 + ici)

    eps = np.array([0.0, -0.0, 1e-300, -1e-300, 1e-9, -1e-9, 0.013, -0.21,
                    RFO_EPS_LIMIT, -RFO_EPS_LIMIT])
    sinr = np.logspace(-2, 6, eps.size)
    got, want = sinr_after_rfo(sinr, eps), formula(sinr, eps)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for e in eps:
        got = sinr_after_rfo(316.0, float(e))
        assert isinstance(got, float)
        assert np.float64(got).tobytes() == formula(316.0, e).tobytes()


def test_sinr_after_rfo_monotone_in_offset_magnitude():
    eps = np.linspace(0.0, 0.499, 200)
    vals = sinr_after_rfo(np.full_like(eps, 100.0), eps)
    assert np.all(np.diff(vals) < 0)


def test_sinr_after_rfo_domain():
    with pytest.raises(ValueError):
        sinr_after_rfo(100.0, 0.5)
    with pytest.raises(ValueError):
        sinr_after_rfo(100.0, -0.6)
    # the clamp constant used for random draws stays strictly inside
    assert RFO_EPS_LIMIT < 0.5
    assert sinr_after_rfo(100.0, RFO_EPS_LIMIT) > 0.0


def test_impairment_chain_identity_when_disabled():
    s = 314.0
    assert sinr_after_rfo(sinr_baseband(s, 0.0), 0.0) == s
