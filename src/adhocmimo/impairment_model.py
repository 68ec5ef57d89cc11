"""Oscillator phase noise and residual frequency offset at the SINR level.

Phase noise enters through one number, the fraction of signal power the
oscillator smears into inter-carrier interference (f_ici); it bounds the
usable baseband SINR at 1 / (2 f_ici). The residual frequency offset left by a training-based estimator is modeled
as a zero-mean Gaussian whose variance shrinks with the number of subcarriers
and the baseband SINR; a given offset scales the SINR through a sinc-squared
attenuation plus an ICI term.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "RFO_EPS_LIMIT",
    "sinr_baseband",
    "rfo_std",
    "sinr_after_rfo",
]

# ICI coefficient of the residual-offset SINR model; fixed by the two-symbol
# training structure, not tunable.
RFO_ICI_COEFF = 0.5947

# Random residual-offset draws are confined strictly inside the +-0.5 domain
# of sinr_after_rfo; the Gaussian tail beyond this is negligible at any SINR
# where a link is usable.
RFO_EPS_LIMIT = 0.4999


def sinr_baseband(sinr_in, f_ici: float):
    """Baseband SINR after phase-noise ICI: sinr / (1 + 2 * sinr * f_ici),
    of sinr_in's shape (a numpy scalar for a scalar).

    Strictly increasing in sinr_in and saturating at 1 / (2 * f_ici).
    """
    sinr_in = np.asarray(sinr_in, dtype=float)
    if np.any(sinr_in < 0):
        raise ValueError("sinr_in must be non-negative")
    if f_ici < 0:
        raise ValueError("f_ici must be non-negative")
    return sinr_in / (1.0 + 2.0 * sinr_in * f_ici)


def rfo_std(sinr_b: float, ns: int) -> float:
    """Standard deviation of the residual carrier offset (in subcarrier
    spacings) after two-training-symbol estimation: 1/(2*pi*sqrt(ns*sinr))."""
    if not sinr_b > 0:
        raise ValueError("sinr_b must be positive")
    if ns < 1:
        raise ValueError("ns must be at least 1")
    return 1.0 / (2.0 * math.pi * math.sqrt(ns * sinr_b))


def sinr_after_rfo(sinr_b, eps):
    """SINR once a residual offset of eps subcarrier spacings is applied:
    sinc^2 attenuation of the useful power over 1 + coeff * sinr * sin^2(pi eps).

    Defined for |eps| < 0.5 (beyond that the offset aliases onto a neighbor
    subcarrier); even in eps and equal to sinr_b at eps = 0. sinr_b and eps
    broadcast, and two scalars give a numpy scalar.
    """
    sinr_b = np.asarray(sinr_b, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if np.any(sinr_b < 0):
        raise ValueError("sinr_b must be non-negative")
    if np.abs(eps).max(initial=0.0) >= 0.5:
        raise ValueError("residual offset must satisfy |eps| < 0.5")
    # np.sinc's own arithmetic, sharing its sine with the ICI term; np.sinc
    # puts 1e-20 for a zero offset, and the ICI term is 0 there
    zero = eps == 0
    any_zero = zero.any()
    # a (1,) buffer for a 0-d result: np.sin(0-d) is a scalar, not an out=
    shape = np.broadcast_shapes(eps.shape, sinr_b.shape)
    y = np.empty(shape or (1,))
    np.multiply(np.pi, eps, out=y)
    if any_zero:
        np.copyto(y, np.pi * 1.0e-20, where=zero)
    sin_y = np.sin(y)
    out = np.divide(sin_y, y, out=y)
    out *= out                                  # the sinc^2 attenuation
    den = np.multiply(sin_y, sin_y, out=sin_y)
    if any_zero:
        np.copyto(den, 0.0, where=zero)
    den *= RFO_ICI_COEFF * sinr_b
    den += 1.0
    out *= sinr_b
    out /= den
    return out.reshape(shape)[()]
