"""System configuration and the plain-text config file loader.

Powers are stored linearly (mW) and gains/SINRs as plain ratios; dB, dBm and
dBc appear only at the configuration boundary and in result files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "ConfigError",
    "SystemParams",
    "db_to_linear",
    "linear_to_db",
    "dbm_to_mw",
    "mw_to_dbm",
]


class ConfigError(ValueError):
    """Unknown key or malformed value in a configuration file."""


def db_to_linear(db):
    return 10.0 ** (db / 10.0)


def linear_to_db(x):
    return 10.0 * np.log10(x)


def dbm_to_mw(dbm):
    return db_to_linear(dbm)


def mw_to_dbm(mw):
    return linear_to_db(mw)


@dataclass(frozen=True)
class SystemParams:
    """Physical-layer constants shared by every experiment."""

    d0_m: float = 1.0                  # path-loss reference distance
    lp_d0_db: float = -46.0            # path loss at d0
    alpha: float = 3.0                 # path-loss exponent
    eta_n_dbm_hz: float = -174.0       # thermal noise density
    ws_hz: float = 312.5e3             # subcarrier bandwidth
    ns: int = 64                       # subcarriers per channel
    f_n_db: float = 4.0                # receiver noise figure
    f_ici: float = 10.0 ** (-3.19)     # phase-noise ICI fraction (linear)
    gamma_ber: float = 0.02            # uncoded BER target for rate selection
    r_base_bps: float = 8e6            # single-stream 1-bit rate after coding
    p_t_mw: float = 100.0              # per-pair transmit power cap (linear)

    def __post_init__(self):
        if self.d0_m <= 0:
            raise ConfigError("d0_m must be positive")
        if self.alpha <= 0:
            raise ConfigError("alpha must be positive")
        if self.ws_hz <= 0 or self.ns < 1:
            raise ConfigError("ws_hz must be positive and ns at least 1")
        if self.f_ici <= 0:
            raise ConfigError("f_ici must be positive")
        if not 0 < self.gamma_ber < 0.5:
            raise ConfigError("gamma_ber must lie in (0, 0.5)")
        if self.r_base_bps <= 0 or self.p_t_mw <= 0:
            raise ConfigError("r_base_bps and p_t_mw must be positive")

    @property
    def p_t_dbm(self) -> float:
        return float(mw_to_dbm(self.p_t_mw))

    @property
    def f_ici_dbc(self) -> float:
        return float(linear_to_db(self.f_ici))

    @classmethod
    def from_mapping(cls, mapping: dict) -> "SystemParams":
        """Build params from external config keys (dB/dBm/dBc units)."""
        kwargs = {}
        for key, raw in mapping.items():
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key: {key!r}")
            target, conv = _CONFIG_KEYS[key]
            try:
                value = conv(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
            kwargs[target] = value
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "SystemParams":
        """Parse `key = value` lines; '#' starts a comment, blanks ignored."""
        mapping = {}
        for ln, line in enumerate(Path(path).read_text().splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{ln}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            mapping[key.strip()] = value.strip()
        return cls.from_mapping(mapping)

    def to_config_dict(self) -> dict:
        """External-unit view of the parameters, round-trips via from_mapping."""
        return {
            "d0_m": self.d0_m,
            "lp_d0_db": self.lp_d0_db,
            "alpha": self.alpha,
            "eta_n_dbm_hz": self.eta_n_dbm_hz,
            "ws_hz": self.ws_hz,
            "ns": self.ns,
            "f_n_db": self.f_n_db,
            "f_ici_dbc": self.f_ici_dbc,
            "gamma_ber": self.gamma_ber,
            "r_base_bps": self.r_base_bps,
            "p_t_dbm": self.p_t_dbm,
        }


# external key -> (internal target, converter from file value)
_CONFIG_KEYS = {
    "d0_m": ("d0_m", float),
    "lp_d0_db": ("lp_d0_db", float),
    "alpha": ("alpha", float),
    "eta_n_dbm_hz": ("eta_n_dbm_hz", float),
    "ws_hz": ("ws_hz", float),
    "ns": ("ns", lambda v: int(float(v))),
    "f_n_db": ("f_n_db", float),
    "f_ici_dbc": ("f_ici", lambda v: float(db_to_linear(float(v)))),
    "gamma_ber": ("gamma_ber", float),
    "r_base_bps": ("r_base_bps", float),
    "p_t_dbm": ("p_t_mw", lambda v: float(dbm_to_mw(float(v)))),
}
