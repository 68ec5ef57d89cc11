"""SystemParams defaults, the config-file loader, and unit conversions."""

from pathlib import Path

import pytest

from adhocmimo.config import (
    ConfigError,
    SystemParams,
    db_to_linear,
    dbm_to_mw,
    linear_to_db,
    mw_to_dbm,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def test_db_round_trips():
    assert db_to_linear(0.0) == 1.0
    assert dbm_to_mw(0.0) == 1.0
    assert linear_to_db(100.0) == pytest.approx(20.0, abs=1e-12)
    for x in (0.01, 1.0, 37.5, 1e6):
        assert db_to_linear(linear_to_db(x)) == pytest.approx(x, rel=1e-12)
        assert dbm_to_mw(mw_to_dbm(x)) == pytest.approx(x, rel=1e-12)


def test_defaults_are_consistent():
    p = SystemParams()
    assert p.f_ici == pytest.approx(10.0 ** (-3.19))
    assert p.f_ici_dbc == pytest.approx(-31.9, abs=1e-9)
    assert p.p_t_mw == 100.0
    assert p.p_t_dbm == pytest.approx(20.0, abs=1e-12)
    assert 0 < p.gamma_ber < 0.5


def test_invariant_violations_raise():
    with pytest.raises(ConfigError):
        SystemParams(gamma_ber=0.7)
    with pytest.raises(ConfigError):
        SystemParams(p_t_mw=-1.0)
    with pytest.raises(ConfigError):
        SystemParams(alpha=0.0)
    with pytest.raises(ConfigError):
        SystemParams(d0_m=0.0)


def test_from_mapping_converts_units():
    p = SystemParams.from_mapping({"p_t_dbm": "23", "f_ici_dbc": "-30"})
    assert p.p_t_mw == pytest.approx(dbm_to_mw(23.0))
    assert p.f_ici == pytest.approx(1e-3)


def test_from_mapping_rejects_unknown_key():
    with pytest.raises(ConfigError, match="no_such_key"):
        SystemParams.from_mapping({"no_such_key": "1"})
    # the occupied bandwidth is ns * ws_hz, not a key of its own
    with pytest.raises(ConfigError, match="unknown config key: 'w_t_hz'"):
        SystemParams.from_mapping({"w_t_hz": "20e6"})


def test_readme_key_table_lists_every_config_key():
    section = README.read_text().split("### Config keys", 1)[1].split("\n#", 1)[0]
    lines = section.splitlines()
    keys = [ln.split("`")[1] for ln in lines if ln.startswith("| `")]
    assert keys == list(SystemParams().to_config_dict())
    assert len(keys) == 11
    # every documented key is accepted on its own
    for key, value in SystemParams().to_config_dict().items():
        SystemParams.from_mapping({key: str(value)})


def test_from_mapping_rejects_bad_value():
    with pytest.raises(ConfigError, match="alpha"):
        SystemParams.from_mapping({"alpha": "three"})


def test_from_file_parses_comments_and_blanks(tmp_path):
    cfg = tmp_path / "sys.cfg"
    cfg.write_text(
        "# comment line\n"
        "\n"
        "alpha = 3.5   # trailing comment\n"
        "p_t_dbm = 17\n"
    )
    p = SystemParams.from_file(cfg)
    assert p.alpha == 3.5
    assert p.p_t_mw == pytest.approx(dbm_to_mw(17.0))


def test_from_file_reports_line_number(tmp_path):
    cfg = tmp_path / "sys.cfg"
    cfg.write_text("alpha = 3\nnot a key value line\n")
    with pytest.raises(ConfigError, match=":2:"):
        SystemParams.from_file(cfg)


def test_config_dict_round_trip():
    p = SystemParams.from_mapping({"p_t_dbm": "23", "ns": "64"})
    q = SystemParams.from_mapping(
        {k: str(v) for k, v in p.to_config_dict().items()}
    )
    for name in ("d0_m", "lp_d0_db", "alpha", "eta_n_dbm_hz", "ws_hz", "ns",
                 "f_n_db", "gamma_ber", "r_base_bps"):
        assert getattr(q, name) == getattr(p, name)
    assert q.p_t_mw == pytest.approx(p.p_t_mw, rel=1e-12)
    assert q.f_ici == pytest.approx(p.f_ici, rel=1e-12)
