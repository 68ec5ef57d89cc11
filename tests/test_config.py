"""SystemParams defaults, the config-file loader, and unit conversions."""

from pathlib import Path

import pytest

from adhocmimo.config import (
    ConfigError,
    SystemParams,
    db_to_linear,
    linear_to_db,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def test_db_round_trips():
    # one pair serves dB and dBm alike: 0 dBm is 1 mW, 20 dBm is 100 mW
    assert db_to_linear(0.0) == 1.0
    assert linear_to_db(100.0) == pytest.approx(20.0, abs=1e-12)
    for x in (0.01, 1.0, 37.5, 1e6):
        assert db_to_linear(linear_to_db(x)) == pytest.approx(x, rel=1e-12)


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
    # the file converter takes ns only whole; a direct value is held to it too
    with pytest.raises(ConfigError, match="ns must be a whole number, got 64.7"):
        SystemParams(ns=64.7)


def test_a_huge_whole_ns_is_accepted():
    # an int is finite; one beyond int64 used to end in a TypeError from
    # np.isfinite, directly and from a config file
    assert SystemParams(ns=10**20).ns == 10**20
    p = SystemParams.from_mapping({"ns": "1e20"})
    assert p.ns == 10**20 and type(p.ns) is int


@pytest.mark.parametrize("key", ["ns", "r_base_bps"])
def test_a_direct_int_beyond_float_names_its_key(key):
    # float(10**400) used to raise OverflowError, naming no key
    with pytest.raises(ConfigError, match=f"^{key} is too large for a float"):
        SystemParams(**{key: 10**400})


def test_from_mapping_converts_units():
    p = SystemParams.from_mapping({"p_t_dbm": "23", "f_ici_dbc": "-30"})
    assert p.p_t_mw == pytest.approx(db_to_linear(23.0))
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


@pytest.mark.parametrize("key", list(SystemParams().to_config_dict()))
def test_from_mapping_rejects_non_finite_values(key):
    # a NaN used to pass every positivity check and reach the manifest as
    # NaN, which is not JSON; -inf dBc and -inf dBm used to convert to a
    # finite zero and be reported under the internal f_ici or p_t_mw
    for value in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigError, match=key):
            SystemParams.from_mapping({key: value})


@pytest.mark.parametrize("key", ["f_ici_dbc", "p_t_dbm"])
def test_from_mapping_rejects_a_db_value_that_overflows(key):
    # 4000 dB is finite, but 10 ** 400 is not a float: the conversion used
    # to raise OverflowError instead of naming the key
    with pytest.raises(ConfigError, match=key):
        SystemParams.from_mapping({key: "4000"})


def test_from_mapping_takes_ns_only_as_a_whole_number():
    # ns = 64.7 used to run, and be recorded, as 64
    for value in ("64", "64.0", "6.4e1"):
        ns = SystemParams.from_mapping({"ns": value}).ns
        assert ns == 64 and type(ns) is int
    for value in ("64.7", "0.5"):
        with pytest.raises(ConfigError, match="'ns'"):
            SystemParams.from_mapping({"ns": value})
    assert SystemParams.from_mapping({"ns": "64.0"}).to_config_dict()["ns"] == 64


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
    assert p.p_t_mw == pytest.approx(db_to_linear(17.0))


def test_from_file_reports_line_number(tmp_path):
    cfg = tmp_path / "sys.cfg"
    cfg.write_text("alpha = 3\nnot a key value line\n")
    with pytest.raises(ConfigError, match=":2:"):
        SystemParams.from_file(cfg)


def test_from_file_rejects_a_repeated_key(tmp_path):
    # the second value used to win silently; the error names the file, the
    # repeating line and the key
    cfg = tmp_path / "sys.cfg"
    cfg.write_text("p_t_dbm = 20\nalpha = 3\np_t_dbm = 10\n")
    with pytest.raises(ConfigError, match=r"sys\.cfg:3: repeated config key 'p_t_dbm'"):
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
