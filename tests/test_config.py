"""Config ingestion: aliases, unknown and duplicate keys, the root
mapping, unit conversion, type coercion, scheme names and the config
hash."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mmpass.config import (ScenarioConfig, build_scenario, config_hash,
                           load_config)


@pytest.fixture
def write(tmp_path):
    def _write(text):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        return path
    return _write


def test_sections_merge_into_one_namespace(write):
    cfg = load_config(write("array:\n  num_waveguides: 2\n"
                            "users:\n  num_users: 6\n"
                            "seed: 9\n"))
    assert (cfg.num_waveguides, cfg.num_users, cfg.seed) == (2, 6, 9)


def test_frequency_and_power_aliases(write):
    cfg = load_config(write("medium:\n  frequency_ghz: 120\n"
                            "power:\n  power_dbw: 20\n"))
    assert cfg.frequency_hz == pytest.approx(120e9, rel=1e-15)
    assert cfg.power_w == pytest.approx(100.0, rel=1e-12)


@pytest.mark.parametrize("text", [
    "frequency_ghz: 100\nfrequency_hz: 1.0e11\n",
    "a:\n  power_dbw: 10\nb:\n  power_w: 10\n",
])
def test_alias_conflicting_with_its_target(write, text):
    with pytest.raises(ValueError, match="conflicts with"):
        load_config(write(text))


def test_unknown_key(write):
    with pytest.raises(ValueError, match="unknown config field 'num_guides'"):
        load_config(write("array:\n  num_guides: 3\n"))


def test_same_key_in_two_sections(write):
    with pytest.raises(ValueError, match="duplicate config field 'seed'"):
        load_config(write("a:\n  seed: 1\nb:\n  seed: 2\n"))


@pytest.mark.parametrize("text", ["- 1\n- 2\n", "just a string\n", "42\n"])
def test_root_must_be_a_mapping(write, text):
    with pytest.raises(ValueError, match="root must be a mapping"):
        load_config(write(text))


def test_empty_file_gives_defaults(write):
    assert load_config(write("")) == ScenarioConfig()
    assert load_config(write("# comments only\n")) == ScenarioConfig()
    assert load_config(None) == ScenarioConfig()


def test_attenuation_db_to_np(write):
    cfg = load_config(write("alpha_w_db: 0.5\nalpha_a_db: 2.0\n"))
    # 1 dB of power is ln(10) / 10 Np
    assert cfg.alpha_w_np == pytest.approx(0.5 * math.log(10) / 10, rel=1e-15)
    assert cfg.alpha_a_np == pytest.approx(2.0 * math.log(10) / 10, rel=1e-15)
    scn = build_scenario(replace(cfg, num_users=2))
    assert scn.waveguides[0].alpha_w == cfg.alpha_w_np
    assert scn.alpha_a == cfg.alpha_a_np
    # a guide 10 dB down in power keeps a tenth of it
    assert np.exp(-load_config(write("alpha_w_db: 10\n")).alpha_w_np) == \
        pytest.approx(0.1, rel=1e-12)


def test_integer_fields_coerced(write):
    cfg = load_config(write("num_waveguides: 2.0\npas_per_waveguide: '3'\n"
                            "num_modes: 1.0\nnum_users: 8.0\nseed: 7.0\n"))
    values = (cfg.num_waveguides, cfg.pas_per_waveguide, cfg.num_modes,
              cfg.num_users, cfg.seed)
    assert values == (2, 3, 1, 8, 7)
    assert all(type(v) is int for v in values)


FLOAT_FIELDS = ("d_x", "d_y", "d_z", "frequency_hz", "a", "b", "n_core",
                "alpha_w_db", "alpha_a_db", "aperture_scale", "power_w",
                "noise_dbw")


@pytest.mark.parametrize("name", FLOAT_FIELDS)
@pytest.mark.parametrize("text", ["ten", ".nan", ".inf", "-.inf", "[1.0]",
                                  "true"])
def test_float_fields_must_be_finite_real_numbers(write, name, text):
    # bad numbers stop at the config boundary, named, instead of failing
    # in a stage downstream
    with pytest.raises(ValueError, match=f"config field '{name}' must be a "
                                         f"finite real number"):
        load_config(write(f"{name}: {text}\n"))


@pytest.mark.parametrize("name", FLOAT_FIELDS)
@pytest.mark.parametrize("value", ["10", math.nan, math.inf, 1j, None])
def test_validate_rejects_float_fields_that_are_not_finite_reals(name, value):
    with pytest.raises(ValueError, match=f"config field '{name}' must be a "
                                         f"finite real number"):
        ScenarioConfig(**{name: value}).validate()


@pytest.mark.parametrize("name", ["frequency_ghz", "power_dbw"])
@pytest.mark.parametrize("text", ["ten", ".nan", ".inf"])
def test_aliases_must_be_finite_real_numbers(write, name, text):
    with pytest.raises(ValueError, match=f"config field '{name}' must be a "
                                         f"finite real number"):
        load_config(write(f"{name}: {text}\n"))


def test_powers_that_overflow_a_float_fail_at_load(write):
    with pytest.raises(ValueError, match="'power_dbw' is out of range"):
        load_config(write("power_dbw: 1.0e6\n"))
    with pytest.raises(ValueError, match="'noise_dbw' = 4000 gives a noise "
                                         "power of inf W"):
        load_config(write("noise_dbw: 4000\n"))


def test_exponents_without_a_dot_are_numbers(write):
    # YAML 1.1 reads 3e-3 as a string
    cfg = load_config(write("a: 3e-3\nfrequency_hz: 1e11\n"))
    assert (cfg.a, cfg.frequency_hz) == (3e-3, 1e11)
    assert load_config(write("power_dbw: 1e1\n")).power_w == 10.0


@pytest.mark.parametrize("name", ["num_waveguides", "pas_per_waveguide",
                                  "num_modes", "num_users"])
@pytest.mark.parametrize("text", ["2.7", "two", ".nan", ".inf", "true"])
def test_integer_fields_reject_non_integral_values(write, name, text):
    with pytest.raises(ValueError, match=f"config field '{name}' must be an "
                                         f"integer"):
        load_config(write(f"{name}: {text}\n"))
    if text == "2.7":
        with pytest.raises(ValueError, match=f"'{name}' must be an integer, "
                                             f"got 2.7"):
            ScenarioConfig(**{name: 2.7}).validate()


@pytest.mark.parametrize("seed", [-3, 2.5])
def test_seed_must_be_a_non_negative_integer(write, seed):
    with pytest.raises(ValueError, match="'seed' must be a non-negative "
                                         "integer"):
        ScenarioConfig(seed=seed).validate()
    if seed < 0:
        with pytest.raises(ValueError, match="'seed' must be a non-negative"):
            load_config(write(f"seed: {seed}\n"))
    assert ScenarioConfig(seed=0).validate().seed == 0
    assert ScenarioConfig(seed=np.int64(5)).validate().seed == 5


def test_unknown_scheme_rejected_at_load(write):
    with pytest.raises(ValueError, match="unknown scheme 'nope'"):
        load_config(write("schemes: [pa-mm, nope]\n"))
    with pytest.raises(ValueError, match="unknown scheme"):
        ScenarioConfig(schemes=("pa-mm", "pa-xx")).validate()


@pytest.mark.parametrize("value", ["pa-mm", "7"])
def test_scalar_schemes_asks_for_a_list(write, value):
    # a bare string would otherwise be read as a list of characters
    with pytest.raises(ValueError, match="'schemes' must be a list"):
        load_config(write(f"schemes: {value}\n"))


def test_scheme_spellings_accepted(write):
    cfg = load_config(write("schemes: [PA-MMPASS, pi_sm, DP-MM]\n"))
    assert cfg.schemes == ("PA-MMPASS", "pi_sm", "DP-MM")


def test_config_hash_stable_and_field_sensitive(write):
    path = write("array:\n  num_users: 6\nseed: 4\n")
    first = config_hash(load_config(path))
    assert first == config_hash(load_config(path))
    assert len(first) == 12
    base = load_config(path)
    for change in ({"seed": 5}, {"num_users": 7}, {"noise_dbw": -27.0},
                   {"schemes": ("pa-mm",)}):
        assert config_hash(replace(base, **change)) != first, change


def test_kappa_is_not_a_config_field(write):
    # every element takes an equal 1/N share of the guided power, so a
    # coupling coefficient would change no output
    with pytest.raises(ValueError, match="unknown config field 'kappa'"):
        load_config(write("medium:\n  kappa: 100.0\n"))


def test_gain_normalization_is_not_a_config_field(write):
    # the normalized per-mode gain is the model, not an option
    with pytest.raises(ValueError,
                       match="unknown config field 'gain_normalization'"):
        load_config(write("medium:\n  gain_normalization: none\n"))


def test_explicit_user_positions_pad_z_to_the_floor(write):
    cfg = load_config(write("user_mode: explicit\n"
                            "user_positions: [[1, 2], [4.0, 3.5, 0.5]]\n"))
    assert cfg.user_positions == ((1.0, 2.0), (4.0, 3.5, 0.5))
    scn = build_scenario(cfg)
    np.testing.assert_array_equal(scn.users, [[1.0, 2.0, 0.0],
                                              [4.0, 3.5, 0.5]])


@pytest.mark.parametrize("positions, message", [
    ("[1, 2]", r"'user_positions\[0\]' must be 2 or 3 numbers"),
    ("[[1, 2], [3]]", r"'user_positions\[1\]' must be 2 or 3 numbers"),
    ("[[1, 2], [3, 4, 0, 1]]", r"'user_positions\[1\]' must be 2 or 3"),
    ("[[1, x]]", r"'user_positions\[0\]' must be 2 or 3 numbers"),
    ("[[1, 2], [1, .nan]]", r"'user_positions\[1\]' must be finite"),
    ("[[.inf, 2]]", r"'user_positions\[0\]' must be finite"),
    ("[[1, 2], [3, 4, 5]]", r"'user_positions\[1\]' must satisfy "
                            r"0 <= z < d_z = 3"),
    ("[[1, 2, -0.5]]", r"'user_positions\[0\]' must satisfy 0 <= z"),
    ("[[-1.0, 1.0], [4.0, 2.0]]",
     r"'user_positions\[0\]' must satisfy 0 <= x <= d_x = 10"),
    ("[[1, 2], [10.5, 2]]", r"'user_positions\[1\]' must satisfy 0 <= x"),
    ("[[1, 2], [3, -0.1]]", r"'user_positions\[1\]' must satisfy 0 <= y"),
    ("[[1, 2], [3, 6.01]]",
     r"'user_positions\[1\]' must satisfy 0 <= y <= d_y = 6"),
    ("[[1, 2], [4, 5], [1.0, 2.0, 0.0]]",
     r"'user_positions\[2\]' repeats user_positions\[0\]"),
    ("7", r"'user_positions' must be a list of positions"),
])
def test_bad_user_positions_fail_at_load(write, positions, message):
    with pytest.raises(ValueError, match=message):
        load_config(write(f"user_mode: explicit\n"
                          f"user_positions: {positions}\n"))


def test_user_positions_on_the_floor_edges_are_accepted(write):
    cfg = load_config(write("user_mode: explicit\nd_x: 8\nd_y: 5\n"
                            "user_positions: [[0, 0], [8, 5], [0, 5, 1], "
                            "[8, 0]]\n"))
    assert cfg.user_positions == ((0.0, 0.0), (8.0, 5.0), (0.0, 5.0, 1.0),
                                  (8.0, 0.0))


def test_validate_checks_user_positions_of_a_built_config():
    cfg = ScenarioConfig(user_mode="explicit",
                         user_positions=((1.0, 2.0), (1.0, 2.0)))
    with pytest.raises(ValueError, match=r"user_positions\[1\]' repeats"):
        cfg.validate()
    with pytest.raises(ValueError, match=r"user_positions\[0\]' must sat"):
        replace(cfg, user_positions=((1.0, 2.0, 3.0),)).validate()
    with pytest.raises(ValueError, match=r"user_positions\[0\]' must sat"):
        replace(cfg, user_positions=((1.0, 2.0),), d_y=1.5).validate()
