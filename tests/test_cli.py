"""Smoke tests of every CLI subcommand on a tiny configuration."""

import numpy as np
import pytest

from mmpass import cli

TINY = """\
array:
  num_waveguides: 1
  pas_per_waveguide: 2
  num_users: 4
"""

POWERS = ["0", "10"]


@pytest.fixture
def tiny(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY)
    return ["--config", str(path), "--out-dir", str(tmp_path)]


def _csv_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# experiment=")
    return lines[2:]


def test_rate_vs_power(tiny, tmp_path):
    assert cli.main(["rate-vs-power", *tiny, "--powers", *POWERS]) == 0
    assert len(_csv_rows(tmp_path / "rate_vs_power.csv")) == 2 * 5


def test_outage(tiny, tmp_path):
    assert cli.main(["outage", *tiny, "--powers", *POWERS,
                     "--trials", "100"]) == 0
    rows = _csv_rows(tmp_path / "outage.csv")
    assert len(rows) == 2 * 2
    assert {r.split(",")[1] for r in rows} == {"MM", "SM-TDMA"}


def test_convergence(tiny, tmp_path, capsys):
    assert cli.main(["convergence", *tiny, "--scheme", "pa-mm",
                     "--scheme", "pi-sm"]) == 0
    rows = _csv_rows(tmp_path / "convergence.csv")
    assert f"({len(rows)} rows)" in capsys.readouterr().out
    assert {r.split(",")[1] for r in rows} == {"PA-MM", "PI-SM"}


def test_field_map(tiny, tmp_path):
    assert cli.main(["field-map", *tiny, "--grid-res", "0.5"]) == 0
    xs = np.arange(0.0, 10.0 + 1e-9, 0.5)
    ys = np.arange(0.0, 6.0 + 1e-9, 0.5)
    assert len(_csv_rows(tmp_path / "field_map.csv")) == xs.size * ys.size


def test_scaling(tiny, tmp_path):
    assert cli.main(["scaling", *tiny, "--scheme", "pa-mm"]) == 0
    # 3 x 3 array sizes plus 3 user counts, one scheme
    assert len(_csv_rows(tmp_path / "scaling.csv")) == 9 + 3


@pytest.mark.parametrize("command", ["validate", "oracle"])
def test_self_checks(tiny, command, capsys):
    assert cli.main([command, *tiny]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_validate_reports_each_slots_fp_stop(tiny, capsys):
    # four users pair up on the two elements of one guide: one slot
    assert cli.main(["validate", *tiny]) == 0
    info = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("INFO: slot")]
    assert len(info) == 1
    assert info[0].startswith("INFO: slot 0 FP ran ")
    assert info[0].endswith(("converged", "stopped at the cap"))


def test_validate_reports_each_slots_served_users(tiny, capsys):
    # one guide with two modes carries QM = 2 streams, so FP keeps two
    # of the slot's four users on; the others' rates are exactly 0
    assert cli.main(["validate", *tiny]) == 0
    served = [line for line in capsys.readouterr().out.splitlines()
              if "kept a stream" in line]
    assert served == ["INFO: 2 of 4 users of slot 0 kept a stream (QM = 2)"]


def test_unknown_scheme_flag_fails_before_any_run(tiny, tmp_path, monkeypatch,
                                                  capsys):
    runs = []
    monkeypatch.setattr(cli.bench, "optimize_scenario",
                        lambda scn, scheme: runs.append(scheme))
    assert cli.main(["rate-vs-power", *tiny, "--powers", *POWERS,
                     "--scheme", "pa-mm", "--scheme", "nope"]) == 2
    assert "unknown scheme 'nope'" in capsys.readouterr().err
    assert runs == []
    assert not (tmp_path / "rate_vs_power.csv").exists()


def test_negative_seed_fails_before_any_run(tiny, tmp_path, capsys):
    assert cli.main(["outage", *tiny, "--seed", "-3", "--trials", "200"]) == 2
    assert ("config field 'seed' must be a non-negative integer"
            in capsys.readouterr().err)
    assert not (tmp_path / "outage.csv").exists()


def test_bad_number_in_config_exits_2_naming_the_field(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(TINY + "power_w: ten\n")
    assert cli.main(["validate", "--config", str(path)]) == 2
    assert ("error: config field 'power_w' must be a finite real number"
            in capsys.readouterr().err)


@pytest.mark.parametrize("step", ["0", "-0.1", "nan", "inf"])
def test_field_map_rejects_a_step_that_is_not_positive(tiny, tmp_path,
                                                       capsys, step):
    assert cli.main(["field-map", *tiny, f"--grid-res={step}"]) == 2
    assert "grid_res must be positive" in capsys.readouterr().err
    assert not (tmp_path / "field_map.csv").exists()


def test_field_map_too_fine_to_allocate_exits_2(tiny, tmp_path, capsys):
    # 10 m at 1e-12 m steps is a 72.8 TiB x axis: the allocation is
    # refused at once, before anything is written
    assert cli.main(["field-map", *tiny, "--grid-res", "1e-12"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "TiB" in err
    assert not (tmp_path / "field_map.csv").exists()


def test_gain_normalization_in_config_exits_2(tmp_path, capsys):
    path = tmp_path / "old.yaml"
    path.write_text(TINY + "gain_normalization: none\n")
    assert cli.main(["validate", "--config", str(path)]) == 2
    assert ("error: unknown config field 'gain_normalization'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command, args, message", [
    ("rate-vs-power", ["--powers", "0", "nan"],
     "--powers value nan dBW gives a transmit power of nan W"),
    ("rate-vs-power", ["--powers", "0", "1e6"],
     "--powers value 1e6 dBW gives a transmit power of inf W"),
    ("rate-vs-power", ["--powers=-1e6"],
     "--powers value -1e6 dBW gives a transmit power of 0.0 W"),
    ("rate-vs-power", ["--powers", "0", "ten"],
     "--powers value 'ten' is not a number of dBW"),
    ("outage", ["--trials", "100", "--powers", "0", "nan"],
     "--powers value nan dBW gives a transmit power of nan W"),
    ("outage", ["--trials", "100", "--powers", "0", "inf"],
     "--powers value inf dBW gives a transmit power of inf W"),
    ("outage", ["--trials", "100", "--threshold", "nan"],
     "outage threshold must be a finite positive rate, got nan"),
    ("outage", ["--trials", "100", "--threshold", "-1"],
     "outage threshold must be a finite positive rate, got -1.0"),
    ("outage", ["--trials", "100", "--threshold", "0"],
     "outage threshold must be a finite positive rate, got 0.0"),
])
def test_bad_power_or_threshold_exits_2_before_any_csv(tiny, tmp_path, capsys,
                                                       command, args,
                                                       message):
    assert cli.main([command, *tiny, *args]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


COMMAND_ARGS = {"rate-vs-power": [], "outage": ["--trials", "100"]}


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
@pytest.mark.parametrize("value, watts", [("-1e6", "0.0"), ("-inf", "0.0"),
                                          ("-nan", "nan")])
def test_negative_powers_in_word_or_exponent_form_reach_the_check(
        tiny, tmp_path, capsys, command, value, watts):
    # argparse would take these for unknown options; they must reach the
    # --powers check and fail there, before any run
    argv = [command, *tiny, *COMMAND_ARGS[command], "--powers", "0", value]
    assert cli.main(argv) == 2
    assert (f"error: --powers value {value} dBW gives a transmit power of "
            f"{watts} W" in capsys.readouterr().err)
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command, csv", [("rate-vs-power", "rate_vs_power"),
                                          ("outage", "outage")])
def test_powers_in_exponent_form_run(tiny, tmp_path, command, csv):
    # the run goes on past a negative value and ends at the next flag,
    # which still applies
    argv = [command, *tiny, "--powers", "-1.5e1", "0",
            *COMMAND_ARGS[command], "--seed", "2"]
    assert cli.main(argv) == 0
    rows = _csv_rows(tmp_path / f"{csv}.csv")
    assert sorted({r.split(",")[0] for r in rows}) == ["-15.000000",
                                                      "0.000000"]
    header = (tmp_path / f"{csv}.csv").read_text().splitlines()[0]
    assert "seed=2" in header


def test_powers_flag_without_values_is_an_argparse_error(tiny, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["rate-vs-power", *tiny, "--powers", "--seed", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--powers: expected at least one argument" in err


@pytest.mark.parametrize("command, args, message", [
    ("outage", ["--trials", "100", "--threshold", "-1e3"],
     "error: outage threshold must be a finite positive rate, got -1000.0"),
    ("outage", ["--trials", "-1e3"],
     "argument --trials: invalid int value: '-1e3'"),
    ("outage", ["--trials", "100", "--seed", "-1e3"],
     "argument --seed: invalid int value: '-1e3'"),
    ("field-map", ["--grid-res", "-1e-2"],
     "error: grid_res must be positive, got -0.01"),
])
def test_number_options_in_exponent_form_reach_their_own_check(
        tiny, tmp_path, capsys, command, args, message):
    # argparse would take these values for options and stop with
    # "expected one argument"; each must reach the check that names it
    try:
        code = cli.main([command, *tiny, *args])
    except SystemExit as exc:  # argparse's own type check
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "expected one argument" not in err
    assert not list(tmp_path.glob("*.csv"))


def test_glue_joins_each_number_option_to_its_values():
    argv = ["outage", "--powers", "-1e1", "0", "--trials", "1e3", "5",
            "--threshold", "-2", "--grid-res", "--seed", "-inf",
            "--out-dir", "-x"]
    assert cli._glue_numbers(argv) == [
        "outage", "--powers=-1e1", "--powers=0", "--trials=1e3", "5",
        "--threshold=-2", "--grid-res", "--seed=-inf", "--out-dir", "-x"]


def test_field_map_step_in_exponent_form_runs(tiny, tmp_path):
    assert cli.main(["field-map", *tiny, "--grid-res", "5e-1"]) == 0
    assert (tmp_path / "field_map.csv").exists()
