import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bdrlab.cli import _metadata, build_parser, main, tau_scenario
from bdrlab.atr import HysteresisConfig, apply_hysteresis, flip_rate
from bdrlab.estimators import fit_distance
from bdrlab.stats import ExperimentSpec, run_trials
from bdrlab.synth import NoiseSpec, TimeGrid


def run(args):
    return main(args)


def test_unknown_args_exit_usage(capsys):
    assert run(["synth", "--bogus"]) == 1
    assert run(["--help"]) == 0


def test_synth_distance_csv(tmp_path):
    out = tmp_path / "d.csv"
    assert run(["synth", "--num-positions", "6", "--boundaries", "3",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "position,time_frames,value"
    assert lines[4] == "3,3,0"
    assert len(lines) == 7


def test_synth_noisy_requires_seed(capsys):
    assert run(["synth", "--series", "noisy"]) == 1


def test_io_error_exit_code(tmp_path):
    assert run(["synth", "--out", str(tmp_path / "no/such/dir/f.csv")]) == 3


def test_csv_roundtrip_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["calib", "--seed", "4", "--samples", "2000"]
    run(args + ["--out", str(a)])
    # parse and re-emit through a second identical run
    run(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_json_metadata(tmp_path):
    out = tmp_path / "r.json"
    run(["flops", "--format", "json", "--out", str(out), "--points", "0.16:0.8"])
    payload = json.loads(out.read_text())
    assert set(payload) == {"metadata", "records"}
    assert {"seed", "config_hash", "tool_version"} <= set(payload["metadata"])
    assert payload["records"][0]["total_g"] == pytest.approx(156.2, abs=0.5)


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 1500, "seed": 11, "bins": 5}))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["calib", "--config", str(cfg), "--out", str(a)]) == 0
    assert len(a.read_text().splitlines()) == 1 + 5 + 1
    # flag wins over the file value
    assert run(["calib", "--config", str(cfg), "--bins", "4",
                "--out", str(b)]) == 0
    assert len(b.read_text().splitlines()) == 1 + 4 + 1


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert run(["calib", "--config", str(bad)]) == 1
    unk = tmp_path / "unk.json"
    unk.write_text(json.dumps({"zzz": 1}))
    assert run(["calib", "--config", str(unk)]) == 1
    assert run(["calib", "--config", str(tmp_path / "missing.json")]) == 1


def test_calib_input_file_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run(["calib", "--input", str(empty)]) == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("error,sigma\n1.0,oops\n")
    assert run(["calib", "--input", str(bad)]) == 1


def test_calib_input_file_without_header_exits_usage(tmp_path, capsys):
    # line 1 is always the header; a file without one would lose a data row
    src = tmp_path / "in.csv"
    src.write_text("0.1,1.0\n0.2,1.0\n0.3,1.0\n0.4,1.0\n")
    out = tmp_path / "o.csv"
    assert run(["calib", "--input", str(src), "--bins", "2",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --input line 1 ")
    assert not out.exists()


def test_calib_input_file_rejects_invalid_sigmas(tmp_path, capsys):
    src = tmp_path / "in.csv"
    src.write_text("error,sigma\n" + "0.1,1.0\n" * 20
                   + "0.2,-1\n0.3,nan\n0.4,inf\n")
    assert run(["calib", "--input", str(src), "--bins", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sigma" in err


def test_calib_input_file(tmp_path):
    rng = np.random.default_rng(0)
    s = rng.uniform(0.5, 2.0, 400)
    e = rng.normal(0, s)
    src = tmp_path / "in.csv"
    src.write_text("error,sigma\n" +
                   "".join(f"{a},{b}\n" for a, b in zip(e, s)))
    out = tmp_path / "out.csv"
    assert run(["calib", "--input", str(src), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1].startswith("r_ece,")


def test_scaling_gate_exit_codes(tmp_path):
    args = ["scaling", "--kappas", "1,2", "--strides", "1,2", "--trials", "60",
            "--seed", "5", "--num-positions", "60", "--out", str(tmp_path / "s.csv")]
    assert run(args) == 0
    # an impossible band turns the same run into a gate failure
    assert run(args + ["--gate", "--band-low", "99", "--band-high", "100"]) == 2


def test_scaling_failures_count_the_nan_distance_errors(tmp_path):
    out = tmp_path / "s.json"
    assert run(["scaling", "--kappas", "1,2", "--strides", "1,2",
                "--trials", "60", "--seed", "11", "--num-positions", "80",
                "--noise-family", "student_t", "--format", "json",
                "--out", str(out)]) == 0
    # the sweep's distance side is the stride-1 run at the master seed
    unit = run_trials(ExperimentSpec(
        grid=TimeGrid(stride=1.0, num_positions=80), kappa=1.0,
        boundary=40.0, noise=NoiseSpec(family="student_t"), num_trials=60,
        master_seed=11))
    nan = int(np.isnan(unit.bdr).sum())
    assert nan > 0
    # a numpy count would go through default=float and read 26.0, so an
    # integer in the JSON means the cell held a Python int
    records = json.loads(out.read_text())["records"][:4]
    assert [r["failures"] for r in records] == [nan] * 4
    assert all(type(r["failures"]) is int for r in records)


def test_scaling_cell_without_a_positive_R_is_named(tmp_path, capsys):
    # without noise every distance error is 0, so R = 0 in the first cell
    # and the log-log fit has nothing to take; the message names that cell
    # and writes no file
    out = tmp_path / "s.csv"
    assert run(["scaling", "--noise-scale", "0", "--trials", "40",
                "--seed", "1", "--num-positions", "60",
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: cell (kappa=1, dt=1) has R = 0, not finite and positive\n")
    assert not out.exists()


def test_scaling_rerun_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        assert run(["scaling", "--kappas", "1,2", "--strides", "1,2",
                    "--trials", "60", "--seed", "5",
                    "--num-positions", "60", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def _record_fits(monkeypatch, fits):
    """Append the arguments of every distance fit the sweep runs to `fits`."""
    def recording_fit(*args):
        fits.append(args)
        return fit_distance(*args)

    monkeypatch.setattr("bdrlab.stats.fit_distance", recording_fit)


# the fifth case is a grid too short for the peak search's window, the
# last two a gate band that no slope can be checked against
@pytest.mark.parametrize("axis", [["--kappas", "inf,1"], ["--kappas", "nan,1"],
                                  ["--kappas", "1,0"], ["--strides", "1,inf"],
                                  ["--num-positions", "2"],
                                  ["--gate", "--band-low", "nan"],
                                  ["--gate", "--band-low", "1.3",
                                   "--band-high", "0.8"]])
def test_bad_sweep_axis_exits_usage_before_any_fit(tmp_path, monkeypatch,
                                                   capsys, axis):
    fits = []

    _record_fits(monkeypatch, fits)
    argv = ["scaling", "--kappas", "1,2", "--strides", "1,2", "--trials", "20",
            "--num-positions", "60", "--seed", "1",
            "--out", str(tmp_path / "s.csv"), *axis]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert fits == []


@pytest.mark.parametrize("kappas, strides", [("2,2,2", "2"), ("1,1,1", "1")])
def test_scaling_one_distinct_x_exits_usage(tmp_path, monkeypatch, capsys,
                                            kappas, strides):
    # every cell has the same dt^2/kappa, so the log-log fit has no slope;
    # the sweep refuses the cells before it fits anything
    fits = []
    _record_fits(monkeypatch, fits)
    assert run(["scaling", "--kappas", kappas, "--strides", strides,
                "--trials", "20", "--num-positions", "60", "--seed", "1",
                "--out", str(tmp_path / "s.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "distinct" in err
    assert not (tmp_path / "s.csv").exists()
    assert fits == []


def _config_hash(tmp_path, argv, out="h.json"):
    """config_hash of a run's JSON output."""
    path = tmp_path / out
    assert run([*argv, "--format", "json", "--out", str(path)]) == 0
    return json.loads(path.read_text())["metadata"]["config_hash"]


SMALL_SWEEP = ["scaling", "--kappas", "1,2", "--strides", "1,2",
               "--trials", "20", "--num-positions", "60", "--seed", "1"]


@pytest.mark.parametrize("base, flag, values", [
    (["synth", "--series", "noisy", "--seed", "4"], "--noise-scale",
     ("0.5", "2.0")),
    (SMALL_SWEEP + ["--noise-family", "student_t"], "--nu", ("3", "30")),
])
def test_config_hash_differs_with_noise_settings(tmp_path, base, flag, values):
    a, b = (_config_hash(tmp_path, [*base, flag, v]) for v in values)
    assert a != b


@pytest.mark.parametrize("argv, flag, spellings", [
    (SMALL_SWEEP, "--kappas", ("1,2", "1.0,2.0")),
    (SMALL_SWEEP, "--strides", ("1,2", "1.,2e0")),
    (["synth"], "--boundaries", ("25,40", "25.0,40.00")),
    (["flops"], "--points", ("0.16:0.8,1:1", ".16:.80,1.0:1e0")),
])
def test_config_hash_same_for_number_spellings(tmp_path, argv, flag,
                                               spellings):
    a, b = (_config_hash(tmp_path, [*argv, flag, v]) for v in spellings)
    assert a == b


@pytest.mark.parametrize("argv, hashes_seed", [
    (["flops"], False),
    (["atr-sim", "--length", "200"], True),
    (["calib", "--samples", "200"], True),
])
def test_config_hash_covers_the_seed_only_where_it_is_used(tmp_path, argv,
                                                           hashes_seed):
    a, b = (_config_hash(tmp_path, [*argv, "--seed", v]) for v in ("3", "4"))
    assert (a != b) == hashes_seed


def test_config_hash_same_for_config_file_and_flag(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"noise_scale": 2.0, "seed": 4}))
    from_file = _config_hash(tmp_path, ["synth", "--series", "noisy",
                                        "--config", str(cfg)])
    from_flags = _config_hash(tmp_path, ["synth", "--series", "noisy",
                                         "--seed", "4", "--noise-scale", "2"])
    assert from_file == from_flags


def test_config_hash_ignores_output_path_and_format(tmp_path):
    argv = ["calib", "--seed", "3", "--samples", "200"]
    assert (_config_hash(tmp_path, argv, "a.json")
            == _config_hash(tmp_path, argv, "b.json"))
    # a CSV run writes no metadata, so its parsed arguments are compared
    parser = build_parser()
    csv = parser.parse_args([*argv, "--out", "a.csv"])
    js = parser.parse_args([*argv, "--format", "json", "--out", "b.json"])
    assert _metadata(csv) == _metadata(js)


def _calib_samples(tmp_path, argv, cfg):
    """Samples a calib run used, read back from its per-bin counts."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "c.json"
    assert run(["calib", "--seed", "1", "--bins", "2", "--format", "json",
                "--config", str(path), "--out", str(out), *argv]) == 0
    records = json.loads(out.read_text())["records"]
    return sum(r["count"] for r in records if r["bin"] != "r_ece")


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flag=st.integers(50, 400), config=st.integers(50, 400),
       prefix=st.integers(2, len("samples")), inline=st.booleans())
def test_flag_beats_config_in_any_spelling(tmp_path, flag, config, prefix,
                                           inline):
    spelling = "--" + "samples"[:prefix]  # "--sa" is the shortest unique one
    argv = [f"{spelling}={flag}"] if inline else [spelling, str(flag)]
    assert _calib_samples(tmp_path, argv, {"samples": config}) == flag
    assert _calib_samples(tmp_path, [], {"samples": config}) == config


def test_abbreviated_flag_beats_config_in_scaling(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 50}))
    common = ["scaling", "--kappas", "1,2", "--strides", "1,2", "--seed", "5",
              "--num-positions", "60"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(common + ["--tri", "40", "--config", str(cfg),
                         "--out", str(a)]) == 0
    assert run(common + ["--trials", "40", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(value=st.one_of(st.text().filter(_not_an_int), st.floats(),
                       st.booleans(), st.none(),
                       st.lists(st.integers(), max_size=2)))
def test_bad_config_trials_exits_usage(tmp_path, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": value}))
    assert run(["scaling", "--seed", "1", "--config", str(cfg),
                "--out", str(tmp_path / "s.csv")]) == 1


def test_config_values_are_checked_like_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    for bad in ({"gate": "yes"}, {"gate": 1}, {"format": "xml"}, {"seed": -1},
                {"noise_family": "cauchy"}, {"band_low": "low"},
                {"config": "other.json"}, {"func": 1}):
        cfg.write_text(json.dumps(bad))
        argv = ["scaling", "--kappas", "1,2", "--strides", "1,2",
                "--trials", "20", "--num-positions", "60", "--seed", "1",
                "--config", str(cfg), "--out", str(tmp_path / "s.csv")]
        assert run(argv) == 1, bad


def test_calib_unknown_scenario_exits_usage_before_sampling(tmp_path,
                                                           monkeypatch):
    drawn = []
    monkeypatch.setattr("bdrlab.cli._calib_scenario",
                        lambda *args: drawn.append(args))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "sigma_x3"}))
    out = tmp_path / "c.csv"
    for how in (["--scenario", "sigma_x3"], ["--config", str(cfg)]):
        assert run(["calib", "--seed", "1", *how, "--out", str(out)]) == 1
    assert drawn == [] and not out.exists()


def test_atr_sim_scenario_report(tmp_path):
    out = tmp_path / "a.csv"
    assert run(["atr-sim", "--seed", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    raw = float(lines[1].split(",")[2])
    stab = float(lines[1].split(",")[3])
    assert 0.14 < raw < 0.22  # calibrated near the 18% level
    assert stab <= 0.7 * raw


def test_atr_sim_gamma_zero_identity(tmp_path):
    out = tmp_path / "a.csv"
    assert run(["atr-sim", "--seed", "2", "--gamma", "0", "--out", str(out)]) == 0
    for line in out.read_text().splitlines()[1:]:
        _, _, raw, stab, mraw, mstab = line.split(",")
        assert raw == stab and mraw == mstab


@pytest.mark.parametrize("rho", [1.0, 1.5, -1.0, -2.0, float("nan")])
def test_tau_scenario_rejects_rho_outside_open_unit_interval(rho):
    with pytest.raises(ValueError, match="rho"):
        tau_scenario(50, rho, 0.2, 0)


@pytest.mark.parametrize("rho", ["1.5", "-2"])
def test_atr_sim_bad_trace_rho_exits_usage(tmp_path, capsys, rho):
    assert run(["atr-sim", "--seed", "1", "--length", "50", "--trace-rho", rho,
                "--out", str(tmp_path / "a.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "a.csv").exists()


@pytest.mark.parametrize("flag", [["--gain", "nan"], ["--gain", "inf"],
                                  ["--gamma", "nan"], ["--gamma", "inf"]])
def test_atr_sim_non_finite_gain_or_gamma_exits_usage(tmp_path, capsys, flag):
    assert run(["atr-sim", "--seed", "1", "--length", "50", *flag,
                "--out", str(tmp_path / "a.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag[0][2:] in err
    assert not (tmp_path / "a.csv").exists()


@pytest.mark.parametrize("flags", [
    ["--boundaries", "nan"], ["--boundaries", "3,inf"],
    ["--series", "features", "--boundaries", "nan"],
    ["--series", "noisy", "--noise-scale", "nan"],
    ["--series", "noisy", "--noise-scale", "inf"],
    ["--series", "noisy", "--noise-family", "student_t", "--nu", "nan"]])
def test_synth_non_finite_input_exits_usage(tmp_path, capsys, flags):
    assert run(["synth", "--seed", "1", "--num-positions", "6", *flags,
                "--out", str(tmp_path / "s.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("argv, flag", [
    (["atr-sim", "--length", "-5"], "--length"),
    (["atr-sim", "--length", "1"], "--length"),
    (["calib", "--samples", "-3"], "--samples"),
    (["calib", "--samples", "0"], "--samples"),
    (["calib", "--samples", "5"], "--samples"),
    (["calib", "--bins", "0"], "--bins"),
    (["calib", "--bins", "1"], "--bins"),
    (["calib", "--input", "five_rows.csv"], "--input"),
    (["calib", "--seed", "-1"], "--seed"),
    (["synth", "--series", "noisy", "--seed", "-1"], "--seed"),
    (["atr-sim", "--seed", "-1"], "--seed")])
def test_negative_or_empty_sizes_exit_usage_naming_the_flag(
        tmp_path, monkeypatch, capsys, argv, flag):
    drawn = []
    monkeypatch.setattr("bdrlab.cli._calib_scenario",
                        lambda *args: drawn.append(args))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "five_rows.csv").write_text("error,sigma\n" + "0.1,1.0\n" * 5)
    out = tmp_path / "o.csv"
    # a later --seed in argv wins over this one
    assert run([argv[0], "--seed", "1", *argv[1:], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    # one error line of ours, or argparse's usage and error lines
    assert re.match(r"(bdrlab [a-z-]+: )?error: ", err.splitlines()[-1])
    assert flag in err.splitlines()[-1] and "Traceback" not in err
    assert drawn == [] and not out.exists()


@pytest.mark.parametrize("argv, allocates", [
    (["synth", "--series", "noisy"], "bdrlab.cli.make_distance_field"),
    (["atr-sim"], "bdrlab.cli.tau_scenario")])
def test_unallocatable_size_exits_usage_without_traceback(
        tmp_path, monkeypatch, capsys, argv, allocates):
    # the stand-in fails as numpy does on a size beyond memory, so the test
    # itself never asks for one
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 745. GiB for an array")
    monkeypatch.setattr(allocates, out_of_memory)
    out = tmp_path / "o.csv"
    assert run([*argv, "--seed", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 745. GiB for an array\n")
    assert not out.exists()


def test_synth_features_takes_one_boundary(tmp_path, capsys):
    assert run(["synth", "--series", "features", "--boundaries", "25,75",
                "--out", str(tmp_path / "s.csv")]) == 1
    assert "one boundary" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("points", ["0.5:-1", "0.5:2", "0.16:0.8,1:1.01"])
def test_flops_bad_keep_ratio_exits_usage(tmp_path, capsys, points):
    assert run(["flops", "--points", points,
                "--out", str(tmp_path / "f.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (["scaling", "--trials", "1"], "--trials must be >= 2"),
    (["scaling", "--kappas", "0"], "--kappas must be finite and positive"),
    (["scaling", "--strides", "1,0"], "--strides must be finite and positive"),
    (["scaling", "--num-positions", "2"], "--num-positions must be >= 3"),
    (["scaling", "--noise-scale", "-1"],
     "--noise-scale must be finite and >= 0"),
    (["scaling", "--rho", "1.5"], "--rho must be in [0, 1)"),
    (["synth", "--num-positions", "0"], "--num-positions must be >= 2"),
    (["synth", "--stride", "0"], "--stride must be finite and positive"),
    (["synth", "--series", "features", "--kappa", "0"],
     "--kappa must be finite and positive"),
    (["synth", "--series", "noisy", "--noise-family", "student_t",
      "--nu", "0"], "--nu must be finite and positive"),
    (["flops", "--points", "0.1"],
     "argument --points: '0.1' is not an expected_tau:keep_ratio pair"),
    (["flops", "--points", "0.16:0.8,1:x"],
     "argument --points: '1:x' is not an expected_tau:keep_ratio pair"),
    (["atr-sim", "--trace-rho", "1.5"], "--trace-rho must be in (-1, 1)"),
    (["atr-sim", "--gain", "inf"], "--gain must be finite"),
    (["atr-sim", "--gamma", "-1"], "--gamma must be finite and >= 0"),
    (["flops", "--points", "0.5:2"],
     "--points pair 0.5:2.0: keep_ratio must be in [0, 1]"),
    (["flops", "--points", "2:0.5"],
     "--points pair 2.0:0.5: expected_tau must be in [0, 1]"),
    (["flops", "--points", "0.16:0.8,1:1.01"],
     "--points pair 1.0:1.01: keep_ratio must be in [0, 1]")])
def test_library_errors_name_the_flag(tmp_path, monkeypatch, capsys, argv,
                                      message):
    fits = []
    _record_fits(monkeypatch, fits)
    out = tmp_path / "o.csv"
    assert run([argv[0], "--seed", "1", *argv[1:], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"(bdrlab [a-z-]+: )?error: " + re.escape(message),
                        err.splitlines()[-1])
    assert "Traceback" not in err
    assert fits == [] and not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["scaling", "--kappas", "1,x"], "argument --kappas: expected a comma "
     "list of numbers such as 1,2,4, not '1,x'"),
    (["synth", "--boundaries", "1,,2"], "argument --boundaries: expected a "
     "comma list of numbers such as 1,2,4, not '1,,2'"),
    (["synth", "--seed", "abc"],
     "argument --seed: expected a non-negative integer, not 'abc'"),
    (["atr-sim", "--seed", "-3"],
     "argument --seed: expected a non-negative integer, not '-3'")])
def test_bad_flag_values_say_what_was_expected(tmp_path, capsys, argv,
                                               message):
    out = tmp_path / "o.csv"
    assert run([*argv, "--out", str(out)]) == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == f"bdrlab {argv[0]}: error: {message}"
    assert not out.exists()


def test_tau_scenario_flip_never_increases_many_traces():
    cfg = HysteresisConfig(gamma=0.05)
    for seed in range(10):
        tau = tau_scenario(300, 0.84, 0.2, seed)
        assert flip_rate(apply_hysteresis(tau, cfg)) <= flip_rate(tau)
