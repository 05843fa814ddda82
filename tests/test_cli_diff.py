"""tools/cli_diff.py on the repository and on a copy with one output byte,
or one error byte, changed, and its --rtol comparison by value."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "cli_diff.py"
_spec = importlib.util.spec_from_file_location("cli_diff", TOOL)
cli_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_diff)

TINY = [["flops", "--points", "0.16:0.8"],
        ["synth", "--num-positions", "6"]]


# a library call small enough for a test: 5 trials of three short lengths
TINY_LIBRARY = dict(call="finite_sample_variance_check", kappa=4.0, rho=0.6,
                    trials=5, seed=3, axis=(10, 20, 30))


@pytest.fixture(autouse=True)
def no_library_runs(monkeypatch):
    # the full library calls take seconds; a test that wants one sets it
    monkeypatch.setattr(cli_diff, "LIBRARY", [])


@pytest.fixture
def tiny_commands(monkeypatch):
    monkeypatch.setattr(cli_diff, "COMMANDS", TINY)


def test_same_tree_is_identical(tiny_commands, capsys):
    assert cli_diff.main([str(ROOT), str(ROOT)]) == 0
    assert capsys.readouterr().out == "4 of 4 runs byte-identical\n"


def test_one_changed_byte_is_named(tiny_commands, tmp_path, capsys):
    shutil.copytree(ROOT / "src" / "bdrlab", tmp_path / "src" / "bdrlab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "bdrlab" / "cli.py"
    text = cli.read_text()
    assert text.count('"time_frames"') == 1
    cli.write_text(text.replace('"time_frames"', '"time_frameZ"'))
    assert cli_diff.main([str(ROOT), str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("differs: synth --num-positions 6 --format csv ")
    assert lines[1].startswith(
        "differs: synth --num-positions 6 --format json ")
    assert lines[2:] == ["2 of 4 runs byte-identical"]


def test_one_changed_error_byte_is_named(monkeypatch, tmp_path, capsys):
    # the run exits 1 with an empty stdout in both trees, so only its
    # stderr tells them apart
    monkeypatch.setattr(cli_diff, "COMMANDS",
                        [["calib", "--bins", "1", "--seed", "1"]])
    shutil.copytree(ROOT / "src" / "bdrlab", tmp_path / "src" / "bdrlab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "bdrlab" / "cli.py"
    text = cli.read_text()
    assert text.count('"--bins must be at least 2"') == 1
    cli.write_text(text.replace('"--bins must be at least 2"',
                                '"--bins must be at least 3"'))
    assert cli_diff.main([str(ROOT), str(tmp_path)]) == 1
    size = len("error: --bins must be at least 2\n")
    assert capsys.readouterr().out.splitlines() == [
        f"differs: calib --bins 1 --seed 1 --format {fmt} (stderr: exit 1 -> "
        f"1, stdout 0 -> 0 bytes, stderr {size} -> {size} bytes)"
        for fmt in ("csv", "json")] + ["0 of 2 runs byte-identical"]


def test_tree_without_sources_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli_diff.main([str(ROOT), str(tmp_path)])
    assert exc.value.code == 2


def _copy_with(tmp_path, module, old, new):
    """A copy of the sources with `old` replaced by `new`, once, in one
    module."""
    shutil.copytree(ROOT / "src" / "bdrlab", tmp_path / "src" / "bdrlab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "bdrlab" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return tmp_path


def test_floats_within_rtol_pass(monkeypatch, tmp_path, capsys):
    # a relative change of 1e-9 in one cost shows in the JSON's full floats
    # and not in the CSV's six digits
    monkeypatch.setattr(cli_diff, "COMMANDS", [["flops", "--points",
                                                "0.16:0.8"]])
    change = _copy_with(tmp_path, "atr.py", "PREDICTORS_G = 0.12",
                        "PREDICTORS_G = 0.12 * (1 + 1e-9)")
    assert cli_diff.main([str(ROOT), str(change), "--rtol", "1e-6"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "within --rtol: flops --points 0.16:0.8 --format json (largest "
        "relative difference 1e-09)",
        "1 of 2 runs byte-identical, 1 more within --rtol 1e-06"]
    assert cli_diff.main([str(ROOT), str(change), "--rtol", "1e-10"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: flops --points 0.16:0.8 --format json (largest relative "
        "difference 1e-09, 0 other fields differ)",
        "1 of 2 runs byte-identical, 0 more within --rtol 1e-10"]


def test_other_fields_must_be_equal(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli_diff, "COMMANDS", [TINY[1]])
    change = _copy_with(tmp_path, "cli.py", '"time_frames"', '"time_frameZ"')
    assert cli_diff.main([str(ROOT), str(change), "--rtol", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("differs: synth --num-positions 6 --format csv "
                        "(largest relative difference 0, 1 other fields "
                        "differ)")
    assert lines[1] == "  output[0][1]: 'time_frames' -> 'time_frameZ'"
    # one renamed key in each of the six JSON records
    assert lines[2] == ("differs: synth --num-positions 6 --format json "
                        "(largest relative difference 0, 6 other fields "
                        "differ)")
    assert len(lines) == 10 and all("time_frameZ" in x for x in lines[3:9])
    assert lines[-1] == "0 of 2 runs byte-identical, 0 more within --rtol 1"


def test_one_changed_library_byte_is_named(monkeypatch, tmp_path, capsys):
    # a relative change of 1e-6 in the fitter's slope prior changes the
    # printed variances; a library run is compared byte for byte even with
    # --rtol
    monkeypatch.setattr(cli_diff, "COMMANDS", [])
    monkeypatch.setattr(cli_diff, "LIBRARY", [TINY_LIBRARY])
    assert cli_diff.main([str(ROOT), str(ROOT)]) == 0
    assert capsys.readouterr().out == "1 of 1 runs byte-identical\n"
    change = _copy_with(tmp_path, "stats.py", "SWEEP_FIT_ALPHA = 4.0",
                        "SWEEP_FIT_ALPHA = 4.0 * (1 + 1e-6)")
    label, _ = cli_diff.library_run(TINY_LIBRARY)
    assert label == ("library: finite_sample_variance_check (10, 20, 30) "
                     "trials 5 rho 0.6 seed 3")
    for rtol in ([], ["--rtol", "1"]):
        assert cli_diff.main([str(ROOT), str(change), *rtol]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"differs: {label} (stdout: exit 0 -> 0, ")
        assert lines[1].startswith("0 of 1 runs byte-identical")


def test_a_library_run_prints_every_bit_of_its_values():
    _, args = cli_diff.library_run(TINY_LIBRARY)
    code, out, err = cli_diff.run_python(ROOT, args)
    assert (code, err) == (0, b"")
    lines = out.decode().splitlines()
    assert len(lines) == 4 and float.fromhex(lines[0]) < 0
    assert [line.split()[0] for line in lines[1:]] == ["10", "20", "30"]
    assert all(float.fromhex(line.split()[1]) > 0 for line in lines[1:])


@pytest.mark.parametrize("parent,change,worst,other", [
    # one unit in the last printed digit is rounding, two are not
    (b"a,n\n0.106893,3\n", b"a,n\n0.106894,3\n", 0.0, []),
    (b"a,n\n0.106893,3\n", b"a,n\n0.106895,3\n", 1e-6 / 0.106895, []),
    (b"a,n\n0.5,3\n", b"a,n\n0.5,4\n", 0.0, ["output[1][1]: 3 -> 4"]),
    (b"a\nnan\n", b"a\nnan\n", 0.0, []),
    (b"a\nnan\n", b"a\n1.5\n", float("inf"), [])])
def test_csv_floats_are_compared_beyond_their_printed_digits(parent, change,
                                                             worst, other):
    got = cli_diff.compare(cli_diff.parse_output(parent, "csv"),
                           cli_diff.parse_output(change, "csv"))
    assert got == (pytest.approx(worst, rel=1e-9), other)


def test_a_csv_file_is_written_and_its_path_passed(tmp_path):
    text = "error,sigma\n" + "".join(f"{i / 10!r},{1.0 + i % 3!r}\n"
                                     for i in range(20))
    command = ["calib", "--input", cli_diff.CsvFile(text), "--bins", "4"]
    argv = cli_diff.with_config_files(command, tmp_path / "config0.json")
    assert argv[:2] == ["calib", "--input"] and argv[3:] == ["--bins", "4"]
    assert Path(argv[2]) == tmp_path / "config0.csv"
    assert Path(argv[2]).read_text(encoding="utf-8") == text
    code, out, err = cli_diff.run_cli(ROOT, argv)
    assert (code, err) == (0, b"") and out.startswith(b"bin,count,")


def test_the_tie_run_file_crosses_a_block_and_a_bin_edge():
    rows = cli_diff.tied_run_csv().text.splitlines()[1:]
    sigmas = [float(row.split(",")[1]) for row in rows]
    assert len(sigmas) == 70_000 and sigmas[2**15 - 1] == sigmas[2**15] == 1.5
    ranks = sorted(sigmas)
    edge = len(sigmas) // 2  # of the default 10 equal-mass bins
    assert ranks[edge - 1] == ranks[edge] == 1.5
