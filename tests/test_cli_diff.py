"""tools/cli_diff.py on the repository and on a copy with one output byte,
or one error byte, changed."""

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
