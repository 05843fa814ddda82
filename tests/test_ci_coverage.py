"""tools/ci_coverage.py at a tiny number of sweeps."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ci_coverage.py"
_spec = importlib.util.spec_from_file_location("ci_coverage", TOOL)
ci_coverage = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ci_coverage)


def test_prints_one_row_per_trial_count(capsys):
    assert ci_coverage.main(["--seeds", "3", "--trials", "40,60"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("| trials per cell (blocks) | K |")
    assert lines[2].startswith("| 40 (2) | 3 | ")
    assert lines[3].startswith("| 60 (3) | 3 | ")
    # coverages are shares, half-widths positive
    for line in lines[2:]:
        _, _, _, boot, delta, widths, _ = line.split("|")
        for cell in (boot, delta):
            lo, hi = (float(v) for v in cell.split("-"))
            assert 0.0 <= lo <= hi <= 1.0
        assert all(float(w) > 0 for w in widths.split("/"))


@pytest.mark.parametrize("argv", [["--trials", "20"], ["--seeds", "1"]])
def test_too_few_blocks_or_sweeps_is_a_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        ci_coverage.main(argv)
    assert exc.value.code == 2
