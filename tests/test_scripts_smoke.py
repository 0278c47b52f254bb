"""The experiment scripts under `scripts/`, run end to end at a short horizon.

They build their scenarios through `with_updates` and the sweep API, so a
renamed key or function breaks them without breaking any unit test.  Each
runs from the repository root, as documented, into a temporary directory.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from railsched.policies import POLICY_NAMES

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args, ok=True):
    result = subprocess.run(
        [sys.executable, f"scripts/{name}", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if ok:
        assert result.returncode == 0, result.stdout + result.stderr
    return result


def test_make_tradeoff_data(tmp_path):
    _run_script("make_tradeoff_data.py", "--out", str(tmp_path), "--horizon", "300", "--reps", "1", "--workers", "1")
    for figure in ("fig4", "fig5", "fig6"):
        assert (tmp_path / f"{figure}.csv").is_file(), figure


def test_make_cell_period_data(tmp_path):
    _run_script("make_cell_period_data.py", "--out", str(tmp_path), "--periods", "1")
    for policy in POLICY_NAMES:
        assert (tmp_path / f"fig3_{policy}.csv").is_file(), policy
    assert (tmp_path / "trace_proposed.csv").is_file()


@pytest.mark.parametrize(
    "name, flag",
    [
        ("make_tradeoff_data.py", "--reps"),
        ("make_tradeoff_data.py", "--workers"),
        ("make_tradeoff_data.py", "--horizon"),
        ("make_cell_period_data.py", "--periods"),
    ],
)
def test_zero_count_flag_is_a_usage_error(tmp_path, name, flag):
    # `--workers 0` once ran serially without a word and `--reps 0` died in a traceback
    result = _run_script(name, "--out", str(tmp_path), flag, "0", ok=False)
    assert result.returncode != 0
    assert f"argument {flag}" in result.stderr
    assert "Traceback" not in result.stderr
    assert not any(tmp_path.iterdir())
