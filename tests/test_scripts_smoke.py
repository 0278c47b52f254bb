"""The experiment scripts under `scripts/`, run end to end at a short horizon.

Each runs from the repository root, as documented, into a temporary
directory, and every file it writes is pinned by its SHA-256, so a script
that changes a decision, a byte of output or the set of files it leaves
fails here.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

TRADEOFF_DIGESTS = {
    "fig4.csv": "6f784e1c0dc6316180565ff417b22da7a6f9788e275cd239af4e0c16e96c5977",
    "fig5.csv": "2d05f469a58ed6703e04bc86791e2446895fe8d5fe26339d5b3c38a42b3fd1a0",
    "fig6.csv": "57d969bb8e1f9a75aeca12e7b06ef94967c5ee0362aeb47f3cf3881942319090",
    "sweep_lambda.csv": "8cb4307a01dc3900f4f3fde0e664f8e8a226db20be1e1bea16c4a3bf6abfd9d1",
    "sweep_omega.csv": "245873326d6acac73ae667c27850dd9989d367e11b3b18b9a8a52b09d197a329",
    "sweep_pmax.csv": "03653f158e5230fa1c0b0fce9ad38e487b09999aca5dd74e69da5b886796bbce",
}

# At two periods the fig3 window is the second period, whose queues do not start empty.
CELL_PERIOD_DIGESTS = {
    "fig3_cpa-dynamic.csv": "c6e5501cdc2926eee684f5157af596f0a63eff88ac210c6cec681815e6ff56a8",
    "fig3_cpa-static.csv": "ccfe6d4d667b9729ee255c22f3d8842a881803e8b7d49eb91e50648d4250c3e3",
    "fig3_proposed.csv": "c6e5501cdc2926eee684f5157af596f0a63eff88ac210c6cec681815e6ff56a8",
    "fig3_wfpa-dynamic.csv": "c6e5501cdc2926eee684f5157af596f0a63eff88ac210c6cec681815e6ff56a8",
    "fig3_wfpa-static.csv": "2bb0ef65ef0a99569a2e23dc5758d6498902bc9b1fba19f3e94d16dac89c504b",
    "summary_cpa-dynamic.txt": "22f71da5f41a8918824b310d4b8e48a0b005e00c0f307c7ff45f7a1448e632ab",
    "summary_cpa-static.txt": "2a929774d804ad39ce43634cb3b87718b9504e57b284274e61a8b66ee54308ad",
    "summary_proposed.txt": "22f71da5f41a8918824b310d4b8e48a0b005e00c0f307c7ff45f7a1448e632ab",
    "summary_wfpa-dynamic.txt": "22f71da5f41a8918824b310d4b8e48a0b005e00c0f307c7ff45f7a1448e632ab",
    "summary_wfpa-static.txt": "a843c182bb2e8686b0cdab2ef6f891596c2f12b5012e90451b5d871085dcbc13",
    "trace_proposed.csv": "12d178db73d0ccffb72e88352e2773ad1ccec4db6a0680b70fc2e712ae5996de",
}


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


def _digests(directory):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in directory.iterdir()}


def _run_into_used_directory(directory, name, *args):
    """Run a script into a directory that already holds `railsched` outputs under the CLI's own file names."""
    for kept in ("trace.csv", "summary.txt", "fig3.csv", "sweep.csv"):
        (directory / kept).write_text(f"an earlier {kept}\n")
    before = _digests(directory)
    _run_script(name, "--out", str(directory), *args)
    return before


def test_make_tradeoff_data(tmp_path):
    before = _run_into_used_directory(tmp_path, "make_tradeoff_data.py", "--horizon", "300", "--reps", "2", "--workers", "1")
    assert _digests(tmp_path) == TRADEOFF_DIGESTS | before


def test_make_cell_period_data(tmp_path):
    before = _run_into_used_directory(tmp_path, "make_cell_period_data.py", "--periods", "2")
    assert _digests(tmp_path) == CELL_PERIOD_DIGESTS | before


def _assert_usage_error(tmp_path, name, flag, value, message=None):
    result = _run_script(name, "--out", str(tmp_path / "out"), flag, value, ok=False)
    assert result.returncode == 1  # a config error, as for `railsched`
    assert (message or f"argument {flag}") in result.stderr
    assert "Traceback" not in result.stderr
    assert not any(tmp_path.iterdir())


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
    _assert_usage_error(tmp_path, name, flag, "0")


def test_negative_seed_is_a_usage_error(tmp_path):
    # once died in a ConfigError traceback after creating the --out directory
    _assert_usage_error(tmp_path, "make_cell_period_data.py", "--seed", "-1")


@pytest.mark.parametrize(
    "name, flag, value",
    [
        ("make_cell_period_data.py", "--policy", "wfpa-static"),
        ("make_cell_period_data.py", "--horizon", "90000"),
        ("make_cell_period_data.py", "--config", "experiments/fig4.ini"),
        ("make_tradeoff_data.py", "--param", "omega"),
        ("make_tradeoff_data.py", "--seed", "3"),
    ],
)
def test_other_railsched_flag_is_a_usage_error(tmp_path, name, flag, value):
    # a flag the script does not forward must not replace what the script sets itself
    _assert_usage_error(tmp_path, name, flag, value, message=f"unrecognized arguments: {flag} {value}")
