"""The benchmark's own smoke test, run as part of the suite.

`bench/` rebinds module-global names in `railsched.engine`,
`railsched.policies`, `railsched.sweep` and `railsched.cli`, and captures the
`SlotInstance`s the policies hand to `solve_slot`; a rename in the package
breaks it without breaking any unit test.  This runs the tiny-horizon smoke
test from the repository root and checks that it passes.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    result = subprocess.run(
        [sys.executable, "bench/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 0, output
    assert "smoke test passed" in output
