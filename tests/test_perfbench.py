"""The benchmark's output checks fire on every corrupted result they are shown."""

import subprocess
import sys
from pathlib import Path


def test_selftest_finds_no_silent_check():
    # the selftest writes only under the git-ignored .perfbench_out/
    root = Path(__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, str(root / "perfbench" / "selftest.py")],
        capture_output=True,
        cwd=root,
        text=True,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == "0 case(s) wrong"
