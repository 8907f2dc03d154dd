"""The demos run from a bare checkout and print exactly their recorded output."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

# sha256 of each demo's stdout; the demos are deterministic
DEMO_STDOUT = {
    "01_tree_descent_basics.py": "ecc69d3d0a12969fe6cbb9e1073e0b9cf449e9d3e7d12ce95a16d23647167f5a",
    "02_error_rate_simulation.py": "833e9160b1f6cbe536d0a09ff2966bca56a6f42bade3c9a870590905ead4b9f4",
    "03_exhaustive_audit.py": "dadc99e9cce27036569e31b901c83d72685f5e27a249647aa56b85e86b6176b7",
    "04_wavelet_denoising.py": "8510a7cee65ca8cff7a367960c6884af2872ab6ee5e8294ee0ca60f0dc9a89cf",
    "05_interval_localization.py": "f92da56524e466482341bfef75923943f56a16471dc71f14d6324361d56e0467",
}


def test_every_demo_is_pinned():
    root = Path(__file__).resolve().parents[1]
    assert sorted(p.name for p in (root / "demos").glob("*.py")) == sorted(DEMO_STDOUT)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT))
def test_demo_output_unchanged(tmp_path, name):
    # The checkout that holds this file; its src/ alone must be enough to run a demo.
    # The demos may write files, so they run in a scratch directory.
    root = Path(__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, str(root / "demos" / name)],
        capture_output=True,
        cwd=tmp_path,
        env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == DEMO_STDOUT[name], run.stdout.decode()
