"""Every demo script runs to completion against the current library, with
every warning turned into an error."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path, src_env):
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], cwd=tmp_path,
        capture_output=True, text=True, env=src_env(TMPDIR=str(tmp_path)),
    )
    assert proc.returncode == 0, proc.stderr
