"""Smoke test: every narrative demo runs to completion against the library."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    # TMPDIR keeps the files the demos write inside the test's own directory
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    # Dev mode, with unclosed resources as errors, as the suite itself runs.
    # A ResourceWarning raised in a destructor is only printed, so stderr
    # must be empty as well as the exit code zero.
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
