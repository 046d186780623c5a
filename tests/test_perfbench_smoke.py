"""The benchmark harness runs at toy sizes: every workload's outputs match
their references and pins, and its result JSON passes the schema check,
both untraced and with the per-layer tracer wrapped around sfcalc."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("extra", [[], ["--trace", "1"]], ids=["untraced", "traced"])
def test_smoke_run_is_clean(extra):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    bad = [line for line in proc.stdout.splitlines()
           if line.lstrip().startswith(("mismatch:", "schema:"))]
    assert not bad, bad
