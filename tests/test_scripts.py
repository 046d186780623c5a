"""The repository scripts refuse arguments they do not take."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PRELUDES = [ROOT / "src" / "sfcalc" / f"prelude.{c}" for c in ("sf", "sk")]


@pytest.mark.parametrize("argv", [["--help"], ["out.sf"]], ids=["help", "path"])
def test_gen_prelude_rejects_arguments_without_writing(argv):
    before = [p.stat().st_mtime_ns for p in PRELUDES]
    proc = subprocess.run(
        [sys.executable, "scripts/gen_prelude.py", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == "" and proc.stderr.startswith("usage:")
    assert [p.stat().st_mtime_ns for p in PRELUDES] == before
