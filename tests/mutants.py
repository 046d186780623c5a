"""Mutants of the fast paths, and a runner that checks that tests kill them.

Not collected by pytest (its name does not start with ``test_``) and not
part of Tier-1.  Run it from the root of a checkout:

    python tests/mutants.py          # every mutant
    python tests/mutants.py 2 7      # mutants 2 and 7, numbered as printed

For each mutant the runner copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory, replaces the mutant's old
text with its new text in the copy (``src/`` itself is never written),
runs the test module of the mutated file (``src/sfcalc/x.py`` is tested
by ``tests/test_x.py``) with ``pytest -x`` under a wall-clock limit, and
prints whether the mutant was killed (a test failed), survived (every
test passed) or timed out.  A mutant that no test can tell from the
original is marked equivalent, with the reason, and is expected to
survive.  The exit code is 0 when every mutant met its expectation.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
LIMIT_S = 180


class Mutant(NamedTuple):
    file: str
    old: str  # text that occurs exactly once in the file; may span lines
    new: str
    note: str
    equivalent: str = ""  # why no test can kill it, if none can


_MODELS = "src/sfcalc/models.py"

MUTANTS = [
    Mutant(_MODELS,
           "        accs = y * acc + vh * s1 + vn * s2\n",
           "        accs = y * acc + vh * s1\n",
           "closed form: drop the t(t-1)(t-2)/6 term of the accumulator's sum"),
    Mutant(_MODELS,
           "    s1, s2 = y * (y - 1) // 2, y * (y - 1) * (y - 2) // 6\n",
           "    s1, s2 = y * (y + 1) // 2, y * (y - 1) * (y - 2) // 6\n",
           "closed form: y(y+1)/2 for the sum of t over t < y"),
    Mutant(_MODELS,
           "        closed = isinstance(code, tuple) and code[1][1][k] < 2\n",
           "        closed = isinstance(code, tuple) and code[1][1][k] < 3\n",
           "closed form for an accumulator coefficient of 2"),
    Mutant(_MODELS,
           "    ch, vh = _at(cost, head), _at(value, head)\n",
           "    ch, vh = cost[0], _at(value, head)\n",
           "closed form: drop the head terms of a turn's cost"),
    Mutant(_MODELS,
           "            if not any(cs) and vs == (0,) * k + (1, 0)",
           "            if not any(cs[:k] + cs[k + 1:]) and vs == (0,) * k + (1, 0)",
           "a PrimRec is affine although its step's cost reads the accumulator"),
    Mutant(_MODELS,
           """            acc = base(head, left)
            if not closed or y == 0:
                for t in range(y):
                    acc = step(head + (acc, t), left)
                return acc
            cost, acc = _turns(code, head, acc, y)  # type: ignore[arg-type]
            _charge(left, cost)
""",
           """            if not closed or y == 0:
                acc = base(head, left)
                for t in range(y):
                    acc = step(head + (acc, t), left)
                return acc
            early = _turns(code, head, 0, y)[0]  # type: ignore[arg-type]
            _charge(left, early)
            cost, acc = _turns(code, head, base(head, left), y)  # type: ignore[arg-type]
            _charge(left, cost - early)
""",
           "closed form: charge the turns (all but their reading of the "
           "accumulator) before the base"),
    Mutant(_MODELS,
           "            if not closed or y == 0:\n",
           "            if not closed:\n",
           "closed form taken for y = 0"),
    Mutant(_MODELS,
           "        accs = acc + (y - 1) * vh + vn * (y - 1) * (y - 2) // 2\n",
           "        accs = acc + (y - 1) * vh + vn * y * (y - 1) // 2\n",
           "closed form, accumulator coefficient 0: one counter turn too many"),
    Mutant(_MODELS,
           "                self._derive(k + 1, ((1 + bc, (*bcs, c)), (bv, (*bvs, v))))\n",
           "                self._derive(k + 1, ((bc, (*bcs, c)), (bv, (*bvs, v))))\n",
           "an affine PrimRec does not charge its own evaluation"),
    Mutant(_MODELS,
           "_combine(1 + cost[0], ",
           "_combine(cost[0], ",
           "an affine composition does not charge its own evaluation"),
    Mutant("src/sfcalc/reduction.py",
           "        if ra.status is not Status.BUDGET and ra.term != rb.term:\n",
           "        if ra.term != rb.term:\n",
           "extensionally_agree compares the terms of two budget stops"),
]


def run(mutant: Mutant) -> str:
    """killed, survived, timed out, or an error with pytest's exit code."""
    with tempfile.TemporaryDirectory(prefix="sfcalc-mutant-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        target = work / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"error (old text found {text.count(mutant.old)} times)"
        target.write_text(text.replace(mutant.old, mutant.new))
        module = f"tests/test_{Path(mutant.file).stem}.py"
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", module],
            cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=LIMIT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "timed out"
    return {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")


def main(argv: list[str]) -> int:
    chosen = [int(a) for a in argv] or range(1, len(MUTANTS) + 1)
    met = True
    for number in chosen:
        mutant = MUTANTS[number - 1]
        start = time.monotonic()
        outcome = run(mutant)
        expected = "survived" if mutant.equivalent else "killed"
        met &= outcome == expected
        mark = "" if outcome == expected else "  <-- expected " + expected
        print(f"{number:2}  {outcome:9}  {time.monotonic() - start:5.1f} s  "
              f"{mutant.file}: {mutant.note}{mark}", flush=True)
        if mutant.equivalent:
            print(f"    equivalent: {mutant.equivalent}")
    return 0 if met else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
