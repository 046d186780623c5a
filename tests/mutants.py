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
_REDUCTION = "src/sfcalc/reduction.py"
_TERMS = "src/sfcalc/terms.py"

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
    Mutant(_REDUCTION,
           "        if ra.status is not Status.BUDGET and ra.term != rb.term:\n",
           "        if ra.term != rb.term:\n",
           "extensionally_agree compares the terms of two budget stops"),
    Mutant(_REDUCTION,
           "        return RULE_S, App(App(x, z), App(y, z))\n",
           "        return RULE_S, App(App(x, z), App(z, y))\n",
           "S-rule contractum: y z built as z y"),
    Mutant(_REDUCTION,
           "        x, y, z = f1.fun.arg, f1.arg, u.arg\n",
           "        y, x, z = f1.fun.arg, f1.arg, u.arg\n",
           "S-rule contractum: x and y swapped"),
    Mutant(_REDUCTION,
           "        return RULE_F_COMPOUND, App(App(u.arg, a1.fun), a1.arg)\n",
           "        return RULE_F_COMPOUND, App(App(u.fun.arg, a1.fun), a1.arg)\n",
           "F-compound contractum: M P Q in place of N P Q"),
    Mutant(_REDUCTION,
           "        return RULE_F_COMPOUND, App(App(u.arg, a1.fun), a1.arg)\n",
           "        return RULE_F_COMPOUND, App(App(u.arg, a1.arg), a1.fun)\n",
           "F-compound contractum: N Q P in place of N P Q"),
    Mutant(_REDUCTION,
           "                if known is not None and steps + known[2] <= budget:\n",
           "                if known is not None:\n",
           "memo: a reuse may cross the budget"),
    Mutant(_REDUCTION,
           "                if known is not None and steps + known[2] <= budget:\n",
           "                if known is not None and steps + known[2] < budget:\n",
           "memo: no reuse that lands exactly on the budget",
           equivalent="the copy is then reduced instead, in exactly the recorded "
           "steps (a frame's steps do not depend on where its argument sits), so "
           "it ends on the budget with an equal normal form, and the next firing "
           "stops on the same step and term"),
    Mutant(_REDUCTION,
           "                    steps += known[2]\n",
           "",
           "memo: a reuse charges no steps"),
    Mutant(_REDUCTION,
           "                    memo[id(src)] = (src, w, steps - frame[3])\n",
           "                    memo[id(src)] = (src, w, steps)\n",
           "memo: records the call's steps so far, not the argument's"),
    Mutant(_REDUCTION,
           "                    memo[id(src)] = (src, w, steps - frame[3])\n",
           "                    memo[id(w)] = (src, w, steps - frame[3])\n",
           "memo: keyed by the normal form, not by the argument"),
    Mutant(_REDUCTION,
           "            frame[3] = steps\n",
           "",
           "memo: an argument's steps counted from the frame's first argument"),
    Mutant(_TERMS,
           "        fh, ah = u.fun._h, u.arg._h\n",
           "        fh, ah = u.fun._h, u.arg._h or 0\n",
           "hash fill: a parent filled before its argument side"),
    Mutant(_TERMS,
           "        fh, ah = u.fun._h, u.arg._h\n",
           "        fh, ah = u.fun._h, u.arg.h\n",
           "hash fill: the argument side hashed by recursion"),
    Mutant(_TERMS,
           "            u._h = (fh * 2654435761 + ah * 40503 + 3) & _HASH_MASK\n",
           "            u._h = (fh * 40503 + ah * 2654435761 + 3) & _HASH_MASK\n",
           "hash fill: the two multipliers swapped"),
    Mutant(_TERMS,
           "        self.ops = _VAR_BIT\n",
           "        self.ops = 0\n",
           "Var: no variable bit in ops"),
    Mutant(_TERMS,
           "    c: sum(_OP_BIT[o] for o in ops) for c, ops in _OPERATORS.items()\n",
           "    c: sum(_OP_BIT[o] for o in ops) | _VAR_BIT for c, ops in _OPERATORS.items()\n",
           "op_mask: the variable bit let in"),
    Mutant(_TERMS,
           "    foreign = t.ops & ~(calc.op_mask | _VAR_BIT)\n",
           "    foreign = t.ops & ~calc.op_mask\n",
           "check_calculus: the variable bit counts as a foreign operator"),
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
