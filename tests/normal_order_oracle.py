"""Reference normal-order stepper for differential tests.

The plain definition of normal order: at every step, scan the whole
term from the root in preorder for the first fireable position, and
rebuild the path to it.  It is slow (each step costs a rescan) but has
no state to get wrong, so the library's stack machine is checked
against it step by step.
"""

from __future__ import annotations

from typing import Optional

from sfcalc.reduction import ReduceOutcome, Status, Step, _finish, _fire
from sfcalc.terms import App, Term, replace_at


def _find_normal(t: Term) -> Optional[tuple[tuple[int, ...], str, Term]]:
    """Leftmost-outermost fireable position, by preorder scan.

    The F exception needs no special casing here: a fully applied F
    whose first argument is not yet factorable simply fails to fire, and
    the preorder continues down the spine into that first argument.
    """
    stack: list[tuple[tuple[int, ...], Term]] = [((), t)]
    while stack:
        path, u = stack.pop()
        hit = _fire(u)
        if hit is not None:
            return path, hit[0], hit[1]
        if isinstance(u, App):
            stack.append((path + (1,), u.arg))
            stack.append((path + (0,), u.fun))
    return None


def reference_normalize(t: Term, budget: int) -> ReduceOutcome:
    """Traced normal-order normalization up to budget steps."""
    trail: list[Step] = []
    current = t
    taken = 0
    while True:
        hit = _find_normal(current)
        if hit is None:
            return _finish(current, taken, tuple(trail))
        if taken >= budget:
            return ReduceOutcome(Status.BUDGET, current, taken, tuple(trail))
        path, rule, contractum = hit
        after = replace_at(current, path, contractum)
        trail.append(Step(path, rule, before=current, after=after))
        current = after
        taken += 1
