"""Reference evaluator for differential tests of `models.eval_rec`.

The plain interpreter: one recursive call per node evaluation, which
walks the node kinds with `isinstance` and charges one unit of budget
before it looks at the node.  It is slow and recurses about two Python
frames per nesting level, but it has no compiled state to get wrong, so
the library's closures are checked against it outcome by outcome.
"""

from __future__ import annotations

from typing import Sequence

from sfcalc.models import (
    ArityError,
    Comp,
    PrimRec,
    Proj,
    RecFn,
    RecOutcome,
    Succ,
    Zero,
)


class _OutOfBudget(Exception):
    pass


def reference_eval_rec(f: RecFn, args: Sequence[int], budget: int) -> RecOutcome:
    """The outcome of f on args: ok with its value and evaluation count,
    or a budget stop once budget node evaluations are spent."""
    if len(args) != f.arity:
        raise ArityError(f"expected {f.arity} arguments, got {len(args)}")
    remaining = [budget]

    def ev(g: RecFn, xs: list[int]) -> int:
        if remaining[0] <= 0:
            raise _OutOfBudget
        remaining[0] -= 1
        if isinstance(g, Zero):
            return 0
        if isinstance(g, Succ):
            return xs[0] + 1
        if isinstance(g, Proj):
            return xs[g.i - 1]
        if isinstance(g, Comp):
            return ev(g.outer, [ev(h, xs) for h in g.inners])
        if isinstance(g, PrimRec):
            *head, y = xs
            acc = ev(g.base, head)
            for t in range(y):
                acc = ev(g.step, [*head, acc, t])
            return acc
        y = 0
        while ev(g.body, [*xs, y]) != 0:
            y += 1
        return y

    try:
        value = ev(f, list(args))
    except _OutOfBudget:
        return RecOutcome("budget", None, budget)
    return RecOutcome("ok", value, budget - remaining[0])
