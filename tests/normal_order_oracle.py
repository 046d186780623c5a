"""Reference steppers for differential tests.

The plain definitions of both strategies: at every step, scan the whole
term from the root for the first fireable position, and rebuild the
path to it.  They are slow (each step costs a rescan) but have no state
to get wrong, so the library's normal-order stack machine and its
refocusing applicative walk are checked against them step by step.
"""

from __future__ import annotations

from typing import Callable, Optional

from sfcalc.reduction import ReduceOutcome, Status, Step, _finish, _fire
from sfcalc.terms import App, Term

Hit = Optional[tuple[tuple[int, ...], str, Term, Term]]  # path, rule, redex, contractum


def replace_at(t: Term, path: tuple[int, ...], new: Term) -> Term:
    """Copy of t with the subterm at path replaced by new."""
    trail: list[App] = []
    node = t
    for step in path:
        if not isinstance(node, App):
            raise IndexError(f"path {path} leaves the term")
        trail.append(node)
        node = node.arg if step else node.fun
    result = new
    for step, parent in zip(reversed(path), reversed(trail)):
        if step:
            result = App(parent.fun, result)
        else:
            result = App(result, parent.arg)
    return result


def _find_normal(t: Term) -> Hit:
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
            return path, hit[0], u, hit[1]
        if isinstance(u, App):
            stack.append((path + (1,), u.arg))
            stack.append((path + (0,), u.fun))
    return None


def _find_applicative(t: Term) -> Hit:
    """Rightmost-innermost fireable position: arguments before functions,
    children before their node."""
    stack: list[tuple[tuple[int, ...], Term, bool]] = [((), t, False)]
    while stack:
        path, u, visited = stack.pop()
        if not visited:
            stack.append((path, u, True))
            if isinstance(u, App):
                stack.append((path + (0,), u.fun, False))
                stack.append((path + (1,), u.arg, False))
        else:
            hit = _fire(u)
            if hit is not None:
                return path, hit[0], u, hit[1]
    return None


def _rescan(find: Callable[[Term], Hit], t: Term, budget: int) -> ReduceOutcome:
    trail: list[Step] = []
    current = t
    taken = 0
    while True:
        hit = find(current)
        if hit is None:
            return _finish(current, taken, tuple(trail))
        if taken >= budget:
            return ReduceOutcome(Status.BUDGET, current, taken, tuple(trail))
        path, rule, redex, contractum = hit
        trail.append(Step(path, rule, redex, contractum))
        current = replace_at(current, path, contractum)
        taken += 1


def reference_normalize(t: Term, budget: int) -> ReduceOutcome:
    """Traced normal-order normalization up to budget steps."""
    return _rescan(_find_normal, t, budget)


def reference_applicative(t: Term, budget: int) -> ReduceOutcome:
    """Traced applicative-order normalization up to budget steps."""
    return _rescan(_find_applicative, t, budget)
