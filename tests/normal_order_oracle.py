"""Reference steppers for differential tests.

The plain definitions of both strategies: at every step, scan the whole
term from the root for the first fireable position, and rebuild the
path to it.  They are slow (each step costs a rescan) but have no state
to get wrong, so the library's normal-order stack machine and its
refocusing applicative walk are checked against them step by step.

The rules and the stuck shape are stated here again, from README's rule
table, as pattern matches on the tree, so the steppers share no rule
code with the engines they check.
"""

from __future__ import annotations

from typing import Callable, Optional

from sfcalc.reduction import ReduceOutcome, Status, Step
from sfcalc.terms import App, Atom, Term, Var

Hit = Optional[tuple[str, str, Term, Term]]  # path, rule, redex, contractum


def _compound(t: Term) -> bool:
    """A partially applied atom: S x, S x y, K x, F x or F x y."""
    match t:
        case App(fun=Atom()) | App(fun=App(fun=Atom(name="S" | "F"))):
            return True
    return False


def _fire(u: Term) -> Optional[tuple[str, Term]]:
    """Rule and contractum if u is exactly a redex:
    K x y ~> x, S x y z ~> x z (y z), F O M N ~> M for an atom O, and
    F (P Q) M N ~> N P Q for a compound P Q."""
    match u:
        case App(fun=App(fun=f, arg=y), arg=z):
            match f:
                case Atom(name="K"):
                    return "K-rule", y
                case App(fun=Atom(name="S"), arg=x):
                    return "S-rule", App(App(x, z), App(y, z))
                case App(fun=Atom(name="F"), arg=Atom()):
                    return "F-atom-rule", y
                case App(fun=Atom(name="F"), arg=App() as pq) if _compound(pq):
                    return "F-compound-rule", App(App(z, pq.fun), pq.arg)
    return None


def _stuck(t: Term) -> bool:
    """Whether some node of t is F a M N with a variable-headed a."""
    stack = [t]
    while stack:
        u = stack.pop()
        match u:
            case App(fun=App(fun=App(fun=Atom(name="F"), arg=a))):
                while isinstance(a, App):
                    a = a.fun
                if isinstance(a, Var):
                    return True
        if isinstance(u, App):
            stack += (u.fun, u.arg)
    return False


def replace_at(t: Term, path: str, new: Term) -> Term:
    """Copy of t with the subterm at path (L: into fun, R: into arg)
    replaced by new."""
    trail: list[App] = []
    node = t
    for step in path:
        if not isinstance(node, App):
            raise IndexError(f"path {path} leaves the term")
        trail.append(node)
        node = node.arg if step == "R" else node.fun
    result = new
    for step, parent in zip(reversed(path), reversed(trail)):
        if step == "R":
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
    stack: list[tuple[str, Term]] = [("", t)]
    while stack:
        path, u = stack.pop()
        hit = _fire(u)
        if hit is not None:
            return path, hit[0], u, hit[1]
        if isinstance(u, App):
            stack.append((path + "R", u.arg))
            stack.append((path + "L", u.fun))
    return None


def _find_applicative(t: Term) -> Hit:
    """Rightmost-innermost fireable position: arguments before functions,
    children before their node."""
    stack: list[tuple[str, Term, bool]] = [("", t, False)]
    while stack:
        path, u, visited = stack.pop()
        if not visited:
            stack.append((path, u, True))
            if isinstance(u, App):
                stack.append((path + "L", u.fun, False))
                stack.append((path + "R", u.arg, False))
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
            if _stuck(current):
                return ReduceOutcome(Status.STUCK, current, taken, tuple(trail), "varheaded-f")
            return ReduceOutcome(Status.NORMAL, current, taken, tuple(trail))
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
