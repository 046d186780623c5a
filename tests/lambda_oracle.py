"""Reference β-normalizer for differential tests of
`lambda_bridge.beta_normalize`.

The plain recursive trio: shift, substitution, and one leftmost-outermost
step that searches the function before the argument and reduces under
binders.  Each recurses once per level of the term, so it handles only
shallow terms, but it has no explicit stacks or parent links to get
wrong, so the library's normalizer is checked against it outcome by
outcome.  `structure` gives a term's shape as nested tuples, by the same
recursion, for comparing terms without their text.
"""

from __future__ import annotations

from typing import Optional

from sfcalc.lambda_bridge import Index, LambdaOutcome, LambdaStatus, LambdaTerm, LApp, Lam


def _shift(t: LambdaTerm, d: int, cutoff: int) -> LambdaTerm:
    if isinstance(t, Index):
        return Index(t.n + d) if t.n >= cutoff else t
    if isinstance(t, Lam):
        return Lam(_shift(t.body, d, cutoff + 1))
    return LApp(_shift(t.fun, d, cutoff), _shift(t.arg, d, cutoff))


def _subst(t: LambdaTerm, j: int, s: LambdaTerm) -> LambdaTerm:
    """t with index j replaced by s and the indices above j decremented."""
    if isinstance(t, Index):
        if t.n == j:
            return _shift(s, j, 0)
        return Index(t.n - 1) if t.n > j else t
    if isinstance(t, Lam):
        return Lam(_subst(t.body, j + 1, s))
    return LApp(_subst(t.fun, j, s), _subst(t.arg, j, s))


def _beta_step(t: LambdaTerm) -> Optional[LambdaTerm]:
    """Leftmost-outermost beta-step, reducing under binders."""
    if isinstance(t, LApp):
        if isinstance(t.fun, Lam):
            return _subst(t.fun.body, 0, t.arg)
        fun = _beta_step(t.fun)
        if fun is not None:
            return LApp(fun, t.arg)
        arg = _beta_step(t.arg)
        if arg is not None:
            return LApp(t.fun, arg)
        return None
    if isinstance(t, Lam):
        body = _beta_step(t.body)
        return None if body is None else Lam(body)
    return None


def reference_beta_normalize(t: LambdaTerm, budget: int = 10_000) -> LambdaOutcome:
    """At most `budget` steps; a term still reducible after them stops
    with BUDGET."""
    current = t
    for taken in range(budget):
        nxt = _beta_step(current)
        if nxt is None:
            return LambdaOutcome(LambdaStatus.NORMAL, current, taken)
        current = nxt
    if _beta_step(current) is None:
        return LambdaOutcome(LambdaStatus.NORMAL, current, budget)
    return LambdaOutcome(LambdaStatus.BUDGET, current, budget)


def structure(t: LambdaTerm) -> tuple:
    """t's shape: ("i", n), ("lam", body) or ("app", fun, arg)."""
    if isinstance(t, Index):
        return ("i", t.n)
    if isinstance(t, Lam):
        return ("lam", structure(t.body))
    return ("app", structure(t.fun), structure(t.arg))
