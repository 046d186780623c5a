"""deBruijn lambda-terms, beta-reduction, and bracket abstraction.

The bridge between the lambda-model and the combinator calculi: closed
lambda-terms translate to SK (or SF, with K spelled F F) combinators via
the plain three-clause bracket abstraction, with no eta or free-variable
optimizations:

    [x] x      = S K K
    [x] leaf   = K leaf          (operator atom or other variable)
    [x] (P Q)  = S ([x]P) ([x]Q)

Surface syntax: ``\\`` introduces an abstraction whose body extends as
far right as possible, a run of decimal digits is one deBruijn index
(``10`` is index 10; write ``1 0`` for two), juxtaposition applies,
parentheses group; e.g. ``\\\\1 0`` is the term taking f then x to f x.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

from .terms import App, Calculus, F, K, S, Term, Var


# --- lambda terms ------------------------------------------------------------


@dataclass(frozen=True)
class Index:
    n: int

    def __repr__(self) -> str:
        return render_lambda(self)


@dataclass(frozen=True)
class Lam:
    body: "LambdaTerm"

    def __repr__(self) -> str:
        return render_lambda(self)


@dataclass(frozen=True)
class LApp:
    fun: "LambdaTerm"
    arg: "LambdaTerm"

    def __repr__(self) -> str:
        return render_lambda(self)


LambdaTerm = Union[Index, Lam, LApp]


def lam_closed(t: LambdaTerm, depth: int = 0) -> bool:
    """Closed iff every Index n sits under more than n enclosing Lams."""
    if isinstance(t, Index):
        return t.n < depth
    if isinstance(t, Lam):
        return lam_closed(t.body, depth + 1)
    return lam_closed(t.fun, depth) and lam_closed(t.arg, depth)


# --- surface syntax ----------------------------------------------------------


class LambdaParseError(ValueError):
    pass


def parse_lambda(text: str) -> LambdaTerm:
    """Parse deBruijn λ-text: ``λ`` or ``\\`` binds, digits are indices,
    juxtaposition applies left-associatively, and a binder's body extends
    as far right as possible (``λ0 0`` is ``λ(0 0)``)."""
    pos = 0

    def skip_ws() -> None:
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def parse_expr() -> LambdaTerm:
        nonlocal pos
        items: list[LambdaTerm] = []
        while True:
            skip_ws()
            if pos >= len(text) or text[pos] == ")":
                break
            ch = text[pos]
            if ch in ("\\", "λ"):
                pos += 1
                body = parse_expr()  # body extends as far right as possible
                items.append(Lam(body))
                break
            if ch.isdigit():
                start = pos
                while pos < len(text) and text[pos].isdigit():
                    pos += 1
                items.append(Index(int(text[start:pos])))
            elif ch == "(":
                pos += 1
                inner = parse_expr()
                skip_ws()
                if pos >= len(text) or text[pos] != ")":
                    raise LambdaParseError(f"unclosed '(' (at position {pos})")
                pos += 1
                items.append(inner)
            else:
                raise LambdaParseError(
                    f"unexpected character {ch!r} (at position {pos})"
                )
        if not items:
            raise LambdaParseError(f"empty term (at position {pos})")
        out = items[0]
        for item in items[1:]:
            out = LApp(out, item)
        return out

    result = parse_expr()
    skip_ws()
    if pos != len(text):
        raise LambdaParseError(f"unexpected ')' (at position {pos})")
    return result


def render_lambda(t: LambdaTerm) -> str:
    if isinstance(t, Index):
        return str(t.n)
    if isinstance(t, Lam):
        return "\\" + render_lambda(t.body)
    fun = render_lambda(t.fun)
    arg = render_lambda(t.arg)
    if isinstance(t.fun, Lam):
        fun = f"({fun})"
    if isinstance(t.arg, (Lam, LApp)):
        arg = f"({arg})"
    elif fun[-1].isdigit():
        arg = " " + arg
    return fun + arg


# --- beta-reduction ----------------------------------------------------------


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


class LambdaStatus(enum.Enum):
    NORMAL = "normal"
    BUDGET = "budget"


@dataclass(frozen=True)
class LambdaOutcome:
    status: LambdaStatus
    term: LambdaTerm
    steps_taken: int


def beta_normalize(t: LambdaTerm, budget: int = 10_000) -> LambdaOutcome:
    current = t
    for taken in range(budget):
        nxt = _beta_step(current)
        if nxt is None:
            return LambdaOutcome(LambdaStatus.NORMAL, current, taken)
        current = nxt
    if _beta_step(current) is None:
        return LambdaOutcome(LambdaStatus.NORMAL, current, budget)
    return LambdaOutcome(LambdaStatus.BUDGET, current, budget)


# --- bracket abstraction ------------------------------------------------------


def k_term(calc: Calculus) -> Term:
    """The cancellator: the K atom in SK, F F in SF."""
    return K if calc is Calculus.SK else App(F, F)


def i_term(calc: Calculus) -> Term:
    """The identity S K K (with K spelled per calculus)."""
    k = k_term(calc)
    return App(App(S, k), k)


def _abstract_plain(name: str, m: Term, calc: Calculus) -> Term:
    if isinstance(m, App):
        return App(
            App(S, _abstract_plain(name, m.fun, calc)),
            _abstract_plain(name, m.arg, calc),
        )
    if isinstance(m, Var) and m.name == name:
        return i_term(calc)
    return App(k_term(calc), m)


#: The largest translation `bracket_abstract` builds, in nodes.
MAX_ABSTRACTION_NODES = 100_000


def bracket_abstract(t: LambdaTerm, calc: Calculus) -> Term:
    """Translate a closed lambda-term to a combinator.  Every binder
    multiplies the term, so a body of n nodes is abstracted only if the
    bound (3 + |I|)(n + 1) / 2 on the result (each App becomes 3 nodes,
    each leaf at most |I|) is within MAX_ABSTRACTION_NODES."""
    if not lam_closed(t):
        raise ValueError("bracket abstraction is defined on closed terms only")
    leaf_bound = 3 + i_term(calc).size

    def go(u: LambdaTerm, env: list[str]) -> Term:
        if isinstance(u, Index):
            return Var(env[-1 - u.n])
        if isinstance(u, LApp):
            return App(go(u.fun, env), go(u.arg, env))
        name = f"v{len(env)}"
        body = go(u.body, env + [name])
        if leaf_bound * (body.size + 1) // 2 > MAX_ABSTRACTION_NODES:
            raise ValueError(
                f"the translation would pass {MAX_ABSTRACTION_NODES:,} nodes"
            )
        return _abstract_plain(name, body, calc)

    return go(t, [])


def church_lambda(n: int) -> LambdaTerm:
    """The lambda-term taking f then x to f applied n times to x."""
    if n < 0:
        raise ValueError("Church numerals encode naturals only")
    body: LambdaTerm = Index(0)
    for _ in range(n):
        body = LApp(Index(1), body)
    return Lam(Lam(body))


def enumerate_closed_lambda(max_size: int) -> list[LambdaTerm]:
    """Every closed lambda-term of size at most max_size, smallest first."""
    # table[(size, depth)] = terms of that size valid under `depth` binders
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def gen(size: int, depth: int) -> tuple[LambdaTerm, ...]:
        out: list[LambdaTerm] = []
        if size == 1:
            out.extend(Index(i) for i in range(min(depth, 10)))
        if size >= 2:
            out.extend(Lam(b) for b in gen(size - 1, depth + 1))
        for ls in range(1, size - 1):
            for f in gen(ls, depth):
                for a in gen(size - 1 - ls, depth):
                    out.append(LApp(f, a))
        return tuple(out)

    result: list[LambdaTerm] = []
    for size in range(1, max_size + 1):
        result.extend(gen(size, 0))
    return result
