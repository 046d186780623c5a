"""deBruijn lambda-terms, beta-reduction, and bracket abstraction.

The bridge between the lambda-model and the combinator calculi.  One
bracket abstraction, `abstract`, holds both clause sets.  Closed
lambda-terms translate to SK (or SF, with K spelled F F) combinators by
the plain three-clause set, with no eta or free-variable optimizations:

    [x] x      = S K K
    [x] leaf   = K leaf          (operator atom or other variable)
    [x] (P Q)  = S ([x]P) ([x]Q)

The catalog (`stdlib.lam`) adds [x] M = K M and [x] (M x) = M for M in
which x does not occur, which keep its bodies small.

Surface syntax: ``\\`` introduces an abstraction whose body extends as
far right as possible, a run of ASCII digits ``0``-``9`` is one deBruijn
index (``10`` is index 10; write ``1 0`` for two), juxtaposition applies,
parentheses group; e.g. ``\\\\1 0`` is the term taking f then x to f x.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

from .terms import App, Calculus, F, K, S, Term, Var, dag_postorder


# --- lambda terms ------------------------------------------------------------


class _LambdaNode:
    """The repr of a λ-term is its text."""

    def __repr__(self) -> str:
        return render_lambda(self)  # type: ignore[arg-type]


@dataclass(frozen=True, repr=False)
class Index(_LambdaNode):
    n: int


@dataclass(frozen=True, repr=False)
class Lam(_LambdaNode):
    body: "LambdaTerm"


@dataclass(frozen=True, repr=False)
class LApp(_LambdaNode):
    fun: "LambdaTerm"
    arg: "LambdaTerm"


LambdaTerm = Union[Index, Lam, LApp]


def lam_closed(t: LambdaTerm) -> bool:
    """Closed iff every Index n sits under more than n enclosing Lams."""
    stack = [(t, 0)]
    while stack:
        u, d = stack.pop()
        if isinstance(u, Lam):
            stack.append((u.body, d + 1))
        elif isinstance(u, LApp):
            stack += [(u.fun, d), (u.arg, d)]
        elif u.n >= d:
            return False
    return True


# --- surface syntax ----------------------------------------------------------


class LambdaParseError(ValueError):
    pass


def parse_lambda(text: str) -> LambdaTerm:
    """Parse deBruijn λ-text: ``λ`` or ``\\`` binds, digits are indices,
    juxtaposition applies left-associatively, and a binder's body extends
    as far right as possible (``λ0 0`` is ``λ(0 0)``)."""
    # One frame per open '(' or binder: (kind, term-so-far before it).  A
    # ')' or the end first closes the binders above the nearest '('.
    frames: list[tuple[str, Optional[LambdaTerm]]] = []
    current: Optional[LambdaTerm] = None
    pos, n = 0, len(text)
    while True:
        while pos < n and text[pos].isspace():
            pos += 1
        ch = text[pos] if pos < n else ")"  # the end closes like a ')'
        if "0" <= ch <= "9":
            start = pos
            while pos < n and "0" <= text[pos] <= "9":
                pos += 1
            leaf = Index(int(text[start:pos]))
            current = leaf if current is None else LApp(current, leaf)
            continue
        if ch in "\\λ(":
            frames.append((ch, current))
            current = None
        elif ch != ")":
            raise LambdaParseError(f"unexpected character {ch!r} (at position {pos})")
        else:
            if current is None:
                raise LambdaParseError(f"empty term (at position {pos})")
            while frames and frames[-1][0] != "(":
                outer = frames.pop()[1]
                current = Lam(current) if outer is None else LApp(outer, Lam(current))
            if pos == n:
                if frames:
                    raise LambdaParseError(f"unclosed '(' (at position {pos})")
                return current
            if not frames:
                raise LambdaParseError(f"unexpected ')' (at position {pos})")
            outer = frames.pop()[1]
            current = current if outer is None else LApp(outer, current)
        pos += 1


def render_lambda(t: LambdaTerm) -> str:
    """Text that parse_lambda reads back as t: a function that is a
    binder and an argument that is a binder or an application get
    parentheses, and a space parts two adjacent indices."""
    out: list[str] = []
    stack: list[LambdaTerm | str] = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, str):
            out.append(u)
        elif isinstance(u, Index):
            # Only an argument index can follow a digit: anything else
            # starts its text after "(", "\\" or nothing.
            if out and out[-1][-1].isdigit():
                out.append(" ")
            out.append(str(u.n))
        elif isinstance(u, Lam):
            out.append("\\")
            stack.append(u.body)
        else:
            stack += [")", u.arg, "("] if isinstance(u.arg, (Lam, LApp)) else [u.arg]
            stack += [")", u.fun, "("] if isinstance(u.fun, Lam) else [u.fun]
    return "".join(out)


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


def abstract(name: str, m: Term, calc: Calculus, optimized: bool) -> Term:
    """[name]m by the plain clauses, and when `optimized` also by the
    constant and eta clauses."""
    k, i = k_term(calc), i_term(calc)
    # One post-order pass; a shared node is abstracted once.  An image is
    # None where it is K node: at a leaf other than `name`, and, when
    # `optimized`, wherever `name` does not occur (a closed node unwalked).
    unwalked = lambda u: optimized and u.closed  # noqa: E731
    images: dict[int, Optional[Term]] = {}
    for node in dag_postorder(m, unwalked):
        if type(node) is not App or unwalked(node):
            images[id(node)] = i if type(node) is Var and node.name == name else None
        else:
            fun, arg = images[id(node.fun)], images[id(node.arg)]
            if optimized and fun is None and (arg is None or type(node.arg) is Var):
                images[id(node)] = None if arg is None else node.fun  # K or eta
            else:
                fun = fun or App(k, node.fun)
                images[id(node)] = App(App(S, fun), arg or App(k, node.arg))
    return images[id(m)] or App(k, m)


#: The largest translation `bracket_abstract` builds, in nodes.
MAX_ABSTRACTION_NODES = 100_000


def bracket_abstract(t: LambdaTerm, calc: Calculus) -> Term:
    """Translate a closed lambda-term by the plain clauses.  Every binder
    multiplies the term, so a body of n nodes is abstracted only if the
    bound (3 + |I|)(n + 1) / 2 on the result (each App becomes 3 nodes,
    each leaf at most |I|) is within MAX_ABSTRACTION_NODES."""
    if not lam_closed(t):
        raise ValueError("bracket abstraction is defined on closed terms only")
    leaf_bound = 3 + i_term(calc).size
    # Post-order over (node, binders above it, children done); binder d binds v<d>.
    done: list[Term] = []
    stack: list[tuple[LambdaTerm, int, bool]] = [(t, 0, False)]
    while stack:
        u, depth, after = stack.pop()
        if isinstance(u, Index):
            done.append(Var(f"v{depth - 1 - u.n}"))
        elif not after:
            stack.append((u, depth, True))
            if isinstance(u, Lam):
                stack.append((u.body, depth + 1, False))
            else:
                stack += [(u.arg, depth, False), (u.fun, depth, False)]
        elif isinstance(u, Lam):
            body = done.pop()
            if leaf_bound * (body.size + 1) // 2 > MAX_ABSTRACTION_NODES:
                raise ValueError(
                    f"the translation would pass {MAX_ABSTRACTION_NODES:,} nodes"
                )
            done.append(abstract(f"v{depth}", body, calc, optimized=False))
        else:
            arg = done.pop()
            done.append(App(done.pop(), arg))
    return done[0]


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
