"""Computability models, term codes and the tables that checks report in.

Three models of computation are wrapped behind one interface:

* the recursive-function model (first-order recursive functions over the
  naturals, evaluated with a budget),
* the normal-reduction model (closed combinator terms applied and reduced
  to normal form), and
* the Turing model (machines over tape words, defined in `turing`).

The module also provides the pairing-based code of closed operator terms
(`gnum` / `gterm`), enumeration of closed terms and closed normal forms,
seeded probe corpora, and the report tables (`CheckReport`) that the
simulation and weak-equivalence cases in `witnesses` fill in.
"""

from __future__ import annotations

import decimal
import random
from math import ceil, isqrt, log2
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .reduction import DEFAULT_BUDGET, Status, normalize
from .syntax import render
from .terms import ARITY, App, Atom, Calculus, S, Term, app, check_calculus

# --- recursive functions --------------------------------------------------------


class ArityError(ValueError):
    """A recursive-function expression is arity-inconsistent or was
    applied to the wrong number of arguments."""


# Every node compiles itself when it is built.  A node with no PrimRec or
# Mu inside costs the same on every input and computes one argument plus
# a constant, or a constant (zero, successor and projections compose into
# that form), so its code is the summary (cost, j, c): xs[j] + c, or c
# when j is None.  Any other node's code is a closure run(xs, left) over
# its parts' closures, where xs is the argument tuple and left a
# one-element list holding the unspent budget, which each node
# evaluation charges before it looks at its parts.  A PrimRec whose step
# is a summary is charged and computed in one step: y turns cost
# y * cost, charged in one check, and their result has a closed form.
_Run = Callable[[tuple[int, ...], list[int]], int]
_Code = Union[tuple[int, Optional[int], int], _Run]


class _OutOfBudget(Exception):
    pass


def _charge(left: list[int], cost: int) -> None:
    """Spend cost from the unspent budget left[0]; overdrawing stops."""
    left[0] -= cost
    if left[0] < 0:
        raise _OutOfBudget


_set = object.__setattr__


class _Node:
    """What a node derives from its parts when it is built.  Nodes are
    immutable and compare and hash by identity; the repr names the kind
    and the arity, so that no method walks a deep program."""

    __slots__ = ("arity", "_code", "__weakref__")

    arity: int
    _code: _Code

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} of arity {self.arity}>"

    def _derive(self, arity: int, code: _Code) -> None:
        _set(self, "arity", arity)
        _set(self, "_code", code)

    def _closure(self) -> _Run:
        """The node's closure; a summary's charges its whole cost in one
        budget check."""
        if not isinstance(self._code, tuple):
            return self._code
        cost, j, c = self._code

        def run(xs: tuple[int, ...], left: list[int]) -> int:
            _charge(left, cost)
            return c if j is None else xs[j] + c

        return run


class Zero(_Node):
    """z(x) = 0 (unary)."""

    __slots__ = ()
    arity = 1
    _code = (1, None, 0)


class Succ(_Node):
    """s(x) = x + 1 (unary)."""

    __slots__ = ()
    arity = 1
    _code = (1, 0, 1)


class Proj(_Node):
    """p[i,k](x1, ..., xk) = xi (1-indexed)."""

    __slots__ = ("i", "k")

    def __init__(self, i: int, k: int) -> None:
        if not 1 <= i <= k:
            raise ArityError(f"projection index {i} out of range 1..{k}")
        _set(self, "i", i)
        _set(self, "k", k)
        self._derive(k, (1, i - 1, 0))


class Comp(_Node):
    """Composition: outer(g1(xs), ..., gm(xs)) for inners g1..gm."""

    __slots__ = ("outer", "inners")

    def __init__(self, outer: RecFn, inners: Sequence[RecFn]) -> None:
        _set(self, "outer", outer)
        _set(self, "inners", tuple(inners))
        if not self.inners:
            raise ArityError("composition needs at least one inner function")
        if self.outer.arity != len(self.inners):
            raise ArityError(
                f"outer arity {self.outer.arity} != {len(self.inners)} inner functions"
            )
        arities = {g.arity for g in self.inners}
        if len(arities) != 1:
            raise ArityError(f"inner functions disagree on arity: {sorted(arities)}")
        codes = [g._code for g in (self.outer, *self.inners)]
        if all(isinstance(code, tuple) for code in codes):
            _, i, c = codes[0]  # type: ignore[misc]
            _, j, d = (0, None, 0) if i is None else codes[1 + i]  # type: ignore[misc]
            cost = 1 + sum(code[0] for code in codes)  # type: ignore[index]
            self._derive(arities.pop(), (cost, j, c + d))
            return
        outer = self.outer._closure()
        gs = tuple(g._closure() for g in self.inners)

        def run(xs: tuple[int, ...], left: list[int]) -> int:
            _charge(left, 1)
            ys = []
            for g in gs:  # a loop, not a comprehension: one frame a level
                ys.append(g(xs, left))
            return outer(tuple(ys), left)

        self._derive(arities.pop(), run)


class PrimRec(_Node):
    """Primitive recursion on the last argument:

    f(xs, 0)     = base(xs)
    f(xs, y + 1) = step(xs, f(xs, y), y)

    base is k-ary, step is (k+2)-ary, the result is (k+1)-ary.
    """

    __slots__ = ("base", "step")

    def __init__(self, base: RecFn, step: RecFn) -> None:
        _set(self, "base", base)
        _set(self, "step", step)
        k = self.base.arity
        if self.step.arity != k + 2:
            raise ArityError(f"recursion step must be {k + 2}-ary, got {self.step.arity}")
        base, step = self.base._closure(), self.step._closure()
        summary = self.step._code if isinstance(self.step._code, tuple) else None

        def run(xs: tuple[int, ...], left: list[int]) -> int:
            _charge(left, 1)
            head, y = xs[:-1], xs[-1]
            acc = base(head, left)
            if summary is None or y == 0:
                for t in range(y):
                    acc = step(head + (acc, t), left)
                return acc
            # y turns of a summary step (head, acc, t)[j] + c: the
            # accumulator gains c a turn, any other source is read once,
            # on the last turn (t = y - 1).
            cost, j, c = summary
            _charge(left, y * cost)
            if j == k:
                return acc + y * c
            return c if j is None else (head + (acc, y - 1))[j] + c

        self._derive(k + 1, run)


class Mu(_Node):
    """Minimisation: mu(f)(xs) is the least y with f(xs, y) = 0,
    searching upward from 0.  body is (k+1)-ary, the result k-ary."""

    __slots__ = ("body",)

    def __init__(self, body: RecFn) -> None:
        _set(self, "body", body)
        if self.body.arity < 2:
            raise ArityError("minimised body must be at least binary")
        body = self.body._closure()

        def run(xs: tuple[int, ...], left: list[int]) -> int:
            _charge(left, 1)
            y = 0
            while body(xs + (y,), left) != 0:
                y += 1
            return y

        self._derive(self.body.arity - 1, run)


#: A recursive-function expression.  Every node fixes its `arity` and
#: compiles its code when it is built, from its parts' arities and code,
#: and raises ArityError if the arities do not fit together.
RecFn = Union[Zero, Succ, Proj, Comp, PrimRec, Mu]

ZERO = Zero()
SUCC = Succ()

DEFAULT_REC_BUDGET = 1_000_000


class RecOutcome(NamedTuple):
    status: str  # "ok" | "budget"
    value: int | None
    evals: int


def eval_rec(f: RecFn, args: Sequence[int], budget: int = DEFAULT_REC_BUDGET) -> RecOutcome:
    """Evaluate f on args.  Every node evaluation costs one unit of
    budget, so minimisation and deep recursion exhaust it instead of
    hanging; a budget stop is ("budget", None, budget) wherever it falls.

    f runs as the closures its nodes compiled when they were built (see
    above): one Python frame per nesting level of PrimRec, Mu and the
    compositions around them, and none inside a part without PrimRec or
    Mu.  An evaluation that nests deeper than Python's recursion limit
    allows (sys.getrecursionlimit(), which counts the caller's frames
    too) before its budget runs out raises ValueError."""
    if len(args) != f.arity:
        raise ArityError(f"expected {f.arity} arguments, got {len(args)}")
    left = [budget]
    try:
        value = f._closure()(tuple(args), left)
    except _OutOfBudget:
        return RecOutcome("budget", None, budget)
    except RecursionError:
        raise ValueError("the program nests too deeply to evaluate") from None
    return RecOutcome("ok", value, budget - left[0])


# --- pairing-based codes of closed operator terms -------------------------------


def cantor_pair(a: int, b: int) -> int:
    w = a + b
    return w * (w + 1) // 2 + b


def cantor_unpair(z: int) -> tuple[int, int]:
    w = (isqrt(8 * z + 1) - 1) // 2
    b = z - w * (w + 1) // 2
    return w - b, b


#: The most decimal digits of a code: `gnum` refuses longer codes, and
#: `sfcalc godel` prints codes up to this length.
MAX_CODE_DIGITS = 2_000_000
_MAX_CODE_BITS = ceil(MAX_CODE_DIGITS * log2(10))  # 2**bits >= 10**digits


def gnum(t: Term) -> int:
    """The code of a closed operator term: S maps to 1, the other
    operator (K or F) to 2, and an application of codes a and b to
    cantor_pair(a, b) + 3.  Codes of applications start at 7, so 1 and 2
    are the only atom codes and 0 codes nothing.  Bit lengths double at
    every level of nesting, so this raises ValueError, before
    multiplying, once the code of t is certain to pass MAX_CODE_DIGITS
    digits, counting every application still open above the pair."""
    if not t.closed:
        raise ValueError("only closed terms have a code")
    out: list[int] = []
    stack: list[Term | None] = [t]
    pending = 0  # the None markers on the stack: applications still open
    while stack:
        u = stack.pop()
        if u is None:
            pending -= 1
            b = out.pop()
            a = out.pop()
            # cantor_pair(a, b) > max(a, b)**2 / 2 >= 2**floor, and each
            # pending ancestor takes a code >= 2**f to one >= 2**(2f - 1),
            # so the root's code is >= 2**((floor - 1) * 2**pending + 1),
            # and this test says that exponent reaches _MAX_CODE_BITS.
            floor = 2 * max(a, b).bit_length() - 3
            if floor - 1 > (_MAX_CODE_BITS - 2) >> pending:
                raise ValueError(
                    f"the code has more than {MAX_CODE_DIGITS:,} digits"
                )
            out.append(cantor_pair(a, b) + 3)
        elif isinstance(u, Atom):
            out.append(1 if u.name == "S" else 2)
        else:
            assert isinstance(u, App)
            pending += 1
            stack.append(None)
            stack.append(u.arg)
            stack.append(u.fun)
    return out[0]


#: Codes of at most this many bits are printed by `str`.
_DIGITS_CHUNK_BITS = 1024


def code_digits(n: int) -> str:
    """str(n) for a code n >= 0, in subquadratic time and under no int
    digit limit.  CPython 3.11's str(int) is quadratic: 35 s for the
    1.4M-digit code of 23 S's.  Here n is split by bits and rebuilt in
    `decimal` at MAX_PREC, whose large products are subquadratic, and
    printed from there (Brent & Zimmermann, Modern Computer Arithmetic,
    2010, section 1.7)."""
    chunk = _DIGITS_CHUNK_BITS
    if n.bit_length() <= chunk:
        return str(n)
    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        # powers[k] is 2 ** (chunk << k), exactly.
        powers = [decimal.Decimal(1 << chunk)]
        while chunk << len(powers) < n.bit_length():
            powers.append(powers[-1] * powers[-1])

        def build(m: int, k: int) -> decimal.Decimal:
            # m < 2 ** (chunk << (k + 1))
            if k < 0:
                return decimal.Decimal(m)
            bits = chunk << k
            hi = build(m >> bits, k - 1)
            return hi * powers[k] + build(m & ((1 << bits) - 1), k - 1)

        return format(build(n, len(powers) - 1), "f")


#: CPython's default int digit limit.
_INT_DIGITS = 4300


def code_from_digits(text: str) -> int:
    """int(text) for a code, under the default int digit limit and in
    subquadratic time (CPython 3.11's int(str) is quadratic: 5 s for the
    691,207 digits of 22 S's).  Text of up to 4,300 characters goes to
    `int` as it is; longer text must be at most MAX_CODE_DIGITS ASCII
    digits, and is parsed by halves joined with an int product."""
    if len(text) <= _INT_DIGITS:
        return int(text)
    if not (text.isascii() and text.isdigit()):
        raise ValueError(
            f"a code of more than {_INT_DIGITS:,} characters must be ASCII digits"
        )
    if len(text) > MAX_CODE_DIGITS:
        raise ValueError(f"the code has more than {MAX_CODE_DIGITS:,} digits")
    low = len(text) // 2
    return code_from_digits(text[:-low]) * 10**low + code_from_digits(text[-low:])


def gterm(n: int, calc: Calculus) -> Term | None:
    """The term coded by n, or None when n codes nothing (n < 1, or a
    pair component is 0)."""
    if n == 1:
        return S
    if n == 2:
        other = next(iter(calc.operators - {"S"}))
        return Atom(other)
    if n < 3:
        return None
    a, b = cantor_unpair(n - 3)
    if a == 0 or b == 0:
        return None
    fun = gterm(a, calc)
    arg = gterm(b, calc)
    if fun is None or arg is None:
        return None
    return App(fun, arg)


# --- term corpora ---------------------------------------------------------------


def enumerate_closed_terms(calc: Calculus, max_size: int) -> list[Term]:
    """Every closed term of the calculus with at most max_size leaves
    and internal nodes combined (sizes are odd), smallest first."""
    return _enumerate(calc, max_size, normal=False)


def enumerate_normal_forms(calc: Calculus, max_size: int) -> list[Term]:
    """Every closed normal form of the calculus up to max_size, smallest
    first.  A closed normal form is an operator applied to fewer
    arguments than its rule consumes, with every argument normal."""
    return _enumerate(calc, max_size, normal=True)


def _enumerate(calc: Calculus, max_size: int, normal: bool) -> list[Term]:
    atoms = [Atom(o) for o in sorted(calc.operators)]
    by_size: dict[int, list[Term]] = {1: atoms}
    for n in range(3, max_size + 1, 2):
        out: list[Term] = []
        for left in range(1, n - 1, 2):
            for fun in by_size[left]:
                if not normal or fun.nargs < ARITY[fun.head] - 1:
                    out.extend(App(fun, arg) for arg in by_size[n - 1 - left])
        by_size[n] = out
    return [t for n in range(1, max_size + 1, 2) for t in by_size[n]]


def random_closed_term(calc: Calculus, size: int, rng: random.Random) -> Term:
    """A uniform-shape random closed term with exactly `size` nodes
    (size must be odd)."""
    if size == 1:
        return Atom(rng.choice(sorted(calc.operators)))
    left = rng.randrange(1, size - 1, 2)
    return App(
        random_closed_term(calc, left, rng),
        random_closed_term(calc, size - 1 - left, rng),
    )


def build_probe_corpus(calc: Calculus, seed: int = 0) -> list[Term]:
    """The default corpus for extensional-agreement checks: every closed
    normal form up to size 5 plus 50 seeded random closed terms each of
    sizes 7 and 9, deduplicated in order so runs are reproducible."""
    probes: list[Term] = enumerate_normal_forms(calc, 5)
    rng = random.Random(seed)
    for size in (7, 9):
        probes.extend(random_closed_term(calc, size, rng) for _ in range(50))
    return list(dict.fromkeys(probes))


# --- models ---------------------------------------------------------------------


class ModelResult(NamedTuple):
    status: str  # "ok" | "undefined" | "budget"
    value: object = None


class Model(NamedTuple):
    """A model of computation: a domain membership test and an apply
    operation taking a program and arguments to a ModelResult whose
    status separates defined results, definite undefinedness, and budget
    exhaustion."""

    name: str
    contains: Callable[[object], bool]
    apply: Callable[[object, Sequence[object]], ModelResult]


def recursive_model(budget: int = DEFAULT_REC_BUDGET) -> Model:
    """Programs are recursive-function expressions, values are naturals."""

    def apply(program: object, args: Sequence[object]) -> ModelResult:
        out = eval_rec(program, list(args), budget)  # type: ignore[arg-type]
        if out.status == "ok":
            return ModelResult("ok", out.value)
        return ModelResult("budget")

    return Model(
        name="recursive",
        contains=lambda x: isinstance(x, int) and not isinstance(x, bool) and x >= 0,
        apply=apply,
    )


def normal_model(calc: Calculus, budget: int = DEFAULT_BUDGET) -> Model:
    """Programs and values are closed terms of the calculus; applying a
    program reduces program args... to normal form.  A stuck outcome
    (impossible for closed terms) would count as undefined."""

    def contains(x: object) -> bool:
        if not isinstance(x, Term) or not x.closed:
            return False
        try:
            check_calculus(x, calc)
        except ValueError:
            return False
        return normalize(x, calc, budget=0).status is Status.NORMAL

    def apply(program: object, args: Sequence[object]) -> ModelResult:
        term = app(program, *args) if args else program  # type: ignore[arg-type]
        out = normalize(term, calc, budget=budget)
        if out.status is Status.NORMAL:
            return ModelResult("ok", out.term)
        if out.status is Status.BUDGET:
            return ModelResult("budget")
        return ModelResult("undefined")

    return Model(name=f"normal-{calc.value}", contains=contains, apply=apply)


# --- report tables --------------------------------------------------------------


_MAX_SHOW_DIGITS = 40


def show_value(v: object) -> str:
    if isinstance(v, Term):
        return render(v)
    if isinstance(v, str):
        return repr(v)
    if isinstance(v, int) and not isinstance(v, bool) and v != 0:
        # term codes blow past any printable size; show the magnitude
        approx_digits = abs(v).bit_length() * 30103 // 100000 + 1
        if approx_digits > _MAX_SHOW_DIGITS:
            return f"~10^{approx_digits - 1}"
    return str(v)


class CheckRow(NamedTuple):
    input: str
    lhs: str
    rhs: str
    verdict: str


class CheckReport:
    """A table of per-input comparisons.  Verdict `ok` means agreement,
    `skipped` means the comparison was inconclusive on the source side;
    everything else is a violation."""

    __slots__ = ("name", "rows")
    __hash__ = None  # type: ignore[assignment]  # rows is mutable

    def __init__(self, name: str, rows: Optional[list[CheckRow]] = None) -> None:
        self.name = name
        self.rows = [] if rows is None else rows

    def __eq__(self, other: object) -> bool:
        if type(other) is not CheckReport:
            return NotImplemented
        return (self.name, self.rows) == (other.name, other.rows)

    def __repr__(self) -> str:
        return f"CheckReport(name={self.name!r}, rows={self.rows!r})"

    @property
    def violations(self) -> list[CheckRow]:
        return [r for r in self.rows if r.verdict not in ("ok", "skipped")]

    @property
    def skipped(self) -> list[CheckRow]:
        return [r for r in self.rows if r.verdict == "skipped"]

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        header = ("input", "lhs", "rhs", "verdict")
        table = [header] + [(r.input, r.lhs, r.rhs, r.verdict) for r in self.rows]
        widths = [max(len(row[i]) for row in table) for i in range(4)]
        lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
                 for row in table]
        summary = (
            f"{self.name}: {len(self.rows)} rows, "
            f"{len(self.violations)} violations, {len(self.skipped)} skipped"
        )
        return "\n".join(lines + [summary])

    def to_tsv(self) -> str:
        lines = ["\t".join(("input", "lhs", "rhs", "verdict"))]
        lines.extend("\t".join((r.input, r.lhs, r.rhs, r.verdict)) for r in self.rows)
        return "\n".join(lines)

