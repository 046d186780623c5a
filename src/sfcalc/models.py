"""Computability models, term codes and the tables that checks report in.

Three models of computation are wrapped behind one interface:

* the recursive-function model (first-order recursive functions over the
  naturals, evaluated with a budget),
* the normal-reduction model (closed combinator terms applied and reduced
  to normal form), and
* the Turing model (machines over tape words, defined in `turing`).

The module also provides the pairing-based code of closed operator terms
(`gnum` / `gterm`, with `gnum_digits` to print a code and
`code_from_digits` to read one), enumeration of closed terms and closed normal forms,
seeded probe corpora, and the report tables (`CheckReport`) that the
simulation and weak-equivalence cases in `witnesses` fill in.
"""

from __future__ import annotations

import decimal
import random
from math import ceil, isqrt, log2
from operator import mul
from typing import Any, Callable, Iterable, NamedTuple, Sequence, Union

from .reduction import DEFAULT_BUDGET, Status, normalize
from .syntax import render
from .terms import ARITY, App, Atom, Calculus, S, Term, app, atom, check_calculus

# --- recursive functions --------------------------------------------------------


class ArityError(ValueError):
    """A recursive-function expression is arity-inconsistent or was
    applied to the wrong number of arguments."""


# Every node compiles itself when it is built.  A node is affine when its
# cost and its value are each a form c + a1*x1 + ... + ak*xk in its
# arguments, with natural coefficients: zero, successor and projections
# are, so is a composition of affine parts, and so is a PrimRec over an
# affine base whose step adds a constant at a constant cost (addition:
# value x + y, cost 3y + 2).  Its code is the pair of forms (cost,
# value), each a tuple (c, (a1, ..., ak)).  Any other node's code is a
# closure run(xs, left) over its parts' closures, where xs is the
# argument tuple and left a one-element list holding the unspent budget,
# which each node evaluation charges before it looks at its parts.  A
# PrimRec whose step is affine with an accumulator coefficient of 0 or 1
# charges and computes its turns in one step (`_turns`); other PrimRecs,
# and every Mu, take their turns one at a time.
_Form = tuple[int, tuple[int, ...]]
_Affine = tuple[_Form, _Form]
_Run = Callable[[tuple[int, ...], list[int]], int]
_Code = Union[_Affine, _Run]


def _at(form: _Form, xs: Sequence[int]) -> int:
    """The form c + a1*x1 + ... at xs; zip stops at the shorter of the
    coefficients and xs, so a form can be read at a prefix of its
    arguments."""
    c, coefficients = form
    return c + sum(map(mul, coefficients, xs))


def _combine(c: int, terms: Iterable[tuple[int, _Form]], k: int) -> _Form:
    """c plus the sum of a * form over terms, as one form in k arguments."""
    out = [0] * k
    for a, (d, coefficients) in terms:
        c += a * d
        for i, b in enumerate(coefficients):
            out[i] += a * b
    return c, tuple(out)


def _turns(step: _Affine, head: tuple[int, ...], acc: int, y: int) -> tuple[int, int]:
    """The cost and the result of y >= 1 turns of an affine step from
    acc, for an accumulator coefficient of 0 or 1.  Turn t costs
    ch + ca*acc_t + cn*t and makes vh + va*acc_t + vn*t, so the sums over
    t < y of t, t(t-1)/2 and, for the accumulator, t(t-1)(t-2)/6 give
    both in closed form."""
    cost, value = step
    ch, vh = _at(cost, head), _at(value, head)
    ca, cn = cost[1][-2:]
    va, vn = value[1][-2:]
    s1, s2 = y * (y - 1) // 2, y * (y - 1) * (y - 2) // 6
    if va:  # acc_t = acc + vh*t + vn*t(t-1)/2
        accs = y * acc + vh * s1 + vn * s2
        acc += vh * y + vn * s1
    else:  # acc_t = vh + vn*(t-1) from the second turn on
        accs = acc + (y - 1) * vh + vn * (y - 1) * (y - 2) // 2
        acc = vh + vn * (y - 1)
    return y * ch + ca * accs + cn * s1, acc


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
        """The node's closure; an affine node's charges its whole cost in
        one budget check."""
        if not isinstance(self._code, tuple):
            return self._code
        cost, value = self._code

        def run(xs: tuple[int, ...], left: list[int]) -> int:
            _charge(left, _at(cost, xs))
            return _at(value, xs)

        return run


class Zero(_Node):
    """z(x) = 0 (unary)."""

    __slots__ = ()
    arity = 1
    _code = ((1, (0,)), (0, (0,)))


class Succ(_Node):
    """s(x) = x + 1 (unary)."""

    __slots__ = ()
    arity = 1
    _code = ((1, (0,)), (1, (1,)))


class Proj(_Node):
    """p[i,k](x1, ..., xk) = xi (1-indexed)."""

    __slots__ = ("i", "k")

    def __init__(self, i: int, k: int) -> None:
        if not 1 <= i <= k:
            raise ArityError(f"projection index {i} out of range 1..{k}")
        _set(self, "i", i)
        _set(self, "k", k)
        value = tuple(int(j == i) for j in range(1, k + 1))
        self._derive(k, ((1, (0,) * k), (0, value)))


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
        k = arities.pop()
        codes = [g._code for g in (self.outer, *self.inners)]
        if all(isinstance(code, tuple) for code in codes):
            # The outer forms read the inners' values; the costs add up.
            (cost, value), *inner = codes  # type: ignore[misc]
            values = [v for _, v in inner]
            costs = [(1, c) for c, _ in inner]
            self._derive(k, (_combine(1 + cost[0], [*zip(cost[1], values), *costs], k),
                             _combine(value[0], zip(value[1], values), k)))
            return
        outer = self.outer._closure()
        gs = tuple(g._closure() for g in self.inners)

        def run(xs: tuple[int, ...], left: list[int]) -> int:
            _charge(left, 1)
            ys = []
            for g in gs:  # a loop, not a comprehension: one frame a level
                ys.append(g(xs, left))
            return outer(tuple(ys), left)

        self._derive(k, run)


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
        code = self.step._code
        if isinstance(code, tuple):
            (c, cs), (v, vs) = code
            if not any(cs) and vs == (0,) * k + (1, 0) and isinstance(self.base._code, tuple):
                # Each turn adds v at cost c, so the loop is affine too.
                (bc, bcs), (bv, bvs) = self.base._code
                self._derive(k + 1, ((1 + bc, (*bcs, c)), (bv, (*bvs, v))))
                return
        closed = isinstance(code, tuple) and code[1][1][k] < 2
        base, step = self.base._closure(), self.step._closure()

        def run(xs: tuple[int, ...], left: list[int]) -> int:
            _charge(left, 1)
            head, y = xs[:-1], xs[-1]
            acc = base(head, left)
            if not closed or y == 0:
                for t in range(y):
                    acc = step(head + (acc, t), left)
                return acc
            cost, acc = _turns(code, head, acc, y)  # type: ignore[arg-type]
            _charge(left, cost)
            return acc

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
    hanging; a budget stop is ("budget", None, budget) wherever it falls,
    and a negative budget counts as 0.

    f runs as the code its nodes compiled when they were built (see
    above): one Python frame per nesting level of the parts that are not
    affine (a Mu, a PrimRec that does more than add a constant at a
    constant cost, and the compositions around them), and none inside an
    affine part.  An evaluation that nests deeper than Python's
    recursion limit allows (sys.getrecursionlimit(), which counts the
    caller's frames too) before its budget runs out raises ValueError."""
    if len(args) != f.arity:
        raise ArityError(f"expected {f.arity} arguments, got {len(args)}")
    budget = max(budget, 0)
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
    w = (sqrtrem(8 * z + 1)[0] - 1) // 2
    b = z - w * (w + 1) // 2
    return w - b, b


#: Square roots of at most this many bits are taken by `math.isqrt`.
_ISQRT_BITS = 2048


def sqrtrem(n: int) -> tuple[int, int]:
    """(s, n - s*s) for s = isqrt(n), n >= 0.  CPython 3.11's isqrt is
    quadratic in its divisions; this is Zimmermann's Karatsuba square
    root (SqrtRem: Brent & Zimmermann, Modern Computer Arithmetic, 2010,
    section 1.5.2), about twice as fast on large n.  n is split into
    four k-bit quarters after a shift by 0 or 2 bits that makes its top
    quarter at least 2**(k - 2): then the root of the top half has its
    top bit set, and the remainder needs at most one correction."""
    bits = n.bit_length()
    if bits <= _ISQRT_BITS:
        s = isqrt(n)
        return s, n - s * s
    k = (bits + 3) // 4
    shift = (4 * k - bits) // 2
    n <<= 2 * shift
    low = (1 << k) - 1
    s, r = sqrtrem(n >> 2 * k)
    q, u = divmod((r << k) | (n >> k & low), 2 * s)
    s = (s << k) + q
    r = (u << k) + (n & low) - q * q
    if r < 0:
        r += 2 * s - 1
        s -= 1
    if shift:
        # s is the root of 4n: halve it, and r follows from 4n's root.
        odd = s & 1
        s >>= 1
        r = (r + odd * (4 * s + 1)) >> 2
    return s, r


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
    return _code(t, 1, 2)


#: Exact integer arithmetic in `decimal`: no result may round.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         traps=[decimal.InvalidOperation, decimal.Inexact])


def gnum_digits(t: Term) -> str:
    """str(gnum(t)), under no int digit limit and in subquadratic time.
    CPython 3.11's str(int) is quadratic: 35 s for the 1.4M-digit code of
    23 S's.  This runs gnum's walk, with its refusal, on `decimal`
    integers, whose large products are subquadratic and which print in
    linear time.  The caller's decimal context is left as it was."""
    with decimal.localcontext(_EXACT):
        return format(_code(t, decimal.Decimal(1), decimal.Decimal(2)), "f")


def _code(t: Term, one: Any, two: Any) -> Any:
    """gnum(t), as an int or a Decimal: the type of the atom codes."""
    if not t.closed:
        raise ValueError("only closed terms have a code")
    out: list[Any] = []
    stack: list[Term | None] = [t]
    pending = 0  # the None markers on the stack: applications still open
    while stack:
        u = stack.pop()
        if u is None:
            pending -= 1
            b = out.pop()
            a = out.pop()
            # cantor_pair(a, b) > max(a, b)**2 / 2 >= 2**floor, for floor
            # = 2 * bit_length - 3, and each pending ancestor takes a code
            # >= 2**f to one >= 2**(2f - 1), so the root's code is
            # >= 2**((floor - 1) * 2**pending + 1).  The test says that
            # exponent reaches _MAX_CODE_BITS: floor - 1 > limit, that is,
            # bit_length > (limit + 4) // 2.
            limit = (_MAX_CODE_BITS - 2) >> pending
            if _reaches_power_of_two(max(a, b), (limit + 4) // 2):
                raise ValueError(
                    f"the code has more than {MAX_CODE_DIGITS:,} digits"
                )
            out.append(cantor_pair(a, b) + 3)
        elif isinstance(u, Atom):
            out.append(one if u.name == "S" else two)
        else:
            assert isinstance(u, App)
            pending += 1
            stack.append(None)
            stack.append(u.arg)
            stack.append(u.fun)
    return out[0]


_LOG2_10 = log2(10)


def _reaches_power_of_two(x: Any, k: int) -> bool:
    """x >= 2**k, for an int or integral Decimal x >= 1.  A Decimal's
    exponent e (10**e <= x < 10**(e + 1)) settles it, unless 2**k lies
    within a bit of that range."""
    if isinstance(x, int):
        return x.bit_length() > k
    e = x.adjusted()
    if e * _LOG2_10 > k + 1:
        return True
    if (e + 1) * _LOG2_10 < k - 1:
        return False
    return x >= decimal.Decimal(2) ** k


#: CPython's default int digit limit.
_INT_DIGITS = 4300


def code_from_digits(text: str) -> int:
    """int(text) for a code, under the default int digit limit and in
    subquadratic time (CPython 3.11's int(str) is quadratic: 5 s for the
    691,207 digits of 22 S's).  Text of up to 4,300 characters goes to
    `int` as it is; longer text must be at most MAX_CODE_DIGITS ASCII
    digits, and is parsed by halves joined with an int product, each
    power of ten computed once."""
    if len(text) <= _INT_DIGITS:
        return int(text)
    if not (text.isascii() and text.isdigit()):
        raise ValueError(
            f"a code of more than {_INT_DIGITS:,} characters must be ASCII digits"
        )
    if len(text) > MAX_CODE_DIGITS:
        raise ValueError(f"the code has more than {MAX_CODE_DIGITS:,} digits")
    powers: dict[int, int] = {}

    def parse(digits: str) -> int:
        if len(digits) <= _INT_DIGITS:
            return int(digits)
        low = len(digits) // 2
        if low not in powers:
            powers[low] = 10**low
        return parse(digits[:-low]) * powers[low] + parse(digits[-low:])

    return parse(text)


def gterm(n: int, calc: Calculus) -> Term | None:
    """The term coded by n, or None when n codes nothing (n < 1, or a
    pair component is 0)."""
    if n == 1:
        return S
    if n == 2:
        return atom(next(iter(calc.operators - {"S"})))
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
    atoms = [atom(o) for o in sorted(calc.operators)]
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
    atoms = [atom(o) for o in sorted(calc.operators)]

    def build(size: int) -> Term:
        if size == 1:
            return rng.choice(atoms)
        left = rng.randrange(1, size - 1, 2)
        return App(build(left), build(size - 1 - left))

    return build(size)


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
        term = app(program, *args)  # type: ignore[arg-type]
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


class CheckReport(NamedTuple):
    """A table of per-input comparisons.  Verdict `ok` means agreement,
    `skipped` means the comparison was inconclusive on the source side;
    everything else is a violation."""

    name: str
    rows: list[CheckRow]

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
        table = [CheckRow._fields, *self.rows]
        widths = [max(map(len, column)) for column in zip(*table)]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                 for row in table]
        summary = (
            f"{self.name}: {len(self.rows)} rows, "
            f"{len(self.violations)} violations, {len(self.skipped)} skipped"
        )
        return "\n".join(lines + [summary])

    def to_tsv(self) -> str:
        return "\n".join("\t".join(row) for row in [CheckRow._fields, *self.rows])
