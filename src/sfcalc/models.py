"""Computability models and the empirical check harness.

Three models of computation are wrapped behind one interface:

* the recursive-function model (first-order recursive functions over the
  naturals, evaluated with a budget),
* the normal-reduction model (closed combinator terms applied and reduced
  to normal form), and
* the Turing model (machines over tape words, defined in `turing`).

The module also provides the pairing-based code of closed operator terms
(`gnum` / `gterm`), enumeration of closed terms and closed normal forms,
seeded probe corpora, and two table-producing checks:

* `check_simulation`: an encoding from a source model into a target model
  carries each chosen source program to a target program with the same
  behavior on encoded inputs;
* `check_weak_equivalence`: the round trip through a pair of encodings is
  itself computable inside the model being checked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import ceil, isqrt, log2
from typing import Callable, Generator, Iterable, Sequence, Union

from .reduction import Status, normalize
from .syntax import render
from .terms import ARITY, App, Atom, Calculus, S, Term, app, check_calculus

# --- recursive functions --------------------------------------------------------


class ArityError(ValueError):
    """A recursive-function expression is arity-inconsistent or was
    applied to the wrong number of arguments."""


@dataclass(frozen=True)
class Zero:
    """z(x) = 0 (unary)."""


@dataclass(frozen=True)
class Succ:
    """s(x) = x + 1 (unary)."""


@dataclass(frozen=True)
class Proj:
    """p[i,k](x1, ..., xk) = xi (1-indexed)."""

    i: int
    k: int


@dataclass(frozen=True)
class Comp:
    """Composition: outer(g1(xs), ..., gm(xs)) for inners g1..gm."""

    outer: "RecFn"
    inners: tuple["RecFn", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "inners", tuple(self.inners))


@dataclass(frozen=True)
class PrimRec:
    """Primitive recursion on the last argument:

    f(xs, 0)     = base(xs)
    f(xs, y + 1) = step(xs, f(xs, y), y)

    base is k-ary, step is (k+2)-ary, the result is (k+1)-ary.
    """

    base: "RecFn"
    step: "RecFn"


@dataclass(frozen=True)
class Mu:
    """Minimisation: mu(f)(xs) is the least y with f(xs, y) = 0,
    searching upward from 0.  body is (k+1)-ary, the result k-ary."""

    body: "RecFn"


RecFn = Union[Zero, Succ, Proj, Comp, PrimRec, Mu]

ZERO = Zero()
SUCC = Succ()

DEFAULT_REC_BUDGET = 1_000_000


def rec_arity(f: RecFn) -> int:
    """The arity of f; raises ArityError if f is not arity-consistent.

    Iterative, for deeply nested f: each node's check is a generator that
    yields the parts whose arities it needs, and is sent them back."""
    known: dict[int, int] = {}  # id(part) -> arity; f keeps every part alive
    stack = [(f, _arity_check(f))]
    arity = None
    while stack:
        try:
            part = stack[-1][1].send(arity)
        except StopIteration as done:
            arity = known[id(stack.pop()[0])] = done.value
        else:
            arity = known.get(id(part))
            if arity is None:
                stack.append((part, _arity_check(part)))
    return arity


def _arity_check(f: RecFn) -> Generator[RecFn, int, int]:
    if isinstance(f, (Zero, Succ)):
        return 1
    if isinstance(f, Proj):
        if not 1 <= f.i <= f.k:
            raise ArityError(f"projection index {f.i} out of range 1..{f.k}")
        return f.k
    if isinstance(f, Comp):
        if not f.inners:
            raise ArityError("composition needs at least one inner function")
        outer = yield f.outer
        if outer != len(f.inners):
            raise ArityError(f"outer arity {outer} != {len(f.inners)} inner functions")
        arities = set()
        for g in f.inners:
            arities.add((yield g))
        if len(arities) != 1:
            raise ArityError(f"inner functions disagree on arity: {sorted(arities)}")
        return arities.pop()
    if isinstance(f, PrimRec):
        k = yield f.base
        step = yield f.step
        if step != k + 2:
            raise ArityError(f"recursion step must be {k + 2}-ary, got {step}")
        return k + 1
    if isinstance(f, Mu):
        k = yield f.body
        if k < 2:
            raise ArityError("minimised body must be at least binary")
        return k - 1
    raise TypeError(f"not a recursive function: {f!r}")


@dataclass(frozen=True)
class RecOutcome:
    status: str  # "ok" | "budget"
    value: int | None
    evals: int


class _OutOfBudget(Exception):
    pass


def eval_rec(f: RecFn, args: Sequence[int], budget: int = DEFAULT_REC_BUDGET) -> RecOutcome:
    """Evaluate f on args.  Every node evaluation costs one unit of
    budget; minimisation and deep recursion exhaust it instead of hanging."""
    if len(args) != rec_arity(f):
        raise ArityError(f"expected {rec_arity(f)} arguments, got {len(args)}")
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
    multiplying, once a code is certain to pass MAX_CODE_DIGITS digits."""
    if not t.closed:
        raise ValueError("only closed terms have a code")
    out: list[int] = []
    stack: list[Term | None] = [t]
    while stack:
        u = stack.pop()
        if u is None:
            b = out.pop()
            a = out.pop()
            # cantor_pair(a, b) > max(a, b)**2 / 2 >= 2**(2 * bits - 3), and
            # a pending parent (the stack is not empty) squares it again.
            floor = 2 * max(a, b).bit_length() - 3
            if (2 * floor - 1 if stack else floor) >= _MAX_CODE_BITS:
                raise ValueError(
                    f"the code has more than {MAX_CODE_DIGITS:,} digits"
                )
            out.append(cantor_pair(a, b) + 3)
        elif isinstance(u, Atom):
            out.append(1 if u.name == "S" else 2)
        else:
            assert isinstance(u, App)
            stack.append(None)
            stack.append(u.arg)
            stack.append(u.fun)
    return out[0]


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


@dataclass(frozen=True)
class ModelResult:
    status: str  # "ok" | "undefined" | "budget"
    value: object = None


@dataclass(frozen=True)
class Model:
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


def normal_model(calc: Calculus, budget: int = 100_000) -> Model:
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


# --- encodings and checks -------------------------------------------------------


@dataclass(frozen=True)
class Encoding:
    """A map from the source model's values into the target model's."""

    name: str
    source: Model
    target: Model
    fn: Callable[[object], object]


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


def _show_args(xs: Sequence[object]) -> str:
    if len(xs) == 1:
        return show_value(xs[0])
    return "(" + ", ".join(show_value(x) for x in xs) + ")"


@dataclass(frozen=True)
class CheckRow:
    input: str
    lhs: str
    rhs: str
    verdict: str


@dataclass
class CheckReport:
    """A table of per-input comparisons.  Verdict `ok` means agreement,
    `skipped` means the comparison was inconclusive on the source side;
    everything else is a violation."""

    name: str
    rows: list[CheckRow] = field(default_factory=list)

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


def check_simulation(
    name: str,
    enc: Encoding,
    source_program: object,
    target_program: object,
    inputs: Iterable[Sequence[object]],
) -> CheckReport:
    """For each input tuple, run the source program, encode its result,
    and compare against the target program run on the encoded inputs.
    Source budget exhaustion skips the row; target disagreement, budget
    exhaustion, or undefinedness against a defined source is a violation."""
    report = CheckReport(name)
    for xs in inputs:
        xs = tuple(xs)
        shown = _show_args(xs)
        sres = enc.source.apply(source_program, list(xs))
        if sres.status == "budget":
            report.rows.append(CheckRow(shown, "(source budget)", "-", "skipped"))
            continue
        tres = enc.target.apply(target_program, [enc.fn(x) for x in xs])
        if sres.status == "undefined":
            verdict = "ok" if tres.status == "undefined" else "mismatch"
            report.rows.append(
                CheckRow(shown, "undefined", f"({tres.status})", verdict)
            )
            continue
        expected = enc.fn(sres.value)
        if tres.status != "ok":
            report.rows.append(
                CheckRow(shown, show_value(expected), f"({tres.status})",
                         f"target-{tres.status}")
            )
            continue
        verdict = "ok" if expected == tres.value else "mismatch"
        report.rows.append(
            CheckRow(shown, show_value(expected), show_value(tres.value), verdict)
        )
    return report


def check_weak_equivalence(
    name: str,
    m1: Model,
    m2: Model,
    rho1: Callable[[object], object],
    rho2: Callable[[object], object],
    recoding2: object,
    inputs: Iterable[object],
) -> CheckReport:
    """Check one direction of weak equivalence between m1 and m2: the
    round trip rho2(rho1(x)) through the decoding rho1 (m2 values to m1
    values) and the encoding rho2 (back again) must be computed inside m2
    by the program recoding2, for every input x in m2's domain."""
    report = CheckReport(name)
    for x in inputs:
        if not m2.contains(x):
            raise ValueError(f"input {show_value(x)} is not in {m2.name}'s domain")
        decoded = rho1(x)
        if not m1.contains(decoded):
            raise ValueError(
                f"decoding of {show_value(x)} is not in {m1.name}'s domain"
            )
        expected = rho2(decoded)
        res = m2.apply(recoding2, [x])
        if res.status != "ok":
            verdict = f"target-{res.status}"
            shown_rhs = f"({res.status})"
        elif expected == res.value:
            verdict, shown_rhs = "ok", show_value(res.value)
        else:
            verdict, shown_rhs = "mismatch", show_value(res.value)
        report.rows.append(
            CheckRow(show_value(x), show_value(expected), shown_rhs, verdict)
        )
    return report
