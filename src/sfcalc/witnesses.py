"""Named, runnable witnesses connecting the three computation models.

Simulation cases: Church-numeral arithmetic inside each combinator
calculus tracks the corresponding recursive functions on the naturals.

Weak-equivalence cases: round trips between model domains are computed
inside one of the models.  The flagship case runs the structural-code
program inside the SF calculus (codes of every small normal form); its
converse direction, computing the code of the numeral for n as a
recursive function, is constructed honestly here but is astronomically
expensive to evaluate: recursive-function values grow one successor at a
time, the code of SF numeral 0 is already about 2 * 10**61, and codes
roughly square with each successor.  See `church_code_recfn` and
`church_code_oracle`.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

from .models import (
    Comp,
    Model,
    ModelResult,
    PrimRec,
    Proj,
    RecFn,
    SUCC,
    ZERO,
    CheckReport,
    CheckRow,
    enumerate_normal_forms,
    gnum,
    normal_model,
    recursive_model,
    show_value,
)
from .stdlib import build_catalog, church
from .terms import App, Atom, Calculus, Term
from .turing import IDENTITY_MACHINE, turing_model

# --- recursive-function arithmetic ----------------------------------------------


def _diag(f2: RecFn) -> RecFn:
    """Turn a binary function that ignores its first argument into a
    unary one."""
    return Comp(f2, (Proj(1, 1), Proj(1, 1)))


#: add(x, y) = x + y
rec_add: RecFn = PrimRec(Proj(1, 1), Comp(SUCC, (Proj(2, 3),)))

#: mul(x, y) = x * y
rec_mul: RecFn = PrimRec(ZERO, Comp(rec_add, (Proj(1, 3), Proj(2, 3))))

#: succ(x) = x + 1
rec_succ: RecFn = SUCC

#: pred(x) = max(x - 1, 0)
rec_pred: RecFn = _diag(PrimRec(ZERO, Proj(3, 3)))

#: iszero(x) = 1 if x == 0 else 0
rec_iszero: RecFn = _diag(
    PrimRec(Comp(SUCC, (ZERO,)), Comp(ZERO, (Proj(1, 3),)))
)


def rec_const(value: int, k: int) -> RecFn:
    """The k-ary constant function returning value."""
    out: RecFn = ZERO if k == 1 else Comp(ZERO, (Proj(1, k),))
    for _ in range(value):
        out = Comp(SUCC, (out,))
    return out


# cantor(a, b) = (a + b)(a + b + 1)/2 + b, built from the triangular
# numbers tri(y) = 0 + 1 + ... + y.
_tri: RecFn = _diag(
    PrimRec(ZERO, Comp(rec_add, (Proj(2, 3), Comp(SUCC, (Proj(3, 3),)))))
)
rec_cantor_pair: RecFn = Comp(rec_add, (Comp(_tri, (rec_add,)), Proj(2, 2)))

#: pairing shifted past the atom codes, matching the term code of an
#: application: paircode(a, b) = cantor(a, b) + 3
rec_paircode: RecFn = Comp(
    SUCC, (Comp(SUCC, (Comp(SUCC, (rec_cantor_pair,)),)),)
)


def rec_code_of(t: Term, k: int) -> RecFn:
    """The k-ary constant function returning gnum(t), built by mirroring
    the shape of t: atom codes are the constants 1 and 2, application
    codes compose the shifted pairing.  The expression stays small even
    when the value is astronomical."""
    if isinstance(t, Atom):
        return rec_const(1 if t.name == "S" else 2, k)
    assert isinstance(t, App)
    return Comp(rec_paircode, (rec_code_of(t.fun, k), rec_code_of(t.arg, k)))


def _code_recurrence(zero: RecFn, scaffold: RecFn) -> RecFn:
    """The unary f with f(0) = z and f(n + 1) = paircode(s, f(n)), where
    z and s are the values of the constant functions zero (unary) and
    scaffold (ternary)."""
    return _diag(PrimRec(zero, Comp(rec_paircode, (scaffold, Proj(2, 3)))))


def church_code_recfn() -> RecFn:
    """The recursive function sending n to the code of the SF Church
    numeral for n.  Numeral n+1 is literally the successor scaffold
    applied to numeral n, so the codes satisfy the primitive recurrence

        code(0)     = gnum(numeral 0)
        code(n + 1) = paircode(gnum(scaffold), code(n))

    Both constants are around 10**61, and every recursive-function value
    is reached by single successor steps, so evaluating this function is
    far beyond any practical budget; `church_code_oracle` computes the
    same values directly."""
    return _code_recurrence(
        rec_code_of(church(0, Calculus.SF), 1),
        rec_code_of(church(1, Calculus.SF).fun, 3),
    )


def church_code_oracle(n: int) -> int:
    """Host-side value of church_code_recfn: the code of SF numeral n."""
    return gnum(church(n, Calculus.SF))


def surrogate_code_recfn() -> RecFn:
    """The same recurrence as church_code_recfn with the constants
    shrunk to the atom codes 1 and 2, small enough to evaluate:
    f(0) = 1, f(n + 1) = paircode(2, f(n))."""
    return _code_recurrence(rec_const(1, 1), rec_const(2, 3))


# --- word/number codecs ----------------------------------------------------------

_LETTERS = "ASKF"


def word_to_number(word: str) -> int:
    """Bijective base-4 value of a word over A, S, K, F (empty word is 0)."""
    n = 0
    for ch in word:
        n = n * 4 + _LETTERS.index(ch) + 1
    return n


def number_to_word(n: int) -> str:
    """Inverse of word_to_number."""
    out: list[str] = []
    while n > 0:
        n, r = divmod(n - 1, 4)
        out.append(_LETTERS[r])
    return "".join(reversed(out))


# --- named cases ------------------------------------------------------------------


def _show_args(xs: Sequence[object]) -> str:
    if len(xs) == 1:
        return show_value(xs[0])
    return "(" + ", ".join(show_value(x) for x in xs) + ")"


def _compare(shown: str, expected: object, res: ModelResult) -> CheckRow:
    """The row for a target result against the value it should have."""
    if res.status != "ok":
        return CheckRow(shown, show_value(expected), f"({res.status})",
                        f"target-{res.status}")
    verdict = "ok" if expected == res.value else "mismatch"
    return CheckRow(shown, show_value(expected), show_value(res.value), verdict)


class SimulationCase(NamedTuple):
    """The encoding `encode` of source values into target values carries
    source_program to target_program: on every input tuple, the target
    program run on the encoded inputs gives the encoded source result."""

    name: str
    description: str
    source: Model
    target: Model
    encode: Callable[[object], object]
    source_program: object
    target_program: object
    inputs: tuple[tuple[object, ...], ...]

    def run(self) -> CheckReport:
        """Source budget exhaustion skips the row; target disagreement,
        budget exhaustion, or undefinedness against a defined source is
        a violation."""
        report = CheckReport(self.name)
        for xs in self.inputs:
            shown = _show_args(xs)
            sres = self.source.apply(self.source_program, list(xs))
            if sres.status == "budget":
                report.rows.append(CheckRow(shown, "(source budget)", "-", "skipped"))
                continue
            tres = self.target.apply(self.target_program, [self.encode(x) for x in xs])
            if sres.status == "undefined":
                verdict = "ok" if tres.status == "undefined" else "mismatch"
                report.rows.append(CheckRow(shown, "undefined", f"({tres.status})", verdict))
            else:
                report.rows.append(_compare(shown, self.encode(sres.value), tres))
        return report


class WeakEquivalenceCase(NamedTuple):
    """One direction of weak equivalence between m1 and m2: the round
    trip rho2(rho1(x)) through the decoding rho1 (m2 values to m1 values)
    and the encoding rho2 (back again) is computed inside m2 by the
    program recoding2, for every input x in m2's domain."""

    name: str
    description: str
    m1: Model
    m2: Model
    rho1: Callable[[object], object]
    rho2: Callable[[object], object]
    recoding2: object
    inputs: tuple[object, ...]

    def run(self) -> CheckReport:
        report = CheckReport(self.name)
        for x in self.inputs:
            if not self.m2.contains(x):
                raise ValueError(f"input {show_value(x)} is not in {self.m2.name}'s domain")
            decoded = self.rho1(x)
            if not self.m1.contains(decoded):
                raise ValueError(
                    f"decoding of {show_value(x)} is not in {self.m1.name}'s domain"
                )
            expected = self.rho2(decoded)
            res = self.m2.apply(self.recoding2, [x])
            report.rows.append(_compare(show_value(x), expected, res))
        return report


@functools.cache
def build_simulation_cases() -> Mapping[str, SimulationCase]:
    """Church-numeral arithmetic in each calculus simulating recursive
    arithmetic, on all operand tuples with entries up to 5.  Built once
    per process and shared read-only by every caller."""
    unary = tuple((i,) for i in range(6))
    binary = tuple((x, y) for x in range(6) for y in range(6))
    cases: dict[str, SimulationCase] = {}
    for calc in (Calculus.SK, Calculus.SF):
        catalog = build_catalog(calc)
        source, target = recursive_model(), normal_model(calc)
        table: Sequence[tuple[str, RecFn, str, tuple[tuple[object, ...], ...]]] = (
            ("succ", rec_succ, "succ", unary),
            ("plus", rec_add, "plus", binary),
            ("times", rec_mul, "times", binary),
            ("iszero", rec_iszero, "iszero01", unary),
            ("pred", rec_pred, "pred", unary),
        )
        for opname, source_program, combinator, inputs in table:
            name = f"{opname}-{calc.value}"
            cases[name] = SimulationCase(
                name=name,
                description=(
                    f"Church-encoded {opname} in {calc.value} tracks the "
                    f"recursive {opname} on operands up to 5"
                ),
                source=source,
                target=target,
                encode=lambda n, calc=calc: church(n, calc),
                source_program=source_program,
                target_program=catalog[combinator].body,
                inputs=inputs,
            )
    return MappingProxyType(cases)


@functools.cache
def build_weak_equivalence_cases() -> Mapping[str, WeakEquivalenceCase]:
    """Round-trip recodings computed inside a model, built once per
    process and shared read-only by every caller.

    * godelize-sf: the in-calculus structural-code program sends each
      small SF normal form to the numeral of its code.
    * church-code-rec: the converse recursive function (code of the
      numeral for n); honest but infeasible to evaluate, expected to
      exhaust any practical budget.
    * word-number-tm / number-word-rec: words over A, S, K, F and their
      bijective base-4 values, recoded by an identity machine and an
      identity recursive function.
    """
    sf = Calculus.SF
    cases = {}
    cases["godelize-sf"] = WeakEquivalenceCase(
        name="godelize-sf",
        description=(
            "the structural-code program inside SF maps every normal form "
            "of size up to 3 to the Church numeral of its code"
        ),
        m1=recursive_model(),
        m2=normal_model(sf, 10_000_000),
        rho1=gnum,
        rho2=lambda n: church(n, sf),
        recoding2=build_catalog(sf)["godelize"].body,
        inputs=tuple(enumerate_normal_forms(sf, 3)),
    )
    cases["church-code-rec"] = WeakEquivalenceCase(
        name="church-code-rec",
        description=(
            "the recursive function computing the code of SF numeral n "
            "(values from 10**61 up make every budget exhaust; kept honest)"
        ),
        m1=normal_model(sf),
        m2=recursive_model(),
        rho1=lambda n: church(n, sf),
        rho2=gnum,
        recoding2=church_code_recfn(),
        inputs=tuple(range(9)),
    )
    cases["word-number-tm"] = WeakEquivalenceCase(
        name="word-number-tm",
        description=(
            "words round-trip through their bijective base-4 values; the "
            "identity machine computes the recoding on the tape"
        ),
        m1=recursive_model(),
        m2=turing_model(),
        rho1=word_to_number,
        rho2=number_to_word,
        recoding2=IDENTITY_MACHINE,
        inputs=("", "S", "KF", "ASS", "ASKF", "AASKS", "ASASSFF", "AAFFSAKSS"),
    )
    cases["number-word-rec"] = WeakEquivalenceCase(
        name="number-word-rec",
        description=(
            "numbers round-trip through bijective base-4 words; the "
            "identity recursive function computes the recoding"
        ),
        m1=turing_model(),
        m2=recursive_model(),
        rho1=number_to_word,
        rho2=word_to_number,
        recoding2=Proj(1, 1),
        inputs=tuple(range(13)),
    )
    return MappingProxyType(cases)
