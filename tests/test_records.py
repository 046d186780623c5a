"""The behaviour of sfcalc's record and node types: equality, hashing,
immutability and the printed reprs.

Outcome and report records are named tuples and compare by their fields;
machine specs and recursive-function nodes compare by identity; λ-terms
compare by structure; a check report stays mutable.
"""

from __future__ import annotations

from typing import Callable

import pytest

from sfcalc.lambda_bridge import Index, LApp, Lam, LambdaOutcome, beta_normalize, parse_lambda
from sfcalc.models import (
    SUCC,
    ZERO,
    CheckReport,
    CheckRow,
    Comp,
    Model,
    ModelResult,
    Mu,
    PrimRec,
    Proj,
    RecOutcome,
    Succ,
    Zero,
    eval_rec,
    recursive_model,
)
from sfcalc.reduction import ReduceOutcome, Step, normalize
from sfcalc.stdlib import NamedCombinator
from sfcalc.syntax import parse
from sfcalc.terms import Calculus, K, Var, app
from sfcalc.turing import (
    EQUALITY_MACHINE,
    EQUALITY_MACHINE_TEXT,
    MachineRun,
    MachineSpec,
    parse_machine,
    run_machine,
)
from sfcalc.witnesses import SimulationCase, WeakEquivalenceCase, rec_const

SK, SF = Calculus.SK, Calculus.SF
REC = recursive_model()


def _plus_one() -> PrimRec:
    return PrimRec(Proj(1, 1), Comp(SUCC, (Proj(2, 3),)))


def _double(x: object) -> object:
    return 2 * x  # type: ignore[operator]


# (type, a fresh instance, a field to assign or None if mutable,
#  "fields" for equality by field values or "identity")
TYPES: list[tuple[type, Callable[[], object], str | None, str]] = [
    (Step, lambda: Step((0,), "K-rule", app(K, Var("x"), Var("y")), Var("x")), "rule", "fields"),
    (ReduceOutcome, lambda: normalize(parse("S K K x", SK), SK, trace=True), "term", "fields"),
    (RecOutcome, lambda: eval_rec(_plus_one(), [2, 3]), "value", "fields"),
    (ModelResult, lambda: ModelResult("ok", 5), "value", "fields"),
    (Model, lambda: Model("recursive", REC.contains, REC.apply), "name", "fields"),
    (CheckRow, lambda: CheckRow("(2, 3)", "5", "6", "mismatch"), "verdict", "fields"),
    (CheckReport, lambda: CheckReport("demo", [CheckRow("0", "0", "0", "ok")]), None, "fields"),
    (MachineRun, lambda: run_machine(EQUALITY_MACHINE, "AS#AS"), "word", "fields"),
    (MachineSpec, lambda: parse_machine(EQUALITY_MACHINE_TEXT), "start", "identity"),
    (NamedCombinator, lambda: NamedCombinator("i", SK, parse("S K K", SK), "i x = x"),
     "body", "fields"),
    (LambdaOutcome, lambda: beta_normalize(parse_lambda("(\\0) \\0")), "term", "fields"),
    (SimulationCase, lambda: SimulationCase("double", "d", REC, REC, _double, SUCC, SUCC,
                                            ((1,), (2,))), "inputs", "fields"),
    (WeakEquivalenceCase, lambda: WeakEquivalenceCase("id", "d", REC, REC, _double, _double,
                                                      SUCC, (1, 2)), "inputs", "fields"),
    (Index, lambda: Index(3), "n", "fields"),
    (Lam, lambda: Lam(Index(0)), "body", "fields"),
    (LApp, lambda: LApp(Lam(Index(0)), Index(0)), "fun", "fields"),
    (Zero, Zero, "arity", "identity"),
    (Succ, Succ, "arity", "identity"),
    (Proj, lambda: Proj(1, 2), "i", "identity"),
    (Comp, lambda: Comp(SUCC, (ZERO,)), "outer", "identity"),
    (PrimRec, _plus_one, "step", "identity"),
    (Mu, lambda: Mu(Proj(1, 2)), "body", "identity"),
]


@pytest.mark.parametrize("cls, make, field, equality", TYPES,
                         ids=[cls.__name__ for cls, *_ in TYPES])
def test_equality_hash_and_immutability(cls, make, field, equality):
    a, b = make(), make()
    assert type(a) is cls and a is not b and a == a
    if equality == "identity":
        assert a != b and hash(a) == hash(a)
    elif field is None:  # a check report: equal by fields, unhashable, mutable
        assert a == b
        with pytest.raises(TypeError):
            hash(a)
        a.rows.append(CheckRow("1", "1", "1", "ok"))  # type: ignore[attr-defined]
        assert a != b
    else:
        assert a == b and not a != b and hash(a) == hash(b)
    if field is not None:
        with pytest.raises(AttributeError):
            setattr(a, field, None)


# Each repr as the dataclass version of these records printed it.
REPRS = [
    (lambda: normalize(parse("S K K x", SK), SK, trace=True),
     "ReduceOutcome(status=<Status.NORMAL: 'normal'>, term=x, steps_taken=2, "
     "steps=(Step(path=(), rule='S-rule', redex=SKKx, contractum=Kx(Kx)), "
     "Step(path=(), rule='K-rule', redex=Kx(Kx), contractum=x)), reason=None)"),
    (lambda: normalize(parse("S K K x", SK), SK, trace=True).steps[0],
     "Step(path=(), rule='S-rule', redex=SKKx, contractum=Kx(Kx))"),
    (lambda: normalize(parse("F x S S", SF), SF),
     "ReduceOutcome(status=<Status.STUCK: 'stuck'>, term=FxSS, steps_taken=0, steps=(), "
     "reason='varheaded-f')"),
    (lambda: normalize(parse("S S S (S S) S S", SK), SK, budget=3),
     "ReduceOutcome(status=<Status.BUDGET: 'budget'>, term=S(S(SS)S)(S(S(SS)S))S, "
     "steps_taken=3, steps=(), reason=None)"),
    (lambda: eval_rec(_plus_one(), [2, 3]), "RecOutcome(status='ok', value=5, evals=11)"),
    (lambda: eval_rec(_plus_one(), [2, 3], budget=2),
     "RecOutcome(status='budget', value=None, evals=2)"),
    (lambda: run_machine(EQUALITY_MACHINE, "AS#AS"),
     "MachineRun(status='accept', steps=18, word='XX#XX')"),
    (lambda: run_machine(EQUALITY_MACHINE, "AS#AS", 3),
     "MachineRun(status='budget', steps=3, word='XS#AS')"),
    (lambda: CheckRow("(2, 3)", "5", "6", "mismatch"),
     "CheckRow(input='(2, 3)', lhs='5', rhs='6', verdict='mismatch')"),
    (lambda: ModelResult("ok", parse("S K", SK)), "ModelResult(status='ok', value=SK)"),
    (lambda: ModelResult("budget"), "ModelResult(status='budget', value=None)"),
    (lambda: ModelResult("ok", "AS"), "ModelResult(status='ok', value='AS')"),
]


@pytest.mark.parametrize("make, text", REPRS)
def test_printed_reprs_keep_their_text(make, text):
    assert repr(make()) == text


def test_records_are_tuples_of_their_fields():
    assert eval_rec(_plus_one(), [2, 3]) == ("ok", 5, 11)
    status, steps, word = run_machine(EQUALITY_MACHINE, "AS#AS")
    assert (status, steps, word) == ("accept", 18, "XX#XX")


def test_deep_recursive_programs_print_hash_and_compare():
    # Nodes compare and hash by identity and print without walking
    # their parts, so a program 5,000 compositions deep is no problem.
    f, g = rec_const(5000, 1), rec_const(5000, 1)
    assert repr(f) == "<Comp of arity 1>"
    assert hash(f) == hash(f)
    assert f == f and f != g
