"""Growth checks: how the work of a call grows with its input.

The work is the number of Python opcodes run in sfcalc's own frames,
counted with `sys.settrace`.  The count is exact and the same on every
run, so a check does not depend on the host's load; C-level work, such
as big-int conversion, is invisible to it.  Each family runs at sizes n,
2n, 4n and 8n, and a linear family may grow at most LINEAR times per
doubling.  The normal-order families put the machine on long spines: a
step that re-wrapped the spine's arguments would cost its length, about
4x per doubling.
"""

from __future__ import annotations

import functools
import os
import random
import sys

import pytest

import sfcalc
from sfcalc.cli import load_default_prelude, parse_prelude
from sfcalc.lambda_bridge import bracket_abstract, parse_lambda, render_lambda
from sfcalc.models import eval_rec, gnum, random_closed_term
from sfcalc.reduction import normalize, render_trace
from sfcalc.syntax import from_polish, parse, render, to_polish
from sfcalc.terms import App, Calculus, Var, app
from sfcalc.turing import EQUALITY_MACHINE, run_machine
from sfcalc.witnesses import rec_mul

SK = Calculus.SK
SF = Calculus.SF
LINEAR = 2.5
_PACKAGE = os.path.dirname(sfcalc.__file__) + os.sep


def opcodes(thunk) -> int:
    """The opcodes that thunk() runs in sfcalc's frames.  The tracer in
    place before the call, if any, is put back after it."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(_PACKAGE):
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        thunk()
    finally:
        sys.settrace(previous)
    return count


def doubling_ratios(make, n: int) -> list[float]:
    """make(size) builds a thunk, untraced; the ratios of the thunks'
    opcode counts at sizes n, 2n, 4n and 8n, each to the one before."""
    counts = [opcodes(make(n << k)) for k in range(4)]
    return [b / a for a, b in zip(counts, counts[1:])]


def assert_linear(make, n: int = 100) -> None:
    ratios = doubling_ratios(make, n)
    assert max(ratios) <= LINEAR, ratios


TERM_TEXTS = {
    "k-word": lambda k: "K" * k,
    "nested": lambda k: "S(" * k + "S" + ")" * k,
    "variables": lambda k: " ".join(f"x{i}" for i in range(k)),
}
LAMBDA_TEXTS = {
    "deep": lambda k: "λ" + "0 (" * k + "0" + ")" * k,
    "long": lambda k: "λ" + " 0" * k,
}


def test_the_count_is_of_sfcalc_frames_and_the_tracer_is_put_back():
    previous = sys.gettrace()
    assert opcodes(lambda: sum(range(100))) == 0
    assert opcodes(lambda: parse("SKK", SK)) > 0
    assert sys.gettrace() is previous


@pytest.mark.parametrize("shape", TERM_TEXTS)
def test_parse_is_linear(shape):
    text = TERM_TEXTS[shape]
    assert_linear(lambda k: functools.partial(parse, text(k), SK))


@pytest.mark.parametrize("shape", TERM_TEXTS)
def test_render_is_linear(shape):
    text = TERM_TEXTS[shape]
    assert_linear(lambda k: functools.partial(render, parse(text(k), SK)))


@pytest.mark.parametrize("shape", ["k-word", "nested"])
def test_polish_round_trip_is_linear(shape):
    text = TERM_TEXTS[shape]

    def make(k):
        t = parse(text(k), SK)
        return lambda: from_polish(to_polish(t), SK)

    assert_linear(make)


@pytest.mark.parametrize("shape", LAMBDA_TEXTS)
def test_parse_lambda_is_linear(shape):
    text = LAMBDA_TEXTS[shape]
    assert_linear(lambda k: functools.partial(parse_lambda, text(k)))


@pytest.mark.parametrize("shape", LAMBDA_TEXTS)
def test_render_lambda_is_linear(shape):
    text = LAMBDA_TEXTS[shape]
    assert_linear(lambda k: functools.partial(render_lambda, parse_lambda(text(k))))


def test_normalize_of_the_k_word_is_linear():
    assert_linear(lambda k: functools.partial(normalize, parse("K" * k, SK), SK), 25)


def test_budget_stop_of_s_sss_s_is_linear_in_the_budget():
    t = parse("S(SKK)(SKK)(S(SSS)S)", SK)
    assert_linear(lambda k: functools.partial(normalize, t, SK, budget=k), 25)


def test_normalize_of_a_long_self_application_is_linear():
    # The SK translation of λ0 0 … 0 (k indices) applied to v: the head
    # steps pile up the k - 1 arguments of the normal form v v … v.
    def make(k):
        t = App(bracket_abstract(parse_lambda("λ" + " 0" * k), SK), Var("v"))
        return functools.partial(normalize, t, SK)

    assert_linear(make, 25)


def test_budget_stop_of_eqviacode_on_a_divergent_pair_is_linear_in_the_budget():
    program = load_default_prelude(SF)["eqviacode"]
    w = parse("S(SS)(SS)", SF)
    t = app(program, w, w)
    assert_linear(lambda k: functools.partial(normalize, t, SF, budget=k), 100)


def test_equality_machine_on_a_word_against_itself_is_linear():
    # The machine's steps grow about 4x per doubling of the word; the
    # runner takes each sweep in one match, so its opcodes grow 2x.
    def make(k):
        w = to_polish(random_closed_term(SF, 2 * k + 1, random.Random(k)))
        return functools.partial(run_machine, EQUALITY_MACHINE, f"{w}#{w}")

    assert_linear(make, 16)


def test_eval_rec_of_times_is_linear_in_its_second_argument():
    # (k, k) would be quadratic by design, and at 8k it meets the budget.
    assert_linear(lambda k: functools.partial(eval_rec, rec_mul, (3, k)), 25)


def test_parse_prelude_of_a_doubling_chain_is_linear():
    def make(k):
        text = "let a0 = S;\n" + "".join(f"let a{i} = a{i - 1} a{i - 1};\n" for i in range(1, k))
        return functools.partial(parse_prelude, text, SK)

    assert_linear(make, 25)


def test_trace_of_the_k_word_is_linear():
    def make(k):
        t = parse("K" * k, SK)
        return lambda: render_trace(normalize(t, SK, trace=True).steps)

    assert_linear(make, 25)


def test_bracket_abstraction_of_a_long_body_is_linear():
    text = LAMBDA_TEXTS["long"]
    assert_linear(lambda k: functools.partial(bracket_abstract, parse_lambda(text(k)), SK), 25)


def test_gnum_of_nested_s_is_linear_in_the_depth():
    # The codes' bit lengths double at each level; the big-int products
    # are C-level and unseen here; the godel timing tests in test_cli time them.
    assert_linear(lambda k: functools.partial(gnum, parse(TERM_TEXTS["nested"](k), SK)), 2)


def test_hash_of_a_doubling_tower_is_linear_in_its_distinct_nodes():
    # t = App(t, t) k times: 2**(k + 1) - 1 tree nodes, k + 1 distinct ones.
    def make(k):
        t = Var("x")
        for _ in range(k):
            t = App(t, t)
        return lambda: t.h

    assert_linear(make)


@pytest.mark.parametrize("side", ["left", "right"])
def test_hash_of_a_fresh_spine_is_linear(side):
    def make(k):
        t = Var("x")
        for _ in range(k):
            t = App(t, Var("y")) if side == "left" else App(Var("y"), t)
        return lambda: t.h

    assert_linear(make)
