"""Computability models: recursive functions, numbering, corpora, reports."""

from __future__ import annotations

import gc
import hashlib
import random
import sys
import time
import weakref

import pytest
from hypothesis import given, strategies as st

from sfcalc.models import (
    MAX_CODE_DIGITS,
    SUCC,
    ZERO,
    ArityError,
    CheckReport,
    CheckRow,
    Comp,
    Mu,
    PrimRec,
    Proj,
    RecFn,
    RecOutcome,
    build_probe_corpus,
    cantor_pair,
    cantor_unpair,
    code_digits,
    code_from_digits,
    enumerate_closed_terms,
    enumerate_normal_forms,
    eval_rec,
    gnum,
    gterm,
    normal_model,
    random_closed_term,
    recursive_model,
    show_value,
)
from sfcalc.syntax import render
from sfcalc.terms import App, Calculus, F, S, Var, app
from sfcalc.turing import IDENTITY_MACHINE, parse_machine, turing_model
from sfcalc.witnesses import SimulationCase, WeakEquivalenceCase, rec_add, rec_const

from rec_oracle import reference_eval_rec

SK = Calculus.SK
SF = Calculus.SF


class TestRecArity:
    def test_base_arities(self):
        assert ZERO.arity == 1
        assert SUCC.arity == 1
        assert Proj(2, 3).arity == 3

    def test_composite_arities(self):
        add = PrimRec(Proj(1, 1), Comp(SUCC, (Proj(2, 3),)))
        assert add.arity == 2
        assert Comp(add, (Proj(1, 1), Proj(1, 1))).arity == 1
        assert Mu(add).arity == 1

    def test_ill_formed_programs_are_rejected(self):
        # Each program raises as it is built, before any evaluation.
        add = PrimRec(Proj(1, 1), Comp(SUCC, (Proj(2, 3),)))
        with pytest.raises(ArityError, match="outer arity 2 != 1 inner functions"):
            Comp(add, (SUCC,))
        with pytest.raises(ArityError, match=r"inner functions disagree on arity: \[1, 2\]"):
            Comp(add, (SUCC, add))
        with pytest.raises(ArityError, match="projection index 3 out of range 1..2"):
            Proj(3, 2)
        with pytest.raises(ArityError, match="projection index 0 out of range 1..2"):
            Proj(0, 2)  # projections are 1-indexed
        with pytest.raises(ArityError, match="recursion step must be 3-ary, got 1"):
            PrimRec(Proj(1, 1), Proj(1, 1))
        with pytest.raises(ArityError, match="minimised body must be at least binary"):
            Mu(SUCC)

    def test_eval_checks_argument_count(self):
        with pytest.raises(ArityError):
            eval_rec(SUCC, [1, 2])

    def test_deeply_nested_program_runs_out_of_budget(self):
        # Each of the 5000 nested compositions fixed its arity when it was
        # built, so the evaluator gets to charge its budget.
        assert eval_rec(rec_const(5000, 1), [0], budget=100) == RecOutcome("budget", None, 100)

    def test_five_hundred_nested_compositions_evaluate(self):
        assert eval_rec(rec_const(500, 1), [0], budget=10_000) == RecOutcome("ok", 500, 1001)
        # The same depth over a recursion, so that every level is a call.
        program: RecFn = rec_add
        for _ in range(500):
            program = Comp(SUCC, (program,))
        assert eval_rec(program, [2, 3], budget=10_000) == RecOutcome("ok", 505, 1011)

    def test_nesting_past_the_recursion_limit_raises_value_error(self):
        program: RecFn = rec_add
        for _ in range(2 * sys.getrecursionlimit()):
            program = Comp(SUCC, (program,))
        with pytest.raises(ValueError, match="nests too deeply"):
            eval_rec(program, [2, 3], budget=10**9)
        # A budget that stops the evaluation first still decides it.
        assert eval_rec(program, [2, 3], budget=100) == RecOutcome("budget", None, 100)


class TestEvalRec:
    def test_primitives(self):
        assert eval_rec(ZERO, [9]).value == 0
        assert eval_rec(SUCC, [9]).value == 10
        assert eval_rec(Proj(2, 3), [7, 8, 9]).value == 8

    def test_addition_and_multiplication(self):
        add = PrimRec(Proj(1, 1), Comp(SUCC, (Proj(2, 3),)))
        mul = PrimRec(ZERO, Comp(add, (Proj(1, 3), Proj(2, 3))))
        for a in range(7):
            for b in range(7):
                assert eval_rec(add, [a, b]).value == a + b
                assert eval_rec(mul, [a, b]).value == a * b

    def test_mu_finds_least_root(self):
        # halve(n) = least x with 2*x = n; the search never stops on odd n.
        # The minimised variable is the body's last argument, so the body
        # below is diff(n, x) = |2x - n|.
        add = PrimRec(Proj(1, 1), Comp(SUCC, (Proj(2, 3),)))
        double_x = Comp(add, (Proj(2, 2), Proj(2, 2)))
        # pred3(x, y) = y - 1 truncated; sub(a, b) = a - b truncated.
        pred3 = PrimRec(ZERO, Proj(3, 3))
        sub = PrimRec(Proj(1, 1), Comp(pred3, (Proj(1, 3), Proj(2, 3))))
        diff = Comp(
            add,
            (
                Comp(sub, (double_x, Proj(1, 2))),
                Comp(sub, (Proj(1, 2), double_x)),
            ),
        )
        halve = Mu(diff)
        assert eval_rec(halve, [8]).value == 4
        assert eval_rec(halve, [0]).value == 0
        out = eval_rec(halve, [7], budget=10_000)
        assert out.status == "budget"  # honest cutoff: undefinedness is not decided

    def test_budget_counts_evaluations(self):
        add = PrimRec(Proj(1, 1), Comp(SUCC, (Proj(2, 3),)))
        out = eval_rec(add, [5, 5], budget=3)
        assert out.status == "budget" and out.value is None
        ok = eval_rec(add, [5, 5])
        assert ok.status == "ok" and ok.evals > 3


def _random_recfn(rng: random.Random, k: int, depth: int) -> RecFn:
    """A well-formed k-ary program of nesting depth at most depth."""
    if depth == 0 or rng.random() < 0.2:
        proj = Proj(rng.randint(1, k), k)
        return rng.choice([ZERO, SUCC, proj] if k == 1 else [
            proj, Comp(SUCC, (proj,)), Comp(ZERO, (proj,))])
    kind = rng.choice(["comp", "comp", "primrec", "mu"] if k > 1 else ["comp", "mu"])
    if kind == "comp":
        m = rng.randint(1, 3)
        return Comp(_random_recfn(rng, m, depth - 1),
                    tuple(_random_recfn(rng, k, depth - 1) for _ in range(m)))
    if kind == "primrec":
        return PrimRec(_random_recfn(rng, k - 1, depth - 1),
                       _random_recfn(rng, k + 1, depth - 1))
    return Mu(_random_recfn(rng, k + 1, depth - 1))


#: Programs whose PrimRec step has no PrimRec or Mu inside, so that it
#: compiles to a summary xs[j] + c or c; one or more for each source of
#: the value: the accumulator, a head argument, the counter or none.
_SUMMARY_SHAPES: list[RecFn] = [
    PrimRec(Proj(1, 1), Comp(SUCC, (Proj(2, 3),))),  # acc + 1: add
    PrimRec(Proj(1, 1), Proj(2, 3)),  # acc
    PrimRec(Proj(2, 2), Comp(SUCC, (Comp(SUCC, (Proj(3, 4),)),))),  # acc + 2
    PrimRec(rec_add, Comp(SUCC, (Proj(3, 4),))),  # acc + 1 over a looping base
    PrimRec(SUCC, Comp(SUCC, (Proj(1, 3),))),  # head + 1
    PrimRec(rec_add, Proj(2, 4)),  # head
    PrimRec(ZERO, Proj(3, 3)),  # counter: pred
    PrimRec(Proj(1, 1), Comp(SUCC, (Comp(SUCC, (Proj(3, 3),)),))),  # counter + 2
    PrimRec(Proj(1, 1), Comp(ZERO, (Proj(1, 3),))),  # 0
    PrimRec(ZERO, rec_const(3, 3)),  # 3
]


def _spell(f: RecFn) -> str:
    """The program written out in full, as a test id."""
    if isinstance(f, Proj):
        return f"Proj(i={f.i}, k={f.k})"
    if isinstance(f, Comp):
        inners = ", ".join(map(_spell, f.inners)) + ("," if len(f.inners) == 1 else "")
        return f"Comp(outer={_spell(f.outer)}, inners=({inners}))"
    if isinstance(f, PrimRec):
        return f"PrimRec(base={_spell(f.base)}, step={_spell(f.step)})"
    if isinstance(f, Mu):
        return f"Mu(body={_spell(f.body)})"
    return f"{type(f).__name__}()"


class TestEvalRecAgainstOracle:
    """The compiled closures against the plain recursive interpreter in
    tests/rec_oracle.py: the whole RecOutcome, evaluation count included,
    at budgets that stop early, stop late and do not stop."""

    def test_random_programs(self):
        rng = random.Random(12)
        stops = oks = 0
        for _ in range(300):
            k = rng.randint(1, 3)
            f = _random_recfn(rng, k, rng.randint(1, 4))
            args = [rng.randint(0, 3) for _ in range(k)]
            for budget in (0, 1, 2, 3, 5, 8, 30, 200, 10_000):
                want = reference_eval_rec(f, args, budget)
                assert eval_rec(f, args, budget) == want, (f, args, budget)
            if want.status == "ok":
                oks += 1
                # Any larger budget, the budget that just suffices, and
                # one less.
                assert eval_rec(f, args, 10**6) == want
                assert eval_rec(f, args, want.evals) == want
                assert eval_rec(f, args, want.evals - 1) == RecOutcome(
                    "budget", None, want.evals - 1)
            else:
                stops += 1
        assert oks > 150 and stops > 50

    def test_witness_programs(self):
        for f, args in ((rec_add, [4, 7]), (rec_const(20, 2), [1, 1]),
                        (Mu(rec_add), [0])):
            want = reference_eval_rec(f, args, 10**6)
            for budget in range(want.evals + 2):
                assert eval_rec(f, args, budget) == reference_eval_rec(f, args, budget)

    def test_search_that_never_ends_spends_the_whole_budget(self):
        never_zero = Mu(Comp(SUCC, (Proj(2, 2),)))
        want = RecOutcome("budget", None, 10**6)
        assert reference_eval_rec(never_zero, [0], 10**6) == want
        assert eval_rec(never_zero, [0], 10**6) == want

    @pytest.mark.parametrize("f", _SUMMARY_SHAPES, ids=_spell)
    def test_loops_over_a_summary(self, f):
        # Recursion arguments up to 200, and a budget sweep through the
        # whole evaluation, so that stops land inside the block of turns
        # that is charged at once.
        for head in (0, 5):
            for y in (0, 1, 2, 7, 40, 199, 200):
                args = [head] * (f.arity - 1) + [y]
                want = reference_eval_rec(f, args, 10_000)
                budgets = {0, 1, 2, 3, 10, 100, 10_000}
                if want.status == "ok":
                    budgets |= {want.evals - 1, want.evals}
                if y == 40:
                    budgets |= set(range(want.evals + 2))
                for budget in sorted(budgets):
                    assert eval_rec(f, args, budget) == reference_eval_rec(
                        f, args, budget), (f, args, budget)


class TestClosedForms:
    """Recursion over a fixed-cost step takes no time per turn.  This
    would run for hours one turn at a time, so a lost closed form shows
    up as a hang."""

    def test_addition_of_a_huge_number(self):
        n = 10**12
        assert eval_rec(rec_add, [0, n], budget=10**13) == RecOutcome("ok", n, 3 * n + 2)
        assert eval_rec(rec_add, [0, n], budget=3 * n + 1) == RecOutcome(
            "budget", None, 3 * n + 1)


class TestCompiledLifetime:
    def test_a_program_dies_with_its_last_reference(self):
        f = PrimRec(Proj(1, 1), Comp(SUCC, (Proj(2, 3),)))
        ref = weakref.ref(f)
        assert eval_rec(f, [2, 3]) == RecOutcome("ok", 5, 11)
        del f
        gc.collect()
        assert ref() is None


class TestNumbering:
    def test_cantor_pair_pins(self):
        assert cantor_pair(0, 0) == 0
        assert cantor_pair(1, 1) == 4
        assert cantor_unpair(4) == (1, 1)

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_cantor_roundtrip(self, a, b):
        assert cantor_unpair(cantor_pair(a, b)) == (a, b)

    @given(st.integers(0, 10**9))
    def test_cantor_surjective(self, n):
        a, b = cantor_unpair(n)
        assert cantor_pair(a, b) == n

    def test_gnum_pins(self):
        assert gnum(S) == 1
        assert gnum(F) == 2
        assert gnum(App(S, S)) == 7
        assert gnum(App(F, S)) == 10
        assert gnum(App(S, F)) == 11
        assert gnum(App(F, F)) == 15
        sk_k = gnum(Var("x")) if False else None
        assert sk_k is None

    def test_gnum_requires_closed_terms(self):
        with pytest.raises(ValueError):
            gnum(Var("x"))

    def test_gnum_injective_on_enumeration(self):
        for calc in (SK, SF):
            terms = enumerate_closed_terms(calc, 7)
            codes = [gnum(t) for t in terms]
            assert len(set(codes)) == len(codes)

    def test_gterm_inverts_gnum(self):
        for calc in (SK, SF):
            for t in enumerate_closed_terms(calc, 7):
                assert gterm(gnum(t), calc) == t

    def test_gnum_refuses_codes_past_the_digit_limit(self, monkeypatch):
        # 23 S's code to about 1.4 million digits, 24 S's to 2.8 million.
        assert MAX_CODE_DIGITS == 2_000_000
        deep = S
        for _ in range(30):  # bit length doubles per level
            deep = App(deep, deep)
        for t in (app(*[S] * 24), deep):
            # Refused as soon as the applications still open make the
            # code certain to be too long: after pairing a few small codes.
            calls = []
            monkeypatch.setattr(
                "sfcalc.models.cantor_pair",
                lambda a, b: calls.append(1) or cantor_pair(a, b),
            )
            with pytest.raises(ValueError, match="more than 2,000,000 digits"):
                gnum(t)
            assert len(calls) <= 3

    @pytest.mark.parametrize("bits", [1, 64, 1023, 1024, 1025, 2048, 2049, 4097, 70_000])
    def test_code_digits_are_str(self, bits):
        rng = random.Random(bits)
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            for n in (0, rng.getrandbits(bits), (1 << bits) - 1, 1 << bits, 10 ** (bits // 3)):
                assert code_digits(n) == str(n)
        finally:
            sys.set_int_max_str_digits(before)

    @pytest.mark.parametrize(
        "length", [1, 4300, 4301, 8600, 8601, 8602, 17_203, 70_000]
    )
    def test_code_from_digits_is_int(self, length):
        rng = random.Random(length)
        texts = [
            "".join(rng.choice("0123456789") for _ in range(length)),
            "9" * length,
            "0" * (length - 1) + "1",
        ]
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = [int(text) for text in texts]
        finally:
            sys.set_int_max_str_digits(before)
        sys.set_int_max_str_digits(4300)  # the default limit
        try:
            assert [code_from_digits(text) for text in texts] == expected
        finally:
            sys.set_int_max_str_digits(before)

    @pytest.mark.parametrize("text", [" 7 ", "1_000", "-5", "+12", "\u0663", "x"])
    def test_short_code_text_is_read_as_int_reads_it(self, text):
        try:
            expected = int(text)
        except ValueError:
            with pytest.raises(ValueError):
                code_from_digits(text)
        else:
            assert code_from_digits(text) == expected

    @pytest.mark.parametrize("text, match", [
        (" " + "1" * 4300, "must be ASCII digits"),
        ("1" * 4300 + "_1", "must be ASCII digits"),
        ("\u0663" * 4301, "must be ASCII digits"),
        ("1" * (MAX_CODE_DIGITS + 1), "more than 2,000,000 digits"),
    ], ids=["space", "underscore", "non-ascii", "too-long"])
    def test_long_code_text_must_be_ascii_digits(self, text, match):
        with pytest.raises(ValueError, match=match):
            code_from_digits(text)

    def test_a_long_code_parses_quickly(self):
        # 691,207 digits, as many as the code of 22 S's; int() takes
        # about 4 s on them, halving about 0.8 s.
        rng = random.Random(22)
        text = "".join(rng.choices("0123456789", k=691_207))
        start = time.perf_counter()
        value = code_from_digits(text)
        assert time.perf_counter() - start < 2.5
        assert code_digits(value) == text.lstrip("0")

    def test_gterm_rejects_non_codes(self):
        assert gterm(0, SF) is None
        assert gterm(3, SF) is None  # would need components coded 0
        assert gterm(-1, SF) is None

    def test_gterm_depends_on_calculus(self):
        assert gterm(2, SF) == F
        assert render(gterm(2, SK)) == "K"


class TestCorpora:
    def test_enumeration_counts(self):
        assert len(enumerate_closed_terms(SF, 6)) == 22
        assert len(enumerate_closed_terms(SF, 8)) == 102
        assert len(enumerate_normal_forms(SF, 6)) == 22
        assert len(enumerate_normal_forms(SF, 8)) == 86

    def test_enumerated_normal_forms_are_normal(self, sf_normal_forms_6):
        from sfcalc.reduction import normalize

        for t in sf_normal_forms_6:
            assert normalize(t, SF).steps_taken == 0

    def test_enumeration_is_deterministic(self):
        assert enumerate_closed_terms(SK, 7) == enumerate_closed_terms(SK, 7)

    def test_random_closed_term_is_reproducible(self):
        a = random_closed_term(SF, 9, random.Random(7))
        b = random_closed_term(SF, 9, random.Random(7))
        assert a == b and a.closed and a.size == 9

    def test_probe_corpus_is_deterministic_and_deduplicated(self):
        for calc in (SK, SF):
            corpus = build_probe_corpus(calc)
            assert corpus == build_probe_corpus(calc)
            assert len(set(corpus)) == len(corpus)
            assert all(t.closed for t in corpus)

    def test_probe_corpus_seeds_differ(self):
        assert build_probe_corpus(SF, seed=0) != build_probe_corpus(SF, seed=1)

    @pytest.mark.parametrize(
        "calc, seed, size, digest",
        [
            (SK, 0, 99, "e87b405fa5daa56b"),
            (SK, 1, 104, "df2233cc84223aab"),
            (SF, 0, 103, "2c4544984d3e84f5"),
            (SF, 1, 108, "3607ff3deca7a187"),
        ],
    )
    def test_probe_corpus_pins(self, calc, seed, size, digest):
        # The extensional checks and the benchmark's probes rest on this
        # exact corpus: 50 random terms each of sizes 7 and 9 per seed.
        corpus = build_probe_corpus(calc, seed=seed)
        text = " ".join(render(t) for t in corpus)
        assert len(corpus) == size
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


class TestModels:
    def test_recursive_model(self):
        model = recursive_model()
        add = PrimRec(Proj(1, 1), Comp(SUCC, (Proj(2, 3),)))
        assert model.contains(3) and not model.contains(-1)
        assert not model.contains(True)  # booleans are not naturals here
        assert model.apply(add, [2, 3]).value == 5
        # A search with no root reports budget exhaustion, never a proof
        # of undefinedness.
        never = Mu(Comp(SUCC, (Proj(2, 2),)))
        assert model.apply(never, [0]).status == "budget"

    def test_recursive_model_budget_status(self):
        model = recursive_model(budget=3)
        add = PrimRec(Proj(1, 1), Comp(SUCC, (Proj(2, 3),)))
        assert model.apply(add, [5, 5]).status == "budget"

    def test_normal_model(self, sf_terms):
        model = normal_model(SF)
        assert model.contains(S) and model.contains(App(S, S))
        assert not model.contains(app(S, S, S, S))  # a redex is not a value
        assert not model.contains(Var("x"))
        got = model.apply(sf_terms["succ"], [sf_terms["c1"]])
        assert got.status == "ok" and got.value == sf_terms["c2"]

    def test_normal_model_budget(self):
        from sfcalc.syntax import parse

        model = normal_model(SK, budget=10)
        omega = parse("S(SKK)(SKK)(S(SKK)(SKK))", SK)
        assert model.apply(App(S, S), [omega]).status == "budget"


class TestShowValue:
    def test_terms_render(self):
        assert show_value(App(S, S)) == "SS"

    def test_strings_quote(self):
        assert show_value("AS") == "'AS'"

    def test_small_ints_verbatim(self):
        assert show_value(0) == "0"
        assert show_value(123456) == "123456"

    def test_huge_ints_clamp_to_magnitude(self):
        text = show_value(10**300)
        assert text.startswith("~10^") and "300" in text
        assert show_value(2 * 10**61) == "~10^61"


class TestReports:
    def test_report_counts_and_render(self):
        report = CheckReport("demo")
        report.rows.append(CheckRow("a", "1", "1", "ok"))
        report.rows.append(CheckRow("b", "-", "-", "skipped"))
        report.rows.append(CheckRow("c", "1", "2", "mismatch"))
        assert len(report.skipped) == 1 and len(report.violations) == 1 and not report.ok
        text = report.render()
        assert "demo: 3 rows, 1 violations, 1 skipped" in text
        assert text.splitlines()[0].split() == ["input", "lhs", "rhs", "verdict"]

    def test_report_tsv(self):
        report = CheckReport("demo")
        report.rows.append(CheckRow("a", "1", "1", "ok"))
        lines = report.to_tsv().splitlines()
        assert lines[0] == "input\tlhs\trhs\tverdict"
        assert lines[1] == "a\t1\t1\tok"

    def test_check_simulation_happy_path(self):
        rec = recursive_model()
        add = PrimRec(Proj(1, 1), Comp(SUCC, (Proj(2, 3),)))
        inputs = tuple((a, b) for a in range(3) for b in range(3))
        report = SimulationCase("self", "", rec, rec, lambda n: n, add, add, inputs).run()
        assert report.ok and len(report.rows) == 9

    def test_check_simulation_detects_mismatch(self):
        rec = recursive_model()
        add = PrimRec(Proj(1, 1), Comp(SUCC, (Proj(2, 3),)))
        mul = PrimRec(ZERO, Comp(add, (Proj(1, 3), Proj(2, 3))))
        report = SimulationCase("wrong", "", rec, rec, lambda n: n, add, mul, ((2, 3),)).run()
        assert len(report.violations) == 1
        assert report.rows[0] == CheckRow("(2, 3)", "5", "6", "mismatch")

    def test_check_simulation_skips_source_budget(self):
        tight = recursive_model(budget=2)
        add = PrimRec(Proj(1, 1), Comp(SUCC, (Proj(2, 3),)))
        case = SimulationCase(
            "skip", "", tight, recursive_model(), lambda n: n, add, add, ((3, 3),)
        )
        report = case.run()
        assert len(report.skipped) == 1 and report.ok
        assert report.rows[0] == CheckRow("(3, 3)", "(source budget)", "-", "skipped")

    def test_check_simulation_target_budget_is_a_violation(self):
        add = PrimRec(Proj(1, 1), Comp(SUCC, (Proj(2, 3),)))
        case = SimulationCase(
            "tight", "", recursive_model(), recursive_model(budget=2),
            lambda n: n, add, add, ((3, 3),),
        )
        assert case.run().rows == [CheckRow("(3, 3)", "6", "(budget)", "target-budget")]

    @pytest.mark.parametrize(
        "target_machine, rhs, verdict",
        [("reject", "(undefined)", "ok"), ("identity", "(ok)", "mismatch")],
    )
    def test_check_simulation_undefined_source(self, target_machine, rhs, verdict):
        # A rejecting machine is undefined on every word: the row is ok
        # only when the target program is undefined there too.
        reject = parse_machine("start q0\naccept acc\nreject rej\nalphabet ASKF\n")
        target = reject if target_machine == "reject" else IDENTITY_MACHINE
        tm = turing_model()
        case = SimulationCase(
            "undef", "", tm, tm, lambda w: w, reject, target, (("AS",), ("",))
        )
        report = case.run()
        assert report.rows == [
            CheckRow("'AS'", "undefined", rhs, verdict),
            CheckRow("''", "undefined", rhs, verdict),
        ]
        assert report.ok is (verdict == "ok")
        assert report.render().splitlines()[1].split() == ["'AS'", "undefined", rhs, verdict]

    def test_check_weak_equivalence_domain_error(self):
        rec = recursive_model()
        case = WeakEquivalenceCase("bad", "", rec, rec, lambda x: x, lambda x: x, SUCC, (-5,))
        with pytest.raises(ValueError, match="input -5 is not in recursive's domain"):
            case.run()
