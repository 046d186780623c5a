"""Witness programs and the packaged simulation / equivalence cases."""

from __future__ import annotations

import hashlib
import sys

import pytest
from hypothesis import given, strategies as st

from sfcalc import models
from sfcalc.models import cantor_pair, eval_rec, gnum
from sfcalc.stdlib import build_catalog, church
from sfcalc.terms import App, Calculus, F, S
from sfcalc.witnesses import (
    build_simulation_cases,
    build_weak_equivalence_cases,
    church_code_oracle,
    church_code_recfn,
    number_to_word,
    rec_add,
    rec_cantor_pair,
    rec_code_of,
    rec_const,
    rec_iszero,
    rec_mul,
    rec_paircode,
    rec_pred,
    rec_succ,
    surrogate_code_recfn,
    word_to_number,
)

SF = Calculus.SF


class TestArithmeticPrograms:
    def test_arities(self):
        assert rec_add.arity == 2
        assert rec_mul.arity == 2
        assert rec_succ.arity == 1
        assert rec_pred.arity == 1
        assert rec_iszero.arity == 1

    def test_values_match_python(self):
        for a in range(6):
            assert eval_rec(rec_succ, [a]).value == a + 1
            assert eval_rec(rec_pred, [a]).value == max(0, a - 1)
            assert eval_rec(rec_iszero, [a]).value == (1 if a == 0 else 0)
            for b in range(6):
                assert eval_rec(rec_add, [a, b]).value == a + b
                assert eval_rec(rec_mul, [a, b]).value == a * b

    def test_rec_const(self):
        five = rec_const(5, 1)
        assert five.arity == 1
        assert eval_rec(five, [9]).value == 5
        two_ary = rec_const(3, 2)
        assert eval_rec(two_ary, [0, 0]).value == 3

    def test_rec_cantor_pair_matches_host(self):
        for a in range(5):
            for b in range(5):
                assert eval_rec(rec_cantor_pair, [a, b]).value == cantor_pair(a, b)

    def test_rec_paircode_is_pair_plus_three(self):
        assert eval_rec(rec_paircode, [1, 1]).value == gnum(App(S, S))
        assert eval_rec(rec_paircode, [2, 2]).value == gnum(App(F, F))


class TestCodePrograms:
    def test_rec_code_of_mirrors_gnum(self):
        for t in (S, F, App(S, S), App(F, F), App(App(S, S), F)):
            program = rec_code_of(t, 1)
            assert program.arity == 1
            assert eval_rec(program, [0]).value == gnum(t)

    def test_church_code_oracle_pins(self):
        assert church_code_oracle(0) == gnum(church(0, SF))
        # The first successor wraps the numeral in the successor scaffold,
        # whose own code (~1e122) dominates, quadrupling the digit count;
        # every later successor roughly squares the code (doubles digits).
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(100_000)
        digits = [len(str(church_code_oracle(n))) for n in range(9)]
        assert digits == [62, 245, 489, 977, 1954, 3907, 7812, 15624, 31247]
        for prev, cur in zip(digits[1:], digits[2:]):
            assert 2 * prev - 2 <= cur <= 2 * prev + 2

    def test_church_code_recfn_is_well_formed_but_infeasible(self):
        program = church_code_recfn()
        assert program.arity == 1
        # Even n = 0 must count to ~10^61 one successor at a time, so any
        # realistic budget runs out long before a value appears.
        out = eval_rec(program, [0], budget=1_000_000)
        assert out.status == "budget"

    def test_surrogate_recurrence_is_feasible(self):
        program = surrogate_code_recfn()
        values = [eval_rec(program, [n], budget=10_000_000).value for n in range(4)]
        assert values[0] == 1
        for n, (prev, cur) in enumerate(zip(values, values[1:])):
            assert cur == cantor_pair(2, prev) + 3


class TestWordCodec:
    def test_pins(self):
        assert word_to_number("") == 0
        assert word_to_number("A") == 1
        assert word_to_number("S") == 2
        assert word_to_number("K") == 3
        assert word_to_number("F") == 4
        assert word_to_number("AA") == 5
        assert number_to_word(0) == ""
        assert number_to_word(5) == "AA"

    @given(st.text(alphabet="ASKF", max_size=14))
    def test_roundtrip_words(self, w):
        assert number_to_word(word_to_number(w)) == w

    @given(st.integers(0, 10**9))
    def test_roundtrip_numbers(self, n):
        assert word_to_number(number_to_word(n)) == n

    def test_rejects_foreign_letters(self):
        with pytest.raises(ValueError):
            word_to_number("AZ")


class TestPackagedCases:
    def test_simulation_case_inventory(self):
        cases = build_simulation_cases()
        ops = {"succ", "plus", "times", "iszero", "pred"}
        assert set(cases) == {f"{op}-{c}" for op in ops for c in ("sk", "sf")}
        for case in cases.values():
            assert case.description

    def test_simulation_inputs_cover_operands_to_five(self):
        cases = build_simulation_cases()
        plus_inputs = list(cases["plus-sf"].inputs)
        assert len(plus_inputs) == 36
        assert set(plus_inputs) == {(a, b) for a in range(6) for b in range(6)}
        succ_inputs = list(cases["succ-sk"].inputs)
        assert set(succ_inputs) == {(n,) for n in range(6)}

    @pytest.mark.parametrize("name", ["succ-sf", "iszero-sk", "pred-sf"])
    def test_sample_simulation_cases_pass(self, name):
        report = build_simulation_cases()[name].run()
        assert report.ok, report.render()

    def test_cases_run_the_shared_catalog_entries(self):
        sims = build_simulation_cases()
        for calc in (Calculus.SK, Calculus.SF):
            plus = build_catalog(calc)["plus"].body
            assert sims[f"plus-{calc.value}"].target_program is plus
        godelize = build_catalog(Calculus.SF)["godelize"].body
        assert build_weak_equivalence_cases()["godelize-sf"].recoding2 is godelize

    def test_case_tables_are_built_once_and_read_only(self):
        for build in (build_simulation_cases, build_weak_equivalence_cases):
            cases = build()
            assert build() is cases
            name = next(iter(cases))
            with pytest.raises(TypeError):
                cases[name] = cases[name]  # type: ignore[index]

    def test_weak_equivalence_inventory(self):
        cases = build_weak_equivalence_cases()
        assert list(cases) == [
            "godelize-sf",
            "church-code-rec",
            "word-number-tm",
            "number-word-rec",
        ]

    def test_word_number_recodings_pass(self):
        cases = build_weak_equivalence_cases()
        assert cases["word-number-tm"].run().ok
        assert cases["number-word-rec"].run().ok

    def test_godelize_recoding_passes(self):
        report = build_weak_equivalence_cases()["godelize-sf"].run()
        assert report.ok and len(report.rows) == 6

    def test_church_code_recoding_reports_honest_budget_violations(self):
        report = build_weak_equivalence_cases()["church-code-rec"].run()
        assert len(report.rows) == 9
        assert len(report.violations) == 9
        assert all(r.verdict == "target-budget" for r in report.rows)
        assert report.rows[0].lhs.startswith("~10^61")


class TestRecOutcomePins:
    def test_every_recursive_outcome_of_the_cases_is_pinned(self, monkeypatch):
        # Every (case, input, RecOutcome) that the simulation cases, the
        # recursive weak-equivalence cases and the sf-recursive-equiv
        # surrogate produce, evaluation counts included.
        lines: list[str] = []
        label = ""
        real = models.eval_rec

        def recording(f, args, budget=models.DEFAULT_REC_BUDGET):
            out = real(f, args, budget)
            lines.append(f"{label}\t{list(args)}\t{out}")
            return out

        monkeypatch.setattr(models, "eval_rec", recording)
        for label, case in build_simulation_cases().items():
            for xs in case.inputs:
                case.source.apply(case.source_program, list(xs))
        weak = build_weak_equivalence_cases()
        for label in ("church-code-rec", "number-word-rec"):
            weak[label].run()
        label = "sf-recursive-equiv"
        surrogate = surrogate_code_recfn()
        for n in range(4):
            models.eval_rec(surrogate, [n])
        assert len(lines) == 2 * (3 * 6 + 2 * 36) + 9 + 13 + 4
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "325bcdada01bbff720b5e460a2e09f9c8b716e6e242166b9f0de081d97594149"
