"""Turing machines: file format, runner semantics, and the equality machine."""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from sfcalc.models import enumerate_normal_forms, random_closed_term
from sfcalc.syntax import to_polish
from sfcalc.terms import Calculus
from sfcalc.turing import (
    EQUALITY_MACHINE,
    EQUALITY_MACHINE_TEXT,
    IDENTITY_MACHINE,
    IDENTITY_MACHINE_TEXT,
    MachineError,
    equality_step_bound,
    parse_machine,
    run_machine,
    turing_model,
)
from turing_oracle import reference_run_machine

BASE = "start a\naccept b\nreject c\nalphabet AS_\n"


class TestParseMachine:
    def test_builtin_texts_roundtrip(self):
        eq = parse_machine(EQUALITY_MACHINE_TEXT)
        assert eq == EQUALITY_MACHINE or eq.transitions == EQUALITY_MACHINE.transitions
        assert eq.start == "q0" and eq.accept == "acc" and eq.reject == "rej"
        assert eq.blank == "_"
        assert len(eq.transitions) == 46
        ident = parse_machine(IDENTITY_MACHINE_TEXT)
        assert ident.start == ident.accept == "acc"
        assert not ident.transitions

    def test_alphabet_is_header_plus_transition_symbols(self):
        spec = parse_machine(BASE + "a A -> a K R\n")
        assert spec.alphabet == frozenset("ASK_")
        bare = parse_machine("start a\naccept b\nreject c\na Q -> b Q S\n")
        assert bare.alphabet == frozenset("Q_")

    def test_comments_and_blank_lines_are_ignored(self):
        spec = parse_machine("# heading\n\n" + BASE + "# more\na A -> b A S\n")
        assert len(spec.transitions) == 1

    def test_errors_carry_line_numbers(self):
        with pytest.raises(MachineError, match="line 5"):
            parse_machine(BASE + "a A -> a A X\n")
        with pytest.raises(MachineError, match="line 5"):
            parse_machine(BASE + "hello world\n")
        with pytest.raises(MachineError, match="line 6: duplicate transition"):
            parse_machine(BASE + "a A -> a A R\na A -> b A R\n")
        with pytest.raises(MachineError, match="line 5: duplicate start header"):
            parse_machine(BASE + "start b\n")
        with pytest.raises(MachineError, match="line 5: tape symbols are single characters"):
            parse_machine(BASE + "a AS -> b A R\n")

    def test_missing_headers(self):
        with pytest.raises(MachineError, match="missing header"):
            parse_machine("accept b\nreject c\n")

    def test_halting_states_have_no_outgoing_transitions(self):
        with pytest.raises(MachineError, match="halting state"):
            parse_machine(BASE + "b A -> a A R\n")

    def test_accept_and_reject_must_differ(self):
        with pytest.raises(MachineError, match="differ"):
            parse_machine("start a\naccept b\nreject b\n")

    def test_blank_must_be_single_character(self):
        with pytest.raises(MachineError, match="single character"):
            parse_machine("start a\naccept b\nreject c\nblank __\n")


class TestRunMachine:
    def test_identity_machine_accepts_immediately(self):
        for word in ("", "ASKF", "#", "A#A"):
            run = run_machine(IDENTITY_MACHINE, word)
            assert run.status == "accept" and run.steps == 0 and run.word == word

    def test_input_symbols_are_validated(self):
        with pytest.raises(MachineError):
            run_machine(EQUALITY_MACHINE, "Z")
        with pytest.raises(MachineError):
            run_machine(EQUALITY_MACHINE, "A_A")  # blank is not an input symbol

    def test_missing_transition_rejects(self):
        spec = parse_machine(BASE + "a A -> a A R\n")
        run = run_machine(spec, "AS")
        assert run.status == "reject" and run.steps == 1

    def test_budget(self):
        run = run_machine(EQUALITY_MACHINE, "AAAA#AAAA", budget=5)
        assert run.status == "budget" and run.steps == 5

    def test_negative_budget_counts_as_zero(self):
        run = run_machine(EQUALITY_MACHINE, "AAAA#AAAA", budget=-1)
        assert (run.status, run.steps) == ("budget", 0)

    def test_word_is_the_non_blank_span(self):
        run = run_machine(EQUALITY_MACHINE, "AS#AS")
        assert run.status == "accept"
        assert run.word == "XX#XX"  # matched symbols get marked

    def test_final_word_costs_a_few_bytes_per_cell(self):
        # A machine that writes a fresh cell on every step: the tape, its
        # mirror and the decoded word must not take one object per cell.
        spec = parse_machine("start a\naccept b\nreject c\n"
                             "a K -> d K R\na _ -> d K R\nd _ -> a K R\n")
        tracemalloc.start()
        try:
            run = run_machine(spec, "K", budget=50_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run == ("budget", 50_000, "K" * 50_000)
        assert peak / len(run.word) <= 8


class TestEqualityMachine:
    def test_fixed_pairs(self):
        cases = [
            ("#", "accept"),
            ("S#S", "accept"),
            ("S#F", "reject"),
            ("ASS#ASS", "accept"),
            ("ASS#ASF", "reject"),
            ("AS#ASS", "reject"),
            ("ASS#AS", "reject"),
            ("S#", "reject"),
            ("#S", "reject"),
            ("", "reject"),
            ("SS", "reject"),  # no separator at all
        ]
        for word, want in cases:
            run = run_machine(EQUALITY_MACHINE, word)
            assert run.status == want, (word, run.status)

    def test_exhaustive_on_small_polish_pairs(self):
        words = [to_polish(t) for t in enumerate_normal_forms(Calculus.SF, 4)]
        for w1 in words:
            for w2 in words:
                run = run_machine(EQUALITY_MACHINE, f"{w1}#{w2}")
                want = "accept" if w1 == w2 else "reject"
                assert run.status == want, (w1, w2)
                assert run.steps <= equality_step_bound(len(w1) + len(w2) + 1)

    @given(
        st.text(alphabet="ASKF", max_size=12),
        st.text(alphabet="ASKF", max_size=12),
    )
    def test_equality_on_arbitrary_words(self, w1, w2):
        run = run_machine(EQUALITY_MACHINE, f"{w1}#{w2}")
        want = "accept" if w1 == w2 else "reject"
        assert run.status == want
        assert run.steps <= equality_step_bound(len(w1) + len(w2) + 1)

    def test_step_bound_is_quadratic(self):
        assert equality_step_bound(0) == 8
        assert equality_step_bound(5) == 2 * 25 + 8 * 5 + 8
        assert equality_step_bound(10) < equality_step_bound(11)


class TestTuringModel:
    def test_model_wraps_runs(self):
        model = turing_model()
        assert model.contains("AS") and not model.contains(7)
        ok = model.apply(EQUALITY_MACHINE, ["S#S"])
        assert ok.status == "ok"
        rejected = model.apply(EQUALITY_MACHINE, ["S#F"])
        assert rejected.status == "undefined"
        with pytest.raises(MachineError, match="turing programs are machine specs"):
            model.apply(EQUALITY_MACHINE_TEXT, ["S#S"])

    def test_model_budget(self):
        model = turing_model(budget=2)
        assert model.apply(EQUALITY_MACHINE, ["ASS#ASS"]).status == "budget"


def _agree(spec, word, budgets):
    for budget in budgets:
        want = reference_run_machine(spec, word, budget)
        assert run_machine(spec, word, budget) == want, (word, budget)


def _short_budgets(spec, word, horizon=400):
    """Every budget from -1 to steps + 1 when the run halts within the
    horizon; otherwise a spread of budgets up to it."""
    full = reference_run_machine(spec, word, horizon)
    if full.status != "budget":
        return range(-1, full.steps + 2)
    return (-1, 0, 1, 2, 3, 5, 17, 64, 199, horizon)


# Alphabet pools for random machines: a narrow one, and one of 300
# symbols, whose codes take more than a byte.
_NARROW = "ASKF#X"
_WIDE = "".join(chr(0x100 + i) for i in range(300))


def _random_machine(rng: random.Random, wide: bool):
    """A random machine file over states q0..qk: about half its
    transitions keep their state and symbol (L, R or S sweeps, the blank
    included), and the rest may write blanks or halt."""
    pool = _WIDE if wide else _NARROW
    used = rng.sample(pool, rng.randint(1, 6)) + ["_"]
    states = [f"q{i}" for i in range(rng.randint(1, 4))]
    lines = ["start q0", "accept acc", "reject rej", f"alphabet {pool}"]
    seen = set()
    for _ in range(rng.randint(1, 3 * len(states) * len(used) // 2 + 1)):
        state, symbol = rng.choice(states), rng.choice(used)
        if (state, symbol) in seen:
            continue
        seen.add((state, symbol))
        if rng.random() < 0.5:
            new_state, new_symbol = state, symbol
            move = rng.choice("LLRRS")
        else:
            new_state = rng.choice(states + ["acc", "rej"] * (rng.random() < 0.3))
            new_symbol = rng.choice(used)
            move = rng.choice("LRS")
        lines.append(f"{state} {symbol} -> {new_state} {new_symbol} {move}")
    spec = parse_machine("\n".join(lines) + "\n")
    inputs = [c for c in used if c != "_"]
    word = "".join(rng.choice(inputs) for _ in range(rng.randint(0, 10)))
    return spec, word


_HAND_MACHINES = {
    "stay-loop": ("a A -> a A S\n", "A"),
    "endless-right-sweep": ("a A -> a A R\na _ -> a _ R\n", "AAS"),
    "endless-left-sweep": ("a A -> a A L\na _ -> a _ L\n", "A"),
    "sweep-onto-the-blank": ("a A -> a A R\na S -> a S R\na _ -> b K S\n", "ASAS"),
    "left-of-cell-0": ("a A -> a A L\na _ -> d K L\nd _ -> b S R\n", "AA"),
    "blank-writes-inside": ("a A -> a A R\na S -> d _ R\nd A -> a A R\na _ -> b _ S\n", "ASASA"),
    "erase-all": ("a A -> a _ R\na _ -> b _ S\n", "AAA"),
    "blank-sweep-between": (
        "a K -> a K R\na A -> a _ R\na S -> d S L\nd _ -> d _ L\nd K -> b K S\n", "KAAS"
    ),
    "empty-word": ("a _ -> a _ R\n", ""),
}


class TestRunnerAgainstOracle:
    """`run_machine` is checked against tests/turing_oracle.py, the plain
    `dict`-tape runner: the whole MachineRun, budget stops included."""

    def test_shipped_machines_on_long_polish_pairs(self):
        rng = random.Random(17)
        for _ in range(8):
            w = to_polish(random_closed_term(Calculus.SF, rng.randrange(51, 73, 2), rng))
            for tape in (f"{w}#{w}", f"{w}#{w[:-1]}{'S' if w[-1] == 'F' else 'F'}"):
                steps = reference_run_machine(EQUALITY_MACHINE, tape).steps
                _agree(EQUALITY_MACHINE, tape, (-1, 0, 1, steps // 3, steps - 1, steps, steps + 1))
                _agree(IDENTITY_MACHINE, tape, (-1, 0, 1))

    def test_equality_machine_at_every_budget(self):
        for tape in ("", "#", "S#S", "ASKF#ASKF", "AS#AF", "ASS#AS", "SS"):
            _agree(EQUALITY_MACHINE, tape, _short_budgets(EQUALITY_MACHINE, tape))

    @pytest.mark.parametrize("name", sorted(_HAND_MACHINES))
    def test_hand_machines(self, name):
        body, word = _HAND_MACHINES[name]
        spec = parse_machine("start a\naccept b\nreject c\nalphabet ASK_\n" + body)
        _agree(spec, word, [*_short_budgets(spec, word), 10**4])

    @pytest.mark.parametrize("wide", [False, True], ids=["narrow", "wide"])
    def test_random_machines(self, wide):
        rng = random.Random(2014 + wide)
        for _ in range(300):
            spec, word = _random_machine(rng, wide)
            assert spec.typecode == ("I" if wide else "B")
            _agree(spec, word, _short_budgets(spec, word))
