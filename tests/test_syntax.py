"""Concrete syntax: parser, minimal-parenthesis renderer, Polish codec."""

from __future__ import annotations

import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import render_oracle
from sfcalc.models import enumerate_closed_terms
from sfcalc.syntax import (
    MAX_PRINT_NODES,
    ParseError,
    PolishError,
    from_polish,
    parse,
    render,
    render_capped,
    render_terms,
    to_polish,
)
from sfcalc.terms import App, Atom, Calculus, CalculusError, F, K, S, Var, app

SK = Calculus.SK
SF = Calculus.SF


def closed_terms_st(calc):
    leaves = st.sampled_from(sorted(calc.operators)).map(Atom)
    return st.recursive(leaves, lambda sub: st.builds(App, sub, sub), max_leaves=16)


class TestParse:
    def test_application_left_associates(self):
        assert parse("SKK", SK) == app(S, K, K)
        assert parse("S(KK)", SK) == App(S, App(K, K))
        assert parse("S(K(SK))", SK) == App(S, App(K, App(S, K)))

    def test_whitespace_is_free(self):
        assert parse(" S K\tK ", SK) == parse("SKK", SK)
        assert parse("S\n(K K)", SK) == parse("S(KK)", SK)

    def test_lowercase_identifiers_munch_maximally(self):
        assert parse("ki", SK) == Var("ki")
        assert parse("k i", SK) == App(Var("k"), Var("i"))
        assert parse("probe2", SF) == Var("probe2")

    def test_single_uppercase_non_operators_are_variables(self):
        assert parse("M", SF) == Var("M")
        assert parse("FMN", SF) == app(F, Var("M"), Var("N"))

    def test_foreign_operator_letter_is_rejected(self):
        with pytest.raises((ParseError, CalculusError)):
            parse("K", SF)
        with pytest.raises((ParseError, CalculusError)):
            parse("F", SK)
        with pytest.raises((ParseError, CalculusError)):
            parse("S(KF)", SK)

    def test_errors_carry_positions(self):
        for text in ("", "(", "S)", "(S", "S (", "()"):
            with pytest.raises(ParseError):
                parse(text, SK)

    def test_variables_in_both_calculi(self):
        t = parse("x y z", SF)
        assert t == app(Var("x"), Var("y"), Var("z"))

    @pytest.mark.parametrize("text, calc, error, message", [
        (")K", SF, CalculusError, "operator K is illegal in SF-calculus (at position 1)"),
        ("S)$", SK, ParseError, "unexpected character '$' (at position 2)"),
        ("()(", SK, ParseError, "empty parentheses (at position 1)"),
    ])
    def test_of_two_faults_the_pinned_one_is_reported(self, text, calc, error, message):
        # A character fault anywhere comes before a misplaced parenthesis,
        # and the first misplaced parenthesis before an unclosed one.
        with pytest.raises(error) as caught:
            parse(text, calc)
        assert type(caught.value) is error and str(caught.value) == message

    @pytest.mark.parametrize("text", [
        "K" * 100_000,
        "S(" * 20_000 + "S" + ")" * 20_000,
        " ".join(f"x{i}" for i in range(20_000)),
    ], ids=["k-word", "nested", "variables"])
    def test_peak_memory_is_the_term(self, text):
        # One pass: no token list outlives the characters it came from.
        tracemalloc.start()
        try:
            t = parse(text, SK)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert t.size > 1 and peak <= 1.1 * held, (peak, held)


class TestRender:
    def test_minimal_parentheses(self):
        assert render(app(S, K, K)) == "SKK"
        assert render(App(S, App(K, K))) == "S(KK)"
        assert render(App(App(S, App(K, K)), K)) == "S(KK)K"
        assert render(App(K, App(K, App(K, K)))) == "K(K(KK))"

    def test_variables_are_space_separated_when_needed(self):
        assert parse(render(App(Var("x"), Var("y"))), SF) == App(Var("x"), Var("y"))
        assert parse(render(app(Var("kx"), Var("ky"))), SK) == app(
            Var("kx"), Var("ky")
        )

    @given(closed_terms_st(SK))
    def test_roundtrip_sk(self, t):
        assert parse(render(t), SK) == t

    @given(closed_terms_st(SF))
    def test_roundtrip_sf(self, t):
        assert parse(render(t), SF) == t

    def test_repr_uses_render(self):
        assert repr(app(S, K, K)) == "SKK"


# Uppercase one-letter variables, and lowercase ones that need a space
# between them, so the space rule fires next to memoised text.
_LEAVES = [S, K, F, Var("M"), Var("N"), Var("x"), Var("kx"), Var("ky"), Var("probe2")]


def shared_terms(rng: random.Random, apps: int) -> list:
    """Leaves and `apps` applications, each of two earlier members (most
    often recent ones, so terms grow), so later members share subterms."""
    pool = list(_LEAVES)

    def pick():
        return rng.choice(pool[-6:] if rng.random() < 0.6 else pool)

    for _ in range(apps):
        pool.append(App(pick(), pick()))
    return pool


def capped_oracle(t, cap):
    if cap is not None and t.size > cap:
        return f"<term of {t.size} nodes, hash {t.h:x}>"
    return render_oracle.render(t)


def tower(depth: int):
    t = S
    for _ in range(depth):
        t = App(t, t)
    return t


class TestSharedRender:
    """`render_terms` prints each shared subterm once per call; the plain
    tree walk in `render_oracle` is the reference."""

    @pytest.mark.parametrize("cap", [None, 15, 150])
    def test_each_root_matches_the_oracle(self, cap):
        for seed in range(300):
            rng = random.Random(seed)
            pool = shared_terms(rng, rng.randrange(1, 40))
            small = [t for t in pool if t.size <= 2000]  # the oracle walks trees
            roots = [rng.choice(small[-12:]) for _ in range(rng.randrange(1, 8))]
            expected = [capped_oracle(t, cap) for t in roots]
            assert render_terms(roots, cap) == expected, seed

    def test_memoised_text_is_spaced_from_the_next_identifier(self):
        shared = App(Var("kx"), Var("ky"))
        roots = [App(shared, Var("kz")), App(Var("probe2"), shared), shared]
        assert render_terms(roots) == ["kx ky kz", "probe2(kx ky)", "kx ky"]

    def test_a_root_past_the_cap_prints_its_size_and_hash(self):
        big = tower(17)  # 262,143 nodes
        small = App(big.fun.fun.fun.fun, Var("x"))  # shares big's subterms
        texts = render_terms([small, big, small])
        assert texts[1] == f"<term of {big.size} nodes, hash {big.h:x}>"
        assert texts[0] == texts[2] == render_oracle.render(small)
        assert render_capped(big) == texts[1]
        assert MAX_PRINT_NODES < big.size

    def test_depth_15_tower(self):
        t = tower(15)
        text = render(t)
        assert t.size == 65_535
        assert text == render_oracle.render(t)
        assert parse(text, SK) == t

    def test_each_shared_node_is_expanded_once(self):
        # 8,388,607 nodes as a tree but 23 as a DAG: the tree walk takes
        # seconds, one expansion per DAG node takes milliseconds.
        t = tower(22)
        start = time.perf_counter()
        text = render(t)
        assert time.perf_counter() - start < 1.0
        assert len(text) == 2 ** 22 + 2 * (2 ** 21 - 1)
        assert text.startswith("SS(SS)(SS(SS))")


class TestPolish:
    def test_application_marker_is_a(self):
        assert to_polish(App(S, App(K, K))) == "ASAKK"
        assert to_polish(S) == "S"
        assert to_polish(app(F, S, S)) == "AAFSS"

    def test_from_polish_inverts(self):
        assert from_polish("ASAKK", SK) == App(S, App(K, K))
        assert from_polish("S", SF) == S

    def test_rejects_malformed_words(self):
        for word in ("", "A", "AS", "SS", "ASS S", "ASKX", "x"):
            with pytest.raises(PolishError):
                from_polish(word, SK)
        with pytest.raises(CalculusError):
            from_polish("ASF", SK)  # foreign operator letter

    def test_an_ill_formed_word_with_a_foreign_letter_is_a_calculus_error(self):
        with pytest.raises(CalculusError) as caught:
            from_polish("KA", SF)
        assert type(caught.value) is CalculusError
        assert str(caught.value) == "operator K is illegal in SF-calculus"

    @staticmethod
    def _counter_law(word, calc):
        """Start at 1; A adds 1, an operator letter subtracts 1, any other
        letter fails; the counter must reach 0 exactly at the last letter."""
        counter = 1
        for i, ch in enumerate(word):
            if ch == "A":
                counter += 1
            elif ch in calc.operators:
                counter -= 1
            else:
                return False
            if counter == 0:
                return i == len(word) - 1
        return False

    def test_decoder_accepts_exactly_the_counter_law_words(self):
        words = ["QQ"] + [
            "".join(w) for n in range(7) for w in itertools.product("ASKFx", repeat=n)
        ]
        accepted = 0
        for calc in (SK, SF):
            for word in words:
                try:
                    t = from_polish(word, calc)
                except CalculusError:
                    continue  # a foreign operator letter
                except PolishError:
                    assert not self._counter_law(word, calc), word
                else:
                    assert self._counter_law(word, calc), word
                    assert to_polish(t) == word
                    accepted += 1
        # Each closed term of up to 5 nodes once: their words have 1, 3 or 5 letters.
        assert accepted == sum(len(enumerate_closed_terms(c, 5)) for c in (SK, SF))

    @given(closed_terms_st(SF))
    def test_roundtrip_polish_sf(self, t):
        assert from_polish(to_polish(t), SF) == t

    def test_exhaustive_roundtrip_small(self):
        for calc in (SK, SF):
            for t in enumerate_closed_terms(calc, 5):
                word = to_polish(t)
                assert set(word) <= set("A" + "".join(calc.operators))
                assert from_polish(word, calc) == t
