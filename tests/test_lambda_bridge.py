"""deBruijn λ-terms: parser, β-normalization, and bracket abstraction."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from sfcalc.lambda_bridge import (
    MAX_ABSTRACTION_NODES,
    Index,
    LApp,
    Lam,
    LambdaParseError,
    LambdaStatus,
    beta_normalize,
    bracket_abstract,
    church_lambda,
    enumerate_closed_lambda,
    i_term,
    k_term,
    lam_closed,
    parse_lambda,
    render_lambda,
)
from sfcalc.reduction import Status, extensionally_agree, normalize
from sfcalc.stdlib import church
from sfcalc.syntax import parse
from sfcalc.terms import App, Calculus, K, S, Var, app
from lambda_oracle import reference_beta_normalize, structure

SK = Calculus.SK
SF = Calculus.SF


def lambda_terms_st():
    leaves = st.integers(0, 3).map(Index)
    return st.recursive(
        leaves,
        lambda sub: st.builds(LApp, sub, sub) | sub.map(Lam),
        max_leaves=10,
    )


class TestParseRender:
    def test_backslash_and_lambda_char_both_bind(self):
        assert parse_lambda("\\0") == Lam(Index(0))
        assert parse_lambda("λ0") == Lam(Index(0))

    def test_body_extends_right(self):
        assert parse_lambda("\\0 0") == Lam(LApp(Index(0), Index(0)))
        assert parse_lambda("(\\0)(\\0)") == LApp(Lam(Index(0)), Lam(Index(0)))

    def test_application_left_associates(self):
        assert parse_lambda("\\\\\\ 2 1 0") == Lam(
            Lam(Lam(LApp(LApp(Index(2), Index(1)), Index(0))))
        )

    def test_multi_digit_indices(self):
        t = parse_lambda("\\" * 12 + "11")
        assert lam_closed(t)
        assert parse_lambda(render_lambda(t)) == t

    def test_errors(self):
        for bad in ("", ")", "(", "(\\0", "x", "\\"):
            with pytest.raises(LambdaParseError):
                parse_lambda(bad)

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0660", "\uff11"])
    def test_only_ascii_digits_are_indices(self, digit):
        # `str.isdigit` also admits superscripts and other scripts' digits.
        with pytest.raises(LambdaParseError) as info:
            parse_lambda(f"\\0 {digit}")
        assert str(info.value) == f"unexpected character {digit!r} (at position 3)"

    def test_results_and_errors_are_pinned(self):
        # Short strings over the λ-syntax alphabet, most of them malformed:
        # each result, or each error's class, message and position.
        rng = random.Random(2014)
        lines = []
        for _ in range(4000):
            text = "".join(rng.choice("λ\\0123 ()x") for _ in range(rng.randint(0, 12)))
            try:
                lines.append(f"{text!r} {render_lambda(parse_lambda(text))}")
            except ValueError as exc:
                lines.append(f"{text!r} {type(exc).__name__}: {exc}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "ccf9ac8f14ffaba3c32659115935138e8854a4b762dad2184d8674e5a84ff6b2"

    def test_deep_text_parses(self):
        # Parsing, the closedness check and translation use no recursion;
        # deep λ-terms are compared through their combinator images only.
        nested = parse_lambda("λ" + "0 (" * 5000 + "0" + ")" * 5000)
        assert lam_closed(nested) and not lam_closed(nested.body)
        flat = parse_lambda("λ" + " 0" * 5000)
        image = bracket_abstract(flat, SK)
        assert image.size == 3 * 4999 + 5 * 5000 and image.closed

    def test_deep_terms_render(self):
        # Rendering walks an explicit stack; str() of a term goes through it.
        t = parse_lambda("λ" + "0 (" * 2000 + "0" + ")" * 2000)
        text = "\\" + "0(" * 1999 + "0 0" + ")" * 1999
        assert render_lambda(t) == str(t) == text
        assert render_lambda(parse_lambda(text)) == text

    def test_open_terms_parse(self):
        assert parse_lambda("0") == Index(0)
        assert not lam_closed(Index(0))
        assert lam_closed(Lam(Index(0)))

    @given(lambda_terms_st())
    def test_roundtrip(self, t):
        assert parse_lambda(render_lambda(t)) == t
        assert structure(parse_lambda(render_lambda(t))) == structure(t)


class TestBeta:
    def test_identity_application(self):
        out = beta_normalize(parse_lambda("(\\0)(\\\\1)"))
        assert out.status is LambdaStatus.NORMAL
        assert out.term == parse_lambda("\\\\1")

    def test_church_addition(self):
        plus = parse_lambda("\\\\\\\\ 3 1 (2 1 0)")
        out = beta_normalize(LApp(LApp(plus, church_lambda(2)), church_lambda(3)))
        assert out.term == church_lambda(5)

    def test_church_multiplication(self):
        times = parse_lambda("\\\\\\ 2 (1 0)")
        out = beta_normalize(LApp(LApp(times, church_lambda(3)), church_lambda(4)))
        assert out.term == church_lambda(12)

    def test_budget_on_divergence(self):
        omega = parse_lambda("(\\0 0)(\\0 0)")
        out = beta_normalize(omega, budget=100)
        assert out.status is LambdaStatus.BUDGET

    def test_negative_budget_counts_as_zero(self):
        normal = parse_lambda("\\0")
        assert beta_normalize(normal, budget=-1) == (LambdaStatus.NORMAL, normal, 0)
        redex = parse_lambda("(\\0)(\\0)")
        assert beta_normalize(redex, budget=-1) == (LambdaStatus.BUDGET, redex, 0)

    def test_normal_order_avoids_discarded_divergence(self):
        t = parse_lambda("(\\\\1)(\\\\1)((\\0 0)(\\0 0))")
        out = beta_normalize(t, budget=1_000)
        assert out.status is LambdaStatus.NORMAL

    def test_church_numerals_are_normal(self):
        for n in range(6):
            c = church_lambda(n)
            out = beta_normalize(c)
            assert out.term == c and out.steps_taken == 0

    def test_church_numerals_encode_naturals_only(self):
        with pytest.raises(ValueError, match="Church numerals encode naturals only"):
            church_lambda(-1)


def random_closed_lambda(rng: random.Random, size: int, depth: int = 0):
    """A closed λ-term of exactly `size` nodes (size >= 2), whose indices
    point at binders in scope."""
    if size == 1:
        return Index(rng.randrange(depth))
    least = 1 if depth else 2  # a closed part needs a binder
    if size >= 2 * least + 1 and rng.random() < 0.6:
        left = rng.randint(least, size - 1 - least)
        return LApp(random_closed_lambda(rng, left, depth),
                    random_closed_lambda(rng, size - 1 - left, depth))
    return Lam(random_closed_lambda(rng, size - 1, depth + 1))


class TestBetaAgainstOracle:
    """`beta_normalize` walks explicit stacks; tests/lambda_oracle.py is
    the recursive normalizer it replaced.  Both must agree on status,
    result text and step count at every budget, budget stops included."""

    BUDGETS = (0, 1, 2, 5, 50, 10_000)

    def assert_agrees(self, t):
        for budget in self.BUDGETS:
            got, want = beta_normalize(t, budget), reference_beta_normalize(t, budget)
            assert (got.status, render_lambda(got.term), got.steps_taken) == (
                want.status, render_lambda(want.term), want.steps_taken), (t, budget)

    def test_every_small_closed_term(self):
        terms = enumerate_closed_lambda(7)
        assert len(terms) == 201
        for t in terms:
            self.assert_agrees(t)

    def test_seeded_random_closed_terms(self):
        rng = random.Random(2014)
        terms = [random_closed_lambda(rng, rng.randint(4, 12)) for _ in range(200)]
        assert all(lam_closed(t) for t in terms)
        for t in terms:
            self.assert_agrees(t)
        # The sample reaches budget stops, not only normal forms.
        assert any(reference_beta_normalize(t, 50).status is LambdaStatus.BUDGET
                   for t in terms)

    def test_deep_normal_form_needs_no_step(self):
        t = parse_lambda("λ" + "0 (" * 2000 + "0" + ")" * 2000)
        out = beta_normalize(t)
        assert out.status is LambdaStatus.NORMAL and out.steps_taken == 0
        assert out.term == t

    def test_deep_redex_reduces(self):
        # A redex 2,000 binders down: found, contracted and rebuilt.
        t = parse_lambda("λ" * 2000 + "(λ0) 0")
        out = beta_normalize(t)
        assert (out.status, out.steps_taken) == (LambdaStatus.NORMAL, 1)
        assert render_lambda(out.term) == "\\" * 2000 + "0"


class TestBracketAbstraction:
    def test_identity_pin(self):
        assert bracket_abstract(parse_lambda("λ0"), SK) == parse("SKK", SK)
        assert bracket_abstract(parse_lambda("λ0"), SF) == parse("S(FF)(FF)", SF)

    def test_atoms(self):
        assert k_term(SK) == K
        assert k_term(SF) == parse("FF", SF)
        assert i_term(SK) == parse("SKK", SK)

    def test_translation_is_closed_and_calculus_legal(self):
        for t in enumerate_closed_lambda(5):
            for calc in (SK, SF):
                image = bracket_abstract(t, calc)
                assert image.closed
                assert image.ops | calc.op_mask == calc.op_mask

    def test_translated_identity_behaves(self):
        image = bracket_abstract(parse_lambda("\\0"), SK)
        probe = parse("S(KK)", SK)
        out = normalize(App(image, probe), SK)
        assert out.term == probe

    def test_translated_k_behaves(self):
        image = bracket_abstract(parse_lambda("\\\\1"), SK)
        out = normalize(app(image, Var("x"), Var("y")), SK)
        assert out.term == Var("x")

    def test_church_numeral_translation_iterates(self):
        image = bracket_abstract(church_lambda(3), SK)
        out = normalize(app(image, Var("f"), Var("x")), SK)
        assert out.term == parse("f(f(f x))", SK)

    def test_translation_matches_catalog_church(self):
        for calc in (SK, SF):
            for n in range(4):
                image = bracket_abstract(church_lambda(n), calc)
                got = normalize(app(image, Var("f"), Var("x")), calc).term
                want = normalize(app(church(n, calc), Var("f"), Var("x")), calc).term
                assert got == want

    def test_open_lambda_terms_are_rejected(self):
        with pytest.raises(ValueError):
            bracket_abstract(Index(0), SK)

    def test_binder_towers_stop_at_the_node_cap(self):
        # The SK image of λ^n 0 has 5 * 3^(n-1) nodes.
        assert MAX_ABSTRACTION_NODES == 100_000
        assert bracket_abstract(parse_lambda("λ" * 9 + "0"), SK).size == 5 * 3**8
        for calc in (SK, SF):
            with pytest.raises(ValueError, match="would pass 100,000 nodes"):
                bracket_abstract(parse_lambda("λ" * 12 + "0"), calc)


def lam_size(t):
    """Nodes of a lambda-term: indices, binders and applications."""
    if isinstance(t, Index):
        return 1
    if isinstance(t, Lam):
        return 1 + lam_size(t.body)
    return 1 + lam_size(t.fun) + lam_size(t.arg)


class TestCorpus:
    def test_enumeration_is_deterministic_and_sized(self):
        corpus = enumerate_closed_lambda(5)
        assert corpus == enumerate_closed_lambda(5)
        assert all(lam_closed(t) and lam_size(t) <= 5 for t in corpus)
        assert parse_lambda("\\0") in corpus
        assert len(corpus) == 20

    def test_translations_agree_with_beta_on_a_sample(self):
        probes = [parse("S", SK), parse("K", SK), parse("SK", SK)]
        for t in enumerate_closed_lambda(4):
            bnf = beta_normalize(t, budget=1_000)
            if bnf.status is not LambdaStatus.NORMAL:
                continue
            a = bracket_abstract(t, SK)
            b = bracket_abstract(bnf.term, SK)
            assert extensionally_agree(a, b, SK, probes, budget=10_000)
