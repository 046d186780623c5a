"""Rewrite rules, strategies, tracing, budgets, and both engines against
the reference steppers."""

from __future__ import annotations

import random
import re
import sys
import tracemalloc

import pytest

from sfcalc import reduction
from sfcalc.cli import load_default_prelude
from sfcalc.lambda_bridge import LambdaStatus, beta_normalize, bracket_abstract, parse_lambda
from sfcalc.models import enumerate_closed_terms, enumerate_normal_forms, random_closed_term
from sfcalc.reduction import (
    DEFAULT_BUDGET,
    RULE_F_ATOM,
    RULE_F_COMPOUND,
    RULE_K,
    RULE_S,
    Status,
    Strategy,
    extensionally_agree,
    normalize,
    render_trace,
)
from sfcalc.syntax import parse, render
from sfcalc.terms import App, Atom, Calculus, F, K, S, Var, app, substitute

from normal_order_oracle import reference_applicative, reference_normalize, replace_at

SK = Calculus.SK
SF = Calculus.SF
REFERENCES = {Strategy.NORMAL: reference_normalize, Strategy.APPLICATIVE: reference_applicative}


def nf(text, calc, **kw):
    out = normalize(parse(text, calc), calc, **kw)
    assert out.status is Status.NORMAL, out
    return render(out.term)


BUDGETS = (0, 3, 40, 300)
CALCS = pytest.mark.parametrize("calc", [SK, SF], ids=["sk", "sf"])


def random_open_term(calc, size, rng):
    """A random term of exactly `size` nodes (odd) over calc's operators
    and the variables x, y."""
    if size == 1:
        return rng.choice([Atom(o) for o in sorted(calc.operators)] + [Var("x"), Var("y")])
    left = rng.randrange(1, size - 1, 2)
    return App(random_open_term(calc, left, rng), random_open_term(calc, size - 1 - left, rng))


def key(t):
    """Terms compared by hash and size: `==` walks the tree, too slow here."""
    return t.h, t.size


def outcome_key(o):
    return o.status, o.steps_taken, o.reason, key(o.term)


def step_key(s):
    return s.path, s.rule, key(s.redex), key(s.contractum)


def replay(t, steps):
    """t and the whole term after each step: the term before it with the
    step's contractum put in at the step's path."""
    terms = [t]
    for s in steps:
        terms.append(replace_at(terms[-1], s.path, s.contractum))
    return terms


def first_step(t, calc, strategy=Strategy.NORMAL):
    """The one step a budget-1 trace takes, or None on a normal form."""
    steps = normalize(t, calc, strategy, budget=1, trace=True).steps
    return steps[0] if steps else None


def assert_matches_oracle(t, calc, budgets=BUDGETS, strategy=Strategy.NORMAL):
    """The engine agrees with the reference stepper at every budget, on
    the outcome and on every traced step."""
    reference = REFERENCES[strategy]
    for budget in budgets:
        want = reference(t, budget)
        plain = normalize(t, calc, strategy, budget=budget)
        traced = normalize(t, calc, strategy, budget=budget, trace=True)
        assert outcome_key(plain) == outcome_key(want), (t, budget)
        assert outcome_key(traced) == outcome_key(want), (t, budget)
        assert plain.steps == ()
        assert list(map(step_key, traced.steps)) == list(map(step_key, want.steps)), (t, budget)


class TestRules:
    def test_s_rule(self):
        out = normalize(parse("S x y z", SF), SF)
        assert out.term == parse("x z (y z)", SF)

    def test_k_rule(self):
        out = normalize(parse("K x y", SK), SK)
        assert out.term == Var("x")

    def test_f_atom_rule_discards_on_atoms(self):
        assert normalize(parse("FSMN", SF), SF).term == Var("M")
        assert normalize(parse("FFMN", SF), SF).term == Var("M")

    def test_f_compound_rule_factorises(self):
        out = normalize(parse("F(SS)MN", SF), SF, trace=True)
        assert out.steps[0].rule == RULE_F_COMPOUND
        assert out.term == parse("NSS", SF)
        out2 = normalize(parse("F(S(SS))MN", SF), SF, trace=True)
        assert out2.term == parse("N S (SS)", SF)

    def test_ff_behaves_as_k(self):
        assert normalize(parse("FF x y", SF), SF).term == Var("x")

    def test_rule_names(self):
        assert RULE_S == "S-rule"
        assert RULE_K == "K-rule"
        assert RULE_F_ATOM == "F-atom-rule"
        assert RULE_F_COMPOUND == "F-compound-rule"

    def test_fire_fires_defers_or_refuses(self):
        fire = reduction._fire
        assert fire(parse("SKKS", SK)) == (RULE_S, parse("KS(KS)", SK))
        assert fire(parse("F S M N", SF)) == (RULE_F_ATOM, Var("M"))
        # The first argument may still reduce at its head: F must wait.
        assert fire(app(F, parse("KSS", SK), Var("M"), Var("N"))) == ()
        assert fire(parse("F (F x M N) a b", SF)) == ()
        # A variable-headed first argument blocks F for good.
        assert fire(parse("F x M N", SF)) is None
        # So is anything that is not a fully applied operator.
        assert fire(parse("S K K", SK)) is None

    def test_compound_components_need_not_be_normal(self):
        # First argument of F is a compound whose right component holds a
        # redex; the factorisation still fires at the head first.
        t = app(F, parse("S(S S S S)", SF), Var("M"), Var("N"))
        out = normalize(t, SF, trace=True)
        assert out.steps[0].rule == RULE_F_COMPOUND
        assert out.term == parse("N S (SS(SS))", SF)


class TestStepOnce:
    def test_none_on_normal_forms(self):
        assert first_step(parse("S(KK)", SK), SK) is None
        assert first_step(S, SF) is None

    def test_normal_order_is_leftmost_outermost(self):
        t = parse("K S (K K S)", SK)
        step = first_step(t, SK)
        assert step.rule == RULE_K and step.path == ""
        assert step.redex == t and step.contractum == S

    def test_applicative_order_reduces_arguments_first(self):
        t = parse("K S (K K S)", SK)
        step = first_step(t, SK, Strategy.APPLICATIVE)
        assert step.path == "R"
        assert step.redex == parse("K K S", SK) and step.contractum == K

    def test_normal_order_enters_unfactorable_f_argument(self):
        t = app(F, parse("SSSS", SF), Var("M"), Var("N"))
        step = first_step(t, SF)
        assert step.rule == RULE_S and step.path == "LLR"
        assert step.redex == parse("SSSS", SF)


class TestNormalize:
    def test_statuses_budget(self):
        omega = parse("S(SKK)(SKK)(S(SKK)(SKK))", SK)  # reduces forever
        out = normalize(omega, SK, budget=50)
        assert out.status is Status.BUDGET
        assert out.steps_taken == 50

    def test_stuck_open_f(self):
        out = normalize(parse("F x M N", SF), SF)
        assert out.status is Status.STUCK
        assert out.reason == "varheaded-f"

    def test_closed_terms_never_go_stuck(self, sf_closed_6):
        for t in sf_closed_6:
            out = normalize(t, SF, budget=10_000)
            assert out.status is not Status.STUCK

    def test_strategy_divergence_on_discarded_argument(self):
        t = parse("K a (S(SKK)(SKK)(S(SKK)(SKK)))", SK)
        lazy = normalize(t, SK, Strategy.NORMAL, budget=1_000)
        eager = normalize(t, SK, Strategy.APPLICATIVE, budget=1_000)
        assert lazy.status is Status.NORMAL and lazy.term == Var("a")
        assert eager.status is Status.BUDGET

    def test_default_budget(self):
        assert DEFAULT_BUDGET == 100_000

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_negative_budget_counts_as_zero(self, strategy):
        out = normalize(parse("SKKS", SK), SK, strategy, budget=-1)
        assert (out.status, out.steps_taken, out.term) == (Status.BUDGET, 0, parse("SKKS", SK))
        out = normalize(S, SK, strategy, budget=-1)
        assert (out.status, out.steps_taken, out.term) == (Status.NORMAL, 0, S)


class TestMachineAgainstOracle:
    strategy = Strategy.NORMAL

    def check(self, t, calc, budgets=BUDGETS):
        assert_matches_oracle(t, calc, budgets, self.strategy)

    def test_examples(self):
        for text in ("SKSK", "S(KK)(KK)S", "K(KK)(SKK)", "SSSSSS"):
            self.check(parse(text, SK), SK)
        for text in ("F(SSSS)MN", "F x M N", "S(FF)(FF)(F(SS)x)", "F(F(Fy)ab)MN"):
            self.check(parse(text, SF), SF)
        # A deferred F whose first argument stabilizes unfactorable: a
        # blocked F spine, or (the third) a variable.
        for text in (
            "F(F x M N) a b",
            "F(F(F x M N) a b) c d",
            "F(S(FF)(FF)x) M N",
            "S(FF)(FF)(F(F(F x M N)(S S S S) b) c (SSSS))",
        ):
            self.check(parse(text, SF), SF)

    def test_budget_stops(self):
        # Divergent terms, stopped at the root, inside argument frames,
        # inside a deferred F's first argument and inside the arguments of
        # a blocked F spine.
        w_sk, w_sf = "S(SKK)(SKK)", "S(S(FF)(FF))(S(FF)(FF))"  # λx. x x
        for text, calc in (
            (f"{w_sk}({w_sk})", SK),
            (f"{w_sk}(S(SS)(SS))", SK),
            (f"{w_sk}(SSS(SS))", SK),
            (f"x (S ({w_sk}({w_sk})))", SK),
            (f"{w_sf}({w_sf})", SF),
            (f"F ({w_sf}({w_sf})) M N", SF),
            (f"S S (F ({w_sf}({w_sf})) M N) x y", SF),
            (f"F (F x M ({w_sf}({w_sf}))) a b", SF),
        ):
            t = parse(text, calc)
            assert normalize(t, calc, self.strategy, budget=300).status is Status.BUDGET, text
            self.check(t, calc, budgets=(*range(41), 300))
        # Stops with many spine arguments past the redex: the word of 41 Ks
        # (20 steps), and a deferred F whose spine carries two more.
        for text, calc in (("K" * 41, SK), ("F (S(FF)(FF)(SS)) M N a b", SF)):
            self.check(parse(text, calc), calc, budgets=range(41))

    @CALCS
    def test_closed_terms_up_to_9_nodes(self, calc):
        terms = enumerate_closed_terms(calc, 9)
        assert len(terms) == 550
        for t in terms:
            self.check(t, calc)

    @CALCS
    def test_random_closed_terms(self, calc):
        rng = random.Random(11)
        for i in range(300):
            self.check(random_closed_term(calc, 11 + 2 * (i % 4), rng), calc)

    @CALCS
    def test_random_open_terms(self, calc):
        rng = random.Random(5)
        stuck = 0
        for i in range(1000):
            t = random_open_term(calc, 5 + 2 * (i % 8), rng)
            self.check(t, calc)
            stuck += normalize(t, calc, self.strategy, budget=300).status is Status.STUCK
        assert (stuck > 0) == (calc is SF)  # only F terms can go stuck


class TestApplicativeAgainstOracle(TestMachineAgainstOracle):
    """The same cases for the refocusing walk against the rescanning
    applicative stepper, plus the Church arithmetic of the CLI."""

    strategy = Strategy.APPLICATIVE

    @CALCS
    def test_church_arithmetic(self, calc):
        names = load_default_prelude(calc)
        for op in ("plus", "times"):
            for x in range(4):
                for y in range(4):
                    self.check(substitute(parse(f"{op} c{x} c{y}", calc), names), calc)


def reduction_line_events(fn, *args):
    """fn(*args) and the number of line events that `sys.settrace` sees
    in sfcalc/reduction.py during the call."""
    events = 0

    def local(frame, event, arg):
        nonlocal events
        if event == "line":
            events += 1
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename == reduction.__file__ else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return result, events


class TestApplicativeWork:
    @CALCS
    def test_fire_checks_are_bounded_by_size_plus_three_per_step(self, calc):
        # Each node of the input is checked once, and each step adds at
        # most the three nodes an S-rule builds: about 10 lines of
        # reduction.py run per unit of size + 3 x steps.  A walk that
        # rescans from the root after every step costs about steps times
        # more.
        names = load_default_prelude(calc)
        for op in ("plus", "times"):
            for x in range(2, 6):
                for y in range(2, 6):
                    t = substitute(parse(f"{op} c{x} c{y}", calc), names)
                    out, events = reduction_line_events(normalize, t, calc, Strategy.APPLICATIVE)
                    assert out.status is Status.NORMAL and out.steps_taken > 50
                    work = t.size + 3 * out.steps_taken
                    assert events <= 16 * work, (op, x, y, events, work)


def assert_memo_is_step_exact(t, calc, top):
    """Untraced runs, which reuse shared arguments' normal forms, match
    the memo-free traced run at budgets 0-59 and every 29th up to top."""
    ref = normalize(t, calc, budget=top, trace=True)
    terms = replay(t, ref.steps)
    for budget in (*range(min(60, top + 1)), *range(60, top + 1, 29)):
        if budget < ref.steps_taken or ref.status is Status.BUDGET:
            want = (Status.BUDGET, budget, None, key(terms[budget]))
        else:
            want = outcome_key(ref)
        assert outcome_key(normalize(t, calc, budget=budget)) == want, (render(t), budget)


class TestCallByNeed:
    def test_self_application_budget_stops(self):
        # S x y z ~> x z (y z) copies z before it is normal, so these runs
        # meet the same argument object again and again.
        lterm = parse_lambda("λ0 0")
        reduced = beta_normalize(lterm)
        assert reduced.status is LambdaStatus.NORMAL
        translations = {bracket_abstract(lterm, SK), bracket_abstract(reduced.term, SK)}
        for w in translations:  # the two translations coincide for λ0 0
            for probe in ("S(SS)(SS)", "SSS(SS)"):
                assert_memo_is_step_exact(App(w, parse(probe, SK)), SK, top=1510)

    def test_deferred_f_argument_is_not_reused_as_normal(self):
        # SS z (F z) ~> S (F z) (z (F z)): the "f" frame that stabilizes
        # z's head sees the same object that an argument frame later
        # normalizes in full.
        t = parse("S(SS)F(SS(SF(SS))(SS))", SF)
        assert normalize(t, SF).steps_taken == 19
        assert_memo_is_step_exact(t, SF, top=40)

    def test_a_reused_argument_is_charged_its_own_steps(self):
        # v's frame spends a step on KSS before it records z, one object
        # sitting twice; reusing z charges z's one step, not the frame's two.
        z = app(K, K, K)
        t = app(Var("v"), app(K, S, S), z, z)
        assert normalize(t, SK).steps_taken == 3
        assert_memo_is_step_exact(t, SK, top=5)


class TestSpineArguments:
    def test_godelize_builds_at_most_three_apps_a_step(self, sf_terms, monkeypatch):
        # A step puts the contractum in the redex's place and leaves the
        # spine's other arguments as they are.  A machine that re-wrapped
        # them after every step would build about 9 Apps a step here.
        terms = [App(sf_terms["godelize"], m) for m in enumerate_normal_forms(SF, 3)]
        built = 0
        init = App.__init__

        def counting_init(node, fun, arg):
            nonlocal built
            built += 1
            init(node, fun, arg)

        monkeypatch.setattr(App, "__init__", counting_init)
        steps = sum(normalize(t, SF, budget=10**7).steps_taken for t in terms)
        monkeypatch.undo()
        assert steps == 4606
        assert built <= 3 * steps, built / steps


class TestTrace:
    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_replaying_contracta_rebuilds_every_term(self, strategy):
        # Putting each traced contractum in at its path, from the input,
        # gives the term of every budget stop along the way, then the
        # final term: normal, or a budget stop for the divergent ones.
        w_sk, w_sf = "S(SKK)(SKK)", "S(S(FF)(FF))(S(FF)(FF))"  # λx. x x
        for text, calc in (
            ("S(KK)(KS)S", SK),
            ("K(KSS)(KSS)", SK),
            (f"K a ({w_sk}({w_sk}))", SK),
            ("F(F(F x M N) a b) c d", SF),
            ("S(FF)(FF)(F(F(F x M N)(S S S S) b) c (SSSS))", SF),
            (f"S S (F ({w_sf}({w_sf})) M N) x y", SF),
            ("K" * 41, SK),
            ("F (S(FF)(FF)(SS)) M N a b", SF),
        ):
            t = parse(text, calc)
            traced = normalize(t, calc, strategy, budget=60, trace=True)
            terms = replay(t, traced.steps)
            assert len(terms) == traced.steps_taken + 1
            assert key(terms[-1]) == key(traced.term), text
            for budget in range(traced.steps_taken):
                stop = normalize(t, calc, strategy, budget=budget)
                assert stop.status is Status.BUDGET
                assert key(stop.term) == key(terms[budget]), (text, budget)

    def test_render_trace_format(self):
        out = normalize(parse("SKKS", SK), SK, trace=True)
        text = render_trace(out.steps)
        lines = text.splitlines()
        assert len(lines) == out.steps_taken
        pattern = re.compile(
            r"^\d+ (S-rule|K-rule|F-atom-rule|F-compound-rule) "
            r"@ ([LR]+|ε) : .+ => .+$"
        )
        for line in lines:
            assert pattern.match(line), line
        assert lines[0].startswith("1 S-rule @ ε : SKKS => KS(KS)")

    def test_traced_paths_cost_a_byte_a_letter(self):
        # 2,000 steps with paths of up to 666 letters, 650,757 in all.
        # With the terms, the trace holds about 6 MiB when a path letter
        # is a byte of text, and 10 MiB when it is a tuple slot.
        t = parse("S(SKK)(SKK)(S(SS)(SS))", SK)
        tracemalloc.start()
        try:
            out = normalize(t, SK, budget=2000, trace=True)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.steps_taken == 2000 and set("".join(s.path for s in out.steps)) == {"L", "R"}
        assert held < 8 * 2**20, held

    def test_trace_empty_on_normal_forms(self):
        out = normalize(parse("S(KK)", SK), SK, trace=True)
        assert out.steps == () and render_trace(out.steps) == ""


class TestExtensionalAgreement:
    def test_identity_pair_agrees(self, sk_terms):
        probes = [S, K, App(S, K), App(K, K)]
        assert extensionally_agree(app(S, K, K), app(S, K, S), SK, probes)

    def test_distinct_behaviour_detected(self):
        probes = [S, K]
        assert not extensionally_agree(App(K, S), App(K, K), SK, probes)

    def test_budget_mismatch_counts_as_disagreement(self):
        omega = parse("S(SKK)(SKK)(S(SKK)(SKK))", SK)
        assert not extensionally_agree(App(K, omega), App(K, K), SK, [K], budget=200)

    def test_two_budget_stops_agree_whatever_their_terms(self):
        # Both runs exhaust the budget, on different terms: that is agreement.
        omega = parse("S(SKK)(SKK)(S(SKK)(SKK))", SK)
        a, b = App(K, omega), App(K, App(omega, K))
        ra, rb = (normalize(App(x, K), SK, budget=200) for x in (a, b))
        assert ra.status is rb.status is Status.BUDGET and ra.term != rb.term
        assert extensionally_agree(a, b, SK, [K], budget=200)

    def test_stuck_outcomes_are_compared(self):
        left, right = parse("F x M", SF), parse("F x N", SF)
        assert normalize(App(left, S), SF).status is Status.STUCK
        assert not extensionally_agree(left, right, SF, [S])
        assert extensionally_agree(left, left, SF, [S])
