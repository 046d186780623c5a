"""The acceptance checklist: one test per shipped guarantee.

Each test name carries a criterion tag; the conftest terminal summary
prints one PASS/FAIL line per tag after every run.  Runtime ceilings are
asserted inside the tests so a regression that merely slows a guarantee
down still turns the checklist red.

Criterion 7 is expected to fail and is marked strict-xfail: the honest
recursive program for numeral codes counts to its output one successor
at a time, and the smallest output is already about 2.1e61 (digit counts
for n = 0..8 run 62, 245, 489, 977, 1954, 3907, 7812, 15624, 31247), so
no feasible evaluation budget can produce even the first value.  The
checklist reports it as XFAIL with this reason rather than silently
weakening the check.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import pytest

from sfcalc.lambda_bridge import (
    LambdaStatus,
    beta_normalize,
    bracket_abstract,
    enumerate_closed_lambda,
    parse_lambda,
)
from sfcalc.models import (
    build_probe_corpus,
    enumerate_closed_terms,
    enumerate_normal_forms,
    eval_rec,
    gnum,
)
from sfcalc.reduction import Status, Strategy, extensionally_agree, normalize
from sfcalc.stdlib import church
from sfcalc.syntax import from_polish, parse, render, to_polish
from sfcalc.terms import Calculus, Term, app
from sfcalc.turing import EQUALITY_MACHINE, equality_step_bound, run_machine
from sfcalc.witnesses import (
    build_simulation_cases,
    church_code_oracle,
    church_code_recfn,
)

SK = Calculus.SK
SF = Calculus.SF


class _Stopwatch:
    def __init__(self, limit_seconds: float):
        self.limit = limit_seconds
        self.start = time.monotonic()

    def check(self) -> None:
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, (
            f"runtime {elapsed:.1f}s exceeds the {self.limit:.0f}s ceiling"
        )


def _nf(source: str, calc: Calculus):
    return normalize(parse(source, calc), calc).term


def test_criterion_01_rule_conformance():
    clock = _Stopwatch(1.0)
    # atom case: the factoriser applied to an atom keeps the middle term
    assert _nf("FSMN", SF) == parse("M", SF)
    # compound case: the factoriser hands both components to the third term
    assert _nf("F(SS)MN", SF) == parse("NSS", SF)
    # FF plays the traditional role of K
    assert _nf("FFAB", SF) == parse("A", SF)
    # the shared S rule (spaces keep x, y, z distinct variables)
    assert _nf("S x y z", SK) == parse("x z(y z)", SK)
    assert _nf("S x y z", SF) == parse("x z(y z)", SF)
    clock.check()


def test_criterion_02_polish_codec_roundtrip():
    clock = _Stopwatch(10.0)
    assert to_polish(parse("S(KK)", SK)) == "ASAKK"
    for calc in (SK, SF):
        terms = enumerate_closed_terms(calc, 8)
        assert len(terms) == 102
        for t in terms:
            word = to_polish(t)
            assert from_polish(word, calc) == t
    clock.check()


def test_criterion_03_equality_program_matches_host_equality(
    sf_catalog, sf_normal_forms_6
):
    clock = _Stopwatch(600.0)
    eq = sf_catalog["eq"].body
    true = sf_catalog["true"].body
    false = sf_catalog["false"].body
    assert len(sf_normal_forms_6) == 22  # 484 ordered pairs
    for a in sf_normal_forms_6:
        for b in sf_normal_forms_6:
            outcome = normalize(app(eq, a, b), SF, budget=10**6)
            assert outcome.status is Status.NORMAL, (render(a), render(b))
            expected = true if a == b else false
            assert outcome.term == expected, (render(a), render(b))
    clock.check()


def test_criterion_04_identity_pair_agrees_yet_eq_separates(sf_catalog):
    left_sk = parse("SKK", SK)
    right_sk = parse("SKS", SK)
    probes = build_probe_corpus(SK)
    assert extensionally_agree(left_sk, right_sk, SK, probes, budget=100_000)

    eq = sf_catalog["eq"].body
    left_sf = parse("S(FF)(FF)", SF)
    right_sf = parse("S(FF)S", SF)
    verdict = normalize(app(eq, left_sf, right_sf), SF, budget=10**6)
    assert verdict.status is Status.NORMAL
    assert verdict.term == sf_catalog["false"].body


class _Classes(NamedTuple):
    """SK normal forms grouped by their outcomes on the probe corpus,
    each form's SF translation, and the seconds the grouping took."""

    classes: list[list[Term]]
    in_sf: dict[Term, Term]
    seconds: float


@pytest.fixture(scope="module")
def probe_classes() -> _Classes:
    # Every SK normal form of up to 9 nodes, fingerprinted by its
    # outcomes on the probe corpus (a budget stop's term is not part of
    # the outcome, as in extensionally_agree).  Forms that share a
    # fingerprint agree on every probe.  About 0.6 s.
    start = time.monotonic()
    probes = build_probe_corpus(SK)
    classes: dict[tuple, list] = {}
    for form in enumerate_normal_forms(SK, 9):
        outcomes = []
        for probe in probes:
            out = normalize(app(form, probe), SK, budget=2_000)
            outcomes.append((out.status, None if out.status is Status.BUDGET else out.term))
        classes.setdefault(tuple(outcomes), []).append(form)
    in_sf = {f: parse(render(f).replace("K", "(FF)"), SF) for forms in classes.values() for f in forms}
    return _Classes(list(classes.values()), in_sf, time.monotonic() - start)


def test_criterion_04b_eq_separates_every_pair_the_probes_cannot(sf_catalog, probe_classes):
    # eq on the SF translations (K as FF) of forms that agree on every
    # probe tells each pair apart: 470k eq steps, 214k of them in the
    # self-checks.  The ceiling counts the fingerprints too.
    clock = _Stopwatch(5.0)
    clock.start -= probe_classes.seconds
    classes, in_sf = probe_classes.classes, probe_classes.in_sf
    eq = sf_catalog["eq"].body
    true, false = sf_catalog["true"].body, sf_catalog["false"].body

    def verdict(a, b):
        outcome = normalize(app(eq, in_sf[a], in_sf[b]), SF, budget=10**6)
        assert outcome.status is Status.NORMAL, (render(a), render(b))
        return outcome.term

    pairs = 0
    for forms in classes:
        for a in forms:
            assert verdict(a, a) == true, render(a)
            for b in forms:
                if a is not b:
                    pairs += 1
                    assert verdict(a, b) == false, (render(a), render(b))
    assert pairs == 360
    clock.check()


def test_criterion_05_simulation_law_church_arithmetic():
    clock = _Stopwatch(60.0)
    cases = build_simulation_cases()
    expected = {
        f"{op}-{calc}"
        for op in ("succ", "plus", "times", "iszero", "pred")
        for calc in ("sk", "sf")
    }
    assert set(cases) == expected
    for name, case in cases.items():
        report = case.run()
        assert len(report.violations) == 0, f"{name}:\n{report.render()}"
        assert len(report.skipped) == 0, f"{name}:\n{report.render()}"
        assert report.ok
    clock.check()


def test_criterion_06_godelize_yields_numeral_of_code(sf_catalog):
    godelize = sf_catalog["godelize"].body
    for m in enumerate_normal_forms(SF, 3):
        outcome = normalize(app(godelize, m), SF, budget=10**7)
        assert outcome.status is Status.NORMAL, render(m)
        assert outcome.term == church(gnum(m), SF), render(m)


def test_criterion_06b_godelize_stretch_tier(sf_catalog):
    # Sizes are node counts and every term has an odd one, so "size 4"
    # names an empty tier; the next real tier, size 5, runs instead.
    godelize = sf_catalog["godelize"].body
    for m in enumerate_normal_forms(SF, 5):
        outcome = normalize(app(godelize, m), SF, budget=10**7)
        assert outcome.status is Status.NORMAL, render(m)
        assert outcome.term == church(gnum(m), SF), render(m)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the numeral-code function is honest but astronomically slow: its "
        "output for n = 0 is already ~2.1e61, and evaluation reaches a value "
        "by counting successor applications one at a time, so the budget is "
        "exhausted long before the first code appears (digit counts for "
        "n = 0..8: 62, 245, 489, 977, 1954, 3907, 7812, 15624, 31247)"
    ),
)
def test_criterion_07_recursive_numeral_codes_match_oracle():
    program = church_code_recfn()
    for n in range(9):
        outcome = eval_rec(program, [n], budget=10_000_000)
        assert outcome.status == "ok", f"budget exhausted at n={n}"
        assert outcome.value == church_code_oracle(n)


def test_criterion_08_equality_machine_on_polish_pairs(sf_normal_forms_6):
    clock = _Stopwatch(60.0)
    words = [to_polish(t) for t in sf_normal_forms_6]
    for w1 in words:
        for w2 in words:
            tape = f"{w1}#{w2}"
            run = run_machine(EQUALITY_MACHINE, tape, budget=10**6)
            expected = "accept" if w1 == w2 else "reject"
            assert run.status == expected, tape
            assert run.steps <= equality_step_bound(len(tape)), tape
    clock.check()


def test_criterion_08b_equality_machine_on_pairs_the_probes_cannot_separate(probe_classes):
    # The Polish words of criterion 04b's forms: the machine rejects each
    # of the 360 probe-agreeing pairs and accepts each form against itself,
    # within its step bound.
    clock = _Stopwatch(5.0)
    words = {f: to_polish(t) for f, t in probe_classes.in_sf.items()}
    pairs = 0
    for forms in probe_classes.classes:
        for a in forms:
            for b in forms:
                tape = f"{words[a]}#{words[b]}"
                run = run_machine(EQUALITY_MACHINE, tape, budget=10**6)
                assert run.status == ("accept" if a is b else "reject"), tape
                assert run.steps <= equality_step_bound(len(tape)), tape
                pairs += a is not b
    assert pairs == 360
    clock.check()


def test_criterion_09_strategies_agree_where_both_terminate(sf_closed_6):
    for t in sf_closed_6:
        by_normal = normalize(t, SF, Strategy.NORMAL, budget=10_000)
        by_applicative = normalize(t, SF, Strategy.APPLICATIVE, budget=10_000)
        if (
            by_normal.status is Status.NORMAL
            and by_applicative.status is Status.NORMAL
        ):
            assert by_normal.term == by_applicative.term, render(t)


def test_strategy_agreement_sweep_beyond_stated_domain():
    # Strengthening sweep: at size <= 9 real redexes appear (550 closed
    # SF terms, 448 of size 9); both strategies still terminate and agree
    # on every one of them.
    terms = enumerate_closed_terms(SF, 9)
    assert len(terms) == 550
    for t in terms:
        by_normal = normalize(t, SF, Strategy.NORMAL, budget=10_000)
        by_applicative = normalize(t, SF, Strategy.APPLICATIVE, budget=10_000)
        assert by_normal.status is Status.NORMAL, render(t)
        assert by_applicative.status is Status.NORMAL, render(t)
        assert by_normal.term == by_applicative.term, render(t)


def test_criterion_10_lambda_bridge_adequacy():
    assert bracket_abstract(parse_lambda("λ0"), SK) == parse("SKK", SK)
    probes = build_probe_corpus(SK)
    for lterm in enumerate_closed_lambda(5):
        direct = bracket_abstract(lterm, SK)
        reduced = beta_normalize(lterm)
        assert reduced.status is LambdaStatus.NORMAL
        via_beta = bracket_abstract(reduced.term, SK)
        assert extensionally_agree(direct, via_beta, SK, probes, budget=100_000)
