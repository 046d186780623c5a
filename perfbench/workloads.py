"""The four sfcalc benchmark workloads and their reference checks.

Each workload is a fixed set of requests.  The seed only chooses the
seeded inputs (sk-probe's random probes, model-checks' machine words)
and the order of each pass.  A request is timed alone; its outcome is
checked against an independent reference, reduced to a short record,
compared with the record pinned from the seed commit (`pins.json`),
and dropped, so the harness holds no terms across requests.

Requests call sfcalc through the module attribute (`reduction.normalize`),
never through a name imported here, so that the traced run, which
rebinds those attributes, sees them.  Reference checks use the names
imported below, and the tracer is suspended while they run.
"""

from __future__ import annotations

import hashlib
import io
import random
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

from sfcalc import cli, lambda_bridge, models, reduction, stdlib, syntax, turing, witnesses
from sfcalc.cli import load_default_prelude as _load_default_prelude
from sfcalc.models import gnum as _gnum
from sfcalc.reduction import Status
from sfcalc.reduction import normalize as _normalize
from sfcalc.stdlib import church as _church
from sfcalc.syntax import parse as _parse
from sfcalc.syntax import render as _render
from sfcalc.terms import App, Calculus, substitute
from sfcalc.turing import equality_step_bound

SF, SK = Calculus.SF, Calculus.SK

WORKLOADS = ("sf-quote", "sk-probe", "model-checks", "trace-steps")

# The highest percentile with at least ten requests of the set beyond it.
TAIL_PERCENTILE = {
    "sf-quote": 98.0,  # 506 requests a pass
    "sk-probe": 99.5,  # about 4,000 requests a pass
    "model-checks": 90.0,  # 100 requests a pass
    "trace-steps": 95.0,  # 212 requests a pass
}

SK_PROBE_BUDGET = 10_000
# Divergent probes in every sk-probe run, whatever the seed: the budget
# stops of the self-application on them cost more than their budget.
SK_FIXED_PROBES = ("S(SS)(SS)", "SSS(SS)")
# The other probes of build_probe_corpus's random sizes (7 and 9 nodes)
# on which some translation stops at the budget.  Left out when drawn,
# so that the seed does not change the budget-stop work: drawing
# S(SSK)S doubles a pass, and one budget stop on S(SSS)S takes about
# 38 s.  The fixed probes show the same super-linear cost in every run.
SK_EXCLUDED_PROBES = ("S(SSK)K", "S(SSK)S", "S(SSS)K", "S(SSS)S", "S(SS)SS")

MODEL_TM_WORDS = 62  # one `tm run` per word and pass
MODEL_TM_WORDS_SEED = 1410  # the words are fixed; the seed picks each pair


def digest(record: str) -> str:
    return hashlib.sha256(record.encode()).hexdigest()[:8]


def term_record(outcome) -> str:
    t = outcome.term
    return f"{outcome.status.value} {outcome.steps_taken} {t.h:x} {t.size}"


@dataclass
class Request:
    key: str  # names the inputs; the pin for the request is stored under it
    run: Callable[[], object]
    # check(outcome) -> (record for the pin, list of reference mismatches)
    check: Callable[[object], tuple[str, list[str]]]


@dataclass
class Workload:
    name: str
    seed: int
    requests: list[Request]
    pins: dict[str, str]
    # Called after each pass; returns mismatches found across requests.
    end_pass: Callable[[], list[str]] = lambda: []
    # Deterministic counts the workload reports besides its timings.
    counts: Callable[[], dict] = lambda: {}
    notes: dict = field(default_factory=dict)

    @property
    def tail_percentile(self) -> float:
        return TAIL_PERCENTILE[self.name]

    def order(self, pass_index: int) -> list[Request]:
        out = list(self.requests)
        random.Random(f"{self.seed}/{pass_index}").shuffle(out)
        return out

    def pin_of(self, key: str) -> str | None:
        if self.name == "sk-probe":
            # Grouped by probe: 8 hex digits per (lambda-term, translation).
            probe, _, slot = key.rpartition("#")
            group = self.pins.get(probe)
            if group is None:
                return None
            i = int(slot)
            return group[8 * i: 8 * i + 8] or None
        return self.pins.get(key)


# --- sf-quote ---------------------------------------------------------------------


def build_sf_quote(seed: int, smoke: bool, pins: dict) -> Workload:
    catalog = stdlib.build_catalog(SF)
    eq = catalog["eq"].body
    godelize = catalog["godelize"].body
    true, false = catalog["true"].body, catalog["false"].body
    forms = models.enumerate_normal_forms(SF, 3 if smoke else 5)
    words = [syntax.to_polish(m) for m in forms]
    eq_table: dict[str, tuple[int, int, int]] = {}

    def godelize_request(m, w: str) -> Request:
        def run():
            return reduction.normalize(App(godelize, m), SF)

        def check(out):
            problems = []
            if out.status is not Status.NORMAL:
                problems.append(f"godelize {w}: {out.status.value}")
            elif out.term != _church(_gnum(m), SF):
                problems.append(f"godelize {w}: not the numeral of its code")
            return term_record(out), problems

        return Request(f"godelize {w}", run, check)

    def eq_request(a, wa: str, b, wb: str) -> Request:
        tape = f"{wa}#{wb}"

        def run():
            out = reduction.normalize(App(App(eq, a), b), SF)
            return out, turing.run_machine(turing.EQUALITY_MACHINE, tape)

        def check(res):
            out, run_ = res
            problems = []
            equal = wa == wb
            if out.status is not Status.NORMAL:
                problems.append(f"eq {tape}: {out.status.value}")
            elif out.term != (true if equal else false):
                problems.append(f"eq {tape}: disagrees with host equality")
            if run_.status != ("accept" if equal else "reject"):
                problems.append(f"machine {tape}: {run_.status}")
            bound = equality_step_bound(len(tape))
            if run_.steps > bound:
                problems.append(f"machine {tape}: {run_.steps} steps > {bound}")
            eq_table[tape] = (len(wa) + len(wb), out.steps_taken, run_.steps)
            record = f"{term_record(out)} | {run_.status} {run_.steps} {run_.word}"
            return record, problems

        return Request(f"eq {tape}", run, check)

    requests = [godelize_request(m, w) for m, w in zip(forms, words)]
    requests += [
        eq_request(a, wa, b, wb)
        for a, wa in zip(forms, words)
        for b, wb in zip(forms, words)
    ]

    def counts() -> dict:
        """The eq cost table: eq and machine steps by combined Polish length."""
        by_n: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for n, eq_steps, tm_steps in eq_table.values():
            by_n[n].append((eq_steps, tm_steps))
        rows = []
        for n in sorted(by_n):
            eqs = [e for e, _ in by_n[n]]
            tms = [t for _, t in by_n[n]]
            rows.append({
                "n": n, "pairs": len(eqs),
                "eq_min": min(eqs), "eq_mean": round(sum(eqs) / len(eqs), 1),
                "eq_max": max(eqs),
                "tm_min": min(tms), "tm_mean": round(sum(tms) / len(tms), 1),
                "tm_max": max(tms), "bound": equality_step_bound(n + 1),
            })
        worst = max(
            (r["tm_max"] / r["bound"] for r in rows), default=0.0
        )
        return {"eq_cost_table": rows, "worst_tm_bound_ratio": round(worst, 4)}

    return Workload("sf-quote", seed, requests, pins, counts=counts)


# --- sk-probe ---------------------------------------------------------------------


def sk_probes(drawn: list) -> list:
    """The drawn probes without the excluded ones, plus the fixed probes."""
    probes = [p for p in drawn if _render(p) not in SK_EXCLUDED_PROBES]
    probes += [_parse(p, SK) for p in SK_FIXED_PROBES]
    return list(dict.fromkeys(probes))


def build_sk_probe(seed: int, smoke: bool, pins: dict, universe: bool = False) -> Workload:
    budget = 300 if smoke else SK_PROBE_BUDGET
    lterms = lambda_bridge.enumerate_closed_lambda(3 if smoke else 5)
    translations = []
    for lterm in lterms:
        reduced = lambda_bridge.beta_normalize(lterm)
        if reduced.status is not lambda_bridge.LambdaStatus.NORMAL:
            raise RuntimeError(f"{lambda_bridge.render_lambda(lterm)} has no normal form")
        translations.append((
            lambda_bridge.bracket_abstract(lterm, SK),
            lambda_bridge.bracket_abstract(reduced.term, SK),
        ))
    if universe:  # every probe any seed can draw
        probes = sk_probes(
            models.enumerate_normal_forms(SK, 5)
            + [t for t in models.enumerate_closed_terms(SK, 9) if t.size in (7, 9)]
        )
    elif smoke:
        probes = sk_probes(models.enumerate_normal_forms(SK, 3))
    else:
        probes = sk_probes(models.build_probe_corpus(SK, seed))
    # (lambda index, probe) -> (status, steps, hash, size) of the first
    # translation to finish, until the other one arrives.
    pending: dict[tuple[int, str], tuple] = {}

    def request(i: int, which: int, combinator, probe, pw: str) -> Request:
        def run():
            return reduction.normalize(App(combinator, probe), SK, budget=budget)

        def check(out):
            problems = []
            if out.status is Status.BUDGET and out.steps_taken != budget:
                problems.append(f"{pw}#{2 * i + which}: budget stop after {out.steps_taken}")
            t = out.term
            mine = (out.status, t.h, t.size) if out.status is Status.NORMAL else (out.status,)
            other = pending.pop((i, pw), None)
            if other is None:
                pending[(i, pw)] = mine
            elif other != mine:
                problems.append(
                    f"lambda {lambda_bridge.render_lambda(lterms[i])} on {pw}: "
                    "the two translations disagree"
                )
            return term_record(out), problems

        return Request(f"{pw}#{2 * i + which}", run, check)

    requests = []
    for p in probes:
        pw = syntax.to_polish(p)
        for i, pair in enumerate(translations):
            for which, combinator in enumerate(pair):
                requests.append(request(i, which, combinator, p, pw))

    def end_pass() -> list[str]:
        left = [f"{pw}#{2 * i}: partner translation never ran" for i, pw in pending]
        pending.clear()
        return left

    return Workload(
        "sk-probe", seed, requests, pins, end_pass=end_pass,
        notes={"probes": len(probes), "lambda_terms": len(lterms), "budget": budget},
    )


# --- CLI requests -------------------------------------------------------------------


def cli_request(argv: list[str], check: Callable[[int, str, str], list[str]]) -> Request:
    def run():
        out, err = io.StringIO(), io.StringIO()
        code = cli.main(argv, stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()

    def check_out(res):
        code, out, err = res
        record = f"{code} {hashlib.sha256(out.encode()).hexdigest()} " \
                 f"{hashlib.sha256(err.encode()).hexdigest()}"
        return record, [f"{' '.join(argv)}: {p}" for p in check(code, out, err)]

    return Request(" ".join(argv), run, check_out)


def _report_rows(out: str) -> list[tuple[str, str]]:
    """(input, verdict) of each row of a rendered check report."""
    lines = out.rstrip("\n").split("\n")
    return [(line.split()[0], line.split()[-1]) for line in lines[1:-1]]


def _check_report(verdict: str = "ok", exit_code: int = 0, rows: int | None = None):
    """Every row of the report has `verdict`, and the exit code is `exit_code`."""
    def check(code: int, out: str, err: str) -> list[str]:
        found = _report_rows(out)
        problems = []
        if not found or (rows is not None and len(found) != rows):
            problems.append(f"{len(found)} rows, expected {rows or 'some'}")
        off = [r for r in found if r[1] != verdict]
        if off:
            problems.append(f"rows not {verdict}: {off[:3]}")
        if code != exit_code:
            problems.append(f"exit {code}, expected {exit_code}")
        return problems

    return check


def _exit_zero(code: int, out: str, err: str) -> list[str]:
    return [] if code == 0 else [f"exit {code}: {err.strip()[:200]}"]


# --- model-checks ---------------------------------------------------------------------


def tm_pairs(smoke: bool) -> list[list[tuple[str, str]]]:
    """Per fixed word, its two machine inputs: the word with itself, and
    with a copy whose last letter differs (still a Polish word)."""
    rng = random.Random(MODEL_TM_WORDS_SEED)
    out = []
    for _ in range(6 if smoke else MODEL_TM_WORDS):
        size = rng.randrange(9, 15, 2) if smoke else rng.randrange(51, 73, 2)
        w = syntax.to_polish(models.random_closed_term(SF, size, rng))
        out.append([(w, w), (w, w[:-1] + ("S" if w[-1] == "F" else "F"))])
    return out


def build_model_checks(seed: int, smoke: bool, pins: dict, universe: bool = False) -> Workload:
    sys.set_int_max_str_digits(2_000_000)  # numeral codes; `sfcalc godel` does the same
    requests = []
    sims = list(witnesses.build_simulation_cases())
    weaks = list(witnesses.build_weak_equivalence_cases())
    if smoke:
        sims, weaks = sims[:2], [w for w in weaks if w != "church-code-rec"][:2]
    for name in sims:
        requests.append(cli_request(["check", "sim", name], _check_report()))
    for name in weaks:
        # church-code-rec exhausts every budget by design: 9 target-budget
        # rows and exit code 1 are its correct output.
        if name == "church-code-rec":
            check = _check_report("target-budget", exit_code=1, rows=9)
        else:
            check = _check_report()
        requests.append(cli_request(["check", "weakequiv", name], check))
    if not smoke:
        for demo in ("skk-sks", "sf-equality", "sf-recursive-equiv", "turing-equality"):
            requests.append(cli_request(["demo", demo], _exit_zero))
    for n in range(3 if smoke else 10):
        code = _gnum(_church(n, SF))

        def godel_check(c, out, err, code=code):
            return _exit_zero(c, out, err) + (
                [] if out.strip() == str(code) else ["not the code of the numeral"]
            )

        def decode_check(c, out, err, n=n):
            ok = c == 0 and _parse(out.strip(), SF) == _church(n, SF)
            return [] if ok else ["does not decode to the numeral"]

        requests.append(cli_request(["godel", f"c{n}"], godel_check))
        requests.append(cli_request(["godel", "--decode", str(code)], decode_check))

    # Equal and unequal pairs of one word cost about the same, so the seed
    # changes the inputs but hardly the work.
    rng = random.Random(seed)
    chosen = [p for both in tm_pairs(smoke) for p in (both if universe else [rng.choice(both)])]
    for w1, w2 in chosen:
        tape = f"{w1}#{w2}"

        def tm_check(c, out, err, tape=tape, equal=w1 == w2):
            fields = out.split()
            if c != 0 or len(fields) < 2:
                return [f"exit {c}: {err.strip()[:200]}"]
            problems = []
            if fields[0] != ("accept" if equal else "reject"):
                problems.append(f"machine says {fields[0]}")
            if int(fields[1]) > equality_step_bound(len(tape)):
                problems.append(f"{fields[1]} steps over the declared bound")
            return problems

        requests.append(cli_request(["tm", "run", "@equality", tape], tm_check))
    return Workload("model-checks", seed, requests, pins)


# --- trace-steps ----------------------------------------------------------------------


def _reference_normal_form(text: str, calc: Calculus, preludes: dict) -> tuple[str, int]:
    """Rendered normal form and step count from the untraced machine."""
    if calc not in preludes:
        preludes[calc] = _load_default_prelude(calc)
    term = substitute(_parse(text, calc), preludes[calc])
    out = _normalize(term, calc)
    if out.status is not Status.NORMAL:
        raise RuntimeError(f"reference for {text!r} did not finish")
    return _render(out.term), out.steps_taken


def _trace_check(text: str, calc: Calculus, preludes: dict):
    expected: list = []  # filled by the first check, then reused

    def check(code: int, out: str, err: str) -> list[str]:
        if not expected:
            expected.extend(_reference_normal_form(text, calc, preludes))
        nf, steps = expected
        lines = out.rstrip("\n").split("\n")
        problems = _exit_zero(code, out, err)
        if lines[-1] != nf:
            problems.append("last line is not the machine's normal form")
        if len(lines) - 1 != steps:
            problems.append(f"{len(lines) - 1} trace lines, machine took {steps} steps")
        return problems

    return check


def _arith_check(op: str, x: int, y: int, calc: Calculus):
    expected: list[str] = []

    def check(code: int, out: str, err: str) -> list[str]:
        if not expected:
            expected.append(_render(_church(x + y if op == "plus" else x * y, calc)))
        problems = _exit_zero(code, out, err)
        if out.strip() != expected[0]:
            problems.append(f"not the numeral of {op}({x}, {y})")
        return problems

    return check


def build_trace_steps(seed: int, smoke: bool, pins: dict) -> Workload:
    forms = models.enumerate_normal_forms(SF, 1 if smoke else 3)
    texts = [_render(m) for m in forms]
    preludes: dict = {}  # for the references, loaded on first use
    requests = []
    for a in texts:
        for b in texts:
            term = f"eq ({a}) ({b})"
            requests.append(cli_request(["trace", term], _trace_check(term, SF, preludes)))
    top_trace, top_reduce = (1, 2) if smoke else (3, 5)
    for op in ("plus", "times"):
        for x in range(top_trace + 1):
            for y in range(top_trace + 1):
                term = f"{op} c{x} c{y}"
                requests.append(cli_request(
                    ["trace", "--calc", "sk", term], _trace_check(term, SK, preludes)
                ))
    for calc in (SK, SF):
        for op in ("plus", "times"):
            for x in range(top_reduce + 1):
                for y in range(top_reduce + 1):
                    requests.append(cli_request(
                        ["reduce", "--calc", calc.value, "--strategy", "applicative",
                         f"{op} c{x} c{y}"],
                        _arith_check(op, x, y, calc),
                    ))
    return Workload("trace-steps", seed, requests, pins)


def build(name: str, seed: int, smoke: bool, pins: dict, universe: bool = False) -> Workload:
    """The workload's one-time set-up: library builds and its requests."""
    if name == "sf-quote":
        return build_sf_quote(seed, smoke, pins)
    if name == "sk-probe":
        return build_sk_probe(seed, smoke, pins, universe)
    if name == "model-checks":
        return build_model_checks(seed, smoke, pins, universe)
    if name == "trace-steps":
        return build_trace_steps(seed, smoke, pins)
    raise ValueError(f"unknown workload {name!r}")
