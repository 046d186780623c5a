"""Command-line interface.

Subcommands:

* reduce / trace: normalize a term (trace prints every step); a result,
  redex or contractum of more than `syntax.MAX_PRINT_NODES` nodes is
  printed as its size and hash.
* eq: run the in-calculus structural equality program on two closed
  SF normal forms (optionally the code-comparing variant).
* godel: code of a closed term, or the term for a code (--decode);
  codes past `models.MAX_CODE_DIGITS` digits are refused.
* polish: Polish word of a closed term, or the term for a word (--decode);
  words past `syntax.MAX_POLISH_LETTERS` letters are refused.
* lambda: translate a de Bruijn lambda term into the calculus; a
  translation that could pass `lambda_bridge.MAX_ABSTRACTION_NODES`
  nodes is refused.
* tm run: run a Turing machine from a machine file on a word
  (@equality and @identity name the built-in machines).
* check sim / check weakequiv: run a named empirical check and print its
  report table (--tsv for rows), or list the cases (--list, alone).
* demo NAME: scripted walkthroughs, each with only the options it reads;
  byte-reproducible output.

Exit codes: 0 success, 1 error, failed check or out of memory, 2 usage,
3 budget exhausted.

Terms on the command line may use the names of the combinator catalog
(`stdlib.build_catalog`); `--prelude FILE` adds bindings of the form
`let name = term;` on top (godel and polish: not with --decode).

`main` parses argv with the process's one parser (`build_parser`) and
calls the handler that the subcommand sets as `run`; an option that
handler does not read is a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from typing import IO, Mapping, Sequence

from .lambda_bridge import bracket_abstract, parse_lambda
from .models import (
    build_probe_corpus,
    code_from_digits,
    enumerate_normal_forms,
    eval_rec,
    gnum_digits,
    gterm,
    show_value,
)
from .reduction import (
    DEFAULT_BUDGET,
    Status,
    Strategy,
    extensionally_agree,
    normalize,
    render_trace,
)
from .stdlib import build_catalog
from .syntax import from_polish, parse, render, render_capped, to_polish
from .terms import Calculus, S, Term, app, free_vars, is_lowercase_name, substitute
from .turing import (
    DEFAULT_TM_BUDGET,
    EQUALITY_MACHINE,
    IDENTITY_MACHINE,
    equality_step_bound,
    parse_machine,
    run_machine,
)
from .witnesses import (
    build_simulation_cases,
    build_weak_equivalence_cases,
    church_code_oracle,
    surrogate_code_recfn,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class PreludeError(ValueError):
    pass


class _UsageError(Exception):
    """An argv the parser or a handler refuses: exit 2, nothing on stdout."""


# --- prelude --------------------------------------------------------------------


def parse_prelude(
    text: str,
    calc: Calculus,
    base: Mapping[str, Term] | None = None,
    warn: IO[str] | None = None,
) -> dict[str, Term]:
    """Parse `let name = term;` bindings.  Lines starting with '#' are
    comments; a binding may span lines up to its ';'.  Bodies may use
    earlier names (and names from `base`); every body must be closed
    after substitution.  Rebinding warns and overrides."""
    bindings: dict[str, Term] = dict(base or {})
    source = "\n".join(
        line for line in text.splitlines() if not line.lstrip().startswith("#")
    )
    for chunk in source.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        head, sep, body_src = chunk.partition("=")
        head_parts = head.split()
        if len(head_parts) != 2 or head_parts[0] != "let" or not sep:
            raise PreludeError(f"expected 'let name = term;', got {chunk!r}")
        name = head_parts[1]
        if not is_lowercase_name(name):
            raise PreludeError(
                f"prelude names are lowercase identifiers [a-z][a-z0-9_]*: {name!r}"
            )
        body = substitute(parse(body_src, calc), bindings)
        if not body.closed:
            raise PreludeError(
                f"binding {name} is not closed: free {sorted(free_vars(body))}"
            )
        if name in bindings and warn is not None:
            print(f"warning: rebinding {name}", file=warn)
        bindings[name] = body
    return bindings


def load_default_prelude(calc: Calculus) -> dict[str, Term]:
    """The combinator catalog's bindings for the calculus, as a new dict
    the caller may extend."""
    return {name: entry.body for name, entry in build_catalog(calc).items()}


def _load_bindings(args: argparse.Namespace, err: IO[str]) -> dict[str, Term]:
    calc = _calc(args)
    bindings = load_default_prelude(calc)
    if args.prelude:
        with open(args.prelude, encoding="utf-8") as fh:
            bindings = parse_prelude(fh.read(), calc, base=bindings, warn=err)
    return bindings


def _parse_term(source: str, args: argparse.Namespace, err: IO[str]) -> Term:
    return substitute(parse(source, _calc(args)), _load_bindings(args, err))


def _calc(args: argparse.Namespace) -> Calculus:
    return Calculus(args.calc)


# --- subcommand implementations ---------------------------------------------------


def _cmd_reduce(args, out, err, traced: bool = False) -> int:
    term = _parse_term(args.term, args, err)
    outcome = normalize(
        term, _calc(args), Strategy(args.strategy), args.budget, trace=traced
    )
    if traced:
        trace = render_trace(outcome.steps)
        if trace:
            print(trace, file=out)
    print(render_capped(outcome.term), file=out)
    if outcome.status is Status.BUDGET:
        print(f"budget exhausted after {outcome.steps_taken} steps", file=err)
        return EXIT_BUDGET
    if outcome.status is Status.STUCK:
        print(f"stuck (varheaded-f) after {outcome.steps_taken} steps", file=err)
    return EXIT_OK


def _cmd_eq(args, out, err) -> int:
    calc = _calc(args)
    if calc is not Calculus.SF:
        print("error: the equality program exists only in the sf calculus", file=err)
        return EXIT_ERROR
    bindings = _load_bindings(args, err)
    program = bindings["eqviacode" if args.via_code else "eq"]
    a = substitute(parse(args.left, calc), bindings)
    b = substitute(parse(args.right, calc), bindings)
    for label, t in (("left", a), ("right", b)):
        if not t.closed:
            print(f"error: {label} term is not closed", file=err)
            return EXIT_ERROR
        if not normalize(t, calc, budget=0).is_normal:
            print(f"error: {label} term is not a normal form", file=err)
            return EXIT_ERROR
    outcome = normalize(app(program, a, b), calc, budget=args.budget)
    if outcome.status is Status.BUDGET:
        print(f"budget exhausted after {outcome.steps_taken} steps", file=err)
        return EXIT_BUDGET
    if outcome.term == bindings["true"]:
        print("true", file=out)
    elif outcome.term == bindings["false"]:
        print("false", file=out)
    else:
        print(f"error: unexpected result {render_capped(outcome.term)}", file=err)
        return EXIT_ERROR
    return EXIT_OK


def _cmd_code(args, out, err, encode, decode) -> int:
    """godel and polish: the code of a term, or with --decode the term a
    code stands for (`decode` gives None when it stands for none)."""
    if args.decode:
        term = decode(args.value, _calc(args))
        if term is None:
            print(f"error: {args.value} codes no term", file=err)
            return EXIT_ERROR
        print(render(term), file=out)
        return EXIT_OK
    print(encode(_parse_term(args.value, args, err)), file=out)
    return EXIT_OK


def _cmd_lambda(args, out, err) -> int:
    lterm = parse_lambda(args.expr)
    print(render(bracket_abstract(lterm, _calc(args))), file=out)
    return EXIT_OK


def _cmd_tm_run(args, out, err) -> int:
    if args.machine == "@equality":
        spec = EQUALITY_MACHINE
    elif args.machine == "@identity":
        spec = IDENTITY_MACHINE
    else:
        with open(args.machine, encoding="utf-8") as fh:
            spec = parse_machine(fh.read())
    run = run_machine(spec, args.word, args.budget)
    print(f"{run.status} {run.steps} {run.word}", file=out)
    return EXIT_BUDGET if run.status == "budget" else EXIT_OK


def _run_report(report, args, out) -> int:
    print(report.to_tsv() if args.tsv else report.render(), file=out)
    return EXIT_OK if report.ok else EXIT_ERROR


def _cmd_check(args, out, err) -> int:
    if args.list and (args.name or args.tsv):
        raise _UsageError("--list takes no case name and no --tsv")
    if not (args.list or args.name):
        raise _UsageError("give a case name or --list")
    cases = (
        build_simulation_cases()
        if args.kind == "sim"
        else build_weak_equivalence_cases()
    )
    if args.list:
        for name, case in cases.items():
            print(f"{name}: {case.description}", file=out)
        return EXIT_OK
    if args.name == "all":
        return max(_run_report(case.run(), args, out) for case in cases.values())
    if args.name not in cases:
        known = ", ".join(cases)
        print(f"error: unknown case {args.name!r} (known: {known})", file=err)
        return EXIT_ERROR
    return _run_report(cases[args.name].run(), args, out)


# --- demos -----------------------------------------------------------------------


def _show_application(program: Term, probe: Term, calc: Calculus, budget: int) -> str:
    outcome = normalize(app(program, probe), calc, budget=budget)
    if outcome.status is Status.NORMAL:
        return render(outcome.term)
    return f"({outcome.status.value})"


def _demo_identity_pair(args, out, err) -> int:
    """Two identity programs that no amount of black-box probing can tell
    apart: applied to anything, both return it."""
    calc = _calc(args)
    bindings = load_default_prelude(calc)
    k = bindings["k"]
    left = app(S, k, k)
    right = app(S, k, S)
    corpus = build_probe_corpus(calc, seed=args.seed)
    print(f"calculus: {calc.value}", file=out)
    print(f"left:  {render(left)}", file=out)
    print(f"right: {render(right)}", file=out)
    print(
        f"probes: {len(corpus)} closed terms "
        "(all normal forms to size 5, plus seeded random terms)",
        file=out,
    )
    for probe in corpus[:4]:
        l = _show_application(left, probe, calc, args.budget)
        r = _show_application(right, probe, calc, args.budget)
        print(f"  {render(left)} ({render(probe)}) = {l}"
              f"   {render(right)} ({render(probe)}) = {r}", file=out)
    agree = extensionally_agree(left, right, calc, corpus, args.budget)
    print(f"extensionally agree on the whole corpus: {agree}", file=out)
    sf = load_default_prelude(Calculus.SF)
    sf_left = app(S, sf["k"], sf["k"])
    sf_right = app(S, sf["k"], S)
    verdict = normalize(
        app(sf["eq"], sf_left, sf_right), Calculus.SF, budget=args.budget
    )
    separated = verdict.term == sf["false"]
    word = "distinguishes" if separated else "does not distinguish"
    if verdict.status is Status.BUDGET:
        word = f"budget exhausted after {verdict.steps_taken} steps on"
    print(
        f"SF eq: {word} the images {render(sf_left)} and {render(sf_right)}",
        file=out,
    )
    if verdict.status is Status.BUDGET:
        return EXIT_BUDGET
    return EXIT_OK if agree and separated else EXIT_ERROR


def _demo_sf_equality(args, out, err) -> int:
    calc = Calculus.SF
    bindings = load_default_prelude(calc)
    left = parse("S(FF)(FF)", calc)
    right = parse("S(FF)S", calc)
    corpus = build_probe_corpus(calc, seed=args.seed)
    agree = extensionally_agree(left, right, calc, corpus, args.budget)
    print(f"left:  {render(left)}", file=out)
    print(f"right: {render(right)}", file=out)
    print(f"extensionally agree on {len(corpus)} probes: {agree}", file=out)
    results = {}
    for label, a, b in (("eq left right", left, right), ("eq left left", left, left)):
        outcome = normalize(app(bindings["eq"], a, b), calc, budget=args.budget)
        word = next((w for w in ("true", "false") if outcome.term == bindings[w]),
                    "(unexpected)")
        if outcome.status is Status.BUDGET:
            word = "(budget)"
        results[label] = word
        print(f"{label} = {word}   ({outcome.steps_taken} steps)", file=out)
    if "(budget)" in results.values():
        return EXIT_BUDGET
    if "(unexpected)" in results.values():
        return EXIT_ERROR
    print(
        "the equality program separates terms that behave identically "
        "under application, which no program of the sk calculus can do",
        file=out,
    )
    ok = agree and results["eq left right"] == "false" \
        and results["eq left left"] == "true"
    return EXIT_OK if ok else EXIT_ERROR


def _demo_sf_recursive_equiv(args, out, err) -> int:
    cases = build_weak_equivalence_cases()
    report = cases["godelize-sf"].run()
    print(report.render(), file=out)
    print(file=out)
    surrogate = surrogate_code_recfn()
    values = [eval_rec(surrogate, [n]).value for n in range(4)]
    print(
        "surrogate recurrence f(0) = 1, f(n+1) = paircode(2, f(n)) "
        f"evaluates fine: {values}",
        file=out,
    )
    magnitudes = ", ".join(show_value(church_code_oracle(n)) for n in range(5))
    print(f"true numeral codes: {magnitudes}, ...", file=out)
    print(
        "the honest recursive function for those codes counts to its "
        "result one successor at a time, so no practical budget reaches "
        "even the first value",
        file=out,
    )
    return EXIT_OK if report.ok else EXIT_ERROR


def _demo_turing_equality(args, out, err) -> int:
    words = [to_polish(t) for t in enumerate_normal_forms(Calculus.SF, 5)]
    pairs = [
        (words[0], words[0]),
        (words[0], words[1]),
        (words[-1], words[-1]),
        (words[-1], words[-2]),
        (words[2], words[2] + words[0]),
        ("", ""),
    ]
    exit_code = EXIT_OK
    for w1, w2 in pairs:
        tape = f"{w1}#{w2}"
        run = run_machine(EQUALITY_MACHINE, tape)
        bound = equality_step_bound(len(tape))
        expected = "accept" if w1 == w2 else "reject"
        if run.status != expected or run.steps > bound:
            exit_code = EXIT_ERROR
        print(
            f"{tape!r}: {run.status} in {run.steps} steps "
            f"(declared bound {bound})",
            file=out,
        )
    print(
        "the marking machine decides word equality within its declared "
        "quadratic step bound",
        file=out,
    )
    return exit_code


# --- parser ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # keep usage errors inside main()
        raise _UsageError(message)


def _add_calc(p: argparse.ArgumentParser) -> None:
    p.add_argument("--calc", choices=("sk", "sf"), default="sf",
                   help="combinator calculus (default sf)")


def _add_prelude(p) -> None:  # a parser or an argument group
    p.add_argument("--prelude", metavar="FILE",
                   help="extra prelude file of let bindings")


def _add_common(p: argparse.ArgumentParser, strategy: bool = True) -> None:
    """--calc, --budget and --prelude, with --strategy where the command
    takes one."""
    _add_calc(p)
    if strategy:
        p.add_argument("--strategy", choices=("normal", "applicative"),
                       default="normal", help="reduction strategy")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help=f"reduction step budget (default {DEFAULT_BUDGET})")
    _add_prelude(p)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.  Every leaf
    subcommand carries its handler as the `run` default."""
    parser = _Parser(prog="sfcalc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="normalize a term")
    p.add_argument("term")
    _add_common(p)
    p.set_defaults(run=_cmd_reduce)

    p = sub.add_parser("trace", help="normalize a term, printing every step")
    p.add_argument("term")
    _add_common(p)
    p.set_defaults(run=functools.partial(_cmd_reduce, traced=True))

    p = sub.add_parser("eq", help="structural equality of two SF normal forms")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--via-code", action="store_true",
                   help="compare codes instead of running the direct program")
    _add_common(p, strategy=False)
    p.set_defaults(run=_cmd_eq)

    for name, help_, noun, encode, decode in (
        ("godel", "code of a closed term", "code",
         gnum_digits, lambda text, calc: gterm(code_from_digits(text), calc)),
        ("polish", "Polish word of a closed term", "word", to_polish, from_polish),
    ):
        p = sub.add_parser(name, help=f"{help_} (or --decode)")
        p.add_argument("value")
        _add_calc(p)
        decode_or_prelude = p.add_mutually_exclusive_group()
        decode_or_prelude.add_argument("--decode", action="store_true",
                                       help=f"treat value as a {noun}")
        _add_prelude(decode_or_prelude)
        p.set_defaults(run=functools.partial(_cmd_code, encode=encode, decode=decode))

    p = sub.add_parser("lambda", help="translate a de Bruijn lambda term")
    p.add_argument("expr")
    _add_calc(p)
    p.set_defaults(run=_cmd_lambda)

    p = sub.add_parser("tm", help="Turing machine commands")
    tsub = p.add_subparsers(dest="tm_command", required=True)
    pr = tsub.add_parser("run", help="run a machine file on a word")
    pr.add_argument("machine", help="machine file, or @equality / @identity")
    pr.add_argument("word")
    pr.add_argument("--budget", type=int, default=DEFAULT_TM_BUDGET)
    pr.set_defaults(run=_cmd_tm_run)

    p = sub.add_parser("check", help="run a named empirical check")
    p.add_argument("kind", choices=("sim", "weakequiv"))
    p.add_argument("name", nargs="?", help="case name, or 'all'")
    p.add_argument("--list", action="store_true", help="list case names")
    p.add_argument("--tsv", action="store_true", help="emit tab-separated rows")
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("demo", help="scripted walkthroughs")
    demos = p.add_subparsers(dest="name", required=True)
    skk = demos.add_parser("skk-sks", help="SKK and SKS: alike on probes, not to SF eq")
    skk.add_argument("--calc", choices=("sk", "sf"), default="sk",
                     help="calculus of the probes (default sk)")
    skk.set_defaults(run=_demo_identity_pair)
    sfeq = demos.add_parser("sf-equality", help="SF eq on extensionally equal terms")
    sfeq.set_defaults(run=_demo_sf_equality)
    for d in (skk, sfeq):  # the demos that probe with a term corpus
        d.add_argument("--seed", type=int, default=0, help="probe corpus seed")
        d.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    d = demos.add_parser("sf-recursive-equiv", help="godelize, and the magnitude wall")
    d.set_defaults(run=_demo_sf_recursive_equiv)
    d = demos.add_parser("turing-equality", help="the word-equality Turing machine")
    d.set_defaults(run=_demo_turing_equality)

    return parser


def main(
    argv: Sequence[str] | None = None,
    stdout: IO[str] | None = None,
    stderr: IO[str] | None = None,
) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                args = parser.parse_args(argv)
            except SystemExit as exc:  # --help
                return int(exc.code or 0)
        return args.run(args, out, err)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return EXIT_USAGE
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_ERROR
    except MemoryError:  # its message is usually empty
        print("error: out of memory", file=err)
        return EXIT_ERROR


def console_main() -> None:
    sys.exit(main())
