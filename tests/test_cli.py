"""End-to-end tests for the command line interface.

Every test but two drives `sfcalc.cli.main` with injected stdout/stderr,
so the suite checks the same code path as the installed console script
without spawning subprocesses.  One exception runs `python -m sfcalc`
and `import sfcalc.terms` in fresh interpreters and checks what they
import; the other runs `main` in a child process that limits its own
memory.
"""

from __future__ import annotations

import argparse
import ast
import decimal
import hashlib
import io
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

try:
    import resource
except ImportError:  # not on every platform
    resource = None

from sfcalc import cli
from sfcalc.cli import (
    EXIT_BUDGET,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_USAGE,
    PreludeError,
    build_parser,
    load_default_prelude,
    main,
    parse_prelude,
)
from sfcalc.models import cantor_pair, enumerate_normal_forms
from sfcalc.reduction import Strategy, normalize
from sfcalc.syntax import MAX_PRINT_NODES, parse, render
from sfcalc.terms import App, Calculus, S, Var, app


def run(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


OMEGA_SK = "S(SKK)(SKK)(S(SKK)(SKK))"

# The SF normal forms of at most two leaves: S, F, SS, SF, FS, FF.
_SMALL_SF_FORMS = [render(m) for m in enumerate_normal_forms(Calculus.SF, 3)]

# D^16 x with D = S(SKK)(SKK) = λy. y y.
_DOUBLING_16 = "x"
for _ in range(16):
    _DOUBLING_16 = f"S(SKK)(SKK)({_DOUBLING_16})"


class TestReduceAndTrace:
    def test_reduce_normalizes(self):
        code, out, err = run("reduce", "--calc", "sk", "SKSK")
        assert (code, out, err) == (EXIT_OK, "K\n", "")

    def test_reduce_resolves_prelude_names(self):
        code, out, err = run("reduce", "--calc", "sk", "i S")
        assert (code, out, err) == (EXIT_OK, "S\n", "")

    def test_reduce_budget_exhaustion_exits_3(self):
        code, out, err = run("reduce", "--calc", "sk", OMEGA_SK, "--budget", "50")
        assert code == EXIT_BUDGET
        assert "budget exhausted after 50 steps" in err
        assert out.strip()  # the partial term is still printed

    def test_negative_budget_counts_as_zero(self):
        code, out, err = run("reduce", "--calc", "sk", "SKKS", "--budget", "-1")
        assert (code, out, err) == (EXIT_BUDGET, "SKKS\n", "budget exhausted after 0 steps\n")

    def test_huge_budget_stop_prints_one_short_line(self):
        # The budget stop is a term of about 3 * 10**9 nodes.
        start = time.perf_counter()
        argv = ("reduce", "--calc", "sk", "--budget", "500", "S(SKK)(SKK)(S(SSS)S)")
        code, out, err = run(*argv)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_BUDGET
        assert out == "<term of 3114261431 nodes, hash 1c3c2df6d538db17>\n", out[:200]
        assert err == "budget exhausted after 500 steps\n"

    def test_trace_lines_elide_terms_past_the_cap(self):
        # D^16 x with D = S(SKK)(SKK) = λy. y y: applicative order doubles
        # x sixteen times.  The last doubling builds contracta of more
        # than MAX_PRINT_NODES nodes, and two of its steps fire on them.
        argv = ("trace", "--calc", "sk", "--strategy", "applicative", _DOUBLING_16)
        code, out, err = run(*argv)
        assert (code, err) == (EXIT_OK, "")
        *lines, result = out.splitlines()
        assert len(lines) == 80
        assert result == "<term of 131071 nodes, hash c39c6f14d2edc7b>"
        sides = [side for line in lines for side in line.split(" : ")[1].split(" => ")]
        elided = [re.fullmatch(r"<term of (\d+) nodes, hash [0-9a-f]+>", s) for s in sides]
        assert [m[0] for m in elided if m] == [
            "<term of 131083 nodes, hash c8d9d73111fe5a3>",
            *["<term of 131075 nodes, hash 15166206c964de43>"] * 4,
        ]
        assert all(int(m[1]) > MAX_PRINT_NODES for m in elided if m)
        # Every leaf is one letter, so a side printed in full has
        # 2 * letters - 1 nodes.
        printed = [2 * sum(map(str.isalpha, s)) - 1 for s, m in zip(sides, elided) if not m]
        assert max(printed) <= MAX_PRINT_NODES

    @pytest.mark.parametrize("core, out, err", [
        ("F x", "<term of 6597069766653 nodes, hash 9c090200fb6792c>\n", ""),
        ("F x y z", "<term of 10995116277757 nodes, hash d4e9a200fb6792c>\n",
         "stuck (varheaded-f) after 120 steps\n"),
    ], ids=["normal", "stuck"])
    def test_stuck_check_walks_a_shared_result_once(self, core, out, err):
        # P = SS(S(FF)(FF)) is λz. z z.  P (P (… core)), 40 deep, reduces
        # in 120 applicative steps to a term that shares every level; as a
        # tree it has trillions of nodes.
        term = core
        for _ in range(40):
            term = f"SS(S(FF)(FF))({term})"
        start = time.perf_counter()
        result = run("reduce", "--strategy", "applicative", term)
        assert time.perf_counter() - start < 1.0
        assert result == (EXIT_OK, out, err)

    def test_reduce_stuck_note_on_stderr(self):
        # F applied to a variable cannot be classified, so reduction stops.
        code, out, err = run("reduce", "F a b c")
        assert (code, out) == (EXIT_OK, "Fa b c\n")
        assert "stuck (varheaded-f) after 0 steps" in err

    def test_reduce_strategy_flag_changes_outcome(self):
        argv = ("reduce", "--calc", "sk", f"KS({OMEGA_SK})", "--budget", "300")
        normal_code, normal_out, _ = run(*argv, "--strategy", "normal")
        applicative_code, _, applicative_err = run(*argv, "--strategy", "applicative")
        assert (normal_code, normal_out) == (EXIT_OK, "S\n")
        assert applicative_code == EXIT_BUDGET
        assert "budget exhausted" in applicative_err

    def test_reduce_rejects_foreign_operator(self):
        code, out, err = run("reduce", "--calc", "sk", "SF")
        assert code == EXIT_ERROR
        assert err.startswith("error:")

    def test_trace_prints_each_step_then_result(self):
        code, out, err = run("trace", "--calc", "sk", "SKKS")
        lines = out.splitlines()
        assert code == EXIT_OK
        assert lines[0] == "1 S-rule @ ε : SKKS => KS(KS)"
        assert lines[1].startswith("2 K-rule @ ")
        assert lines[-1] == "S"

    @pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="no address-space limit")
    def test_out_of_memory_is_an_error_line(self):
        # Unlimited, this trace peaks at about 1.8 GiB; the child process
        # caps its own address space at 1 GiB before it starts.
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                  "from sfcalc.cli import main\n"
                  "sys.exit(main(['trace', '--budget', '20000', 'godelize (S (S F) F)']))\n")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            EXIT_ERROR, "", "error: out of memory\n")

    def test_trace_of_normal_form_prints_only_the_term(self):
        code, out, err = run("trace", "S")
        assert (code, out, err) == (EXIT_OK, "S\n", "")

    @pytest.mark.parametrize(
        "argvs, digest",
        [
            ([("trace", f"eq ({a}) ({b})") for a in _SMALL_SF_FORMS for b in _SMALL_SF_FORMS],
             "180b0a30b476c60f0efc8739e737e396b39d3c39144b4e6d513e2f206c863f64"),
            ([("trace", "--calc", "sk", f"plus c{x} c{y}") for x in range(3) for y in range(3)],
             "520c0f2f2c14838e5926bab09b4276be91cb8ecbf5ca500d5eafe399a5576667"),
            ([("trace", "--calc", "sk", f"times c{x} c{y}") for x in range(3) for y in range(3)],
             "7cfc697e7d1f0bc2d42f067950f5566e7bfb92cccc30c4791749d441aa220f7b"),
            ([("trace", "--calc", "sk", "S (S kx (K probe2)) (S ky M) (S kz x N)"),
              ("trace", "S (S ky probe2) (F S kx) (S P Q)")],
             "0f701bd418d1c536b8db904cd08b2bfcdae352f4920275691ccccd48b24f6b6c"),
            ([("trace", "--calc", "sk", "--strategy", "applicative", _DOUBLING_16)],
             "b085766208b07ecfb7851a80565300bb8b3d7b34d833d03ff24fe703b40f92c4"),
        ],
        ids=["eq-small-forms", "plus-sk", "times-sk", "open-terms", "past-the-cap"],
    )
    def test_trace_output_is_pinned(self, argvs, digest):
        # Every line of these traces, byte for byte, in argv order.
        digests = hashlib.sha256()
        for argv in argvs:
            code, out, err = run(*argv)
            assert (code, err) == (EXIT_OK, ""), argv
            digests.update(out.encode())
        assert digests.hexdigest() == digest


class TestEq:
    def test_eq_separates_the_identity_images(self):
        code, out, err = run("eq", "S(FF)(FF)", "S(FF)S")
        assert (code, out, err) == (EXIT_OK, "false\n", "")

    def test_eq_true_on_equal_terms(self):
        code, out, err = run("eq", "S(FF)(FF)", "S(FF)(FF)")
        assert (code, out, err) == (EXIT_OK, "true\n", "")

    def test_eq_via_code(self):
        assert run("eq", "--via-code", "SS", "SS")[:2] == (EXIT_OK, "true\n")
        assert run("eq", "--via-code", "S", "F")[:2] == (EXIT_OK, "false\n")

    def test_eq_requires_sf(self):
        code, out, err = run("eq", "--calc", "sk", "S", "S")
        assert code == EXIT_ERROR
        assert "only in the sf calculus" in err

    def test_eq_rejects_reducible_operand(self):
        code, out, err = run("eq", "FFSS", "S")
        assert code == EXIT_ERROR
        assert "left term is not a normal form" in err
        # A divergent operand is rejected without being normalized.
        code, out, err = run("eq", "S i i (S (S S) (S S))", "S", "--budget", "20000")
        assert (code, out, err) == (EXIT_ERROR, "", "error: left term is not a normal form\n")

    def test_eq_rejects_open_operand(self):
        code, out, err = run("eq", "S", "x")
        assert code == EXIT_ERROR
        assert "right term is not closed" in err

    def test_eq_budget_exit(self):
        code, out, err = run("eq", "S(SS)(SS)", "S(SS)(SS)", "--budget", "5")
        assert code == EXIT_BUDGET
        assert "budget exhausted" in err


class TestGodel:
    def test_atom_codes(self):
        assert run("godel", "S")[:2] == (EXIT_OK, "1\n")
        assert run("godel", "F")[:2] == (EXIT_OK, "2\n")
        assert run("godel", "--calc", "sk", "K")[:2] == (EXIT_OK, "2\n")

    def test_application_code(self):
        assert run("godel", "SS")[:2] == (EXIT_OK, "7\n")

    def test_decode(self):
        assert run("godel", "--decode", "7")[:2] == (EXIT_OK, "SS\n")
        assert run("godel", "--decode", "2")[:2] == (EXIT_OK, "F\n")
        assert run("godel", "--decode", "--calc", "sk", "2")[:2] == (EXIT_OK, "K\n")

    def test_decode_of_non_code_fails(self):
        for value in ("0", "3", "14"):  # 14 pairs 3, which codes nothing, with 1
            assert run("godel", "--decode", value) == (
                EXIT_ERROR, "", f"error: {value} codes no term\n")

    def test_open_term_has_no_code(self):
        # gnum's own refusal, reported by main.
        assert run("godel", "x") == (EXIT_ERROR, "", "error: only closed terms have a code\n")

    def test_roundtrip_through_the_cli(self):
        source = "S(FF)(S(FF)S)"
        _, coded, _ = run("godel", source)
        code, out, err = run("godel", "--decode", coded.strip())
        assert (code, out) == (EXIT_OK, source + "\n")

    def test_int_digit_limit_is_left_as_it_was(self):
        # And the decimal context: main also runs in-process.
        code9 = run("godel", "c9")[1].strip()
        assert len(code9) == 62_493  # past the default limit of 4,300 digits
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with decimal.localcontext() as ctx:
                ctx.prec, ctx.rounding, ctx.traps[decimal.Inexact] = 7, decimal.ROUND_DOWN, True
                saved = repr(ctx)
                assert run("godel", "c9")[:2] == (EXIT_OK, code9 + "\n")
                assert sys.get_int_max_str_digits() == 4300
                code, out, err = run("godel", "--decode", code9)
                assert (code, err) == (EXIT_OK, "")
                assert sys.get_int_max_str_digits() == 4300
                assert decimal.getcontext() is ctx and repr(ctx) == saved
        finally:
            sys.set_int_max_str_digits(before)

    def test_a_long_code_prints_quickly(self):
        # 23 S's code to 1,382,413 digits; str() takes about 35 s on them,
        # an int split into decimal about 1.1 s, the decimal walk 0.12 s.
        start = time.perf_counter()
        code, out, err = run("godel", "S" * 23)
        assert time.perf_counter() - start < 1.0
        assert (code, err, len(out)) == (EXIT_OK, "", 1_382_414)
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "5b10e44da36d3797403026f98934689d8b403c315875a5bf6a6285c0ca4ec4bb"

    def test_decode_past_the_digit_limit_fails(self):
        code, out, err = run("godel", "--decode", "1" * 2_000_001)
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "error: the code has more than 2,000,000 digits\n"

    def test_code_past_the_digit_limit_is_refused_quickly(self):
        # eq nests 27 levels deep, and a code's bit length doubles per level.
        start = time.perf_counter()
        code, out, err = run("godel", "eq")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "error: the code has more than 2,000,000 digits\n"

    def test_code_of_24_s_is_refused_before_multiplying(self, monkeypatch):
        # 24 S's code to about 2.8 million digits: refused after pairing
        # a few small codes.
        calls = []
        monkeypatch.setattr(
            "sfcalc.models.cantor_pair",
            lambda a, b: calls.append(1) or cantor_pair(a, b),
        )
        code, out, err = run("godel", "S" * 24)
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "error: the code has more than 2,000,000 digits\n"
        assert len(calls) <= 3


class TestPolish:
    def test_encode_pin(self):
        code, out, err = run("polish", "--calc", "sk", "S(KK)")
        assert (code, out, err) == (EXIT_OK, "ASAKK\n", "")

    def test_decode_pin(self):
        code, out, err = run("polish", "--decode", "--calc", "sk", "ASAKK")
        assert (code, out, err) == (EXIT_OK, "S(KK)\n", "")

    def test_decode_rejects_foreign_letter(self):
        code, out, err = run("polish", "--decode", "--calc", "sk", "ASF")
        assert code == EXIT_ERROR

    def test_decode_rejects_malformed_word(self):
        code, out, err = run("polish", "--decode", "AS")
        assert code == EXIT_ERROR

    def test_open_term_has_no_word(self):
        code, out, err = run("polish", "x")
        assert code == EXIT_ERROR
        assert "closed terms" in err

    def test_word_past_the_letter_limit_is_refused_quickly(self, tmp_path):
        # a_i is a_{i-1} applied to itself, so its word has 2^(i+2) - 1
        # letters: a40's would be about 4.4 TB.
        path = tmp_path / "doubling.sf"
        path.write_text("let a0 = SS;\n" + "".join(f"let a{i} = a{i - 1} a{i - 1};\n"
                                                    for i in range(1, 41)))
        start = time.perf_counter()
        code, out, err = run("polish", "--prelude", str(path), "a40")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "error: the Polish word has more than 2,000,000 letters\n"
        code, out, err = run("polish", "--prelude", str(path), "a18")
        assert (code, err, len(out)) == (EXIT_OK, "", 1_048_575 + 1)
        assert out.startswith("A" * 19 + "SS")


class TestLambda:
    def test_identity_into_sk(self):
        assert run("lambda", "--calc", "sk", "λ0")[:2] == (EXIT_OK, "SKK\n")

    def test_identity_into_sf(self):
        assert run("lambda", "λ0")[:2] == (EXIT_OK, "S(FF)(FF)\n")

    def test_two_binder_term(self):
        code, out, err = run("lambda", "--calc", "sk", "λλ1")
        assert (code, out) == (EXIT_OK, "S(KK)(SKK)\n")

    def test_parse_error(self):
        code, out, err = run("lambda", "(")
        assert code == EXIT_ERROR
        assert err.startswith("error:")

    def test_open_lambda_term_rejected(self):
        code, out, err = run("lambda", "0")
        assert code == EXIT_ERROR

    def test_deep_binder_tower_stops_at_the_node_cap(self):
        code, out, err = run("lambda", "\\" * 3000 + "0")
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "error: the translation would pass 100,000 nodes\n"

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0660"])
    def test_non_ascii_digits_are_refused(self, digit):
        code, out, err = run("lambda", f"λ{digit}")
        assert (code, out) == (EXIT_ERROR, "")
        assert err == f"error: unexpected character {digit!r} (at position 1)\n"

    def test_long_application_translates(self):
        # λ0 0 … 0 with 3,001 indices: applied to v it gives v v … v.  In
        # applicative order, since the normal-order machine rebuilds this
        # 3,000-argument spine after every step.
        code, out, err = run("lambda", "--calc", "sk", "λ" + " 0" * 3001)
        assert (code, err) == (EXIT_OK, "")
        v = Var("v")
        term = App(parse(out, Calculus.SK), v)
        got = normalize(term, Calculus.SK, Strategy.APPLICATIVE)
        assert got.is_normal and got.term == app(v, *[v] * 3000)

    def test_deeply_nested_application_translates(self):
        # λ0 (0 (… 0)) nested 1,000 deep: applied to v it gives v (v (… v)).
        text = "λ" + "0 (" * 999 + "0" + ")" * 999
        code, out, err = run("lambda", "--calc", "sk", text)
        assert (code, err) == (EXIT_OK, "")
        v = want = Var("v")
        for _ in range(999):
            want = App(v, want)
        got = normalize(App(parse(out, Calculus.SK), v), Calculus.SK)
        assert got.is_normal and got.term == want

    def test_translation_past_the_node_cap_is_refused_quickly(self):
        # Unchecked, the SF translation would have about 39 million nodes.
        start = time.perf_counter()
        code, out, err = run("lambda", "λλλλλλλλλλλλ0")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "error: the translation would pass 100,000 nodes\n"


class TestTuringRun:
    def test_identity_machine(self):
        code, out, err = run("tm", "run", "@identity", "ASK")
        assert (code, out, err) == (EXIT_OK, "accept 0 ASK\n", "")

    def test_equality_machine_accepts_equal_pair(self):
        code, out, err = run("tm", "run", "@equality", "AS#AS")
        assert (code, out, err) == (EXIT_OK, "accept 18 XX#XX\n", "")

    def test_equality_machine_rejects_unequal_pair(self):
        code, out, err = run("tm", "run", "@equality", "S#F")
        assert code == EXIT_OK
        assert out.startswith("reject ")

    def test_equality_machine_edge_words(self):
        assert run("tm", "run", "@equality", "#")[:2] == (EXIT_OK, "accept 2 #\n")
        code, out, _ = run("tm", "run", "@equality", "")
        assert code == EXIT_OK and out.startswith("reject 0")

    def test_machine_from_file(self, tmp_path):
        path = tmp_path / "flip.tm"
        path.write_text(
            "start a\naccept b\nreject c\nalphabet AS_\na A -> b S R\n"
        )
        code, out, err = run("tm", "run", str(path), "A")
        assert (code, out, err) == (EXIT_OK, "accept 1 S\n", "")

    def test_input_symbol_outside_alphabet(self):
        code, out, err = run("tm", "run", "@equality", "Z#Z")
        assert code == EXIT_ERROR
        assert "not in the machine's alphabet" in err

    def test_budget_exit(self):
        code, out, err = run(
            "tm", "run", "@equality", "ASKF#ASKF", "--budget", "3"
        )
        assert code == EXIT_BUDGET
        assert out.startswith("budget 3 ")

    def test_negative_budget_counts_as_zero(self):
        code, out, err = run("tm", "run", "@equality", "ASKF#ASKF", "--budget", "-1")
        assert (code, out, err) == (EXIT_BUDGET, "budget 0 ASKF#ASKF\n", "")

    def test_missing_machine_file(self):
        code, out, err = run("tm", "run", "no-such-machine.tm", "A")
        assert code == EXIT_ERROR
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "body",
        ["a A -> a A S\n", "a A -> a A R\na _ -> a _ R\n"],
        ids=["stay-loop", "endless-blank-sweep"],
    )
    def test_looping_machine_spends_a_huge_budget_at_once(self, tmp_path, body):
        # One step at a time, a budget of 10^12 would take about 6 days.
        path = tmp_path / "loop.tm"
        path.write_text("start a\naccept b\nreject c\n" + body)
        start = time.perf_counter()
        code, out, err = run("tm", "run", str(path), "A", "--budget", "1000000000000")
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (EXIT_BUDGET, "budget 1000000000000 A\n", "")


class TestCheck:
    def test_sim_list(self):
        code, out, err = run("check", "sim", "--list")
        lines = out.splitlines()
        assert code == EXIT_OK
        assert len(lines) == 10
        assert any(line.startswith("succ-sf:") for line in lines)

    def test_weakequiv_list(self):
        code, out, err = run("check", "weakequiv", "--list")
        assert code == EXIT_OK
        assert [line.split(":")[0] for line in out.splitlines()] == [
            "godelize-sf",
            "church-code-rec",
            "word-number-tm",
            "number-word-rec",
        ]

    def test_sim_case_passes(self):
        code, out, err = run("check", "sim", "succ-sf")
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "succ-sf: 6 rows, 0 violations, 0 skipped"

    def test_sim_case_tsv(self):
        code, out, err = run("check", "sim", "succ-sf", "--tsv")
        assert code == EXIT_OK
        header = out.splitlines()[0]
        assert header.split("\t") == ["input", "lhs", "rhs", "verdict"]

    def test_weakequiv_passing_case(self):
        code, out, err = run("check", "weakequiv", "godelize-sf")
        assert code == EXIT_OK
        assert "0 violations" in out

    def test_weakequiv_budget_bound_case_fails_honestly(self):
        # The true numeral-code function is far beyond any budget, so the
        # check reports violations and the command exits nonzero.
        code, out, err = run("check", "weakequiv", "church-code-rec")
        assert code == EXIT_ERROR
        assert "target-budget" in out

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("sim", "all"),
             "4288cbb462d5c768746943b322c608c0b6696dab562769074059e0ed913ce1e1"),
            (("sim", "all", "--tsv"),
             "ec756cab6c8f9fdc7862e92e8ddec3709e7f06901ecb653f6b65c2c6e9f6d591"),
            (("weakequiv", "godelize-sf"),
             "21ec1888f3ef6e6b6967bea61508cb41253b24d2bb8c14f0e910489c256033fa"),
            (("weakequiv", "word-number-tm"),
             "de9c928d1a157628267da952b2c995977a62f6b3274a4f7d143929b55505e921"),
            (("weakequiv", "number-word-rec"),
             "f87dd8906367941bc90beadc87397f7d10390e741ac90dccc548b15026fc092f"),
        ],
        ids=["sim-all", "sim-all-tsv", "godelize-sf", "word-number-tm", "number-word-rec"],
    )
    def test_check_output_is_pinned(self, argv, digest):
        # Every row of these reports, byte for byte.
        code, out, err = run("check", *argv)
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_missing_name_is_usage_error(self):
        code, out, err = run("check", "sim")
        assert code == EXIT_USAGE
        assert "give a case name or --list" in err

    def test_unknown_name(self):
        code, out, err = run("check", "sim", "bogus")
        assert code == EXIT_ERROR
        assert "unknown case 'bogus'" in err


class TestDemo:
    def test_identity_pair_demo(self):
        code, out, err = run("demo", "skk-sks")
        assert code == EXIT_OK
        assert "extensionally agree on the whole corpus: True" in out
        assert "SF eq: distinguishes the images S(FF)(FF) and S(FF)S" in out

    def test_identity_pair_demo_is_reproducible(self):
        assert run("demo", "skk-sks") == run("demo", "skk-sks")

    @pytest.mark.parametrize("name, budget, line", [
        ("sf-equality", "50", "eq left left = (budget)   (50 steps)"),
        ("skk-sks", "30",
         "SF eq: budget exhausted after 30 steps on the images S(FF)(FF) and S(FF)S"),
    ], ids=["sf-equality", "skk-sks"])
    def test_budget_stop_is_not_a_verdict(self, name, budget, line):
        code, out, err = run("demo", name, "--budget", budget)
        assert code == EXIT_BUDGET
        assert line in out.splitlines()
        assert "false" not in out and "distinguish" not in out

    def test_budget_stops_on_the_probes_print_as_budget(self):
        assert run("demo", "skk-sks", "--budget", "1") == (EXIT_BUDGET, (
            "calculus: sk\n"
            "left:  SKK\n"
            "right: SKS\n"
            "probes: 99 closed terms (all normal forms to size 5, plus seeded random terms)\n"
            "  SKK (K) = (budget)   SKS (K) = (budget)\n"
            "  SKK (S) = (budget)   SKS (S) = (budget)\n"
            "  SKK (KK) = (budget)   SKS (KK) = (budget)\n"
            "  SKK (KS) = (budget)   SKS (KS) = (budget)\n"
            "extensionally agree on the whole corpus: True\n"
            "SF eq: budget exhausted after 1 steps on the images S(FF)(FF) and S(FF)S\n"
        ), "")

    def test_sf_equality_demo(self):
        code, out, err = run("demo", "sf-equality")
        assert code == EXIT_OK
        assert "eq left right = false" in out
        assert "eq left left = true" in out

    def test_sf_equality_demo_reads_false_only_from_the_catalog(self, monkeypatch):
        # An eq that answers neither true nor false gives no verdict: the
        # demo prints its answer as unexpected and makes no claim.
        catalog = cli.load_default_prelude
        monkeypatch.setattr(cli, "load_default_prelude", lambda calc: {**catalog(calc), "eq": S})
        code, out, err = run("demo", "sf-equality")
        assert code == EXIT_ERROR
        assert "eq left right = (unexpected)   (0 steps)" in out.splitlines()
        assert "eq left left = (unexpected)   (0 steps)" in out.splitlines()
        assert "separates" not in out and "false" not in out

    def test_recursive_equiv_demo(self):
        code, out, err = run("demo", "sf-recursive-equiv")
        assert code == EXIT_OK
        assert "~10^61" in out

    def test_turing_equality_demo(self):
        code, out, err = run("demo", "turing-equality")
        assert code == EXIT_OK
        assert "within its declared" in out

    def test_python_m_sfcalc_matches_main_and_generates_no_code(self):
        # Modules the interpreter imports at start-up (site, .pth files)
        # are not sfcalc's, so they are taken out of the count.
        def imported(*argv: str) -> tuple[subprocess.CompletedProcess, set[str]]:
            env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
            proc = subprocess.run([sys.executable, "-X", "importtime", *argv], env=env,
                                  capture_output=True, text=True, timeout=60)
            return proc, {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                          if line.startswith("import time:")}

        proc, modules = imported("-m", "sfcalc", "demo", "turing-equality")
        modules -= imported("-c", "pass")[1]
        assert (proc.returncode, proc.stdout) == run("demo", "turing-equality")[:2]
        assert "sfcalc.cli" in modules and "sfcalc.turing" in modules
        assert not modules & {"dataclasses", "inspect"}
        # The package re-exports nothing, so one module loads only its own
        # imports; a term's repr still reaches `syntax` when it is called.
        proc, _ = imported("-c", "import sys, sfcalc.terms as t; print(sorted("
                           "m for m in sys.modules if m.split('.')[0] == 'sfcalc'));"
                           "print(repr(t.App(t.S, t.K)))")
        assert proc.stdout.splitlines() == ["['sfcalc', 'sfcalc.terms']", "SK"]
        proc, _ = imported("-c", "import sys, sfcalc.turing; print(sorted("
                           "m for m in sys.modules if m.split('.')[0] == 'sfcalc'))")
        assert proc.stdout.splitlines() == ["['sfcalc', 'sfcalc.turing']"]
        package = ast.parse((Path(__file__).parent.parent / "src/sfcalc/__init__.py").read_text())
        assert len(package.body) == 1 and ast.get_docstring(package)


class TestSharedTables:
    def test_main_builds_no_parser_after_the_first_call(self, monkeypatch):
        run("reduce", "S")  # the one build of the process, if not done yet
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in (
            ("reduce", "plus c1 c2"),
            ("trace", "--calc", "sk", "plus c1 c1"),
            ("check", "sim", "plus-sf"),
            ("demo", "turing-equality"),
        ):
            assert run(*argv)[0] == EXIT_OK, argv
        assert built == []


# Each form of each leaf command: an argv, and the options it takes, as
# README.md's "Common flags" lists them.  Every other option the parser
# defines is a usage error in that form.
_FORMS = {
    "reduce": (("reduce", "S"), {"--calc", "--prelude", "--budget", "--strategy"}),
    "trace": (("trace", "S"), {"--calc", "--prelude", "--budget", "--strategy"}),
    "eq": (("eq", "S", "S"), {"--calc", "--prelude", "--budget", "--via-code"}),
    "godel": (("godel", "S"), {"--calc", "--prelude", "--decode"}),
    "godel-decode": (("godel", "--decode", "7"), {"--calc", "--decode"}),
    "polish": (("polish", "S"), {"--calc", "--prelude", "--decode"}),
    "polish-decode": (("polish", "--decode", "S"), {"--calc", "--decode"}),
    "lambda": (("lambda", "λ0"), {"--calc"}),
    "tm-run": (("tm", "run", "@identity", "A"), {"--budget"}),
    "check": (("check", "sim", "plus-sf"), {"--tsv"}),
    "check-list": (("check", "sim", "--list"), {"--list"}),
    "demo-skk-sks": (("demo", "skk-sks"), {"--calc", "--seed", "--budget"}),
    "demo-sf-equality": (("demo", "sf-equality"), {"--seed", "--budget"}),
    "demo-sf-recursive-equiv": (("demo", "sf-recursive-equiv"), set()),
    "demo-turing-equality": (("demo", "turing-equality"), set()),
}
# Every option the parser defines, with a value for those that take one.
_OPTION_VALUES = {
    "--calc": "sk", "--strategy": "normal", "--budget": "5", "--prelude": "extra.sf",
    "--seed": "1", "--via-code": None, "--decode": None, "--list": None, "--tsv": None,
}


def _option_argv(option: str) -> list[str]:
    value = _OPTION_VALUES[option]
    return [option] if value is None else [option, value]


def _pairs(accepted: bool) -> list:
    return [
        pytest.param(form, option, id=f"{form}-{option[2:]}")
        for form, (_, takes) in _FORMS.items()
        for option in _OPTION_VALUES
        if (option in takes) == accepted
    ]


_ACCEPTED_PAIRS = _pairs(True)
_REJECTED_PAIRS = _pairs(False)


def _leaf_parsers(parser, words=()):
    """(command words, parser) for each subcommand that has a handler."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_parsers(sub, (*words, name))
            return
    yield words, parser


class TestUsage:
    def test_no_arguments(self):
        code, out, err = run()
        assert code == EXIT_USAGE
        assert "usage error" in err

    def test_unknown_subcommand(self):
        assert run("frobnicate")[0] == EXIT_USAGE

    def test_bad_choice_value(self):
        assert run("reduce", "S", "--calc", "zz")[0] == EXIT_USAGE

    def test_help_exits_zero(self):
        code, out, err = run("--help")
        assert code == EXIT_OK
        assert "usage" in out

    @pytest.mark.parametrize("form, option", _REJECTED_PAIRS)
    def test_option_the_command_does_not_use_is_rejected(self, form, option):
        code, out, err = run(*_FORMS[form][0], *_option_argv(option))
        assert (code, out) == (EXIT_USAGE, "")
        assert "usage error" in err

    @pytest.mark.parametrize("form, option", _ACCEPTED_PAIRS)
    def test_option_the_command_uses_is_accepted(self, form, option):
        # Parsed only, so that no walkthrough or check runs.
        args = build_parser().parse_args([*_FORMS[form][0], *_option_argv(option)])
        assert getattr(args, option[2:].replace("-", "_")) not in (None, False)

    def test_the_option_table_covers_the_parser(self):
        leaves = dict(_leaf_parsers(build_parser()))
        defined = {
            option
            for leaf in leaves.values()
            for action in leaf._actions
            for option in action.option_strings
        }
        assert defined - {"-h", "--help"} == set(_OPTION_VALUES)
        covered = {
            words for words in leaves
            for argv, _ in _FORMS.values() if argv[:len(words)] == words
        }
        assert covered == set(leaves)


# Fuzzed command lines.  `check` and `demo` take seconds each, and budgets
# stay small: the term left at a large budget stop can be huge.  Text
# mixes noise with text built by a grammar (combinator terms, de Bruijn
# lambdas), so that some of it parses.
NOISE = st.text(alphabet="SKFxyzkic0123()λ\\ #AX_", max_size=24)


def _grammar(leaves: list[str], binder: bool) -> st.SearchStrategy[str]:
    def extend(sub):
        app = st.builds(lambda fun, arg: f"{fun}({arg})", sub, sub)
        return st.one_of(app, sub.map(lambda body: f"λ{body}")) if binder else app

    built = st.recursive(st.sampled_from(leaves), extend, max_leaves=6)
    return st.one_of(NOISE, built.filter(lambda text: len(text) <= 24))


TERM_TEXT = _grammar(["S", "K", "F", "x", "k", "i", "c2"], binder=False)
# Long and deep λ-text: a prefix repeated up to 2,000 times around a
# core, closed by a suffix repeated as often, sometimes cut short.
DEEP_LAMBDA_TEXT = st.builds(
    lambda prefix, core, suffix, depth, cut: (
        prefix * depth + core + suffix * depth
    )[:cut],
    st.sampled_from(["λ", "(", "λ(", "(λ", "0 (", "λ0 (", "λ0 ", "λλ1 "]),
    st.sampled_from(["0", "1", "λ0", "0 0", ""]),
    st.sampled_from([")", " 0", ""]),
    st.integers(0, 2000),
    st.one_of(st.none(), st.integers(0, 10_000)),
)
LAMBDA_TEXT = _grammar(["0", "1", "2"], binder=True)
CALC = st.sampled_from(["sk", "sf"])
SMALL_BUDGET = st.integers(-2, 20).map(str)
ARGV_TOKENS = st.sampled_from([
    "reduce", "trace", "eq", "godel", "polish", "lambda", "tm", "run",
    "--calc", "sk", "sf", "--strategy", "normal", "applicative", "--budget",
    "--prelude", "--decode", "--via-code", "@equality", "@identity", "--help",
])


def _small_budget(argv: list[str]) -> list[str]:
    """reduce, trace and eq default to a large budget; the last --budget wins."""
    if argv[:1] in (["reduce"], ["trace"], ["eq"]):
        return argv + ["--budget", "20"]
    return argv


FUZZ_ARGV = st.one_of(
    st.builds(
        lambda cmd, term, calc, strategy, budget: [
            cmd, term, "--calc", calc, "--strategy", strategy, "--budget", budget
        ],
        st.sampled_from(["reduce", "trace"]), TERM_TEXT, CALC,
        st.sampled_from(["normal", "applicative"]), SMALL_BUDGET,
    ),
    st.builds(
        lambda left, right, calc, via, budget: [
            "eq", left, right, "--calc", calc, "--budget", budget, *via
        ],
        TERM_TEXT, TERM_TEXT, CALC, st.sampled_from([[], ["--via-code"]]),
        SMALL_BUDGET,
    ),
    st.builds(
        lambda cmd, value, calc, decode: [cmd, value, "--calc", calc, *decode],
        st.sampled_from(["godel", "polish"]), TERM_TEXT, CALC,
        st.sampled_from([[], ["--decode"]]),
    ),
    st.builds(
        lambda expr, calc, decode: ["lambda", expr, "--calc", calc, *decode],
        LAMBDA_TEXT, CALC, st.sampled_from([[], ["--decode"]]),
    ),
    st.builds(
        lambda expr, calc: ["lambda", expr, "--calc", calc], DEEP_LAMBDA_TEXT, CALC
    ),
    st.builds(
        lambda machine, word, budget: ["tm", "run", machine, word, *budget],
        st.sampled_from(["@equality", "@identity"]),
        st.one_of(NOISE, st.text(alphabet="ASFK#", max_size=24)),
        st.one_of(
            st.just([]),
            st.one_of(SMALL_BUDGET, st.just("1000000000000")).map(lambda b: ["--budget", b]),
        ),
    ),
    st.lists(st.one_of(ARGV_TOKENS, NOISE), max_size=6).map(_small_budget),
)


class TestFuzz:
    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(FUZZ_ARGV)
    def test_every_argv_ends_in_a_documented_exit_code(self, argv):
        code, out, err = run(*argv)
        assert code in (EXIT_OK, EXIT_ERROR, EXIT_USAGE, EXIT_BUDGET)
        assert "Traceback" not in err and "recursion depth" not in err
        assert len(out) < 200_000


class TestPrelude:
    def test_user_prelude_layers_on_default(self, tmp_path):
        path = tmp_path / "extra.sf"
        path.write_text(
            "# an identity and its self-application\n"
            "let foo = S(FF)(FF);\n"
            "let bar = foo foo;\n"
        )
        code, out, err = run("reduce", "bar", "--prelude", str(path))
        assert (code, out, err) == (EXIT_OK, "S(FF)(FF)\n", "")

    def test_rebinding_warns_and_overrides(self, tmp_path):
        path = tmp_path / "extra.sf"
        path.write_text("let i = S;\n")
        code, out, err = run("reduce", "i", "--prelude", str(path))
        assert (code, out) == (EXIT_OK, "S\n")
        assert "warning: rebinding i" in err

    def test_rebound_eq_with_an_unexpected_result_is_an_error(self, tmp_path):
        path = tmp_path / "extra.sf"
        path.write_text("let eq = S;\n")
        code, out, err = run("eq", "--prelude", str(path), "S", "F")
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "warning: rebinding eq\nerror: unexpected result SSF\n"

    def test_open_binding_rejected(self, tmp_path):
        path = tmp_path / "extra.sf"
        path.write_text("let bad = x;\n")
        code, out, err = run("reduce", "S", "--prelude", str(path))
        assert code == EXIT_ERROR
        assert "not closed" in err

    def test_bad_binding_name_rejected(self, tmp_path):
        path = tmp_path / "extra.sf"
        path.write_text("let Bad = S;\n")
        code, out, err = run("reduce", "S", "--prelude", str(path))
        assert code == EXIT_ERROR
        assert "lowercase identifiers" in err

    @pytest.mark.parametrize("name", ["fooBar", "\u00e9t", "x\u00e9", "_x", "x\u0663"])
    def test_names_the_term_syntax_cannot_read_are_rejected(self, tmp_path, name):
        # `fooBar` would read back as the open term `foo B ar`, and a
        # non-ASCII letter is no name at all in the term syntax.
        path = tmp_path / "extra.sf"
        path.write_text(f"let {name} = S;\n", encoding="utf-8")
        code, out, err = run("reduce", "S", "--prelude", str(path))
        assert (code, out) == (EXIT_ERROR, "")
        assert "lowercase identifiers" in err

    def test_every_name_the_term_syntax_reads_is_accepted(self, tmp_path):
        path = tmp_path / "extra.sf"
        path.write_text("let foo_bar2 = S;\nlet x9 = K;\n")
        code, out, err = run("reduce", "--calc", "sk", "foo_bar2 x9", "--prelude", str(path))
        assert (code, out, err) == (EXIT_OK, "SK\n", "")

    def test_missing_prelude_file(self):
        code, out, err = run("reduce", "S", "--prelude", "no-such-file.sf")
        assert code == EXIT_ERROR
        assert err.startswith("error:")

    def test_parse_prelude_multiline_and_dependency(self):
        bindings = parse_prelude(
            "let one =\n  S (FF)\n  (FF);\nlet two = one one;",
            Calculus.SF,
        )
        assert render(bindings["two"]) == "S(FF)(FF)(S(FF)(FF))"

    def test_parse_prelude_syntax_error(self):
        with pytest.raises(PreludeError):
            parse_prelude("let = S;", Calculus.SF)

    def test_default_prelude_matches_catalog_names(self):
        sk = load_default_prelude(Calculus.SK)
        sf = load_default_prelude(Calculus.SF)
        assert set(sk) <= set(sf)
        assert parse("k", Calculus.SF) is not None  # name, not operator
        assert render(sf["k"]) == "FF"

    @pytest.mark.parametrize("calc", [Calculus.SK, Calculus.SF])
    def test_default_prelude_is_a_fresh_copy(self, calc):
        first = load_default_prelude(calc)
        second = load_default_prelude(calc)
        assert first == second and first is not second
        first["k"] = parse("S", calc)
        first["extra"] = parse("S", calc)
        third = load_default_prelude(calc)
        assert third == second and "extra" not in third

    @pytest.mark.parametrize("calc", [Calculus.SK, Calculus.SF])
    def test_default_prelude_reproduces_the_catalog(self, calc):
        # The CLI's default names are the catalog's entries, in catalog
        # order, so a command line means what the catalog defines.
        from sfcalc.stdlib import build_catalog

        catalog = build_catalog(calc)
        bindings = load_default_prelude(calc)
        assert list(bindings) == list(catalog)
        for name, entry in catalog.items():
            assert bindings[name] == entry.body, name
