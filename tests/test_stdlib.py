"""Combinator catalog: abstraction, arithmetic, and the SF equality suite."""

from __future__ import annotations

import hashlib

import pytest

from sfcalc.lambda_bridge import abstract, bracket_abstract, church_lambda
from sfcalc.models import enumerate_normal_forms, gnum
from sfcalc.reduction import Status, normalize
from sfcalc.stdlib import NamedCombinator, build_catalog, church, lam
from sfcalc.syntax import parse, render
from sfcalc.terms import App, Calculus, F, K, S, Var, app

SK = Calculus.SK
SF = Calculus.SF

SF_ONLY = {
    "cpair", "d", "eq", "eqatom", "eqstep", "eqviacode",
    "godelize", "godstep", "isatom", "tri",
}


def run(t, calc, budget=100_000):
    out = normalize(t, calc, budget=budget)
    assert out.status is Status.NORMAL, (render(t)[:80], out.status)
    return out.term


class TestCatalogShape:
    def test_shared_names_exist_in_both_calculi(self, sk_catalog, sf_catalog):
        assert set(sk_catalog) <= set(sf_catalog)
        assert set(sf_catalog) - set(sk_catalog) == SF_ONLY

    def test_entries_are_closed_and_calculus_legal(self, sk_catalog, sf_catalog):
        for catalog, calc in ((sk_catalog, SK), (sf_catalog, SF)):
            for entry in catalog.values():
                assert isinstance(entry, NamedCombinator)
                assert entry.calculus is calc
                assert entry.body.closed
                assert entry.body.ops | calc.op_mask == calc.op_mask

    def test_normal_form_entries_are_already_normal(self, sk_catalog, sf_catalog):
        for catalog, calc in ((sk_catalog, SK), (sf_catalog, SF)):
            for entry in catalog.values():
                if entry.has_normal_form:
                    assert normalize(entry.body, calc).steps_taken == 0, entry.name

    def test_every_entry_has_a_contract(self, sf_catalog):
        for entry in sf_catalog.values():
            assert entry.contract.strip()

    def test_k_is_ff_in_sf(self, sf_terms):
        assert sf_terms["k"] == App(F, F)

    @pytest.mark.parametrize("calc", [SK, SF])
    def test_catalog_is_built_once_and_read_only(self, calc):
        catalog = build_catalog(calc)
        assert build_catalog(calc) is catalog
        with pytest.raises(TypeError):
            catalog["k"] = catalog["i"]  # type: ignore[index]

    def test_fixpoint_entries_deliberately_lack_normal_forms(self, sf_catalog):
        for name in ("fix", "eq", "godelize", "eqviacode"):
            assert not sf_catalog[name].has_normal_form

    def test_catalog_bodies_are_pinned(self, sk_catalog, sf_catalog):
        # Every body's structural hash and size, in catalog order.
        lines = [
            f"{entry.calculus.value} {name} {entry.body.h:x} {entry.body.size}"
            for catalog in (sk_catalog, sf_catalog)
            for name, entry in catalog.items()
        ]
        assert len(lines) == 64
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "310a117c7564824bd906b85e20d492ee718bc108429fa6b88f4fd164641d7600"


X, Y = Var("x"), Var("y")


class TestAbstraction:
    def test_abstract_eliminates_the_variable(self):
        body = app(Var("x"), S, Var("x"))
        for calc in (SK, SF):
            image = abstract("x", body, calc, optimized=True)
            assert "x" not in render(image)
            got = run(App(image, Var("v")), calc)
            assert got == app(Var("v"), S, Var("v"))

    def test_lam_multi_binder(self):
        swap = lam(["x", "y"], App(Var("y"), Var("x")), SK)
        out = run(app(swap, S, K), SK)
        assert out == App(K, S)

    def test_lam_accepts_a_single_name(self):
        ident = lam("x", Var("x"), SK)
        assert run(App(ident, S), SK) == S

    @pytest.mark.parametrize("optimized", [False, True])
    def test_variable_clause(self, optimized):
        assert abstract("x", X, SK, optimized) == parse("SKK", SK)
        assert abstract("x", X, SF, optimized) == parse("S(FF)(FF)", SF)

    @pytest.mark.parametrize("optimized", [False, True])
    def test_other_leaf_clause(self, optimized):
        assert abstract("x", Y, SK, optimized) == parse("K y", SK)
        assert abstract("x", F, SF, optimized) == parse("FFF", SF)

    def test_application_clause(self):
        # The plain set walks every application, closed or not.
        assert abstract("x", App(Y, X), SK, False) == parse("S(K y)(SKK)", SK)
        assert abstract("x", App(S, S), SF, False) == parse("S(FFS)(FFS)", SF)
        assert abstract("x", app(Y, S, X), SK, False) == parse(
            "S(S(K y)(KS))(SKK)", SK
        )

    def test_constant_clause(self):
        assert abstract("x", app(Y, S, Y), SK, True) == parse("K(y S y)", SK)
        assert abstract("x", App(S, S), SF, True) == parse("FF(SS)", SF)

    def test_eta_clause(self):
        assert abstract("x", app(Y, S, X), SK, True) == parse("y S", SK)
        # x occurs in the function part: no eta step.
        assert abstract("x", App(X, X), SK, True) == parse("S(SKK)(SKK)", SK)

    @pytest.mark.parametrize("optimized", [False, True])
    def test_shared_nodes_are_abstracted_once(self, optimized):
        # A DAG of 61 nodes whose tree has 2^61 - 1 nodes.
        body, want = X, parse("SKK", SK)
        for _ in range(60):
            body, want = App(body, body), app(S, want, want)
        assert abstract("x", body, SK, optimized) == want


class TestBooleansAndPairs:
    def test_selectors(self, sk_terms, sf_terms):
        for terms in (sk_terms, sf_terms):
            calc = SK if terms is sk_terms else SF
            assert run(app(terms["true"], Var("a"), Var("b")), calc) == Var("a")
            assert run(app(terms["false"], Var("a"), Var("b")), calc) == Var("b")
            assert run(app(terms["and"], terms["true"], terms["false"]), calc) == run(
                terms["false"], calc
            )

    def test_pair_projections(self, sk_terms):
        boxed = app(sk_terms["pair"], Var("a"), Var("b"))
        assert run(App(sk_terms["fst"], boxed), SK) == Var("a")
        assert run(App(sk_terms["snd"], boxed), SK) == Var("b")

    def test_fix_unfolds(self, sk_terms):
        # fix g x reduces to g (fix g) x; feeding a constant function
        # through fix must therefore reach the constant.
        const = lam(["f", "x"], Var("x"), SK)
        out = run(app(sk_terms["fix"], const, S), SK)
        assert out == S


class TestArithmetic:
    def test_church_builder_is_canonical(self):
        for calc in (SK, SF):
            c2 = church(2, calc)
            got = run(app(c2, Var("f"), Var("x")), calc)
            assert got == parse("f(f x)", calc)

    @pytest.mark.parametrize("calc", [SK, SF], ids=["sk", "sf"])
    def test_church_is_the_plain_translation_iterated(self, calc):
        for n in (*range(12), 1000):
            assert church(n, calc) == bracket_abstract(church_lambda(n), calc), n
        succ = church(1, calc).fun
        big = church(1000, calc)
        assert big.fun == succ and big.arg == church(999, calc)
        assert big.size == church(0, calc).size + 1000 * (succ.size + 1)
        with pytest.raises(ValueError):
            church(-1, calc)

    def test_catalog_numerals_chain_by_succ(self, sk_terms, sf_terms):
        for terms, calc in ((sk_terms, SK), (sf_terms, SF)):
            assert terms["c0"] == church(0, calc)
            for n in range(1, 10):
                assert terms[f"c{n}"] == App(terms["succ"], terms[f"c{n-1}"])
                assert terms[f"c{n}"] == church(n, calc)

    @pytest.mark.parametrize("calc", [SK, SF], ids=["sk", "sf"])
    def test_plus_and_times(self, calc, sk_terms, sf_terms):
        terms = sk_terms if calc is SK else sf_terms
        for a in range(6):
            for b in range(6):
                got = run(app(terms["plus"], church(a, calc), church(b, calc)), calc)
                assert got == church(a + b, calc), (a, b)
                got = run(app(terms["times"], church(a, calc), church(b, calc)), calc)
                assert got == church(a * b, calc), (a, b)

    @pytest.mark.parametrize("calc", [SK, SF], ids=["sk", "sf"])
    def test_pred_sub_iszero(self, calc, sk_terms, sf_terms):
        terms = sk_terms if calc is SK else sf_terms
        for n in range(6):
            got = run(App(terms["pred"], church(n, calc)), calc)
            assert got == church(max(0, n - 1), calc)
            want = terms["true"] if n == 0 else terms["false"]
            assert run(App(terms["iszero"], church(n, calc)), calc) == run(want, calc)
        for a in range(4):
            for b in range(4):
                got = run(app(terms["sub"], church(a, calc), church(b, calc)), calc)
                assert got == church(max(0, a - b), calc)

    @pytest.mark.parametrize("calc", [SK, SF], ids=["sk", "sf"])
    def test_numeq_and_numeral_valued_iszero(self, calc, sk_terms, sf_terms):
        terms = sk_terms if calc is SK else sf_terms
        for a in range(4):
            for b in range(4):
                got = run(app(terms["numeq"], church(a, calc), church(b, calc)), calc)
                want = terms["true"] if a == b else terms["false"]
                assert got == run(want, calc)
        for n in range(4):
            got = run(App(terms["iszero01"], church(n, calc)), calc)
            assert got == church(1 if n == 0 else 0, calc)


class TestFactorisationTools:
    def test_d_discriminates_the_two_operators(self, sf_terms):
        t, f = run(sf_terms["true"], SF), run(sf_terms["false"], SF)
        assert run(App(sf_terms["d"], S), SF) == t
        assert run(App(sf_terms["d"], F), SF) == f

    def test_isatom(self, sf_terms):
        t, f = run(sf_terms["true"], SF), run(sf_terms["false"], SF)
        assert run(App(sf_terms["isatom"], S), SF) == t
        assert run(App(sf_terms["isatom"], F), SF) == t
        assert run(App(sf_terms["isatom"], App(S, S)), SF) == f
        assert run(App(sf_terms["isatom"], app(F, S, S)), SF) == f

    def test_eqatom_on_all_atom_pairs(self, sf_terms):
        t, f = run(sf_terms["true"], SF), run(sf_terms["false"], SF)
        for a in (S, F):
            for b in (S, F):
                got = run(app(sf_terms["eqatom"], a, b), SF)
                assert got == (t if a == b else f)


class TestStructuralEquality:
    def test_eq_pins(self, sf_terms):
        t, f = run(sf_terms["true"], SF), run(sf_terms["false"], SF)
        eq = sf_terms["eq"]
        assert run(app(eq, S, S), SF, budget=1_000_000) == t
        assert run(app(eq, S, F), SF, budget=1_000_000) == f
        assert run(app(eq, parse("S(FF)(FF)", SF), parse("S(FF)S", SF)), SF,
                   budget=1_000_000) == f

    def test_eq_matches_host_equality_on_small_forms(self, sf_terms):
        t, f = run(sf_terms["true"], SF), run(sf_terms["false"], SF)
        forms = enumerate_normal_forms(SF, 3)
        for a in forms:
            for b in forms:
                got = run(app(sf_terms["eq"], a, b), SF, budget=1_000_000)
                assert got == (t if a == b else f), (render(a), render(b))

    def test_godelize_matches_gnum_on_atoms_and_pairs(self, sf_terms):
        for m in (S, F, App(S, S), App(F, F), App(S, F)):
            got = run(App(sf_terms["godelize"], m), SF, budget=10_000_000)
            assert got == church(gnum(m), SF), render(m)

    def test_eqviacode_agrees_with_eq_on_samples(self, sf_terms):
        t, f = run(sf_terms["true"], SF), run(sf_terms["false"], SF)
        pairs = [(S, S), (S, F), (App(S, S), App(S, S)), (App(S, S), App(F, F))]
        for a, b in pairs:
            got = run(app(sf_terms["eqviacode"], a, b), SF, budget=10_000_000)
            assert got == (t if a == b else f)
