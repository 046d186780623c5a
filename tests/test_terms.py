"""Term tree structure, cached measures, and paths."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from sfcalc.models import random_closed_term
from sfcalc.terms import (
    ARITY,
    App,
    Atom,
    Calculus,
    CalculusError,
    F,
    K,
    S,
    Var,
    app,
    check_calculus,
    free_vars,
    substitute,
)

from normal_order_oracle import replace_at


def atoms(calc):
    return st.sampled_from(sorted(calc.operators)).map(Atom)


def terms_st(calc, with_vars=False):
    leaves = atoms(calc)
    if with_vars:
        leaves = leaves | st.sampled_from("xyz").map(Var)
    return st.recursive(leaves, lambda sub: st.builds(App, sub, sub), max_leaves=12)


class TestConstruction:
    def test_singletons_are_atoms(self):
        assert S == Atom("S") and K == Atom("K") and F == Atom("F")

    def test_slots_reject_new_attributes(self):
        with pytest.raises(AttributeError):
            App(S, K).extra = 1
        with pytest.raises(AttributeError):
            Atom("S").extra = 1

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            Atom("Q")

    def test_illegal_variable_names_rejected(self):
        for bad in ("S", "K", "F", "Name", "x-y", ""):
            with pytest.raises(ValueError):
                Var(bad)
        assert Var("x").name == "x"
        assert Var("probe2").name == "probe2"
        assert Var("M").name == "M"

    def test_structural_equality_and_hash(self):
        assert App(S, K) == App(S, K)
        assert App(S, K) != App(K, S)
        assert len({App(S, K), App(S, K), App(K, S)}) == 2

    def test_equality_walks_shared_nodes_once(self):
        def tower(leaf, depth=64):  # 2**65 - 1 tree nodes, 65 distinct ones
            t = leaf
            for _ in range(depth):
                t = App(t, t)
            return t

        assert tower(Var("x")) == tower(Var("x"))
        # Different names with the same hash: every level agrees on hash
        # and size, so only the walk down to the leaves can tell them apart.
        a, b = Var("v29685295"), Var("v32060020")
        assert a.h == b.h and a != b
        assert tower(a) != tower(b)

    def test_app_helper_left_associates(self):
        assert app(S, K, F) == App(App(S, K), F)
        assert app(S) == S

    def test_calculus_operators(self):
        assert Calculus.SK.operators == frozenset({"S", "K"})
        assert Calculus.SF.operators == frozenset({"S", "F"})
        assert ARITY == {"S": 3, "K": 2, "F": 3}

    def test_check_calculus_rejects_foreign_operators(self):
        with pytest.raises(CalculusError):
            check_calculus(App(S, K), Calculus.SF)
        with pytest.raises(CalculusError):
            check_calculus(F, Calculus.SK)
        check_calculus(App(S, F), Calculus.SF)


class TestMeasures:
    def test_size_counts_nodes(self):
        assert S.size == 1
        assert App(S, K).size == 3
        assert App(App(S, K), App(S, K)).size == 7

    def test_head_and_nargs_follow_the_spine(self):
        t = app(S, K, F)
        assert t.head == "S" and t.nargs == 2
        assert S.head == "S" and S.nargs == 0
        assert Var("x").head is None
        assert app(Var("x"), S).head is None

    def test_closed_tracks_variables(self):
        assert app(S, K, S).closed
        assert not Var("x").closed
        assert not app(S, Var("x")).closed

    @given(terms_st(Calculus.SF, with_vars=True))
    def test_size_is_node_count(self, t):
        def count(u):
            return 1 if not isinstance(u, App) else 1 + count(u.fun) + count(u.arg)

        assert t.size == count(t)


class TestSubstitute:
    def test_substitutes_free_occurrences(self):
        t = app(Var("x"), S, Var("x"))
        assert substitute(t, {"x": K}) == app(K, S, K)

    def test_leaves_other_variables(self):
        assert substitute(Var("y"), {"x": K}) == Var("y")

    def test_parallel_substitution(self):
        t = App(Var("x"), Var("y"))
        assert substitute(t, {"x": Var("y"), "y": Var("x")}) == App(Var("y"), Var("x"))

    def test_free_vars(self):
        assert free_vars(app(Var("x"), S, Var("y"), Var("x"))) == {"x", "y"}
        assert free_vars(app(S, K)) == set()


def subterm_at(t, path):
    """Subterm at a path of 0 (fun) / 1 (arg) choices from the root."""
    for step in path:
        if not isinstance(t, App):
            raise IndexError(f"path {path} leaves the term")
        t = t.arg if step else t.fun
    return t


class TestPaths:
    def test_replace_at_rebuilds_spine(self):
        t = App(App(S, K), F)
        assert replace_at(t, (False, True), F) == App(App(S, F), F)
        assert replace_at(t, (), K) == K

    @given(st.integers(0, 2**32 - 1))
    def test_replace_roundtrip_random(self, seed):
        t = random_closed_term(Calculus.SF, 9, random.Random(seed))
        for path in [(), (False,), (True,), (False, False)]:
            try:
                sub = subterm_at(t, path)
            except (IndexError, ValueError, TypeError):
                continue
            assert replace_at(t, path, sub) == t
