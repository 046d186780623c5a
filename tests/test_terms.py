"""Term tree structure, cached measures, and paths."""

from __future__ import annotations

import functools
import operator
import random
import zlib

import pytest
from hypothesis import given, strategies as st

from sfcalc import terms
from sfcalc.models import random_closed_term
from sfcalc.reduction import Strategy, _blocked_f_positions, normalize
from sfcalc.syntax import ParseError, parse, render
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
    dag_postorder,
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

    @pytest.mark.parametrize(
        "name", ["fooBar", "\u00e9t", "x\u00e9", "_x", "x\u0663", "\u216b", "\u00df"]
    )
    def test_names_the_term_syntax_cannot_read_are_rejected(self, name):
        with pytest.raises(ValueError, match="illegal variable name"):
            Var(name)

    @given(
        st.from_regex(r"[a-z][a-z0-9_]*", fullmatch=True)
        | st.characters(whitelist_categories=["Lu"]).filter(lambda c: c not in ARITY)
    )
    def test_every_accepted_name_round_trips(self, name):
        assert parse(render(Var(name)), Calculus.SF) == Var(name)

    @given(st.text(max_size=4) | st.text("abxyzMSKF019_ \u00e9\u216b", max_size=4))
    def test_var_accepts_exactly_one_variable_token(self, text):
        try:
            t = parse(text, Calculus.SF)
        except (ParseError, CalculusError):
            t = None
        try:
            accepted = Var(text).name == text
        except ValueError:
            accepted = False
        assert accepted == (type(t) is Var and t.name == text)

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

    def test_check_calculus_on_open_terms_names_only_the_foreign_operator(self):
        x = Var("x")
        for calc, foreign in ((Calculus.SF, "K"), (Calculus.SK, "F")):
            check_calculus(app(S, x, x), calc)
            check_calculus(x, calc)
            message = f"operator {foreign} is illegal in {calc.name}-calculus"
            with pytest.raises(CalculusError) as info:
                check_calculus(app(S, x, Atom(foreign), x), calc)
            assert str(info.value) == message


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

    def test_ops_and_closed_on_each_node_kind(self):
        x = Var("x")
        bits = [S.ops, K.ops, F.ops, x.ops]
        assert all(bits) and sum(bits) == S.ops | K.ops | F.ops | x.ops
        assert S.closed and K.closed and F.closed and not x.closed
        assert Var("y").ops == x.ops
        for calc in Calculus:
            assert calc.op_mask == sum(Atom(o).ops for o in calc.operators)
        t = app(S, K, x)
        assert t.ops == S.ops | K.ops | x.ops and not t.closed
        assert app(S, F, S).ops == S.ops | F.ops and app(S, F, S).closed

    @given(terms_st(Calculus.SF, with_vars=True))
    def test_ops_and_closed_follow_the_leaves(self, t):
        leaves = [u for u in dag_postorder(t, lambda u: False) if not isinstance(u, App)]
        assert t.ops == functools.reduce(operator.or_, (u.ops for u in leaves))
        assert t.closed == (not ref_free_vars(t))

    @given(terms_st(Calculus.SF, with_vars=True))
    def test_size_is_node_count(self, t):
        def count(u):
            return 1 if not isinstance(u, App) else 1 + count(u.fun) + count(u.arg)

        assert t.size == count(t)


_MASK = (1 << 61) - 1


def ref_hash(t, memo=None):
    """The structural hash that `<term of N nodes, hash H>` prints, stated
    again, recursively, with a memo so that shared DAGs stay cheap."""
    memo = {} if memo is None else memo
    if id(t) not in memo:
        if isinstance(t, App):
            value = ref_hash(t.fun, memo) * 2654435761 + ref_hash(t.arg, memo) * 40503 + 3
        else:
            value = zlib.crc32(f"{'op' if isinstance(t, Atom) else 'var'}:{t.name}".encode())
        memo[id(t)] = value & _MASK
    return memo[id(t)]


def rebuilt(t):
    """An equal copy of t that shares no application node with it."""
    return App(rebuilt(t.fun), rebuilt(t.arg)) if isinstance(t, App) else t


class TestHash:
    """`h` is filled on first read; its value does not depend on when."""

    def test_leaves(self):
        assert S.h == zlib.crc32(b"op:S") and Var("x").h == zlib.crc32(b"var:x")

    @given(terms_st(Calculus.SF, with_vars=True), st.randoms(use_true_random=False))
    def test_h_is_the_reference_hash_in_any_read_order(self, t, rng):
        nodes = dag_postorder(rebuilt(t), lambda u: False)
        memo = {}
        for u in rng.sample(nodes, len(nodes)):
            assert u.h == ref_hash(u, memo)

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("calc", list(Calculus))
    def test_h_of_shared_dags(self, calc, seed):
        rng = random.Random(seed)
        t = random_dag(calc, rng, nodes=60)
        nodes = dag_postorder(t, lambda u: False)
        for u in rng.sample(nodes, 3):
            u.h
        memo = {}
        assert [u.h for u in nodes] == [ref_hash(u, memo) for u in nodes]

    def test_h_of_a_tower_of_2_to_the_65_tree_nodes(self):
        assert d_power_normal_form(64).h == ref_hash(d_power_normal_form(64))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_long_spines_hash_without_recursion(self, side):
        n = 200_000
        t, expected = S, S.h
        for _ in range(n):
            if side == "left":
                t = App(t, K)
                expected = (expected * 2654435761 + K.h * 40503 + 3) & _MASK
            else:
                t = App(K, t)
                expected = (K.h * 2654435761 + expected * 40503 + 3) & _MASK
        assert t.size == 2 * n + 1
        assert t.h == expected

    @given(terms_st(Calculus.SF, with_vars=True), st.sampled_from(["a", "b", "neither"]))
    def test_equal_terms_built_apart_are_equal_whichever_is_hashed_first(self, t, first):
        a, b = rebuilt(t), rebuilt(t)
        if first != "neither":
            (a if first == "a" else b).h
        assert a == b and b == a
        assert hash(a) == hash(b) == ref_hash(t)
        assert len({a, b}) == 1


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
    """Subterm at a path of L (fun) / R (arg) choices from the root."""
    for step in path:
        if not isinstance(t, App):
            raise IndexError(f"path {path} leaves the term")
        t = t.arg if step == "R" else t.fun
    return t


class TestPaths:
    def test_replace_at_rebuilds_spine(self):
        t = App(App(S, K), F)
        assert replace_at(t, "LR", F) == App(App(S, F), F)
        assert replace_at(t, "", K) == K

    @given(st.integers(0, 2**32 - 1))
    def test_replace_roundtrip_random(self, seed):
        t = random_closed_term(Calculus.SF, 9, random.Random(seed))
        for path in ["", "L", "R", "LL"]:
            try:
                sub = subterm_at(t, path)
            except (IndexError, ValueError, TypeError):
                continue
            assert replace_at(t, path, sub) == t


def distinct_nodes(t):
    """The ids of the nodes of t, found without `dag_postorder`."""
    seen, stack = set(), [t]
    while stack:
        u = stack.pop()
        if id(u) not in seen:
            seen.add(id(u))
            if isinstance(u, App):
                stack += [u.fun, u.arg]
    return seen


def d_power_normal_form(n):
    """The applicative normal form of D^n x, D = S I I: 2^(n+1) - 1 tree
    nodes, n + 1 distinct ones."""
    i = app(S, K, K)
    t = Var("x")
    for _ in range(n):
        t = App(app(S, i, i), t)
    out = normalize(t, Calculus.SK, Strategy.APPLICATIVE)
    assert out.term.size == 2 ** (n + 1) - 1
    return out.term


@pytest.fixture
def walked(monkeypatch):
    """The applications that walks through `dag_postorder` visit.  A walk
    that visits more than 1,000 fails there instead of running on."""
    visits = []
    walk = terms.dag_postorder

    def counted(t, stop):
        def visit(u):
            visits.append(u)
            if len(visits) > 1_000:
                raise AssertionError("the walk visits nodes more than once")
            return stop(u)

        return walk(t, visit)

    monkeypatch.setattr(terms, "dag_postorder", counted)
    return visits


class TestDagWalks:
    """Each walk visits the distinct nodes of a term, not its tree nodes."""

    def test_postorder_lists_each_distinct_node_once(self, walked):
        t = d_power_normal_form(40)
        order = terms.dag_postorder(t, lambda u: False)
        assert len(walked) == 40
        assert len(order) == len({id(u) for u in order}) == len(distinct_nodes(t)) == 41
        assert order[-1] is t
        position = {id(u): k for k, u in enumerate(order)}
        for u in order:
            if isinstance(u, App):
                assert position[id(u.fun)] < position[id(u)] > position[id(u.arg)]

    def test_postorder_lists_a_stopped_node_without_its_subterms(self):
        closed = app(S, K, K)
        t = App(Var("x"), closed)
        assert dag_postorder(t, lambda u: u.closed) == [Var("x"), closed, t]
        assert dag_postorder(closed, lambda u: u.closed) == [closed]

    def test_a_shared_term_prints_capped(self):
        assert repr(d_power_normal_form(40)).startswith("<term of 2199023255551 nodes")

    def test_free_vars_of_a_shared_normal_form(self, walked):
        assert free_vars(d_power_normal_form(40)) == {"x"}
        assert len(walked) == 40

    def test_substitute_keeps_the_sharing(self, walked):
        t = d_power_normal_form(40)
        u = substitute(t, {"x": K})
        assert len(walked) == 40
        assert u.closed and u.size == t.size
        assert len(distinct_nodes(u)) == len(distinct_nodes(t))


# --- recursive reference definitions -------------------------------------------


def ref_free_vars(t):
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, App):
        return ref_free_vars(t.fun) | ref_free_vars(t.arg)
    return set()


def ref_substitute(t, bindings):
    if isinstance(t, Var):
        return bindings.get(t.name, t)
    if isinstance(t, App):
        return App(ref_substitute(t.fun, bindings), ref_substitute(t.arg, bindings))
    return t


def spine(t):
    args = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    return t, args[::-1]


def ref_stuck(t):
    """Some subterm is F applied to exactly three arguments, the first one
    variable-headed."""
    head, args = spine(t)
    if head == F and len(args) == 3 and isinstance(spine(args[0])[0], Var):
        return True
    return isinstance(t, App) and (ref_stuck(t.fun) or ref_stuck(t.arg))


def random_dag(calc, rng, nodes=30):
    """A random open term built from a pool of earlier nodes, so that
    subterms are shared; the pool holds stuck F shapes, closed and F-free
    subterms beside them."""
    x, y = Var("x"), Var("y")
    pool = [Atom(o) for o in sorted(calc.operators)] + [x, y, App(x, y)]
    if calc is Calculus.SF:
        pool += [app(F, x, S, S), app(F, App(y, S), F)]
    pool.append(random_closed_term(calc, 5, rng))
    for _ in range(nodes):
        t = App(rng.choice(pool), rng.choice(pool))
        if t.size <= 4_000:
            pool.append(t)
    return rng.choice(pool[-5:])


class TestWalksAgainstReference:
    @pytest.mark.parametrize("seed", range(60))
    @pytest.mark.parametrize("calc", list(Calculus))
    def test_random_terms(self, calc, seed):
        rng = random.Random(seed)
        t = random_dag(calc, rng)
        bindings = {"x": random_closed_term(calc, 3, rng), "y": Var("z")}
        if seed % 3 == 0:
            del bindings["y"]
        assert free_vars(t) == ref_free_vars(t)
        assert _blocked_f_positions(t) == ref_stuck(t)
        u = substitute(t, bindings)
        assert u == ref_substitute(t, bindings)
        # Every subterm that no binding touches is kept as the same node.
        kept = distinct_nodes(u)
        for node in dag_postorder(t, lambda v: False):
            if not ref_free_vars(node) & bindings.keys():
                assert id(node) in kept

    def test_stuck_f_beside_closed_and_f_free_siblings(self):
        stuck = app(F, Var("x"), S, S)
        for sibling in (app(S, S, S), app(S, Var("y")), app(F, F), Var("y")):
            for t in (App(sibling, stuck), App(stuck, sibling), App(App(sibling, sibling), stuck)):
                assert _blocked_f_positions(t) and ref_stuck(t)
            assert _blocked_f_positions(App(sibling, sibling)) == ref_stuck(App(sibling, sibling))
        assert not _blocked_f_positions(app(F, app(S, Var("x")), S, S))
        assert not _blocked_f_positions(app(F, Var("x"), S))
