"""Closed combinator library: booleans, pairs, a normal-order fixpoint,
Church arithmetic, and (in SF) the intensional payload: an atom
discriminator, structural equality of closed normal forms, and
Godelization inside the calculus.

Construction notes:

* Catalog bodies are built by the lambda-bridge's `abstract` with its
  constant and eta clauses on, to keep terms small; this is a library
  construction choice, while the plain three-clause translation that
  `bracket_abstract` runs with them off is part of the public contract.
* Church numerals come from the lambda-bridge's plain translation, so
  numeral n+1 is literally succ applied to numeral n, where succ is the
  numeral scaffold S B shared by all numerals.  The arithmetic suite
  only ever builds numerals by iterating succ over numeral 0, so its
  outputs are canonical numerals on the nose, not merely convertible to
  them.
* eq and godelize recurse through a Turing-style fixpoint that is safe
  under normal order.  fix, eq, godelize, and eqviacode contain an
  applied fixpoint and therefore have no normal form themselves; every
  other catalog body is already a normal form.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .lambda_bridge import abstract, bracket_abstract, church_lambda, i_term, k_term
from .reduction import normalize
from .terms import App, Calculus, F, Term, Var, app


def lam(names: Sequence[str] | str, body: Term, calc: Calculus) -> Term:
    """Abstract several variables: lam("mn", body) is [m][n]body."""
    out = body
    for name in reversed(list(names)):
        out = abstract(name, out, calc, optimized=True)
    return out


@functools.cache
def _numeral_scaffold(calc: Calculus) -> tuple[Term, Term]:
    """Numeral 0 and succ, the scaffold of numeral 1 around numeral 0."""
    zero = bracket_abstract(church_lambda(0), calc)
    return zero, bracket_abstract(church_lambda(1), calc).fun


def church(n: int, calc: Calculus) -> Term:
    """The canonical Church numeral: the plain bracket-abstraction image
    of the lambda-term iterating f over x n times, which is succ applied
    n times to numeral 0."""
    if n < 0:
        raise ValueError("Church numerals encode naturals only")
    numeral, succ = _numeral_scaffold(calc)
    for _ in range(n):
        numeral = App(succ, numeral)
    return numeral


# --- the catalog ---------------------------------------------------------------


class NamedCombinator(NamedTuple):
    name: str
    calculus: Calculus
    body: Term  # closed
    contract: str  # one-line behavioral contract
    has_normal_form: bool = True  # False for bodies containing an applied fixpoint


@functools.cache
def build_catalog(calc: Calculus) -> Mapping[str, NamedCombinator]:
    """Core combinators for the calculus; SF additionally gets the
    intensional entries (d, isatom, eqatom, eq, godelize, eqviacode).
    Built once per calculus and shared read-only by every caller."""
    entries: list[NamedCombinator] = []

    def define(name: str, body: Term, contract: str, nf: bool = True) -> Term:
        assert body.closed, name
        if nf:
            # Abstraction can leave reduced-size applied subterms (for
            # example a partially applied pair); the catalog ships every
            # normalizing entry in normal form.
            out = normalize(body, calc, budget=200_000)
            assert out.is_normal, name
            body = out.term
        entries.append(NamedCombinator(name, calc, body, contract, nf))
        return body

    L = functools.partial(lam, calc=calc)

    m, n, a, b, o, p, q, r, s, g, h, e = (
        Var(x) for x in "mnabopqrsghe"
    )

    k = define("k", k_term(calc), "k X Y reduces to X")
    i = define("i", i_term(calc), "i X reduces to X")
    true = define("true", k, "selector: true X Y reduces to X")
    false = define("false", App(k, i), "selector: false X Y reduces to Y")
    pair = define(
        "pair", L("abs", app(s, a, b)), "fst/snd project pair components"
    )
    fst = define("fst", L("p", App(p, true)), "fst (pair A B) reduces to A")
    snd = define("snd", L("p", App(p, false)), "snd (pair A B) reduces to B")
    w = L("xf", App(Var("f"), app(Var("x"), Var("x"), Var("f"))))
    fix = define(
        "fix",
        App(w, w),
        "normal-order fixpoint: fix g X reduces as g (fix g) X",
        nf=False,
    )

    c0 = define("c0", church(0, calc), "Church numeral 0")
    succ = define(
        "succ",
        church(1, calc).fun,
        "succ applied to numeral n is literally numeral n+1",
    )
    c1, c2, c3 = [
        define(f"c{v}", church(v, calc), f"Church numeral {v}") for v in range(1, 10)
    ][:3]
    plus = define(
        "plus",
        L("mn", app(m, succ, app(n, succ, c0))),
        "numeral addition, canonical in and out",
    )
    define(
        "times",
        L("mn", app(m, App(n, succ), c0)),
        "numeral multiplication, canonical in and out",
    )
    prestep = L("gh", App(h, App(g, succ)))
    pred = define(
        "pred",
        L("n", app(n, prestep, App(k, c0), i)),
        "truncated predecessor: pred c0 is c0",
    )
    iszero = define(
        "iszero", L("n", app(n, App(k, false), true)), "boolean zero test"
    )
    define(
        "iszero01",
        L("n", app(n, App(k, c0), c1)),
        "numeral zero test: c1 if zero else c0",
    )
    and_ = define("and", L("ab", app(a, b, false)), "boolean conjunction")
    sub = define(
        "sub", L("mn", app(n, pred, m)), "truncated numeral subtraction"
    )
    numeq = define(
        "numeq",
        L(
            "mn",
            app(
                and_,
                App(iszero, app(sub, m, n)),
                App(iszero, app(sub, n, m)),
            ),
        ),
        "numeral equality via truncated subtraction both ways",
    )

    if calc is Calculus.SF:
        kk = lambda t: App(k, App(k, t))  # noqa: E731 - two-argument discard
        d = define(
            "d",
            L("o", app(o, kk(true), F, kk(false))),
            "atom discriminator: d S is true, d F is false",
        )
        define(
            "isatom",
            L("m", app(F, m, true, kk(false))),
            "true iff the argument is a bare operator",
        )
        eqatom = define(
            "eqatom",
            L("ab", app(App(d, a), App(d, b), app(App(d, b), false, true))),
            "operator equality via the discriminator",
        )
        eqstep = define(
            "eqstep",
            L(
                "emn",
                app(
                    F,
                    m,
                    app(F, n, app(eqatom, m, n), kk(false)),
                    L(
                        "pq",
                        app(
                            F,
                            n,
                            false,
                            L("rs", app(app(e, p, r), app(e, q, s), false)),
                        ),
                    ),
                ),
            ),
            "one unfolding of structural equality: atoms via eqatom, "
            "compounds componentwise, mixed shapes false",
        )
        define(
            "eq",
            App(fix, eqstep),
            "structural equality of closed normal forms",
            nf=False,
        )
        tstep = L(
            "p",
            app(
                pair,
                App(succ, App(fst, p)),
                app(plus, App(succ, App(fst, p)), App(snd, p)),
            ),
        )
        tri = define(
            "tri",
            L("a", App(snd, app(a, tstep, app(pair, c0, c0)))),
            "triangle number: tri n is n(n+1)/2, by pair iteration",
        )
        cpair = define(
            "cpair",
            L("ab", app(plus, App(tri, app(plus, a, b)), b)),
            "Cantor pairing on numerals",
        )
        godstep = define(
            "godstep",
            L(
                "gm",
                app(
                    F,
                    m,
                    app(App(d, m), c1, c2),
                    L("pq", app(plus, c3, app(cpair, App(g, p), App(g, q)))),
                ),
            ),
            "one unfolding of Godelization: S to 1, F to 2, compounds to "
            "cantor-pair of the components plus 3",
        )
        godelize = define(
            "godelize",
            App(fix, godstep),
            "maps a closed normal form to the Church numeral of its code",
            nf=False,
        )
        define(
            "eqviacode",
            L("mn", app(numeq, App(godelize, m), App(godelize, n))),
            "equality decided by comparing Godel codes numerically",
            nf=False,
        )

    return MappingProxyType({entry.name: entry for entry in entries})


def catalog_terms(catalog: Mapping[str, NamedCombinator]) -> dict[str, Term]:
    return {name: entry.body for name, entry in catalog.items()}
