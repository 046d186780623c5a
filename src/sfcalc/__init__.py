"""A term-rewriting workbench for the SF and SK combinator calculi.

The package makes three things executable side by side:

* structural equality and coding of closed normal forms as programs
  inside the SF calculus (`stdlib`),
* simulations and weak equivalences between reduction, recursive
  functions, and Turing machines (`models`, `turing`, `witnesses`), and
* the empirical separation: extensionally indistinguishable programs
  that SF equality tells apart, which no SK program can (`reduction`,
  the `sfcalc demo` command).
"""
