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

from .lambda_bridge import (
    LambdaParseError,
    beta_normalize,
    bracket_abstract,
    church_lambda,
    enumerate_closed_lambda,
    parse_lambda,
    render_lambda,
)
from .models import (
    ArityError,
    CheckReport,
    CheckRow,
    Comp,
    Model,
    ModelResult,
    Mu,
    PrimRec,
    Proj,
    RecFn,
    RecOutcome,
    SUCC,
    ZERO,
    Succ,
    Zero,
    build_probe_corpus,
    cantor_pair,
    cantor_unpair,
    enumerate_closed_terms,
    enumerate_normal_forms,
    eval_rec,
    gnum,
    gterm,
    normal_model,
    random_closed_term,
    recursive_model,
)
from .reduction import (
    DEFAULT_BUDGET,
    ReduceOutcome,
    Status,
    Step,
    Strategy,
    extensionally_agree,
    normalize,
    render_trace,
)
from .stdlib import NamedCombinator, build_catalog, catalog_terms, church
from .syntax import (
    ParseError,
    PolishError,
    from_polish,
    parse,
    render,
    to_polish,
)
from .terms import (
    ARITY,
    App,
    Atom,
    Calculus,
    CalculusError,
    F,
    K,
    S,
    Term,
    Var,
    app,
    atom,
    free_vars,
    substitute,
)
from .turing import (
    EQUALITY_MACHINE,
    IDENTITY_MACHINE,
    MachineError,
    MachineRun,
    MachineSpec,
    equality_step_bound,
    parse_machine,
    run_machine,
    turing_model,
)
from .witnesses import (
    SimulationCase,
    WeakEquivalenceCase,
    build_simulation_cases,
    build_weak_equivalence_cases,
    church_code_oracle,
    church_code_recfn,
    number_to_word,
    rec_add,
    rec_iszero,
    rec_mul,
    rec_pred,
    rec_succ,
    surrogate_code_recfn,
    word_to_number,
)

__version__ = "1.0.0"
