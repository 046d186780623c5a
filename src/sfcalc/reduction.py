"""Rewrite rules and reduction strategies for the SK and SF calculi.

Rules:
  S-rule            S x y z  ~>  x z (y z)
  K-rule            K x y    ~>  x
  F-atom-rule       F O M N  ~>  M       when O is a bare operator atom
  F-compound-rule   F (P Q) M N  ~>  N P Q   when P Q is a compound

The F rules fire only when the first argument is factorable (an atom or
a compound).  NormalOrder is leftmost-outermost with the one exception
that forces: at a fully applied F whose first argument is neither
factorable nor variable-headed, reduction happens inside that first
argument first, until its head shape stabilizes.  A fully applied F
whose first argument is variable-headed can never fire; a term is
"stuck" (rather than normal) when such positions remain, which requires
an open term.

One engine implements normal order: a stack machine that keeps the
arguments past the redex in a list, so it neither re-scans from the
root nor re-wraps the spine after a step.  Its one frame kind is a spine
with the working term at one argument position.  An F waiting for its
first argument to stabilize is such a frame too, flagged as deferred.
Applicative order is a walk over a zipper of pending ancestors that,
after each step, resumes at the contractum instead of rescanning from
the root (refocusing).  When tracing, both engines record each Step
(its path as the L/R text that `render_trace` prints, rule, redex,
contractum) as it fires, without building the whole term.  The test
suite keeps plain root-rescanning steppers for both strategies, with
their own statement of the rules, as reference oracles and checks both
engines against them step by step.

Untraced normal order is call by need within one call: the S-rule
copies its third argument before it is normal, and the machine reduces
each argument object once, then reuses its normal form wherever the same
object sits again as an argument.  Each reuse charges the steps the copy
would have taken, and none is made that would cross the budget, so step
counts, statuses and budget-stop terms are those of reduction on trees.
"""

from __future__ import annotations

import enum
from typing import Iterable, NamedTuple, Optional

from .syntax import render_terms
from .terms import (
    ARITY,
    App,
    Calculus,
    F,
    Term,
    check_calculus,
    dag_postorder,
)

RULE_S = "S-rule"
RULE_K = "K-rule"
RULE_F_ATOM = "F-atom-rule"
RULE_F_COMPOUND = "F-compound-rule"

DEFAULT_BUDGET = 100_000


class Strategy(enum.Enum):
    NORMAL = "normal"
    APPLICATIVE = "applicative"


class Status(enum.Enum):
    NORMAL = "normal"
    BUDGET = "budget"
    STUCK = "stuck"


class Step(NamedTuple):
    """One rewrite: where it fired, as the path `render_trace` prints, by
    which rule, the redex it fired on and the contractum put there."""

    path: str  # L = into fun, R = into arg; "" at the root
    rule: str
    redex: Term
    contractum: Term


class ReduceOutcome(NamedTuple):
    status: Status  # STUCK: a fully applied F has a variable-headed first argument
    term: Term  # normal form, partial term, or stuck term
    steps_taken: int
    steps: tuple[Step, ...] = ()  # populated only when tracing

    @property
    def is_normal(self) -> bool:
        return self.status is Status.NORMAL


# --- firing a single node ----------------------------------------------------


def _fire(u: Term) -> Optional[tuple[str, Term] | tuple[()]]:
    """(rule, contractum) when a rule fires on u; () when u is a fully
    applied F whose first argument may still reduce at its head; None
    otherwise, a blocked F (variable-headed first argument) included."""
    op = u.head
    if op is None or u.nargs != ARITY[op]:
        return None
    if op == "S":
        f1 = u.fun
        x, y, z = f1.fun.arg, f1.arg, u.arg
        return RULE_S, App(App(x, z), App(y, z))
    if op == "K":
        return RULE_K, u.fun.arg
    a1 = u.fun.fun.arg  # F's first argument
    h = a1.head
    if h is None:
        return None  # variable-headed: permanently blocked here
    if a1.nargs == 0:
        return RULE_F_ATOM, u.fun.arg
    if a1.nargs < ARITY[h]:
        return RULE_F_COMPOUND, App(App(u.arg, a1.fun), a1.arg)
    return ()  # first argument must stabilize first


# --- applicative order -------------------------------------------------------


def _plug(stack: list, w: Term) -> Term:
    """w plugged into the pending ancestors; unchanged ones are reused."""
    for side, p, x in reversed(stack):
        if side:
            w = p if w is p.arg else App(p.fun, w)
        else:
            w = p if w is p.fun and x is p.arg else App(w, x)
    return w


def _applicative_normalize(
    t: Term, budget: int, trace: bool = False
) -> tuple[Term, int, bool, tuple[Step, ...]]:
    """Applicative-order normalization by refocusing; returns (term,
    steps, finished, trail) like the normal-order machine.

    The walk visits a node's argument, then its function, then the node,
    and fires the first fireable node it meets.  What it visited before is
    disjoint from the redex, unchanged by the step and holds no fireable
    node, so the walk resumes at the contractum instead of at the root.
    The redex's own subterms were visited too, so only the nodes the rule
    builds need a check: three for the S-rule, two for F-compound.

    The stack is a zipper of pending ancestors: (1, node, ready) while in
    node.arg, with node.fun next (its children normal when ready), and
    (0, node, arg) while in node.fun, arg being node.arg's normal form.
    The whole term is rebuilt only for a budget stop.
    """
    steps = 0
    trail: list[Step] = []
    stack: list = []
    w = t
    ready = False  # True: w's children are normal, check w itself
    while True:
        if not ready:
            while isinstance(w, App):
                stack.append((1, w, False))
                w = w.arg
        else:
            hit = _fire(w)
            if hit:
                if steps >= budget:
                    return _plug(stack, w), steps, False, tuple(trail)
                steps += 1
                if trace:
                    trail.append(Step("".join("LR"[f[0]] for f in stack), hit[0], w, hit[1]))
                rule, w = hit
                if rule == RULE_S:  # x z (y z): check y z, x z, the whole
                    stack.append((1, w, True))
                    w = w.arg
                    continue
                if rule == RULE_F_COMPOUND:  # N P Q: check N P, the whole
                    stack.append((0, w, w.arg))
                    w = w.fun
                    continue
                # K and F-atom: the contractum is a subterm of the redex,
                # so it is normal.
        # w is normal: hand it to the nearest pending ancestor.
        if not stack:
            return w, steps, True, tuple(trail)
        side, p, x = stack.pop()
        if side:
            stack.append((0, p, w))
            w, ready = p.fun, x
        else:
            w = p if w is p.fun and x is p.arg else App(w, x)
            ready = True


# --- stack machine for normal order -------------------------------------------


def _rebuild(stack: list, w: Term, extras: list) -> Term:
    """Fold the machine stack around the working term and its extras."""
    for e in reversed(extras):
        w = App(w, e)
    for head, args, i, *_ in reversed(stack):
        u = head
        for j, a in enumerate(args):
            u = App(u, w if j == i else a)
        w = u
    return w


def _path(stack: list, extras: list) -> str:
    """Path from the root to the working term, then past its extras."""
    if not stack:
        return "L" * len(extras)
    _, args, i, _, _, path = stack[-1]
    return path + "L" * (len(args) - 1 - i) + "R" + "L" * len(extras)


def _machine_normalize(
    t: Term, budget: int, trace: bool = False
) -> tuple[Term, int, bool, tuple[Step, ...]]:
    """Normal-order normalization without root re-scans.

    Returns (term, steps, finished, trail); the trail of Steps is empty
    unless tracing.  The machine alternates between stabilizing the head
    of the working term (firing spine redexes) and normalizing the
    arguments of stabilized spines left to right.  The working term is w
    applied to extras, its arguments past the redex (last first).  Apps
    are built only to pull an extra into a redex, to give a deferred F its
    first argument, to fold a frame and at a budget stop.  The one frame
    kind, [head, args, i, entered, deferred, path], is a spine whose
    argument i is the working term; entered is the step count when work
    on it began, and path is its path when tracing.

    The machine asks `_fire` about each fully applied operator at the
    head: it fires the rule given, takes a blocked F (None) as stable and
    defers an F that must wait (()).  That F's spine is pushed as a frame
    at i = 0 with the deferred flag set, and its first argument is
    stabilized first.  Once that is head-stable and factorable, the frame
    is folded back and F fires.  Otherwise the F is blocked for good: the
    frame takes the argument's normal form, clears its flag and goes on.

    Untraced runs share work within the call (call by need): when a frame
    receives the normal form of its argument, it records the argument
    object, that normal form and the steps they took.  When a frame moves
    to an argument object it has recorded, it charges the recorded steps
    and takes the normal form instead of reducing the copy.  The count
    stays the tree count because a frame normalizes its argument on its
    own: the steps an argument takes do not depend on where it sits.  A
    reuse that would cross the budget is not made, so the copy is reduced
    and the budget stop falls on the same step and term.  A deferred
    frame's argument is only head-stable when F fires, so it is recorded
    only once the F is blocked and it is fully normal.  The memo lives for
    one call; kept longer, repeated calls would report different counts.
    """
    steps = 0
    trail: list[Step] = []
    # id(argument) -> (argument, its normal form, steps taken); holding
    # the argument keeps its id from being reused within the call.
    memo: Optional[dict[int, tuple[Term, Term, int]]] = None if trace else {}
    stack: list = []
    w, extras = t, []
    while True:
        # Stabilize the spine of w applied to extras.
        while True:
            op = w.head
            if op is None or w.nargs + len(extras) < ARITY[op]:
                break  # leaf, compound, or variable-headed: stable
            while w.nargs > ARITY[op]:
                extras.append(w.arg)
                w = w.fun
            while w.nargs < ARITY[op]:  # w becomes the redex
                w = App(w, extras.pop())
            hit = _fire(w)
            if not hit:
                if hit is None:
                    break  # blocked: variable-headed first argument
                # Defer F; stabilize its first argument first.
                a1 = w.fun.fun.arg
                args = [a1, w.fun.arg, w.arg, *reversed(extras)]
                stack.append([F, args, 0, steps, True, _path(stack, []) if trace else ""])
                w, extras = a1, []
                continue
            if steps >= budget:
                return _rebuild(stack, w, extras), steps, False, tuple(trail)
            steps += 1
            if trace:
                trail.append(Step(_path(stack, extras), hit[0], w, hit[1]))
            w = hit[1]
        # w and extras are head-stable: factorable, variable-headed, or blocked-F.
        if stack and stack[-1][4]:
            # Not `_fire`: it gives () on F (F x M N) a b too, and would loop.
            h = w.head
            if h is not None and w.nargs + len(extras) < ARITY[h]:
                # The deferred F's first argument is factorable: fire F.
                args = stack.pop()[1]
                args[0] = _rebuild([], w, extras)
                w, extras = F, args[::-1]
                continue
        if extras or isinstance(w, App):
            # Enter the argument phase; the loop below moves to args[0].
            while isinstance(w, App):
                extras.append(w.arg)
                w = w.fun
            stack.append([w, extras[::-1], -1, steps, False, _path(stack, []) if trace else ""])
            extras.clear()
        # Hand normal forms up and move to the next argument to normalize.
        while True:
            if not stack:
                return w, steps, True, tuple(trail)
            frame = stack[-1]
            args = frame[1]
            i = frame[2]
            if i >= 0:  # w is the normal form of args[i]
                if memo is not None:
                    src = args[i]
                    memo[id(src)] = (src, w, steps - frame[3])
                args[i] = w
                frame[4] = False  # a deferred F's argument: blocked for good
            i += 1
            if i == len(args):
                stack.pop()
                w = frame[0]
                for a in args:
                    w = App(w, a)
                continue  # fully normal: stable spine with normal arguments
            frame[2] = i
            frame[3] = steps
            w = args[i]
            if memo is not None:
                known = memo.get(id(w))
                if known is not None and steps + known[2] <= budget:
                    steps += known[2]
                    w = known[1]
                    continue
            break


# --- normalization -----------------------------------------------------------


def _cannot_stick(t: Term) -> bool:
    return t.closed or not t.ops & F.ops


def _blocked_f_positions(t: Term) -> bool:
    """True iff t contains a fully applied F with a variable-headed first
    argument (the stuck shape).  Only possible in open terms."""
    if _cannot_stick(t):
        return False
    return any(
        u.head == "F" and u.nargs == 3 and _fire(u) is None
        for u in dag_postorder(t, _cannot_stick)
    )


def normalize(
    t: Term,
    calc: Calculus,
    strategy: Strategy = Strategy.NORMAL,
    budget: int = DEFAULT_BUDGET,
    trace: bool = False,
) -> ReduceOutcome:
    """Iterate the strategy up to budget steps.

    Returns Normal (with the trace when requested), Budget when the step
    budget runs out first, or Stuck when the only non-normal positions
    left are variable-headed fully applied Fs (open terms only).
    """
    check_calculus(t, calc)
    run = _machine_normalize if strategy is Strategy.NORMAL else _applicative_normalize
    term, n, finished, steps = run(t, budget, trace)
    if not finished:
        return ReduceOutcome(Status.BUDGET, term, n, steps)
    if _blocked_f_positions(term):
        return ReduceOutcome(Status.STUCK, term, n, steps)
    return ReduceOutcome(Status.NORMAL, term, n, steps)


def render_trace(steps: Iterable[Step]) -> str:
    """One line per step: "<n> <rule> @ <path> : <redex> => <contractum>",
    with the step's L/R path as it is stored, or ε for the root.  A
    redex or contractum past `syntax.MAX_PRINT_NODES` nodes is shown as
    its size and hash.  All sides are printed in one `render_terms` call,
    so a subterm shared between steps (the x, y and z of an S-rule turn
    up in its redex, its contractum and later steps) is printed once and
    reused."""
    steps = tuple(steps)
    sides = render_terms(t for s in steps for t in (s.redex, s.contractum))
    lines = []
    for i, s in enumerate(steps):
        lines.append(f"{i + 1} {s.rule} @ {s.path or 'ε'} : {sides[2 * i]} => {sides[2 * i + 1]}")
    return "\n".join(lines)


# --- extensional probing ------------------------------------------------------


def extensionally_agree(
    a: Term,
    b: Term,
    calc: Calculus,
    probes: Iterable[Term],
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """True iff a and b behave identically on every probe: a X and b X
    both normalize to the same term, both get stuck on the same term, or
    both exhaust the budget."""
    for probe in probes:
        ra = normalize(App(a, probe), calc, Strategy.NORMAL, budget)
        rb = normalize(App(b, probe), calc, Strategy.NORMAL, budget)
        if ra.status is not rb.status:
            return False
        if ra.status is not Status.BUDGET and ra.term != rb.term:
            return False
    return True
