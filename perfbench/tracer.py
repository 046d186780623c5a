"""Spans around sfcalc's public functions, recorded from outside the package.

`Tracer.install` rebinds each traced function in every `sfcalc` module
that holds it (`normalize` is bound in `reduction`, `stdlib`, `models`
and `cli`), so calls between modules pass through a wrapper that
records a span: name, start, end and parent.  Spans stay in memory; a
layer's self time is its span time minus the time of its child spans,
of the garbage collections that ran inside it, and of the tracer's own
counting (`trace.hooks`).  `uninstall` puts the original functions back.
"""

from __future__ import annotations

import gc
import sys
import time
from collections import defaultdict
from typing import Callable

from sfcalc import cli, lambda_bridge, models, reduction, stdlib, syntax, turing, witnesses
from sfcalc.reduction import Status, Strategy
from sfcalc.terms import App

perf_counter = time.perf_counter


def dag_nodes(t) -> int:
    """Distinct App/leaf objects reachable from t (shared subterms once)."""
    seen = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if id(u) in seen:
            continue
        seen.add(id(u))
        if type(u) is App:
            stack.append(u.fun)
            stack.append(u.arg)
    return len(seen)


def _normalize_layer(args, kwargs, out) -> str:
    if out.status is Status.BUDGET:
        return "reduction.budget_stop"
    strategy = args[2] if len(args) > 2 else kwargs.get("strategy", Strategy.NORMAL)
    if strategy is Strategy.APPLICATIVE:
        return "reduction.applicative"
    traced = args[4] if len(args) > 4 else kwargs.get("trace", False)
    return "reduction.stepper" if traced else "reduction.machine"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self._open: list[list] = []  # [span index, start, child time, parent]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []
        self._gc_start = 0.0
        # While set, wrappers and the GC callback record nothing: the
        # benchmark's reference checks call sfcalc too.
        self.suspended = False

    # --- spans ------------------------------------------------------------------

    def begin(self) -> list:
        parent = self._open[-1][0] if self._open else -1
        self.spans.append(None)  # type: ignore[arg-type]
        frame = [len(self.spans) - 1, perf_counter(), 0.0, parent]
        self._open.append(frame)
        return frame

    def end(self, frame: list, name: str) -> None:
        now = perf_counter()
        self._open.pop()
        index, start, child, parent = frame
        self.spans[index] = (name, start, now, parent)
        duration = now - start
        self.self_s[name] += duration - child
        self.counts[name + ".calls"] += 1
        if self._open:
            self._open[-1][2] += duration

    def _aside(self, name: str, duration: float) -> None:
        """Time spent inside the open span that belongs to none of its layers."""
        self.self_s[name] += duration
        if self._open:
            self._open[-1][2] += duration

    def _on_gc(self, phase: str, info: dict) -> None:
        if self.suspended:
            return
        if phase == "start":
            self._gc_start = perf_counter()
            return
        self._aside("python.gc", perf_counter() - self._gc_start)
        self.counts["python.gc.collections"] += 1

    def take_pass(self) -> tuple[dict, dict, list]:
        """Self times, counts and spans since the last call; then reset."""
        out = dict(self.self_s), dict(self.counts), self.spans
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []
        return out

    # --- wrappers ---------------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, label: Callable | None,
              after: Callable | None) -> Callable:
        tracer = self
        active = [False]

        def wrapper(*args, **kwargs):
            if active[0] or tracer.suspended:  # recursive, or not measured
                return fn(*args, **kwargs)
            active[0] = True
            frame = tracer.begin()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.end(frame, name)
                raise
            finally:
                active[0] = False
            span = name if label is None else label(args, kwargs, out)
            tracer.end(frame, span)
            if after is not None:
                start = perf_counter()
                after(tracer.counts, span, args, kwargs, out)
                tracer._aside("trace.hooks", perf_counter() - start)
            return out

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def install(self) -> None:
        if self._restore:
            return
        for owner, attr, name, label, after in _targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, label, after)
            holders = [owner] if isinstance(owner, type) else [
                m for n, m in list(sys.modules.items())
                if m is not None and (n == "sfcalc" or n.startswith("sfcalc."))
            ]
            for holder in holders:
                for held_as, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, held_as, wrapper)
                        self._restore.append((holder, held_as, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._restore):
            setattr(holder, name, original)
        self._restore.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)


def _after_normalize(counts, name, args, kwargs, out) -> None:
    counts[name + ".steps"] += out.steps_taken
    counts["reduction.result.tree_nodes"] += out.term.size
    counts["reduction.result.dag_nodes"] += dag_nodes(out.term)


def _add_len(key: str) -> Callable:
    def after(counts, name, args, kwargs, out) -> None:
        counts[key] += len(out)

    return after


def _after_cli_main(counts, name, args, kwargs, out) -> None:
    stdout = kwargs.get("stdout", args[1] if len(args) > 1 else None)
    if stdout is not None:
        counts["cli.stdout_bytes"] += len(stdout.getvalue().encode())


def _after_eval_rec(counts, name, args, kwargs, out) -> None:
    counts["models.eval_rec.evals"] += out.evals


def _after_run_machine(counts, name, args, kwargs, out) -> None:
    counts["turing.run_machine.steps"] += out.steps


def _targets() -> list[tuple]:
    """Per traced function: owner, attribute, span name, a function naming
    the span from the call and its result (or None), and a count hook."""
    return [
        (reduction, "normalize", "reduction.normalize", _normalize_layer,
         _after_normalize),
        (reduction, "render_trace", "reduction.render_trace", None,
         _add_len("reduction.render_trace.chars")),
        (reduction, "extensionally_agree", "reduction.extensionally_agree", None, None),
        (syntax, "parse", "syntax.parse", None, None),
        (syntax, "render", "syntax.render", None, _add_len("syntax.render.chars")),
        (cli, "load_default_prelude", "cli.load_default_prelude", None, None),
        (cli, "main", "cli.main", None, _after_cli_main),
        (models, "eval_rec", "models.eval_rec", None, _after_eval_rec),
        (models, "gnum", "models.gnum", None, None),
        (models, "gterm", "models.gterm", None, None),
        (turing, "run_machine", "turing.run_machine", None, _after_run_machine),
        (witnesses.SimulationCase, "run", "witnesses.case", None, None),
        (witnesses.WeakEquivalenceCase, "run", "witnesses.case", None, None),
        (lambda_bridge, "bracket_abstract", "lambda_bridge.bracket_abstract", None, None),
        (lambda_bridge, "beta_normalize", "lambda_bridge.beta_normalize", None, None),
        (stdlib, "build_catalog", "stdlib.build_catalog", None, None),
    ]
