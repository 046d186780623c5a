#!/usr/bin/env python3
"""Regenerate the packaged prelude files from the combinator catalog.

Each catalog entry becomes a `let name = term;` binding.  Bodies mention
earlier names instead of repeating their terms, so the files stay
readable and loading them (name substitution, in order) reproduces the
catalog exactly; the test suite asserts that round trip.

Run from the repository root:

    python scripts/gen_prelude.py

It takes no arguments; given any, it prints a usage line and exits with
status 2 without writing.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from sfcalc.stdlib import build_catalog  # noqa: E402
from sfcalc.terms import App, Calculus, Term  # noqa: E402

_IDENT_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789_")


def render_with_names(t: Term, names: dict[Term, str]) -> str:
    """Minimal-parentheses rendering that prints a named subterm as its
    name (names bind as tightly as atoms)."""

    def go(u: Term, in_arg: bool) -> str:
        name = names.get(u)
        if name is not None:
            return name
        if not isinstance(u, App):
            return u.name
        left = go(u.fun, False)
        right = go(u.arg, True)
        sep = " " if left[-1] in _IDENT_CHARS and right[0] in _IDENT_CHARS else ""
        s = left + sep + right
        return f"({s})" if in_arg else s

    return go(t, False)


def prelude_text(calc: Calculus) -> str:
    lines = [
        "# Generated by scripts/gen_prelude.py; do not edit by hand.",
        f"# Combinator catalog for the {calc.value} calculus.",
        "",
    ]
    names: dict[Term, str] = {}
    for name, entry in build_catalog(calc).items():
        rendered = render_with_names(entry.body, names)
        lines.append(f"# {entry.contract}")
        lines.append(f"let {name} = {rendered};")
        names.setdefault(entry.body, name)
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    if argv:
        print("usage: python scripts/gen_prelude.py  (takes no arguments)",
              file=sys.stderr)
        return 2
    for calc in (Calculus.SK, Calculus.SF):
        path = SRC / "sfcalc" / f"prelude.{calc.value}"
        text = prelude_text(calc)
        path.write_text(text, encoding="utf-8")
        bindings = sum(1 for line in text.splitlines() if line.startswith("let "))
        print(f"wrote {path} ({bindings} bindings)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
