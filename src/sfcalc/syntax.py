"""Concrete syntax: parser, printer, and the Polish-notation codec.

Grammar: operator letters for the active calculus, single uppercase
letters as variables (``M``, ``P``), lowercase identifiers as variables
(``x``, ``probe2``), juxtaposition associating to the left, parentheses
for grouping.  Printing is minimal-parenthesis and round-trips.

Polish words serialize closed terms in preorder over the alphabet
{A, S, F} (SF) or {A, S, K} (SK), with A marking an application; the
word is exactly the Turing-machine tape format.
"""

from __future__ import annotations

from .terms import ARITY, App, Atom, Calculus, CalculusError, Term, Var, atom, var

_IDENT_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_")


class ParseError(ValueError):
    """Malformed term text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PolishError(ValueError):
    """Ill-formed Polish word."""


# --- parsing ---------------------------------------------------------------


def _lex(text: str, calc: Calculus) -> list[tuple[int, str, str]]:
    """Tokens as (position, kind, payload); kind in {'(', ')', 'atom', 'var'}."""
    tokens: list[tuple[int, str, str]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            tokens.append((i, ch, ch))
            i += 1
        elif ch.isupper() and ch.isalpha():
            if ch in ARITY:
                if ch not in calc.operators:
                    raise CalculusError(
                        f"operator {ch} is illegal in {calc.name}-calculus"
                        f" (at position {i})"
                    )
                tokens.append((i, "atom", ch))
            else:
                tokens.append((i, "var", ch))
            i += 1
        elif ch in _IDENT_CHARS and ch.isalpha():
            j = i + 1
            while j < n and text[j] in _IDENT_CHARS:
                j += 1
            tokens.append((i, "var", text[i:j]))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


def parse(text: str, calc: Calculus) -> Term:
    """Parse term text; juxtaposition is left-associative application."""
    tokens = _lex(text, calc)
    # One frame per open parenthesis: (position, term-so-far or None).
    frames: list[tuple[int, Term | None]] = []
    current: Term | None = None
    for pos, kind, payload in tokens:
        if kind == "(":
            frames.append((pos, current))
            current = None
        elif kind == ")":
            if not frames:
                raise ParseError("unbalanced ')'", pos)
            if current is None:
                raise ParseError("empty parentheses", pos)
            _, outer = frames.pop()
            current = current if outer is None else App(outer, current)
        else:
            leaf = atom(payload) if kind == "atom" else var(payload)
            current = leaf if current is None else App(current, leaf)
    if frames:
        raise ParseError("unclosed '('", frames[-1][0])
    if current is None:
        raise ParseError("empty input", len(text))
    return current


# --- printing --------------------------------------------------------------


def render(t: Term) -> str:
    """Minimal-parenthesis text; parse(render(t)) reconstructs t.

    Only application arguments that are themselves applications get
    parentheses.  A space is inserted exactly where two adjacent
    identifier tokens would otherwise fuse into one.
    """
    out: list[str] = []
    last = ""  # final character emitted so far
    stack: list[Term | str] = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            last = item
            continue
        if isinstance(item, App):
            if isinstance(item.arg, App):
                stack += [")", item.arg, "(", item.fun]
            else:
                stack += [item.arg, item.fun]
            continue
        name = item.name
        if last and last[-1] in _IDENT_CHARS and name[0] in _IDENT_CHARS:
            out.append(" ")
        out.append(name)
        last = name
    return "".join(out)


#: The largest term `render_capped` prints in full, in nodes.
MAX_PRINT_NODES = 100_000


def render_capped(t: Term) -> str:
    """render(t), or `<term of N nodes, hash H>` (H in hex) for a term of
    more than MAX_PRINT_NODES nodes, whose text could be gigabytes."""
    if t.size > MAX_PRINT_NODES:
        return f"<term of {t.size} nodes, hash {t.h:x}>"
    return render(t)


# --- Polish-notation codec ---------------------------------------------------


def to_polish(t: Term) -> str:
    """Preorder word with A for application; defined on closed terms only."""
    if not t.closed:
        raise ValueError("Polish encoding is defined on closed terms only")
    out: list[str] = []
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, App):
            out.append("A")
            stack.append(node.arg)
            stack.append(node.fun)
        else:
            assert isinstance(node, Atom)
            out.append(node.name)
    return "".join(out)


def is_well_formed_polish(word: str, calc: Calculus) -> bool:
    """Counter law: start at 1; A adds 1, an operator letter subtracts 1;
    the counter must stay positive and reach 0 exactly at the last letter."""
    if not word:
        return False
    counter = 1
    for i, ch in enumerate(word):
        if ch == "A":
            counter += 1
        elif ch in calc.operators:
            counter -= 1
        else:
            return False
        if counter == 0:
            return i == len(word) - 1
        if counter < 0:
            return False
    return False


def from_polish(word: str, calc: Calculus) -> Term:
    """Inverse of to_polish; raises PolishError on ill-formed words."""
    for ch in word:
        if ch != "A" and ch in ARITY and ch not in calc.operators:
            raise CalculusError(
                f"operator {ch} is illegal in {calc.name}-calculus"
            )
    if not is_well_formed_polish(word, calc):
        raise PolishError(f"ill-formed Polish word {word!r}")
    stack: list[Term] = []
    for ch in reversed(word):
        if ch == "A":
            fun = stack.pop()
            arg = stack.pop()
            stack.append(App(fun, arg))
        else:
            stack.append(atom(ch))
    assert len(stack) == 1
    return stack[0]
