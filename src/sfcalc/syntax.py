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

from typing import Iterable

from .terms import ARITY, NAME_CHARS, App, Atom, Calculus, CalculusError, Term, Var, atom


class ParseError(ValueError):
    """Malformed term text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PolishError(ValueError):
    """Ill-formed Polish word."""


# --- parsing ---------------------------------------------------------------


def parse(text: str, calc: Calculus) -> Term:
    """Parse term text; juxtaposition is left-associative application.

    One pass, left to right.  An unexpected character (ParseError) or the
    other calculus's operator letter (CalculusError) raises at once.  The
    first misplaced parenthesis (ParseError) is held back to the end of
    the text, so a fault of the first kind anywhere is reported before
    it; then an unclosed '(' or empty input (ParseError).
    """
    # One frame per open parenthesis: (position, term-so-far or None).
    frames: list[tuple[int, Term | None]] = []
    current: Term | None = None
    fault: ParseError | None = None
    ops = calc.operators
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        start, i = i, i + 1
        if ch == "(":
            frames.append((start, current))
            current = None
        elif ch == ")":
            if frames and current is not None:
                _, outer = frames.pop()
                current = current if outer is None else App(outer, current)
            elif fault is None:
                fault = ParseError("empty parentheses" if frames else "unbalanced ')'", start)
        elif not ch.isspace():
            if ch in ops:
                leaf: Term = atom(ch)
            elif ch in ARITY:
                raise CalculusError(
                    f"operator {ch} is illegal in {calc.name}-calculus (at position {start})"
                )
            elif ch.isupper() and ch.isalpha():
                leaf = Var(ch)
            elif ch in NAME_CHARS and ch.isalpha():
                while i < n and text[i] in NAME_CHARS:
                    i += 1
                leaf = Var(text[start:i])
            else:
                raise ParseError(f"unexpected character {ch!r}", start)
            current = leaf if current is None else App(current, leaf)
    if fault is not None:
        raise fault
    if frames:
        raise ParseError("unclosed '('", frames[-1][0])
    if current is None:
        raise ParseError("empty input", n)
    return current


# --- printing --------------------------------------------------------------


#: The largest term `render_capped` and `render_trace` print in full, in nodes.
MAX_PRINT_NODES = 100_000


def render_terms(terms: Iterable[Term], cap: int | None = MAX_PRINT_NODES) -> list[str]:
    """The text of each term, as `render` prints it, or for a term of
    more than `cap` nodes `<term of N nodes, hash H>` (H in hex).

    One memo serves the whole sequence, so shared subterms cost their
    DAG size, not their tree size.  A first pass finds the applications
    reached more than once (a root counts as one reference); each of
    these keeps its text when it is finished, and later visits append
    that text.  The text of an application is the same wherever it
    occurs, because it always follows "(" or starts its root's text.
    """
    terms = list(terms)
    # id -> text of each shared application, None until it is finished.
    memo: dict[int, str | None] = {}
    seen: set[int] = set()
    walk = [t for t in terms if t.__class__ is App and (cap is None or t.size <= cap)]
    while walk:
        node = walk.pop()
        key = id(node)
        if key in seen:
            memo[key] = None
            continue
        seen.add(key)
        if node.fun.__class__ is App:
            walk.append(node.fun)
        if node.arg.__class__ is App:
            walk.append(node.arg)
    del seen
    texts = []
    for t in terms:
        if cap is not None and t.size > cap:
            texts.append(f"<term of {t.size} nodes, hash {t.h:x}>")
            continue
        out: list[str] = []
        last = ""  # the last piece appended to out
        # Terms to print, literal text, and (key, start) marks that close
        # a shared application whose text begins at out[start].
        stack: list = [t]
        while stack:
            item = stack.pop()
            kind = item.__class__
            if kind is str:
                out.append(item)
                last = item
                continue
            if kind is tuple:
                key, start = item
                text = "".join(out[start:])
                out[start:] = [text]
                memo[key] = text
                continue
            # Down the spine: stack each argument, then print the head leaf,
            # or (on break) the finished text of a shared application.
            while kind is App:
                key = id(item)
                if key in memo:
                    text = memo[key]
                    if text is not None:
                        break
                    stack.append((key, len(out)))
                if item.arg.__class__ is App:
                    stack += (")", item.arg, "(")
                else:
                    stack.append(item.arg)
                item = item.fun
                kind = item.__class__
            else:
                # A space only where two identifier tokens would fuse.
                text = item.name
                if last and last[-1] in NAME_CHARS and text[0] in NAME_CHARS:
                    out.append(" ")
            out.append(text)
            last = text
        texts.append("".join(out))
    return texts


def render(t: Term) -> str:
    """Minimal-parenthesis text; parse(render(t)) reconstructs t.

    Only application arguments that are themselves applications get
    parentheses.  A space is inserted exactly where two adjacent
    identifier tokens would otherwise fuse into one.
    """
    return render_terms((t,), None)[0]


def render_capped(t: Term) -> str:
    """render(t), or `<term of N nodes, hash H>` (H in hex) for a term of
    more than MAX_PRINT_NODES nodes, whose text could be gigabytes."""
    return render_terms((t,))[0]


# --- Polish-notation codec ---------------------------------------------------


#: The most letters of a Polish word, one per node: `to_polish` refuses
#: a larger term before it walks, as `godel` refuses a longer code.
MAX_POLISH_LETTERS = 2_000_000


def to_polish(t: Term) -> str:
    """Preorder word with A for application; defined on closed terms of
    at most MAX_POLISH_LETTERS nodes only."""
    if not t.closed:
        raise ValueError("Polish encoding is defined on closed terms only")
    if t.size > MAX_POLISH_LETTERS:
        raise ValueError(f"the Polish word has more than {MAX_POLISH_LETTERS:,} letters")
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


def from_polish(word: str, calc: Calculus) -> Term:
    """Inverse of to_polish.  The decoder is the well-formedness check:
    right to left, an A needs two terms on the stack, an operator letter
    pushes its atom, any other letter fails, and exactly one term must
    remain.  A word that fails raises CalculusError if it holds the other
    calculus's operator letter, and PolishError otherwise."""
    ops = calc.operators
    stack: list[Term] = []
    for ch in reversed(word):
        if ch in ops:
            stack.append(atom(ch))
        elif ch == "A" and len(stack) > 1:
            fun = stack.pop()
            stack[-1] = App(fun, stack[-1])
        else:
            break
    else:
        if len(stack) == 1:
            return stack[0]
    for op in ARITY.keys() - ops:
        if op in word:
            raise CalculusError(f"operator {op} is illegal in {calc.name}-calculus")
    raise PolishError(f"ill-formed Polish word {word!r}")
