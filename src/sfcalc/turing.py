"""Single-tape Turing machines over character alphabets.

Machine files are plain text.  Full-line comments start with '#' (inline
comments are not supported because '#' is also a useful tape symbol).
Header lines declare the control states and blank symbol:

    start  q0
    accept acc
    reject rej
    blank  _
    alphabet ASKF#X_

(`blank` defaults to '_'; `alphabet` adds tape symbols beyond the ones
appearing in transitions, which is how a machine with few transitions can
still validate wide inputs.)  Every other line is a transition:

    state symbol -> state' symbol' move

with move one of L, R, S (left, right, stay).  The accept and reject
states must have no outgoing transitions.  A missing transition is an
implicit transition to the reject state.

The module ships two machines built from such text: an identity machine
(start state = accept state, zero transitions) and a machine deciding
whether two '#'-separated words over {A, S, K, F} are equal, by marking
matched symbols with X.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .models import Model, ModelResult

_MOVES = {"L": -1, "R": 1, "S": 0}


class MachineError(ValueError):
    """A malformed machine description or an invalid input word."""


@dataclass(frozen=True, eq=False)
class MachineSpec:
    alphabet: frozenset[str]
    blank: str
    transitions: Mapping[tuple[str, str], tuple[str, str, int]]
    start: str
    accept: str
    reject: str


def parse_machine(text: str) -> MachineSpec:
    """Parse the machine file format described in the module docstring."""
    headers: dict[str, str] = {"blank": "_"}
    extra_symbols: set[str] = set()
    transitions: dict[tuple[str, str], tuple[str, str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) == 2 and parts[0] in ("start", "accept", "reject", "blank", "alphabet"):
            key, value = parts
            if key == "alphabet":
                extra_symbols.update(value)
                continue
            if key == "blank" and len(value) != 1:
                raise MachineError(f"line {lineno}: blank must be a single character")
            if key in headers and key != "blank":
                raise MachineError(f"line {lineno}: duplicate {key} header")
            headers[key] = value
            continue
        if len(parts) == 6 and parts[2] == "->":
            state, symbol, _, new_state, new_symbol, move = parts
            if len(symbol) != 1 or len(new_symbol) != 1:
                raise MachineError(f"line {lineno}: tape symbols are single characters")
            if move not in _MOVES:
                raise MachineError(f"line {lineno}: move must be L, R, or S")
            key = (state, symbol)
            if key in transitions:
                raise MachineError(f"line {lineno}: duplicate transition for {state} {symbol}")
            transitions[key] = (new_state, new_symbol, _MOVES[move])
            continue
        raise MachineError(f"line {lineno}: cannot parse {line!r}")

    missing = [k for k in ("start", "accept", "reject") if k not in headers]
    if missing:
        raise MachineError(f"missing header(s): {', '.join(missing)}")
    start, accept, reject = headers["start"], headers["accept"], headers["reject"]
    blank = headers["blank"]
    if accept == reject:
        raise MachineError("accept and reject states must differ")
    for state, _symbol in transitions:
        if state in (accept, reject):
            raise MachineError(f"halting state {state} must have no outgoing transitions")
    alphabet = {blank} | extra_symbols
    for (_state, symbol), (_new_state, new_symbol, _move) in transitions.items():
        alphabet.update((symbol, new_symbol))
    return MachineSpec(
        alphabet=frozenset(alphabet),
        blank=blank,
        transitions=transitions,
        start=start,
        accept=accept,
        reject=reject,
    )


@dataclass(frozen=True)
class MachineRun:
    status: str  # "accept" | "reject" | "budget"
    steps: int
    word: str  # the non-blank span of the tape when the run stopped


DEFAULT_TM_BUDGET = 1_000_000


def run_machine(spec: MachineSpec, word: str, budget: int = DEFAULT_TM_BUDGET) -> MachineRun:
    """Run the machine on the input word (written at the head, which
    starts on its first character).  Each fired transition costs one step;
    a missing transition rejects without a step."""
    for ch in word:
        if ch == spec.blank or ch not in spec.alphabet:
            raise MachineError(f"input symbol {ch!r} not in the machine's alphabet")
    tape: dict[int, str] = {i: ch for i, ch in enumerate(word)}
    head = 0
    state = spec.start
    steps = 0

    def stripped() -> str:
        cells = [i for i, ch in tape.items() if ch != spec.blank]
        if not cells:
            return ""
        lo, hi = min(cells), max(cells)
        return "".join(tape.get(i, spec.blank) for i in range(lo, hi + 1))

    while True:
        if state == spec.accept:
            return MachineRun("accept", steps, stripped())
        if state == spec.reject:
            return MachineRun("reject", steps, stripped())
        if steps >= budget:
            return MachineRun("budget", steps, stripped())
        symbol = tape.get(head, spec.blank)
        trans = spec.transitions.get((state, symbol))
        if trans is None:
            return MachineRun("reject", steps, stripped())
        state, new_symbol, move = trans
        if new_symbol == spec.blank:
            tape.pop(head, None)
        else:
            tape[head] = new_symbol
        head += move
        steps += 1


IDENTITY_MACHINE_TEXT = """\
# Accepts immediately, leaving the tape untouched.
start acc
accept acc
reject rej
alphabet ASKF#_
"""

EQUALITY_MACHINE_TEXT = """\
# Decides whether the input w1#w2, with w1 and w2 words over
# {A, S, K, F}, has w1 equal to w2.  Symbols checked on both sides are
# overwritten with X.  Any input that is not such a pair is rejected
# (possibly by a missing transition).
start q0
accept acc
reject rej
blank _

# Pick up the next unchecked symbol of the left word; when the left word
# is exhausted, make sure the right word is too.
q0 A -> carry_A X R
q0 S -> carry_S X R
q0 K -> carry_K X R
q0 F -> carry_F X R
q0 # -> fin # R

# Carry the symbol rightward to the separator.
carry_A A -> carry_A A R
carry_A S -> carry_A S R
carry_A K -> carry_A K R
carry_A F -> carry_A F R
carry_A X -> carry_A X R
carry_A # -> seek_A # R
carry_S A -> carry_S A R
carry_S S -> carry_S S R
carry_S K -> carry_S K R
carry_S F -> carry_S F R
carry_S X -> carry_S X R
carry_S # -> seek_S # R
carry_K A -> carry_K A R
carry_K S -> carry_K S R
carry_K K -> carry_K K R
carry_K F -> carry_K F R
carry_K X -> carry_K X R
carry_K # -> seek_K # R
carry_F A -> carry_F A R
carry_F S -> carry_F S R
carry_F K -> carry_F K R
carry_F F -> carry_F F R
carry_F X -> carry_F X R
carry_F # -> seek_F # R

# Skip the already-checked prefix of the right word; the first unchecked
# symbol must match the carried one (a mismatch or a blank rejects).
seek_A X -> seek_A X R
seek_A A -> back X L
seek_S X -> seek_S X R
seek_S S -> back X L
seek_K X -> seek_K X R
seek_K K -> back X L
seek_F X -> seek_F X R
seek_F F -> back X L

# Return: left over the checked prefix to the separator, then left over
# the unchecked rest of the left word, then step right onto its first
# unchecked symbol.
back X -> back X L
back # -> back1 # L
back1 A -> back1 A L
back1 S -> back1 S L
back1 K -> back1 K L
back1 F -> back1 F L
back1 X -> q0 X R

# The left word is exhausted: accept only if the right word is too.
fin X -> fin X R
fin _ -> acc _ S
"""

IDENTITY_MACHINE = parse_machine(IDENTITY_MACHINE_TEXT)
EQUALITY_MACHINE = parse_machine(EQUALITY_MACHINE_TEXT)


def equality_step_bound(n: int) -> int:
    """Declared step bound for the equality machine on a pair input of
    total length n: each of the at most (n-1)/2 marking rounds costs at
    most one full sweep right and back, which is quadratic overall."""
    return 2 * n * n + 8 * n + 8


def turing_model(budget: int = DEFAULT_TM_BUDGET) -> Model:
    """Programs are machine specs, values are tape words.  Acceptance
    yields the final tape's non-blank span; rejection is undefined."""

    def apply(program: object, args: object) -> ModelResult:
        if not isinstance(program, MachineSpec):
            raise MachineError("turing programs are machine specs")
        (word,) = args  # type: ignore[misc]
        run = run_machine(program, word, budget)
        if run.status == "accept":
            return ModelResult("ok", run.word)
        if run.status == "reject":
            return ModelResult("undefined")
        return ModelResult("budget")

    return Model(
        name="turing",
        contains=lambda x: isinstance(x, str),
        apply=apply,
    )
