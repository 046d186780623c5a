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

Each fired transition costs one step.  The runner keeps the tape as an
array of symbol codes (one byte each for alphabets of up to 256 symbols),
with a mirrored copy for moving left, and looks up each (state, symbol)
in an action table built with the spec.  A sweep, a transition that
keeps both its state and its symbol, is taken as one pattern match over
the cells it passes and charged one step per cell.  A machine that loops
in place, or sweeps into the endless blank beyond the tape, is charged
its whole budget at once, so it answers at any budget.

The module ships two machines built from such text: an identity machine
(start state = accept state, zero transitions) and a machine deciding
whether two '#'-separated words over {A, S, K, F} are equal, by marking
matched symbols with X.
"""

from __future__ import annotations

import re
import sys
from array import array
from typing import Mapping, NamedTuple

from .models import Model, ModelResult

_MOVES = {"L": -1, "R": 1, "S": 0}

# The codec that reads each cell of a tape array with this typecode as
# the one character whose code point is the cell's code.
_CELL_CODECS = {"B": "latin-1", "I": f"utf-32-{sys.byteorder[0]}e"}


class MachineError(ValueError):
    """A malformed machine description or an invalid input word."""


class MachineSpec:
    """A parsed machine.  Immutable, and equal only to itself.  Besides
    its six fields it derives, when built, the symbols by code (the blank
    is code 0), their codes, the tape's array typecode, and each state's
    row of actions."""

    __slots__ = ("alphabet", "blank", "transitions", "start", "accept", "reject",
                 "symbols", "codes", "typecode", "actions")

    alphabet: frozenset[str]
    blank: str
    transitions: Mapping[tuple[str, str], tuple[str, str, int]]
    start: str
    accept: str
    reject: str
    symbols: tuple[str, ...]
    codes: Mapping[str, int]
    typecode: str
    actions: Mapping[str, dict[int, tuple] | None]

    def __init__(self, alphabet: frozenset[str], blank: str,
                 transitions: Mapping[tuple[str, str], tuple[str, str, int]],
                 start: str, accept: str, reject: str) -> None:
        symbols = (blank, *sorted(alphabet - {blank}))
        codes = {s: i for i, s in enumerate(symbols)}
        typecode = "B" if len(symbols) <= 256 else "I"
        # The codes each (state, move) passes over unchanged.
        passes: dict[tuple[str, int], set[int]] = {}
        for (state, symbol), (new_state, new_symbol, move) in transitions.items():
            if (new_state, new_symbol) == (state, symbol):
                passes.setdefault((state, move), set()).add(codes[symbol])
        sweeps = {
            key: (_sweep_pattern(passed, typecode) if key[1] else None, 0 in passed)
            for key, passed in passes.items()
        }
        # A row maps a code to (state', row', code', move, sweep); the
        # halting states have no row.
        rows: dict[str, dict[int, tuple] | None] = {start: {}}
        for (state, _symbol), (new_state, _new_symbol, _move) in transitions.items():
            rows.setdefault(state, {})
            rows.setdefault(new_state, {})
        rows[accept] = rows[reject] = None
        for (state, symbol), (new_state, new_symbol, move) in transitions.items():
            sweep = sweeps[state, move] if (new_state, new_symbol) == (state, symbol) else None
            action = (new_state, rows[new_state], codes[new_symbol], move, sweep)
            rows[state][codes[symbol]] = action
        for name, value in zip(self.__slots__, (alphabet, blank, transitions, start, accept,
                                                reject, symbols, codes, typecode, rows)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MachineSpec is immutable")


def _sweep_pattern(passed: set[int], typecode: str) -> re.Pattern[bytes]:
    """The pattern of a run of cells whose codes are all in `passed`,
    matched from a cell boundary of a tape array with that typecode."""
    units = [b"".join(b"\\x%02x" % b for b in array(typecode, [c]).tobytes())
             for c in sorted(passed)]
    if typecode == "B":
        return re.compile(b"[" + b"".join(units) + b"]*")
    return re.compile(b"(?:" + b"|".join(units) + b")*")


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


class MachineRun(NamedTuple):
    status: str  # "accept" | "reject" | "budget"
    steps: int
    word: str  # the non-blank span of the tape when the run stopped


DEFAULT_TM_BUDGET = 1_000_000


def run_machine(spec: MachineSpec, word: str, budget: int = DEFAULT_TM_BUDGET) -> MachineRun:
    """Run the machine on the input word (written at the head, which
    starts on its first character).  Each fired transition costs one step;
    a missing transition rejects without a step.

    A sweep, a transition that keeps its state and symbol, is taken in
    one pattern match over the run of cells it passes, and charged one
    step per cell, up to the budget left.  A sweep that would run on
    into the endless blank past the tape's end, and a stay self-loop,
    take the whole budget at once, so a looping machine answers at any
    budget."""
    for ch in word:
        if ch == spec.blank or ch not in spec.alphabet:
            raise MachineError(f"input symbol {ch!r} not in the machine's alphabet")
    tape = array(spec.typecode, map(spec.codes.__getitem__, word))
    mirror = tape[::-1]  # cell i of the tape is cell last - i here; left sweeps match on it
    size = tape.itemsize
    last = len(tape) - 1
    head = steps = 0
    state, row = spec.start, spec.actions[spec.start]
    while True:
        if row is None:
            status = "accept" if state == spec.accept else "reject"
            break
        if steps >= budget:
            status = "budget"
            break
        if not 0 <= head <= last:
            pad = array(spec.typecode, bytes(max(last + 1, 16) * size))
            if head < 0:
                tape, mirror, head = pad + tape, mirror + pad, head + len(pad)
            else:
                tape, mirror = tape + pad, pad + mirror
            last = len(tape) - 1
        action = row.get(tape[head])
        if action is None:
            status = "reject"
            break
        state, row, code, move, sweep = action
        if sweep is None:
            tape[head] = code
            mirror[last - head] = code
            head += move
            steps += 1
            continue
        pattern, endless = sweep
        if pattern is not None:
            buf, at = (tape, head) if move > 0 else (mirror, last - head)
            passed = pattern.match(buf, at * size).end() // size - at
            if steps + passed < budget and not (endless and at + passed > last):
                steps += passed
                head += move * passed
                continue
        # The budget runs out in a sweep, on a sweep that never stops,
        # or on a stay self-loop.
        steps, status = budget, "budget"
        break
    # Decode the tape as one character per cell, then map each code to
    # its symbol, without one Python object per cell; the mirror goes first.
    del mirror
    cells = str(tape, _CELL_CODECS[spec.typecode], "surrogatepass")
    return MachineRun(status, steps, cells.translate(spec.symbols).strip(spec.blank))


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
