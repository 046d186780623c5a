"""Reference runner for differential tests of `turing.run_machine`.

The plain simulator: a `dict` tape from cell index to symbol, one loop
iteration per fired transition, and the non-blank span rebuilt cell by
cell at the end.  It is slow, and it spends a looping machine's whole
budget one step at a time, but it has no compiled action table to get
wrong, so the library's runner is checked against it run by run.
"""

from __future__ import annotations

from sfcalc.turing import DEFAULT_TM_BUDGET, MachineError, MachineRun, MachineSpec


def reference_run_machine(
    spec: MachineSpec, word: str, budget: int = DEFAULT_TM_BUDGET
) -> MachineRun:
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
