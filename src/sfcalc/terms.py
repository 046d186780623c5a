"""Combinator terms for the SK and SF calculi.

Terms are immutable binary application trees over operator atoms and
variables.  Every node computes its size, spine-head operator, applied
argument count and operator bitmask (with a bit for variables, so it
also says whether the term is closed) at construction time, so rule
matching and calculus legality checks are O(1).  The structural hash is
computed on first read: reduction builds millions of nodes and reads no
hash, while equality, `hash` and capped printing read it.  A first read
fills the hash of every unfilled node below in one walk, so a node with a
hash has hashed descendants, and equality can shortcut on hashes.

A term may share subterms, so it is a DAG.  Every walk here visits a
shared node once: equality visits each pair of nodes once, and
`dag_postorder` lists each node once for `free_vars`, `substitute`, the
stuck check and bracket abstraction.  So their cost is the DAG size, not
the tree size, and `substitute` keeps every unchanged node, so sharing
survives it.
"""

from __future__ import annotations

import enum
import zlib
from typing import Callable, Mapping, Optional

# --- operators and calculi -------------------------------------------------

#: Number of arguments each operator consumes when its rule fires.
ARITY: dict[str, int] = {"S": 3, "K": 2, "F": 3}

_OP_BIT = {"S": 1, "K": 2, "F": 4}
_VAR_BIT = 8  # in `ops`: the term contains a variable
_HASH_MASK = (1 << 61) - 1


class Calculus(enum.Enum):
    """A combinatory calculus: which operator atoms are legal."""

    SK = "sk"
    SF = "sf"

    @property
    def operators(self) -> frozenset[str]:
        return _OPERATORS[self]

    @property
    def op_mask(self) -> int:
        return _OP_MASKS[self]


_OPERATORS = {Calculus.SK: frozenset("SK"), Calculus.SF: frozenset("SF")}
_OP_MASKS = {
    c: sum(_OP_BIT[o] for o in ops) for c, ops in _OPERATORS.items()
}


class CalculusError(ValueError):
    """A term mentions an operator that is illegal in the given calculus."""


def check_calculus(t: Term, calc: Calculus) -> None:
    """Raise CalculusError if t mentions an operator illegal in calc."""
    foreign = t.ops & ~(calc.op_mask | _VAR_BIT)
    if foreign:
        bad = [o for o, bit in _OP_BIT.items() if foreign & bit]
        raise CalculusError(
            f"operator {', '.join(sorted(bad))} is illegal in"
            f" {calc.name}-calculus"
        )


# --- term nodes ------------------------------------------------------------


class Term:
    """Base class of Atom, Var, and App.  Instances are immutable.

    Computed at construction:
      size    node count (atoms, vars, and applications all count 1)
      head    spine-head operator name, or None for a variable-headed spine
      nargs   number of arguments the spine head has been applied to
      ops     bitmask of the operator atoms occurring anywhere in the term,
              plus a variable bit if a Var occurs
    Read through properties:
      closed  True iff the term contains no Var node (the variable bit)
      h       structural hash, computed on first read (kept in `_h`)
    """

    __slots__ = ("size", "head", "nargs", "ops", "_h")

    size: int
    head: Optional[str]
    nargs: int
    ops: int
    _h: Optional[int]

    @property
    def closed(self) -> bool:
        return not self.ops & _VAR_BIT

    @property
    def h(self) -> int:
        h = self._h
        return _fill_hashes(self) if h is None else h  # type: ignore[arg-type]

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        if self.size != other.size or self.h != other.h:
            return False
        # Walk the pair DAG, not the tree: a pair of shared nodes met
        # again was already found equal or is still on the stack.  Both
        # roots are hashed now, so every node below has its `_h`.
        seen: set[tuple[int, int]] = set()
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            ta = type(a)
            if ta is not type(b):
                return False
            if ta is App:
                if a._h != b._h:
                    return False
                pair = (id(a), id(b))
                if pair in seen:
                    continue
                seen.add(pair)
                stack.append((a.fun, b.fun))
                stack.append((a.arg, b.arg))
            elif a.name != b.name:  # Atom or Var
                return False
        return True

    def __hash__(self) -> int:
        return self.h

    def __repr__(self) -> str:
        from .syntax import render_capped

        return render_capped(self)


class Atom(Term):
    """An operator atom: S, K, or F."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if name not in ARITY:
            raise ValueError(f"unknown operator {name!r}")
        self.name = name
        self.size = 1
        self.head = name
        self.nargs = 0
        self.ops = _OP_BIT[name]
        self._h = zlib.crc32(b"op:" + name.encode()) & _HASH_MASK


class Var(Term):
    """A term variable.

    Legal names are exactly what the term syntax reads as one variable
    token: lowercase names ``[a-z][a-z0-9_]*`` (``x``, ``probe2``), or a
    single uppercase letter other than an operator letter (``M``, ``P``).
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not _is_var_name(name):
            raise ValueError(f"illegal variable name {name!r}")
        self.name = name
        self.size = 1
        self.head = None
        self.nargs = 0
        self.ops = _VAR_BIT
        self._h = zlib.crc32(b"var:" + name.encode()) & _HASH_MASK


class App(Term):
    """An application node: fun applied to arg."""

    __slots__ = ("fun", "arg")

    def __init__(self, fun: Term, arg: Term):
        self.fun = fun
        self.arg = arg
        self.size = fun.size + arg.size + 1
        self.head = fun.head
        self.nargs = fun.nargs + 1
        self.ops = fun.ops | arg.ops
        self._h = None


def _fill_hashes(t: App) -> int:
    """Fill the hash of t and of every unfilled node below it; return t's.

    An explicit-stack post-order walk: the stack is a path down from t
    whose nodes are all unfilled, and a node is filled once both its
    sides are, so each node is hashed once and no recursion happens."""
    stack = [t]
    while stack:
        u = stack[-1]
        fh, ah = u.fun._h, u.arg._h
        if fh is None:
            stack.append(u.fun)
        elif ah is None:
            stack.append(u.arg)
        else:
            u._h = (fh * 2654435761 + ah * 40503 + 3) & _HASH_MASK
            stack.pop()
    return t._h  # type: ignore[return-value]


#: The characters of a lowercase variable name.
NAME_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_")


def is_lowercase_name(name: str) -> bool:
    """True iff name matches ``[a-z][a-z0-9_]*``."""
    return name[:1].isalpha() and NAME_CHARS.issuperset(name)


def _is_var_name(name: str) -> bool:
    if len(name) == 1 and name.isupper() and name.isalpha():
        return name not in ARITY
    return is_lowercase_name(name)


# --- constructors ----------------------------------------------------------

S = Atom("S")
K = Atom("K")
F = Atom("F")
_ATOMS = {"S": S, "K": K, "F": F}


def atom(name: str) -> Atom:
    try:
        return _ATOMS[name]
    except KeyError:
        raise ValueError(f"unknown operator {name!r}") from None


def app(fun: Term, *args: Term) -> Term:
    """Left-associated application: app(f, x, y) is (f x) y."""
    for a in args:
        fun = App(fun, a)
    return fun


# --- structural helpers ----------------------------------------------------


def dag_postorder(t: Term, stop: Callable[[App], bool]) -> list[Term]:
    """Each node of t once, each application after its fun and its arg.

    An application for which `stop` holds is listed without its subterms.
    """
    order: list[Term] = []
    seen: set[int] = set()
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            if type(node) is App and not stop(node):
                stack += [(node, True), (node.arg, False), (node.fun, False)]
            else:
                order.append(node)
    return order


def _closed(t: Term) -> bool:
    return t.closed


def free_vars(t: Term) -> frozenset[str]:
    """Names of the variables occurring in t (there are no binders)."""
    return frozenset(u.name for u in dag_postorder(t, _closed) if type(u) is Var)


def substitute(t: Term, bindings: Mapping[str, Term]) -> Term:
    """Replace every variable named in bindings by its image.

    Every node whose subterms come back unchanged is returned as-is, so
    sharing is preserved.
    """
    if t.closed or not bindings:
        return t
    images: dict[int, Term] = {}
    for u in dag_postorder(t, _closed):
        if type(u) is Var:
            image = bindings.get(u.name, u)
        elif type(u) is App and not u.closed:
            fun, arg = images[id(u.fun)], images[id(u.arg)]
            image = u if fun is u.fun and arg is u.arg else App(fun, arg)
        else:
            image = u
        images[id(u)] = image
    return images[id(t)]
