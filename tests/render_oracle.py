"""Reference renderer for differential tests.

The plain tree walk: every node is expanded each time it is reached, so
a subterm shared n times is printed n times over.  It has no memo to get
wrong, so the library's shared-node renderer (`syntax.render_terms`) is
checked against it root by root.
"""

from __future__ import annotations

from sfcalc.terms import NAME_CHARS, App, Term


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
        if last and last[-1] in NAME_CHARS and name[0] in NAME_CHARS:
            out.append(" ")
        out.append(name)
        last = name
    return "".join(out)
