"""A seeded stream of 2-cell evaluation requests, the inputs of the
``eval-requests`` workload.

Each request is the pair of texts a user passes to ``shufflecat eval``
(an expression and an object literal) plus the base category it is read
against.  Requests are random nestings of ``gamma``/``gamma-inv`` (and
their ``-at`` forms), ``vcomp``, ``hcomp``, ``applytcell`` and
``tuplecell`` over the slot types ``A``, ``(free A)``, ``(prod A A)`` and
``(free (free A))``.  The generator types every expression itself, so it
knows without asking the library which requests are well-typed; one in
five is deliberately malformed or ill-typed and must be rejected, with the
outcome its kind of fault calls for (``FAULT_OUTCOME``).

This module imports nothing from the library: the library receives only
the generated texts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

BASES = {
    "terminal": ("*",),
    "discrete2": ("a", "b"),
    "arrow": ("x", "y"),
}

# category types: "A" | ("free", t) | ("prod", t1, ..., tn)
A = "A"
SLOT_TYPES = (A, ("free", A), ("prod", A, A), ("free", ("free", A)))
SLOT_WEIGHTS = (6, 4, 2, 1)

REJECT_SHARE = 5  # one request in five must be rejected
MAX_DEPTH = 3
MAX_SEQ = 2
MAX_ATOMS = 6  # base objects in one literal; bounds the cost of one request


def cat_text(t) -> str:
    if t == A:
        return "A"
    if t[0] == "free":
        return f"(free {cat_text(t[1])})"
    return "(prod " + " ".join(cat_text(f) for f in t[1:]) + ")"


def free(t):
    return ("free", t)


def is_free(t) -> bool:
    return t != A and t[0] == "free"


@dataclass(frozen=True)
class Cell:
    """A generated cell: its text, the text of its inverse, and its type."""

    text: str
    inverse: str
    dom: object
    cod: object


def _gamma(rng: random.Random, slots: tuple, i: int, j: int) -> Cell:
    dom = list(slots)
    dom[i - 1] = free(dom[i - 1])
    dom[j - 1] = free(dom[j - 1])
    names = " ".join(cat_text(s) for s in slots)
    if (i, j) == (1, 2) and rng.random() < 0.5:
        fwd, inv = f"(gamma {names})", f"(gamma-inv {names})"
    else:
        fwd, inv = f"(gamma-at {i} {j} {names})", f"(gamma-inv-at {i} {j} {names})"
    if rng.random() < 0.3:
        fwd, inv = inv, fwd
    return Cell(fwd, inv, ("prod",) + tuple(dom), free(("prod",) + tuple(slots)))


def _random_gamma(rng: random.Random) -> Cell:
    n = rng.choice((2, 2, 2, 3))
    slots = tuple(rng.choices(SLOT_TYPES, SLOT_WEIGHTS, k=n))
    i, j = rng.sample(range(1, n + 1), 2)
    return _gamma(rng, slots, i, j)


def _cell_with_dom(rng: random.Random, dom, depth: int):
    """A cell whose domain is ``dom``, or None when none is at hand."""
    if dom != A and dom[0] == "prod":
        frees = [k for k, f in enumerate(dom[1:], start=1) if is_free(f)]
        if len(frees) >= 2:
            i, j = rng.sample(frees, 2)
            slots = tuple(f[1] if k in (i, j) else f
                          for k, f in enumerate(dom[1:], start=1))
            return _gamma(rng, slots, i, j)
    if is_free(dom) and depth > 0:
        inner = _cell_with_dom(rng, dom[1], depth - 1)
        if inner is not None:
            return _apply_t(inner)
    return None


def _apply_t(c: Cell) -> Cell:
    return Cell(f"(applytcell {c.text})", f"(applytcell {c.inverse})",
                free(c.dom), free(c.cod))


def random_cell(rng: random.Random, depth: int = MAX_DEPTH) -> Cell:
    kind = rng.choice(("gamma", "gamma", "vcomp", "hcomp", "applyt", "tuple")
                      if depth > 0 else ("gamma",))
    if kind == "gamma":
        return _random_gamma(rng)
    c = random_cell(rng, depth - 1)
    if kind == "vcomp":
        return Cell(f"(vcomp {c.text} {c.inverse})",
                    f"(vcomp {c.text} {c.inverse})", c.dom, c.cod)
    if kind == "applyt":
        return _apply_t(c)
    if kind == "hcomp":
        b = _cell_with_dom(rng, c.cod, depth - 1)
        if b is None:
            return c
        return Cell(f"(hcomp {c.text} {b.text})", f"(hcomp {c.inverse} {b.inverse})",
                    c.dom, b.cod)
    b = _cell_with_dom(rng, c.dom, depth - 1) or c
    return Cell(f"(tuplecell {c.text} {b.text})",
                f"(tuplecell {c.inverse} {b.inverse})",
                c.dom, ("prod", c.cod, b.cod))


def random_object(rng: random.Random, t, names: tuple, budget=None) -> str:
    """Literal text for a random object of type ``t`` with at most
    MAX_ATOMS base objects: sequences stop growing once the budget is
    spent, products always get every component."""
    budget = [MAX_ATOMS] if budget is None else budget
    if t == A:
        budget[0] -= 1
        return rng.choice(names)
    if t[0] == "prod":
        return "(" + ",".join(random_object(rng, f, names, budget)
                              for f in t[1:]) + ")"
    n = rng.randint(0, MAX_SEQ)
    parts = []
    for _ in range(n):
        if budget[0] <= 0:
            break
        parts.append(random_object(rng, t[1], names, budget))
    return "(" + " ".join(parts) + ")"


def _wrong_literal(rng: random.Random, t, names: tuple) -> str:
    """Literal text that does not denote an object of ``t``."""
    if t == A:
        return "nowhere"
    if t[0] == "prod":
        parts = [random_object(rng, f, names) for f in t[1:]]
        return "(" + ",".join(parts + parts[:1]) + ")"
    return "(" + random_object(rng, t[1], names) + ",)"


# kind of fault -> how ``shufflecat eval`` must reject it: "parse-error" when
# the text does not read as a cell or an object, "ill-typed" when it reads
# but its parts do not compose
FAULT_OUTCOME = {
    "unbalanced": "parse-error",
    "unknown-head": "parse-error",
    "functor-head": "parse-error",
    "hcomp-mismatch": "ill-typed",
    "tuple-mismatch": "ill-typed",
    "bad-literal": "parse-error",
    "slot-range": "parse-error",
}


def _broken(rng: random.Random, names: tuple) -> tuple[str, str, str]:
    """A request that must be rejected: (kind, expression, literal)."""
    c = random_cell(rng, MAX_DEPTH - 1)
    literal = random_object(rng, c.dom, names)
    kind = rng.choice(tuple(FAULT_OUTCOME))
    if kind == "unbalanced":
        return kind, c.text[:-1], literal
    if kind == "unknown-head":
        return kind, c.text.replace("(gamma", "(gammma", 1), literal
    if kind == "functor-head":
        return kind, "(eta A)", "x"
    if kind == "hcomp-mismatch":
        # the second cell's domain is a product, the first's codomain is free
        return kind, f"(hcomp {c.text} (gamma A A))", literal
    if kind == "tuple-mismatch":
        other = _random_gamma(rng)
        while other.dom == c.dom:
            other = _random_gamma(rng)
        return kind, f"(tuplecell {c.text} {other.text})", literal
    if kind == "bad-literal":
        return kind, c.text, _wrong_literal(rng, c.dom, names)
    return kind, "(gamma-at 1 3 A A)", "((x),(x))"


@dataclass(frozen=True)
class Request:
    base: str
    expr: str
    literal: str
    expect: str  # "ok", "parse-error" or "ill-typed"
    fault: str   # the kind of fault, "" for a well-formed request


def generate(seed: int, count: int):
    """Yield ``count`` requests, one at a time, so that a round holds only
    the request it is answering."""
    rng = random.Random(f"eval-requests/{seed}")
    for k in range(count):
        base = rng.choice(tuple(BASES))
        names = BASES[base]
        if k % REJECT_SHARE == REJECT_SHARE - 1:
            kind, expr, literal = _broken(rng, names)
            yield Request(base, expr, literal, FAULT_OUTCOME[kind], kind)
            continue
        c = random_cell(rng)
        yield Request(base, c.text, random_object(rng, c.dom, names), "ok", "")
