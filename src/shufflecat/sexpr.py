"""Textual s-expression syntax for expressions and typed object literals.

The grammar is head-first, whitespace-separated, case-sensitive:

    cat  := NAME | (prod cat*) | (free cat)
    fun  := (identity cat) | (compose fun+) | (tuple fun*)
          | (proj cat k) | (shuffle cat (perm i+)) | (applyt fun)
          | (eta cat) | (mu cat) | (strength i cat+) | (omega cat+)
          | (monoid-eval) | (monoid-mult n)
    cell := (idcell fun)
          | (gamma cat cat+) | (gamma-inv cat cat+)
          | (gamma-at i j cat cat+) | (gamma-inv-at i j cat cat+)
          | (vcomp cell+) | (hcomp cell cell)
          | (whiskerL fun cell) | (whiskerR cell fun)
          | (applytcell cell) | (tuplecell cell*)

One table describes every head: the kind of expression it makes, its
constructor and its arguments.  The parser and the printer both read it.

Every category NAME resolves to the environment's single base category;
writing distinct letters for distinct slots is readability sugar, as in
``(gamma A B)``.  Object literals are parsed against an expected category
expression, so the same text can mean different things in different
positions:

    expected base category   ->  bare object name, e.g. ``x``
    expected product         ->  ``(l1,l2,...,ln)``, comma-separated
    expected free (sequence) ->  ``(l1 l2 ... lk)``, whitespace-separated

``parse_*`` raise :class:`ParseError` carrying a character offset.  The
``print_*`` functions emit text that parses back to an equal expression
(functors holding opaque tables or literal objects have no textual form
and raise :class:`PrintError`).

>>> from shufflecat.fixtures import builtin_base
>>> env = Env(builtin_base("arrow"))
>>> print_cell(parse_cell("(vcomp (gamma A B) (gamma-inv A B))", env))
'(vcomp (gamma arrow arrow) (gamma-inv arrow arrow))'
>>> parse_obj("((x y),(y))", Prod((Free(env.cat("A")), Free(env.cat("B")))), env)
(SeqObj(('x', 'y')), SeqObj(('y',)))
>>> parse_cat("(free (prod))", env)
Free(inner=Prod(factors=()))
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Optional

from .calculus import (
    ApplyT, ApplyTCell, CatExpr, CellExpr, Compose, Eta, Free, FunExpr, Gamma,
    GammaInv, HComp, IdCell, Identity, MonoidEval, MonoidMult, Mu, Omega, Prod, Proj,
    Shuffle, Strength, Tuple, TupleCell, VComp, WhiskerL, WhiskerR,
)
from .fincat import CommMonoid, FinCat
from .freesmc import SeqMor, SeqObj
from .perms import Perm

__all__ = [
    "Env", "ParseError", "PrintError", "data_of_mor", "data_of_obj", "parse_cat", "parse_cell",
    "parse_fun", "parse_obj", "print_cat", "print_cell", "print_fun", "print_obj",
]


class ParseError(ValueError):
    """Malformed or ill-typed expression text, with a character offset."""

    def __init__(self, msg: str, offset: int):
        super().__init__(f"{msg} at offset {offset}")
        self.offset = offset


class PrintError(ValueError):
    """The expression holds a value with no textual form."""


@dataclass(frozen=True)
class Env:
    """Name resolution for expression text: one base category, and
    optionally one monoid for the algebra structure maps."""

    base: FinCat
    monoid: Optional[CommMonoid] = None

    def cat(self, name: str) -> FinCat:
        return self.base


# -------------------------------------------------------------- tokens


@dataclass(frozen=True)
class _Atom:
    text: str
    offset: int


@dataclass(frozen=True)
class _Comma:
    offset: int


@dataclass(frozen=True)
class _Group:
    items: tuple
    offset: int


_PUNCT = "(),"


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            toks.append((ch, i))
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] not in _PUNCT:
            j += 1
        toks.append((text[i:j], i))
        i = j
    return toks


def _read_node(toks, pos: int, end: int):
    if pos >= len(toks):
        raise ParseError("unexpected end of input", end)
    tok, off = toks[pos]
    if tok == "(":
        items = []
        pos += 1
        while True:
            if pos >= len(toks):
                raise ParseError("unclosed '('", off)
            nxt, noff = toks[pos]
            if nxt == ")":
                return _Group(tuple(items), off), pos + 1
            if nxt == ",":
                items.append(_Comma(noff))
                pos += 1
                continue
            node, pos = _read_node(toks, pos, end)
            items.append(node)
    if tok == ")":
        raise ParseError("unbalanced ')'", off)
    if tok == ",":
        raise ParseError("unexpected ','", off)
    return _Atom(tok, off), pos + 1


def _read(text: str):
    toks = _tokenize(text)
    if not toks:
        raise ParseError("empty input", 0)
    node, pos = _read_node(toks, 0, len(text))
    if pos != len(toks):
        raise ParseError("trailing text after expression", toks[pos][1])
    return node


# -------------------------------------------------------------- syntax table
#
# Every expression head maps to the kind of expression it makes, its
# constructor, and the kinds of its arguments in text order.  An argument
# kind is cat, fun, cell, int, perm, or prod (a category that must be a
# product); a trailing * or + on the last kind gathers the remaining
# arguments into one tuple, + asking for at least one.

_SYNTAX = {
    "prod": ("cat", Prod, "cat*"),
    "free": ("cat", Free, "cat"),
    "identity": ("fun", Identity, "cat"),
    "compose": ("fun", Compose, "fun+"),
    "tuple": ("fun", Tuple, "fun*"),
    "proj": ("fun", Proj, "prod int"),
    "shuffle": ("fun", Shuffle, "prod perm"),
    "applyt": ("fun", ApplyT, "fun"),
    "eta": ("fun", Eta, "cat"),
    "mu": ("fun", Mu, "cat"),
    "strength": ("fun", Strength, "int cat+"),
    "omega": ("fun", Omega, "cat+"),
    "monoid-eval": ("fun", MonoidEval, ""),
    "monoid-mult": ("fun", MonoidMult, "int"),
    "idcell": ("cell", IdCell, "fun"),
    "gamma": ("cell", Gamma, "cat*"),
    "gamma-inv": ("cell", GammaInv, "cat*"),
    "gamma-at": ("cell", Gamma, "int int cat cat+"),
    "gamma-inv-at": ("cell", GammaInv, "int int cat cat+"),
    "vcomp": ("cell", VComp, "cell+"),
    "hcomp": ("cell", HComp, "cell cell"),
    "whiskerL": ("cell", WhiskerL, "fun cell"),
    "whiskerR": ("cell", WhiskerR, "cell fun"),
    "applytcell": ("cell", ApplyTCell, "cell"),
    "tuplecell": ("cell", TupleCell, "cell*"),
}

# the words messages use for the kinds of expression
_KIND = {"cat": "category", "fun": "functor", "cell": "2-cell"}

# (perm i+) is read only as an argument, but its head is reserved too
_RESERVED = frozenset(_SYNTAX) | {"perm"}

# fields in text order where that differs from their order in the class; the
# monoid heads take their monoid from the environment, not from the text
_TEXT_FIELDS = {Strength: ("i", "slots"), MonoidEval: (), MonoidMult: ("n",)}


# -------------------------------------------------------------- parsing


def _expr_group(node, kind: str):
    """Head and argument nodes of an expression group; commas are only
    meaningful inside object literals."""
    if isinstance(node, _Comma):
        raise ParseError("unexpected ','", node.offset)
    if isinstance(node, _Atom):
        raise ParseError(f"expected a {kind} expression, got atom {node.text!r}", node.offset)
    for item in node.items:
        if isinstance(item, _Comma):
            raise ParseError("unexpected ',' in expression", item.offset)
    if not node.items or not isinstance(node.items[0], _Atom):
        raise ParseError(f"expected a {kind} expression head", node.offset)
    head = node.items[0]
    return head.text, node.items[1:], head.offset


def _int_of(node) -> int:
    if not isinstance(node, _Atom):
        raise ParseError("expected an integer", node.offset)
    try:
        return int(node.text)
    except ValueError:
        raise ParseError(f"expected an integer, got {node.text!r}", node.offset) from None


def _perm_of(node) -> Perm:
    head, items, off = _expr_group(node, "permutation")
    if head != "perm":
        raise ParseError(f"expected (perm ...), got head {head!r}", off)
    if not items:
        raise ParseError("'perm' takes at least 1 argument(s), got 0", off)
    images = tuple(_int_of(n) for n in items)
    try:
        return Perm(images)
    except ValueError as exc:
        raise ParseError(str(exc), off) from None


def _expr_of(node, kind: str, env: Env):
    """The expression of the given kind that node spells.  Arguments are read by a
    loop that calls _expr_of itself, so a level of nesting costs one frame."""
    if kind == "category" and isinstance(node, _Atom):
        if node.text in _RESERVED:
            raise ParseError(f"expected a category name, got reserved word {node.text!r}", node.offset)
        return env.cat(node.text)
    name, items, off = _expr_group(node, kind)
    h = _HEADS.get(name)
    if h is None:
        raise ParseError(f"unknown {kind} head {name!r}", off)
    if h.kind != kind:
        raise ParseError(f"expected a {kind} expression, got {h.kind} head {name!r}", off)
    if not h.low <= len(items) <= h.high:
        want = h.low if h.high == h.low else f"at least {h.low}"
        raise ParseError(f"'{name}' takes {want} argument(s), got {len(items)}", off)
    args = []
    for k, item in zip(h.fixed, items):
        if k == "int":
            args.append(_int_of(item))
        elif k == "perm":
            args.append(_perm_of(item))
        elif k == "prod":
            prod = _expr_of(item, "category", env)
            if not isinstance(prod, Prod):
                raise ParseError(f"'{name}' needs a product category", item.offset)
            args.append(prod)
        else:
            args.append(_expr_of(item, k, env))
    if h.rest is not None:
        more = []
        for item in items[len(h.fixed):]:
            more.append(_expr_of(item, h.rest, env))
        args.append(tuple(more))
    if h.check is None:
        return h.ctor(*args)
    return h.check(h, args, items, off, env)


# Heads whose conditions span their arguments check them, and build the expression.


def _proj(h, args, items, off, env):
    prod, k = args
    if not 1 <= k <= len(prod.factors):
        raise ParseError(f"projection index {k} out of range for {len(prod.factors)} factor(s)",
                         items[1].offset)
    return Proj(prod, k)


def _shuffle(h, args, items, off, env):
    prod, perm = args
    if perm.degree != len(prod.factors):
        raise ParseError(f"permutation degree {perm.degree} does not match {len(prod.factors)} "
                         "factor(s)", items[1].offset)
    return Shuffle(prod, perm)


def _strength(h, args, items, off, env):
    i, slots = args
    if not 1 <= i <= len(slots):
        raise ParseError(f"strength slot {i} out of range for {len(slots)} slot(s)", items[0].offset)
    return Strength(slots, i)


def _monoid(h, args, items, off, env):
    if args and args[0] < 0:
        raise ParseError("multiplication arity must be non-negative", items[0].offset)
    if env.monoid is None:
        raise ParseError("no monoid bound in this environment", off)
    return h.ctor(env.monoid, *args)


def _gamma(h, args, items, off, env):
    if len(args) == 1:
        if len(args[0]) < 2:
            raise ParseError(f"'{h.name}' needs at least two slots", off)
        return h.ctor(args[0])
    i, j, first, rest = args
    slots = (first,) + rest
    if not (1 <= i <= len(slots) and 1 <= j <= len(slots) and i != j):
        raise ParseError(f"slot pair ({i}, {j}) invalid for {len(slots)} slot(s)", off)
    return h.ctor(slots, i, j)


_CHECKS = {"proj": _proj, "shuffle": _shuffle, "strength": _strength,
           "monoid-eval": _monoid, "monoid-mult": _monoid, "gamma": _gamma,
           "gamma-inv": _gamma, "gamma-at": _gamma, "gamma-inv-at": _gamma}


# -------------------------------------------------------------- printing


def _join(head: str, parts) -> str:
    return "(" + head + "".join(" " + p for p in parts) + ")"


def _print(x, kind: str) -> str:
    """Text of x, an expression of the given kind, from its class's table row."""
    if kind == "category" and isinstance(x, FinCat):
        return x.name
    h = _PRINTED_BY.get(type(x))
    if h is None or h.kind != kind:
        raise PrintError(f"no textual form for {type(x).__name__}")
    if h.ctor is Gamma or h.ctor is GammaInv:
        # the gamma row prints the interchange of slots 1 and 2; others take -at
        if x.partition != "canonical":
            raise PrintError("explicit partitions have no textual form")
        if (x.i, x.j) != (1, 2):
            slots = [_print(s, "category") for s in x.slots]
            return _join(h.name + "-at", [str(x.i), str(x.j)] + slots)
    text = "(" + h.name
    for get, k, many in h.parts:
        v = get(x)
        if many:
            for p in v:
                text += " " + _print(p, k)
        elif k == "int":
            text += " " + str(v)
        elif k == "perm":
            text += " " + _join("perm", [str(i) for i in v.images])
        else:
            text += " " + _print(v, k)
    return text + ")"


class _Head:
    """A row of the syntax table with all the parser and the printer need
    of it worked out once, so that no node pays for reading the row."""

    __slots__ = ("name", "kind", "ctor", "fixed", "rest", "low", "high", "check", "parts")

    def __init__(self, name: str, made: str, ctor, arg_kinds: str):
        words = arg_kinds.split()
        many = bool(words) and words[-1][-1] in "*+"
        kinds = [_KIND.get(w.rstrip("*+"), w) for w in words]
        self.name, self.kind, self.ctor, self.check = name, _KIND[made], ctor, _CHECKS.get(name)
        self.fixed, self.rest = (tuple(kinds[:-1]), kinds[-1]) if many else (tuple(kinds), None)
        self.low = len(self.fixed) + (many and words[-1][-1] == "+")
        self.high = float("inf") if many else self.low
        names = _TEXT_FIELDS.get(ctor, [f.name for f in fields(ctor)])
        self.parts = tuple(
            (attrgetter(n), "category" if k == "prod" else k, many and p == len(kinds) - 1)
            for p, (n, k) in enumerate(zip(names, kinds))
        )


_HEADS = {name: _Head(name, *row) for name, row in _SYNTAX.items()}
# where two heads build one class, as gamma and gamma-at do, the first prints it
_PRINTED_BY = {h.ctor: h for h in reversed(_HEADS.values())}


# -------------------------------------------------------------- literals


def _obj_of(node, c: CatExpr, env: Env):
    if isinstance(node, _Comma):
        raise ParseError("unexpected ','", node.offset)
    if isinstance(c, FinCat):
        if not isinstance(node, _Atom):
            raise ParseError(f"expected an object name of {c.name!r}", node.offset)
        if node.text not in c.objects:
            raise ParseError(f"no object {node.text!r} in category {c.name!r}", node.offset)
        return node.text
    if isinstance(node, _Atom):
        raise ParseError("expected a parenthesized literal", node.offset)
    if isinstance(c, Prod):
        groups = _split_commas(node)
        if len(groups) != len(c.factors):
            raise ParseError(
                f"expected {len(c.factors)} comma-separated component(s), got {len(groups)}",
                node.offset,
            )
        out = []
        for group, factor in zip(groups, c.factors):
            if len(group) != 1:
                where = group[0].offset if group else node.offset
                raise ParseError("each product component must be a single literal", where)
            out.append(_obj_of(group[0], factor, env))
        return tuple(out)
    if isinstance(c, Free):
        for item in node.items:
            if isinstance(item, _Comma):
                raise ParseError("sequence entries are separated by spaces, not ','", item.offset)
        return SeqObj(tuple(_obj_of(n, c.inner, env) for n in node.items))
    raise ParseError("cannot parse a literal for this category expression", node.offset)


def _split_commas(group: _Group):
    if not group.items:
        return []
    parts: list[list] = [[]]
    for item in group.items:
        if isinstance(item, _Comma):
            parts.append([])
        else:
            parts[-1].append(item)
    return parts


# -------------------------------------------------------------- entry points


def _parse(build, text: str, *args):
    """build(node, *args) on the tree read from text; nesting deeper than
    the interpreter's recursion limit is malformed input like any other."""
    try:
        return build(_read(text), *args)
    except RecursionError:
        raise ParseError("expression nested too deeply", 0) from None


def parse_cat(text: str, env: Env) -> CatExpr:
    return _parse(_expr_of, text, "category", env)


def parse_fun(text: str, env: Env) -> FunExpr:
    return _parse(_expr_of, text, "functor", env)


def _top_cell(node, env: Env) -> CellExpr:
    if isinstance(node, _Group) and node.items and isinstance(node.items[0], _Atom):
        head = node.items[0].text
        if head in _SYNTAX and _SYNTAX[head][0] == "fun":
            raise ParseError(
                f"expected a 2-cell expression, got functor head {head!r}; wrap it in (idcell ...)",
                node.items[0].offset,
            )
    return _expr_of(node, "2-cell", env)


def parse_cell(text: str, env: Env) -> CellExpr:
    return _parse(_top_cell, text, env)


def parse_obj(text: str, c: CatExpr, env: Env):
    return _parse(_obj_of, text, c, env)


# -------------------------------------------------------------- printing


def _emit(build, *args):
    """build(*args); as _parse does on the way in, nesting deeper than the
    interpreter's recursion limit is an expression with no textual form."""
    try:
        return build(*args)
    except RecursionError:
        raise PrintError("expression nested too deeply") from None


def print_cat(c: CatExpr) -> str:
    return _emit(_print, c, "category")


def print_fun(f: FunExpr) -> str:
    return _emit(_print, f, "functor")


def print_cell(e: CellExpr) -> str:
    return _emit(_print, e, "2-cell")


def print_obj(c: CatExpr, x) -> str:
    return _emit(_literal, c, x, "text")


def data_of_obj(c: CatExpr, x):
    """JSON-ready form of an object of ``c``."""
    return _emit(_literal, c, x, "object")


def data_of_mor(c: CatExpr, m):
    """JSON-ready form of a morphism of ``c``: base morphisms by name,
    product morphisms as lists, sequence morphisms as a permutation in
    one-line form plus one component per source entry."""
    return _emit(_literal, c, m, "morphism")


def _literal(c: CatExpr, v, form: str):
    """v, a value of c, as literal text or as the JSON-ready data of an
    object or a morphism; PrintError if v has the wrong shape for c or is
    not a value of its base category."""
    mor = form == "morphism"
    if isinstance(c, FinCat):
        if v in (c.all_morphisms() if mor else c.objects):
            return v
    elif isinstance(c, Prod):
        if isinstance(v, tuple) and len(v) == len(c.factors):
            parts = [_literal(f, x, form) for f, x in zip(c.factors, v)]
            return "(" + ",".join(parts) + ")" if form == "text" else parts
    elif isinstance(c, Free):
        if mor and isinstance(v, SeqMor):
            return {"perm": list(v.perm.images),
                    "components": [_literal(c.inner, x, form) for x in v.components]}
        if not mor and isinstance(v, SeqObj):
            parts = [_literal(c.inner, x, form) for x in v.entries]
            return "(" + " ".join(parts) + ")" if form == "text" else {"entries": parts}
    else:
        raise PrintError(f"no {'textual form' if form == 'text' else 'serialization'} "
                         f"for {type(c).__name__}")
    raise PrintError(f"{reprlib.repr(v)} is not {'a morphism' if mor else 'an object'} "
                     f"of {print_cat(c)}")
