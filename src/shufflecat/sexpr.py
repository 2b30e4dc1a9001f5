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

from dataclasses import dataclass
from typing import Optional

from .calculus import (
    ApplyT,
    ApplyTCell,
    CatBase,
    CatExpr,
    CellExpr,
    Compose,
    Const,
    Eta,
    Free,
    FunBase,
    FunExpr,
    Gamma,
    GammaInv,
    HComp,
    IdCell,
    Identity,
    MonoidEval,
    MonoidMult,
    Mu,
    Omega,
    Prod,
    Proj,
    Shuffle,
    Strength,
    Tuple,
    TupleCell,
    VComp,
    WhiskerL,
    WhiskerR,
)
from .fincat import CommMonoid, FinCat
from .freesmc import SeqMor, SeqObj
from .perms import Perm

__all__ = [
    "Env",
    "ParseError",
    "PrintError",
    "data_of_mor",
    "data_of_obj",
    "parse_cat",
    "parse_cell",
    "parse_fun",
    "parse_obj",
    "print_cat",
    "print_cell",
    "print_fun",
    "print_obj",
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

    def cat(self, name: str) -> CatBase:
        return CatBase(self.base)


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


# -------------------------------------------------------------- helpers

_CAT_HEADS = frozenset({"prod", "free"})
_FUN_HEADS = frozenset(
    {
        "identity",
        "compose",
        "tuple",
        "proj",
        "shuffle",
        "applyt",
        "eta",
        "mu",
        "strength",
        "omega",
        "monoid-eval",
        "monoid-mult",
    }
)
_CELL_HEADS = frozenset(
    {
        "idcell",
        "gamma",
        "gamma-inv",
        "gamma-at",
        "gamma-inv-at",
        "vcomp",
        "hcomp",
        "whiskerL",
        "whiskerR",
        "applytcell",
        "tuplecell",
    }
)
_ALL_HEADS = _CAT_HEADS | _FUN_HEADS | _CELL_HEADS | {"perm"}


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


def _arity(head: str, items, low: int, high, offset: int):
    if len(items) < low or (high is not None and len(items) > high):
        want = str(low) if high == low else f"at least {low}"
        raise ParseError(f"'{head}' takes {want} argument(s), got {len(items)}", offset)


def _int_of(node) -> int:
    if not isinstance(node, _Atom):
        raise ParseError("expected an integer", node.offset)
    try:
        return int(node.text)
    except ValueError:
        raise ParseError(f"expected an integer, got {node.text!r}", node.offset) from None


def _wrong_kind(head: str, want: str, offset: int):
    for kind, heads in (("category", _CAT_HEADS), ("functor", _FUN_HEADS), ("2-cell", _CELL_HEADS)):
        if head in heads:
            raise ParseError(f"expected a {want} expression, got {kind} head {head!r}", offset)
    raise ParseError(f"unknown {want} head {head!r}", offset)


# -------------------------------------------------------------- categories


def _cat_of(node, env: Env) -> CatExpr:
    if isinstance(node, _Comma):
        raise ParseError("unexpected ','", node.offset)
    if isinstance(node, _Atom):
        if node.text in _ALL_HEADS:
            raise ParseError(f"expected a category name, got reserved word {node.text!r}", node.offset)
        return env.cat(node.text)
    head, items, off = _expr_group(node, "category")
    if head == "prod":
        return Prod(tuple(_cat_of(n, env) for n in items))
    if head == "free":
        _arity(head, items, 1, 1, off)
        return Free(_cat_of(items[0], env))
    _wrong_kind(head, "category", off)


def _perm_of(node) -> Perm:
    head, items, off = _expr_group(node, "permutation")
    if head != "perm":
        raise ParseError(f"expected (perm ...), got head {head!r}", off)
    _arity(head, items, 1, None, off)
    images = tuple(_int_of(n) for n in items)
    try:
        return Perm(images)
    except ValueError as exc:
        raise ParseError(str(exc), off) from None


# -------------------------------------------------------------- functors


def _fun_of(node, env: Env) -> FunExpr:
    head, items, off = _expr_group(node, "functor")
    if head == "identity":
        _arity(head, items, 1, 1, off)
        return Identity(_cat_of(items[0], env))
    if head == "compose":
        _arity(head, items, 1, None, off)
        return Compose(tuple(_fun_of(n, env) for n in items))
    if head == "tuple":
        return Tuple(tuple(_fun_of(n, env) for n in items))
    if head == "proj":
        _arity(head, items, 2, 2, off)
        prod = _cat_of(items[0], env)
        if not isinstance(prod, Prod):
            raise ParseError("'proj' needs a product category", items[0].offset)
        k = _int_of(items[1])
        if not 1 <= k <= len(prod.factors):
            raise ParseError(
                f"projection index {k} out of range for {len(prod.factors)} factor(s)",
                items[1].offset,
            )
        return Proj(prod, k)
    if head == "shuffle":
        _arity(head, items, 2, 2, off)
        prod = _cat_of(items[0], env)
        if not isinstance(prod, Prod):
            raise ParseError("'shuffle' needs a product category", items[0].offset)
        perm = _perm_of(items[1])
        if perm.degree != len(prod.factors):
            raise ParseError(
                f"permutation degree {perm.degree} does not match {len(prod.factors)} factor(s)",
                items[1].offset,
            )
        return Shuffle(prod, perm)
    if head == "applyt":
        _arity(head, items, 1, 1, off)
        return ApplyT(_fun_of(items[0], env))
    if head == "eta":
        _arity(head, items, 1, 1, off)
        return Eta(_cat_of(items[0], env))
    if head == "mu":
        _arity(head, items, 1, 1, off)
        return Mu(_cat_of(items[0], env))
    if head == "strength":
        _arity(head, items, 2, None, off)
        i = _int_of(items[0])
        slots = tuple(_cat_of(n, env) for n in items[1:])
        if not 1 <= i <= len(slots):
            raise ParseError(f"strength slot {i} out of range for {len(slots)} slot(s)", items[0].offset)
        return Strength(slots, i)
    if head == "omega":
        _arity(head, items, 1, None, off)
        return Omega(tuple(_cat_of(n, env) for n in items))
    if head == "monoid-eval":
        _arity(head, items, 0, 0, off)
        return MonoidEval(_need_monoid(env, off))
    if head == "monoid-mult":
        _arity(head, items, 1, 1, off)
        n = _int_of(items[0])
        if n < 0:
            raise ParseError("multiplication arity must be non-negative", items[0].offset)
        return MonoidMult(_need_monoid(env, off), n)
    _wrong_kind(head, "functor", off)


def _need_monoid(env: Env, offset: int) -> CommMonoid:
    if env.monoid is None:
        raise ParseError("no monoid bound in this environment", offset)
    return env.monoid


# -------------------------------------------------------------- cells


def _gamma_slots(head, items, env, offset):
    slots = tuple(_cat_of(n, env) for n in items)
    if len(slots) < 2:
        raise ParseError(f"'{head}' needs at least two slots", offset)
    return slots


def _gamma_at(head, items, env, offset, ctor):
    _arity(head, items, 4, None, offset)
    i, j = _int_of(items[0]), _int_of(items[1])
    slots = _gamma_slots(head, items[2:], env, offset)
    if not (1 <= i <= len(slots) and 1 <= j <= len(slots) and i != j):
        raise ParseError(f"slot pair ({i}, {j}) invalid for {len(slots)} slot(s)", offset)
    return ctor(slots, i, j)


def _cell_of(node, env: Env) -> CellExpr:
    head, items, off = _expr_group(node, "2-cell")
    if head == "idcell":
        _arity(head, items, 1, 1, off)
        return IdCell(_fun_of(items[0], env))
    if head == "gamma":
        return Gamma(_gamma_slots(head, items, env, off))
    if head == "gamma-inv":
        return GammaInv(_gamma_slots(head, items, env, off))
    if head == "gamma-at":
        return _gamma_at(head, items, env, off, Gamma)
    if head == "gamma-inv-at":
        return _gamma_at(head, items, env, off, GammaInv)
    if head == "vcomp":
        _arity(head, items, 1, None, off)
        return VComp(tuple(_cell_of(n, env) for n in items))
    if head == "hcomp":
        _arity(head, items, 2, 2, off)
        return HComp(_cell_of(items[0], env), _cell_of(items[1], env))
    if head == "whiskerL":
        _arity(head, items, 2, 2, off)
        return WhiskerL(_fun_of(items[0], env), _cell_of(items[1], env))
    if head == "whiskerR":
        _arity(head, items, 2, 2, off)
        return WhiskerR(_cell_of(items[0], env), _fun_of(items[1], env))
    if head == "applytcell":
        _arity(head, items, 1, 1, off)
        return ApplyTCell(_cell_of(items[0], env))
    if head == "tuplecell":
        return TupleCell(tuple(_cell_of(n, env) for n in items))
    _wrong_kind(head, "2-cell", off)


# -------------------------------------------------------------- literals


def _obj_of(node, c: CatExpr, env: Env):
    if isinstance(node, _Comma):
        raise ParseError("unexpected ','", node.offset)
    if isinstance(c, CatBase):
        if not isinstance(node, _Atom):
            raise ParseError(f"expected an object name of {c.cat.name!r}", node.offset)
        if node.text not in c.cat.objects:
            raise ParseError(f"no object {node.text!r} in category {c.cat.name!r}", node.offset)
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
    return _parse(_cat_of, text, env)


def parse_fun(text: str, env: Env) -> FunExpr:
    return _parse(_fun_of, text, env)


def _top_cell_of(node, env: Env) -> CellExpr:
    if isinstance(node, _Group) and node.items and isinstance(node.items[0], _Atom):
        head = node.items[0].text
        if head in _FUN_HEADS:
            raise ParseError(
                f"expected a 2-cell expression, got functor head {head!r}; wrap it in (idcell ...)",
                node.items[0].offset,
            )
    return _cell_of(node, env)


def parse_cell(text: str, env: Env) -> CellExpr:
    return _parse(_top_cell_of, text, env)


def parse_obj(text: str, c: CatExpr, env: Env):
    return _parse(_obj_of, text, c, env)


# -------------------------------------------------------------- printing


def print_cat(c: CatExpr) -> str:
    if isinstance(c, CatBase):
        return c.cat.name
    if isinstance(c, Prod):
        return "(prod" + "".join(" " + print_cat(f) for f in c.factors) + ")"
    if isinstance(c, Free):
        return f"(free {print_cat(c.inner)})"
    raise PrintError(f"no textual form for {type(c).__name__}")


def _join(head: str, parts) -> str:
    return "(" + head + "".join(" " + p for p in parts) + ")"


def print_fun(f: FunExpr) -> str:
    if isinstance(f, Identity):
        return _join("identity", [print_cat(f.cat)])
    if isinstance(f, Compose):
        return _join("compose", [print_fun(p) for p in f.parts])
    if isinstance(f, Tuple):
        return _join("tuple", [print_fun(p) for p in f.parts])
    if isinstance(f, Proj):
        return _join("proj", [print_cat(f.prod), str(f.k)])
    if isinstance(f, Shuffle):
        perm = _join("perm", [str(i) for i in f.perm.images])
        return _join("shuffle", [print_cat(f.prod), perm])
    if isinstance(f, ApplyT):
        return _join("applyt", [print_fun(f.inner)])
    if isinstance(f, Eta):
        return _join("eta", [print_cat(f.cat)])
    if isinstance(f, Mu):
        return _join("mu", [print_cat(f.cat)])
    if isinstance(f, Strength):
        return _join("strength", [str(f.i)] + [print_cat(s) for s in f.slots])
    if isinstance(f, Omega):
        return _join("omega", [print_cat(s) for s in f.inners])
    if isinstance(f, MonoidEval):
        return "(monoid-eval)"
    if isinstance(f, MonoidMult):
        return _join("monoid-mult", [str(f.n)])
    if isinstance(f, (FunBase, Const)):
        raise PrintError(f"no textual form for {type(f).__name__}")
    raise PrintError(f"no textual form for {type(f).__name__}")


def print_cell(e: CellExpr) -> str:
    if isinstance(e, IdCell):
        return _join("idcell", [print_fun(e.fun)])
    if isinstance(e, (Gamma, GammaInv)):
        if e.partition != "canonical":
            raise PrintError("explicit partitions have no textual form")
        base = "gamma" if isinstance(e, Gamma) else "gamma-inv"
        slots = [print_cat(s) for s in e.slots]
        if (e.i, e.j) == (1, 2):
            return _join(base, slots)
        return _join(base + "-at", [str(e.i), str(e.j)] + slots)
    if isinstance(e, VComp):
        return _join("vcomp", [print_cell(p) for p in e.parts])
    if isinstance(e, HComp):
        return _join("hcomp", [print_cell(e.first), print_cell(e.second)])
    if isinstance(e, WhiskerL):
        return _join("whiskerL", [print_fun(e.fun), print_cell(e.cell)])
    if isinstance(e, WhiskerR):
        return _join("whiskerR", [print_cell(e.cell), print_fun(e.fun)])
    if isinstance(e, ApplyTCell):
        return _join("applytcell", [print_cell(e.cell)])
    if isinstance(e, TupleCell):
        return _join("tuplecell", [print_cell(p) for p in e.parts])
    raise PrintError(f"no textual form for {type(e).__name__}")


def print_obj(c: CatExpr, x) -> str:
    if isinstance(c, CatBase):
        return x
    if isinstance(c, Prod):
        return "(" + ",".join(print_obj(f, v) for f, v in zip(c.factors, x)) + ")"
    if isinstance(c, Free):
        return "(" + " ".join(print_obj(c.inner, e) for e in x.entries) + ")"
    raise PrintError(f"no textual form for {type(c).__name__}")


# -------------------------------------------------------------- serialization


def data_of_obj(c: CatExpr, x):
    """JSON-ready form of an object of ``c``."""
    if isinstance(c, CatBase):
        return x
    if isinstance(c, Prod):
        return [data_of_obj(f, v) for f, v in zip(c.factors, x)]
    if isinstance(c, Free):
        return {"entries": [data_of_obj(c.inner, e) for e in x.entries]}
    raise PrintError(f"no serialization for {type(c).__name__}")


def data_of_mor(c: CatExpr, m):
    """JSON-ready form of a morphism of ``c``: base morphisms by name,
    product morphisms as lists, sequence morphisms as a permutation in
    one-line form plus one component per source entry."""
    if isinstance(c, CatBase):
        return m
    if isinstance(c, Prod):
        return [data_of_mor(f, v) for f, v in zip(c.factors, m)]
    if isinstance(c, Free):
        assert isinstance(m, SeqMor)
        return {
            "perm": list(m.perm.images),
            "components": [data_of_mor(c.inner, v) for v in m.components],
        }
    raise PrintError(f"no serialization for {type(c).__name__}")
