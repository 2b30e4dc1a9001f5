"""Expression text: frozen parses first, then printer round-trips, then
the parser and printer held to the code they replaced.

The gamma evaluation below was derived by hand: interleaving a length-2
sequence with a length-2 sequence slot-1-first and reading the result
slot-2-first gives the transpose permutation [1,3,2,4]; every component is
an identity because the inputs are objects.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from shufflecat import sexpr
from shufflecat.calculus import (
    ApplyT,
    ApplyTCell,
    CELL_TYPES,
    Compose,
    Const,
    Eta,
    Free,
    FunBase,
    Gamma,
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
    TypecheckError,
    cell_endpoints,
    eval_cell,
    fun_endpoints,
)
from shufflecat.fincat import FinCat, FunTable
from shufflecat.fixtures import builtin_base, builtin_monoid
from shufflecat.freesmc import SeqMor, SeqObj
from shufflecat.perms import Perm
from shufflecat.sexpr import (
    Env,
    ParseError,
    PrintError,
    data_of_mor,
    data_of_obj,
    parse_cat,
    parse_cell,
    parse_fun,
    parse_obj,
    print_cat,
    print_cell,
    print_fun,
    print_obj,
)
from shufflecat.sexpr import _Atom, _Comma, _Group, _read

ENV = Env(builtin_base("arrow"), builtin_monoid("z2"))
A = ENV.cat("A")


# -- frozen parses ---------------------------------------------------------


def test_category_forms():
    assert parse_cat("A", ENV) == A
    assert parse_cat("B", ENV) == A
    assert parse_cat("(prod A B)", ENV) == Prod((A, A))
    assert parse_cat("(prod)", ENV) == Prod(())
    assert parse_cat("(free (prod A (free B)))", ENV) == Free(Prod((A, Free(A))))


def test_functor_forms():
    assert parse_fun("(identity A)", ENV) == Identity(A)
    assert parse_fun("(compose (eta A) (mu A))", ENV) == Compose((Eta(A), Mu(A)))
    assert parse_fun("(tuple)", ENV) == Tuple(())
    assert parse_fun("(proj (prod A B) 2)", ENV) == Proj(Prod((A, A)), 2)
    assert parse_fun("(shuffle (prod A B) (perm 2 1))", ENV) == Shuffle(
        Prod((A, A)), Perm((2, 1))
    )
    assert parse_fun("(applyt (identity A))", ENV) == ApplyT(Identity(A))
    assert parse_fun("(strength 2 A (free B))", ENV) == Strength((A, Free(A)), 2)
    assert parse_fun("(omega A B C)", ENV) == Omega((A, A, A))
    assert parse_fun("(monoid-eval)", ENV) == MonoidEval(ENV.monoid)
    assert parse_fun("(monoid-mult 3)", ENV) == MonoidMult(ENV.monoid, 3)


def test_cell_forms():
    assert parse_cell("(gamma A B)", ENV) == Gamma((A, A))
    assert parse_cell("(gamma-inv A B)", ENV) == Gamma((A, A), 2, 1)
    assert parse_cell("(gamma-at 2 1 A B C)", ENV) == Gamma((A, A, A), 2, 1)
    assert parse_cell("(vcomp (gamma A B) (gamma-inv A B))", ENV) == VComp(
        (Gamma((A, A)), Gamma((A, A), 2, 1))
    )
    assert parse_cell("(whiskerL (eta A) (gamma A B))", ENV) == WhiskerL(
        Eta(A), Gamma((A, A))
    )
    assert parse_cell("(whiskerR (gamma A B) (mu (prod A B)))", ENV) == WhiskerR(
        Gamma((A, A)), Mu(Prod((A, A)))
    )
    assert parse_cell("(hcomp (idcell (eta A)) (gamma A B))", ENV) == HComp(
        IdCell(Eta(A)), Gamma((A, A))
    )
    assert parse_cell("(applytcell (gamma A B))", ENV) == ApplyTCell(Gamma((A, A)))
    assert parse_cell("(tuplecell (gamma A B))", ENV) == TupleCell((Gamma((A, A)),))


def test_object_literals():
    assert parse_obj("x", A, ENV) == "x"
    assert parse_obj("(x,y)", Prod((A, A)), ENV) == ("x", "y")
    assert parse_obj("()", Prod(()), ENV) == ()
    assert parse_obj("(x y x)", Free(A), ENV) == SeqObj(("x", "y", "x"))
    assert parse_obj("()", Free(A), ENV) == SeqObj(())
    nested = parse_obj("((x y),(y))", Prod((Free(A), Free(A))), ENV)
    assert nested == (SeqObj(("x", "y")), SeqObj(("y",)))
    seq_of_pairs = parse_obj("((x,y) (y,x))", Free(Prod((A, A))), ENV)
    assert seq_of_pairs == SeqObj((("x", "y"), ("y", "x")))


# -- evaluation oracles ----------------------------------------------------


def _component(text, literal):
    cell = parse_cell(text, ENV)
    src, _ = cell_endpoints(cell)
    dom, cod = fun_endpoints(src)
    x = parse_obj(literal, dom, ENV)
    return data_of_mor(cod, eval_cell(cell, x))


def test_gamma_component_is_the_transpose():
    out = _component("(gamma A B)", "((x y),(y x))")
    assert out["perm"] == [1, 3, 2, 4]
    assert out["components"] == [
        ["id_x", "id_y"],
        ["id_x", "id_x"],
        ["id_y", "id_y"],
        ["id_y", "id_x"],
    ]


def test_idcell_component_is_the_identity():
    assert _component("(idcell (identity A))", "x") == "id_x"


def test_round_trip_composite_evaluates_to_identity():
    out = _component("(vcomp (gamma A B) (gamma-inv B A))", "((x),(y y))")
    assert out["perm"] == [1, 2]
    assert out["components"] == [["id_x", "id_y"]] * 2


# -- parse errors carry offsets --------------------------------------------

BAD_CELLS = [
    ("", 0, "empty input"),
    ("(gamma A", 0, "unclosed"),
    ("(gamma A B))", 11, "trailing text"),
    (")", 0, "unbalanced"),
    (",", 0, "unexpected ','"),
    ("x", 0, "expected a 2-cell"),
    ("(frob A B)", 1, "unknown 2-cell head"),
    ("(identity A)", 1, "wrap it in (idcell ...)"),
    ("(gamma A)", 1, "at least two slots"),
    ("(whiskerL (gamma A B) (gamma A B))", 11, "got 2-cell head"),
    ("(idcell (proj (prod A) 2))", 23, "out of range"),
    ("(idcell (shuffle (prod A) (perm 2 1)))", 26, "does not match"),
    ("(idcell (strength 3 A B))", 18, "out of range"),
    ("(gamma-at 1 1 A B)", 1, "invalid"),
    ("(idcell (shuffle (prod A B) (perm 1 1)))", 29, "bijection"),
]


@pytest.mark.parametrize("text,offset,fragment", BAD_CELLS, ids=[b[0] or "empty" for b in BAD_CELLS])
def test_malformed_cell_text(text, offset, fragment):
    with pytest.raises(ParseError) as err:
        parse_cell(text, ENV)
    assert err.value.offset == offset
    assert fragment in str(err.value)
    assert f"at offset {offset}" in str(err.value)


BAD_LITERALS = [
    ("q", A, 0, "no object 'q'"),
    ("(x y)", Prod((A, A)), 0, "comma-separated"),
    ("(x,y)", Free(A), 2, "separated by spaces"),
    ("(x,,y)", Prod((A, A, A)), 0, "single literal"),
    ("x", Free(A), 0, "parenthesized"),
    ("((x,y))", Prod((A, A)), 0, "expected 2"),
]


@pytest.mark.parametrize("text,cat,offset,fragment", BAD_LITERALS, ids=[b[0] for b in BAD_LITERALS])
def test_malformed_literal_text(text, cat, offset, fragment):
    with pytest.raises(ParseError) as err:
        parse_obj(text, cat, ENV)
    assert err.value.offset == offset
    assert fragment in str(err.value)


def test_monoid_heads_need_a_monoid():
    bare = Env(builtin_base("arrow"))
    with pytest.raises(ParseError, match="no monoid bound"):
        parse_fun("(monoid-eval)", bare)


def test_nesting_within_the_recursion_limit_parses():
    # each level of nesting costs the parser one frame, whatever its head
    for head, arg, depth in [("(applytcell ", "", 950), ("(whiskerR ", " (identity A)", 950),
                             ("(vcomp ", "", 480)]:
        cell = parse_cell(head * depth + "(idcell (identity A))" + (arg + ")") * depth, ENV)
        for _ in range(depth):
            cell = cell.parts[0] if isinstance(cell, VComp) else cell.cell
        assert cell == IdCell(Identity(A))


def test_nesting_past_the_recursion_limit_raises_the_library_errors():
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_cell("(applytcell " * 1200 + "(idcell (identity A))" + ")" * 1200, ENV)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_obj("(" * 3000 + "x" + ")" * 3000, Free(A), ENV)
    # typechecking visits each level once, so this chain typechecks; one
    # far past the recursion limit still raises its error
    chain = parse_cell("(whiskerR " * 800 + "(idcell (identity A))" + " (identity A))" * 800,
                       ENV)
    src, tgt = cell_endpoints(chain)
    assert src.parts[1] == tgt.parts[1] == Identity(A)
    deep = IdCell(Identity(A))
    for _ in range(2000):
        deep = WhiskerR(deep, Identity(A))
    with pytest.raises(TypecheckError, match="nested too deeply"):
        cell_endpoints(deep)


# -- printer round-trips ---------------------------------------------------


def cats():
    return st.recursive(
        st.just(A),
        lambda kids: st.one_of(
            st.lists(kids, max_size=3).map(lambda fs: Prod(tuple(fs))),
            kids.map(Free),
        ),
        max_leaves=4,
    )


def _sized_prods():
    return st.lists(cats(), min_size=1, max_size=3).map(lambda fs: Prod(tuple(fs)))


def funs():
    leaf = st.one_of(
        cats().map(Identity),
        cats().map(Eta),
        cats().map(Mu),
        st.lists(cats(), min_size=1, max_size=3).map(lambda cs: Omega(tuple(cs))),
        st.lists(cats(), min_size=1, max_size=3).flatmap(
            lambda cs: st.integers(1, len(cs)).map(lambda i: Strength(tuple(cs), i))
        ),
        _sized_prods().flatmap(
            lambda p: st.integers(1, len(p.factors)).map(lambda k: Proj(p, k))
        ),
        _sized_prods().flatmap(
            lambda p: st.permutations(list(range(1, len(p.factors) + 1))).map(
                lambda im: Shuffle(p, Perm(tuple(im)))
            )
        ),
        st.just(MonoidEval(ENV.monoid)),
        st.integers(0, 3).map(lambda n: MonoidMult(ENV.monoid, n)),
    )
    return st.recursive(
        leaf,
        lambda kids: st.one_of(
            st.lists(kids, min_size=1, max_size=3).map(lambda fs: Compose(tuple(fs))),
            st.lists(kids, max_size=3).map(lambda fs: Tuple(tuple(fs))),
            kids.map(ApplyT),
        ),
        max_leaves=4,
    )


def cells():
    gammas = st.lists(cats(), min_size=2, max_size=3).flatmap(
        lambda cs: st.tuples(
            st.sampled_from(sorted(range(1, len(cs) + 1))),
            st.sampled_from(sorted(range(1, len(cs) + 1))),
            # an interchange or its inverse, the same slots swapped
            st.sampled_from([Gamma, lambda s, i, j: Gamma(s, j, i)]),
        ).map(
            lambda ijc: ijc[2](tuple(cs), ijc[0], ijc[1] if ijc[1] != ijc[0] else (ijc[0] % len(cs)) + 1)
        )
    )
    leaf = st.one_of(funs().map(IdCell), gammas)
    return st.recursive(
        leaf,
        lambda kids: st.one_of(
            st.lists(kids, min_size=1, max_size=3).map(lambda cs: VComp(tuple(cs))),
            st.tuples(kids, kids).map(lambda ab: HComp(*ab)),
            st.tuples(funs(), kids).map(lambda fc: WhiskerL(*fc)),
            st.tuples(kids, funs()).map(lambda cf: WhiskerR(*cf)),
            kids.map(ApplyTCell),
            st.lists(kids, max_size=2).map(lambda cs: TupleCell(tuple(cs))),
        ),
        max_leaves=4,
    )


@given(cats())
@settings(max_examples=150, deadline=None)
def test_cat_round_trip(c):
    assert parse_cat(print_cat(c), ENV) == c


@given(funs())
@settings(max_examples=150, deadline=None)
def test_fun_round_trip(f):
    assert parse_fun(print_fun(f), ENV) == f


@given(cells())
@settings(max_examples=150, deadline=None)
def test_cell_round_trip(e):
    assert parse_cell(print_cell(e), ENV) == e


# one canonical text per printed head, written with the base category's name
CANONICAL = [
    "(prod arrow (free arrow))", "(free arrow)", "(identity arrow)",
    "(compose (eta arrow) (mu arrow))", "(tuple)", "(proj (prod arrow arrow) 2)",
    "(shuffle (prod arrow arrow) (perm 2 1))", "(applyt (identity arrow))", "(eta arrow)",
    "(mu arrow)", "(strength 2 arrow (free arrow))", "(omega arrow arrow)", "(monoid-eval)",
    "(monoid-mult 3)", "(idcell (identity arrow))", "(gamma arrow arrow)",
    "(gamma-at 2 1 arrow arrow arrow)", "(vcomp (gamma arrow arrow) (gamma-at 2 1 arrow arrow))",
    "(hcomp (idcell (eta arrow)) (gamma arrow arrow))", "(whiskerL (eta arrow) (gamma arrow arrow))",
    "(whiskerR (gamma arrow arrow) (mu (prod arrow arrow)))", "(applytcell (gamma arrow arrow))",
    "(tuplecell (gamma arrow arrow) (idcell (identity arrow)))",
]


def test_canonical_text_prints_back_unchanged():
    # the gamma-inv heads are read as gamma with the slots swapped, and never printed
    printed = set(sexpr._SYNTAX) - {"gamma-inv", "gamma-inv-at"}
    assert {t.split()[0].strip("()") for t in CANONICAL} == printed
    kinds = {"cat": (parse_cat, print_cat), "fun": (parse_fun, print_fun),
             "cell": (parse_cell, print_cell)}
    for text in CANONICAL:
        parse, show = kinds[sexpr._SYNTAX[text.split()[0].strip("()")][0]]
        assert show(parse(text, ENV)) == text


@pytest.mark.parametrize("text, slots, i, j, printed", [
    ("(gamma-inv arrow arrow)", 2, 2, 1, "(gamma-at 2 1 arrow arrow)"),
    ("(gamma-inv-at 1 3 arrow arrow arrow)", 3, 3, 1, "(gamma-at 3 1 arrow arrow arrow)"),
    ("(gamma-inv-at 3 2 arrow arrow arrow)", 3, 2, 3, "(gamma-at 2 3 arrow arrow arrow)"),
    ("(gamma-inv-at 2 1 arrow arrow)", 2, 1, 2, "(gamma arrow arrow)"),
])
def test_gamma_inv_is_gamma_with_its_slots_swapped(text, slots, i, j, printed):
    e = parse_cell(text, ENV)
    assert e == Gamma((A,) * slots, i, j)
    assert print_cell(e) == printed
    assert parse_cell(printed, ENV) == e


def test_object_literal_round_trip():
    for c, literal in [
        (A, "y"),
        (Prod((A, Free(A))), "(x,(y x))"),
        (Free(Prod((A, A))), "((x,x) (y,x))"),
        (Free(Free(A)), "((x) () (y y))"),
        (Prod(()), "()"),
    ]:
        x = parse_obj(literal, c, ENV)
        assert parse_obj(print_obj(c, x), c, ENV) == x


def test_printer_rejects_opaque_values():
    cat = ENV.base
    table = FunTable(cat, cat, {o: o for o in cat.objects},
                     {m: m for m in cat.all_morphisms()})
    with pytest.raises(PrintError):
        print_fun(FunBase(table))
    with pytest.raises(PrintError):
        print_fun(Const(A, A, "x"))
    with pytest.raises(PrintError):
        print_cell(Gamma((A, A), 1, 2, ((1,), (2,), ())))


def _deepest_parse(head: str, arg: str) -> int:
    """The deepest chain of head around (idcell (identity A)) that parses."""
    lo, hi = 1, 3000
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            parse_cell(head * mid + "(idcell (identity A))" + (arg + ")") * mid, ENV)
            lo = mid
        except ParseError:
            hi = mid - 1
    return lo


@pytest.mark.parametrize("head, arg", [
    ("(applytcell ", ""), ("(vcomp ", ""), ("(tuplecell ", ""), ("(whiskerR ", " (identity A)"),
])
def test_every_parsed_chain_prints(head, arg):
    depth = _deepest_parse(head, arg)
    written = head * depth + "(idcell (identity A))" + (arg + ")") * depth
    text = print_cell(parse_cell(written, ENV))
    assert text == written.replace(" A)", " arrow)")
    assert print_cell(parse_cell(text, ENV)) == text


def test_printing_past_the_recursion_limit_raises_print_error():
    cell, c, x, m = IdCell(Identity(A)), A, "x", "id_x"
    for _ in range(1200):
        cell = ApplyTCell(cell)
        c, x, m = Free(c), SeqObj((x,)), SeqMor(Perm((1,)), (m,))
    for show, args in [(print_cell, (cell,)), (print_fun, (ApplyT(Eta(c)),)), (print_cat, (c,)),
                       (print_obj, (c, x)), (data_of_obj, (c, x)), (data_of_mor, (c, m))]:
        with pytest.raises(PrintError, match="nested too deeply"):
            show(*args)


def test_data_of_obj_shapes():
    c = Prod((A, Free(A)))
    x = parse_obj("(x,(y x))", c, ENV)
    assert data_of_obj(c, x) == ["x", {"entries": ["y", "x"]}]


@pytest.mark.parametrize("show, c, v, message", [
    (data_of_obj, Free(A), "x", "'x' is not an object of (free arrow)"),
    (print_obj, Prod((A,)), "x", "'x' is not an object of (prod arrow)"),
    (print_obj, A, 3, "3 is not an object of arrow"),
    (print_obj, A, "f", "'f' is not an object of arrow"),
    (data_of_mor, Free(A), "f", "'f' is not a morphism of (free arrow)"),
    (data_of_mor, A, "x", "'x' is not a morphism of arrow"),
    (data_of_mor, Prod((A, A)), ("f",), "('f',) is not a morphism of (prod arrow arrow)"),
    (data_of_obj, Free(A), SeqObj(("x", "z")), "'z' is not an object of arrow"),
    (data_of_mor, Free(A), SeqObj(("x",)), "SeqObj(('x',)) is not a morphism of (free arrow)"),
])
def test_literals_reject_values_of_another_category(show, c, v, message):
    with pytest.raises(PrintError) as exc:
        show(c, v)
    assert str(exc.value) == message


# -- the reader, parser and printer as first written, as an oracle ----------
#
# Before one syntax table described every head, each head was written down
# three times: in a set of heads, in an `if head ==` chain of the parser and
# in an `isinstance` chain of the printer.  That code, copied below, is the
# reference: on printed and on malformed text the parser must give an equal
# expression or the same error at the same offset, and the printer the same
# text.  The reference reads text with the reader it had then, which went
# through the text one character at a time and read each group by recursion;
# it builds its own tree nodes and shares no code with the library's reader.


@dataclass(frozen=True)
class RefAtom:
    text: str
    offset: int


@dataclass(frozen=True)
class RefComma:
    offset: int


@dataclass(frozen=True)
class RefGroup:
    items: tuple
    offset: int


REF_PUNCT = "(),"


def ref_tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in REF_PUNCT:
            toks.append((ch, i))
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] not in REF_PUNCT:
            j += 1
        toks.append((text[i:j], i))
        i = j
    return toks


def ref_read_node(toks, pos: int, end: int):
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
                return RefGroup(tuple(items), off), pos + 1
            if nxt == ",":
                items.append(RefComma(noff))
                pos += 1
                continue
            node, pos = ref_read_node(toks, pos, end)
            items.append(node)
    if tok == ")":
        raise ParseError("unbalanced ')'", off)
    if tok == ",":
        raise ParseError("unexpected ','", off)
    return RefAtom(tok, off), pos + 1


def ref_read(text: str):
    toks = ref_tokenize(text)
    if not toks:
        raise ParseError("empty input", 0)
    node, pos = ref_read_node(toks, 0, len(text))
    if pos != len(toks):
        raise ParseError("trailing text after expression", toks[pos][1])
    return node


REF_CAT_HEADS = frozenset({"prod", "free"})
REF_FUN_HEADS = frozenset(
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
REF_CELL_HEADS = frozenset(
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
REF_ALL_HEADS = REF_CAT_HEADS | REF_FUN_HEADS | REF_CELL_HEADS | {"perm"}


def ref_expr_group(node, kind: str):
    """Head and argument nodes of an expression group; commas are only
    meaningful inside object literals."""
    if isinstance(node, RefComma):
        raise ParseError("unexpected ','", node.offset)
    if isinstance(node, RefAtom):
        raise ParseError(f"expected a {kind} expression, got atom {node.text!r}", node.offset)
    for item in node.items:
        if isinstance(item, RefComma):
            raise ParseError("unexpected ',' in expression", item.offset)
    if not node.items or not isinstance(node.items[0], RefAtom):
        raise ParseError(f"expected a {kind} expression head", node.offset)
    head = node.items[0]
    return head.text, node.items[1:], head.offset


def ref_arity(head: str, items, low: int, high, offset: int):
    if len(items) < low or (high is not None and len(items) > high):
        want = str(low) if high == low else f"at least {low}"
        raise ParseError(f"'{head}' takes {want} argument(s), got {len(items)}", offset)


def ref_int_of(node) -> int:
    if not isinstance(node, RefAtom):
        raise ParseError("expected an integer", node.offset)
    try:
        return int(node.text)
    except ValueError:
        raise ParseError(f"expected an integer, got {node.text!r}", node.offset) from None


def ref_wrong_kind(head: str, want: str, offset: int):
    for kind, heads in (("category", REF_CAT_HEADS), ("functor", REF_FUN_HEADS),
                        ("2-cell", REF_CELL_HEADS)):
        if head in heads:
            raise ParseError(f"expected a {want} expression, got {kind} head {head!r}", offset)
    raise ParseError(f"unknown {want} head {head!r}", offset)


def ref_cat_of(node, env: Env) -> CatExpr:
    if isinstance(node, RefComma):
        raise ParseError("unexpected ','", node.offset)
    if isinstance(node, RefAtom):
        if node.text in REF_ALL_HEADS:
            raise ParseError(f"expected a category name, got reserved word {node.text!r}", node.offset)
        return env.cat(node.text)
    head, items, off = ref_expr_group(node, "category")
    if head == "prod":
        return Prod(tuple(ref_cat_of(n, env) for n in items))
    if head == "free":
        ref_arity(head, items, 1, 1, off)
        return Free(ref_cat_of(items[0], env))
    ref_wrong_kind(head, "category", off)


def ref_perm_of(node) -> Perm:
    head, items, off = ref_expr_group(node, "permutation")
    if head != "perm":
        raise ParseError(f"expected (perm ...), got head {head!r}", off)
    ref_arity(head, items, 1, None, off)
    images = tuple(ref_int_of(n) for n in items)
    try:
        return Perm(images)
    except ValueError as exc:
        raise ParseError(str(exc), off) from None


def ref_fun_of(node, env: Env) -> FunExpr:
    head, items, off = ref_expr_group(node, "functor")
    if head == "identity":
        ref_arity(head, items, 1, 1, off)
        return Identity(ref_cat_of(items[0], env))
    if head == "compose":
        ref_arity(head, items, 1, None, off)
        return Compose(tuple(ref_fun_of(n, env) for n in items))
    if head == "tuple":
        return Tuple(tuple(ref_fun_of(n, env) for n in items))
    if head == "proj":
        ref_arity(head, items, 2, 2, off)
        prod = ref_cat_of(items[0], env)
        if not isinstance(prod, Prod):
            raise ParseError("'proj' needs a product category", items[0].offset)
        k = ref_int_of(items[1])
        if not 1 <= k <= len(prod.factors):
            raise ParseError(
                f"projection index {k} out of range for {len(prod.factors)} factor(s)",
                items[1].offset,
            )
        return Proj(prod, k)
    if head == "shuffle":
        ref_arity(head, items, 2, 2, off)
        prod = ref_cat_of(items[0], env)
        if not isinstance(prod, Prod):
            raise ParseError("'shuffle' needs a product category", items[0].offset)
        perm = ref_perm_of(items[1])
        if perm.degree != len(prod.factors):
            raise ParseError(
                f"permutation degree {perm.degree} does not match {len(prod.factors)} factor(s)",
                items[1].offset,
            )
        return Shuffle(prod, perm)
    if head == "applyt":
        ref_arity(head, items, 1, 1, off)
        return ApplyT(ref_fun_of(items[0], env))
    if head == "eta":
        ref_arity(head, items, 1, 1, off)
        return Eta(ref_cat_of(items[0], env))
    if head == "mu":
        ref_arity(head, items, 1, 1, off)
        return Mu(ref_cat_of(items[0], env))
    if head == "strength":
        ref_arity(head, items, 2, None, off)
        i = ref_int_of(items[0])
        slots = tuple(ref_cat_of(n, env) for n in items[1:])
        if not 1 <= i <= len(slots):
            raise ParseError(f"strength slot {i} out of range for {len(slots)} slot(s)", items[0].offset)
        return Strength(slots, i)
    if head == "omega":
        ref_arity(head, items, 1, None, off)
        return Omega(tuple(ref_cat_of(n, env) for n in items))
    if head == "monoid-eval":
        ref_arity(head, items, 0, 0, off)
        return MonoidEval(ref_need_monoid(env, off))
    if head == "monoid-mult":
        ref_arity(head, items, 1, 1, off)
        n = ref_int_of(items[0])
        if n < 0:
            raise ParseError("multiplication arity must be non-negative", items[0].offset)
        return MonoidMult(ref_need_monoid(env, off), n)
    ref_wrong_kind(head, "functor", off)


def ref_need_monoid(env: Env, offset: int) -> CommMonoid:
    if env.monoid is None:
        raise ParseError("no monoid bound in this environment", offset)
    return env.monoid


def ref_gamma_slots(head, items, env, offset):
    slots = tuple(ref_cat_of(n, env) for n in items)
    if len(slots) < 2:
        raise ParseError(f"'{head}' needs at least two slots", offset)
    return slots


def ref_gamma_at(head, items, env, offset, swap=False):
    ref_arity(head, items, 4, None, offset)
    i, j = ref_int_of(items[0]), ref_int_of(items[1])
    slots = ref_gamma_slots(head, items[2:], env, offset)
    if not (1 <= i <= len(slots) and 1 <= j <= len(slots) and i != j):
        raise ParseError(f"slot pair ({i}, {j}) invalid for {len(slots)} slot(s)", offset)
    return Gamma(slots, j, i) if swap else Gamma(slots, i, j)


def ref_cell_of(node, env: Env) -> CellExpr:
    head, items, off = ref_expr_group(node, "2-cell")
    if head == "idcell":
        ref_arity(head, items, 1, 1, off)
        return IdCell(ref_fun_of(items[0], env))
    if head == "gamma":
        return Gamma(ref_gamma_slots(head, items, env, off))
    if head == "gamma-inv":
        return Gamma(ref_gamma_slots(head, items, env, off), 2, 1)
    if head == "gamma-at":
        return ref_gamma_at(head, items, env, off)
    if head == "gamma-inv-at":
        return ref_gamma_at(head, items, env, off, swap=True)
    if head == "vcomp":
        ref_arity(head, items, 1, None, off)
        return VComp(tuple(ref_cell_of(n, env) for n in items))
    if head == "hcomp":
        ref_arity(head, items, 2, 2, off)
        return HComp(ref_cell_of(items[0], env), ref_cell_of(items[1], env))
    if head == "whiskerL":
        ref_arity(head, items, 2, 2, off)
        return WhiskerL(ref_fun_of(items[0], env), ref_cell_of(items[1], env))
    if head == "whiskerR":
        ref_arity(head, items, 2, 2, off)
        return WhiskerR(ref_cell_of(items[0], env), ref_fun_of(items[1], env))
    if head == "applytcell":
        ref_arity(head, items, 1, 1, off)
        return ApplyTCell(ref_cell_of(items[0], env))
    if head == "tuplecell":
        return TupleCell(tuple(ref_cell_of(n, env) for n in items))
    ref_wrong_kind(head, "2-cell", off)

def ref_top_cell_of(node, env: Env) -> CellExpr:
    if isinstance(node, RefGroup) and node.items and isinstance(node.items[0], RefAtom):
        head = node.items[0].text
        if head in REF_FUN_HEADS:
            raise ParseError(
                f"expected a 2-cell expression, got functor head {head!r}; wrap it in (idcell ...)",
                node.items[0].offset,
            )
    return ref_cell_of(node, env)

def ref_print_cat(c: CatExpr) -> str:
    if isinstance(c, FinCat):
        return c.name
    if isinstance(c, Prod):
        return "(prod" + "".join(" " + ref_print_cat(f) for f in c.factors) + ")"
    if isinstance(c, Free):
        return f"(free {ref_print_cat(c.inner)})"
    raise PrintError(f"no textual form for {type(c).__name__}")


def ref_join(head: str, parts) -> str:
    return "(" + head + "".join(" " + p for p in parts) + ")"


def ref_print_fun(f: FunExpr) -> str:
    if isinstance(f, Identity):
        return ref_join("identity", [ref_print_cat(f.cat)])
    if isinstance(f, Compose):
        return ref_join("compose", [ref_print_fun(p) for p in f.parts])
    if isinstance(f, Tuple):
        return ref_join("tuple", [ref_print_fun(p) for p in f.parts])
    if isinstance(f, Proj):
        return ref_join("proj", [ref_print_cat(f.prod), str(f.k)])
    if isinstance(f, Shuffle):
        perm = ref_join("perm", [str(i) for i in f.perm.images])
        return ref_join("shuffle", [ref_print_cat(f.prod), perm])
    if isinstance(f, ApplyT):
        return ref_join("applyt", [ref_print_fun(f.inner)])
    if isinstance(f, Eta):
        return ref_join("eta", [ref_print_cat(f.cat)])
    if isinstance(f, Mu):
        return ref_join("mu", [ref_print_cat(f.cat)])
    if isinstance(f, Strength):
        return ref_join("strength", [str(f.i)] + [ref_print_cat(s) for s in f.slots])
    if isinstance(f, Omega):
        return ref_join("omega", [ref_print_cat(s) for s in f.inners])
    if isinstance(f, MonoidEval):
        return "(monoid-eval)"
    if isinstance(f, MonoidMult):
        return ref_join("monoid-mult", [str(f.n)])
    if isinstance(f, (FunBase, Const)):
        raise PrintError(f"no textual form for {type(f).__name__}")
    raise PrintError(f"no textual form for {type(f).__name__}")


def ref_print_cell(e: CellExpr) -> str:
    if isinstance(e, IdCell):
        return ref_join("idcell", [ref_print_fun(e.fun)])
    if isinstance(e, Gamma):
        if e.partition != "canonical":
            raise PrintError("explicit partitions have no textual form")
        slots = [ref_print_cat(s) for s in e.slots]
        if (e.i, e.j) == (1, 2):
            return ref_join("gamma", slots)
        return ref_join("gamma-at", [str(e.i), str(e.j)] + slots)
    if isinstance(e, VComp):
        return ref_join("vcomp", [ref_print_cell(p) for p in e.parts])
    if isinstance(e, HComp):
        return ref_join("hcomp", [ref_print_cell(e.first), ref_print_cell(e.second)])
    if isinstance(e, WhiskerL):
        return ref_join("whiskerL", [ref_print_fun(e.fun), ref_print_cell(e.cell)])
    if isinstance(e, WhiskerR):
        return ref_join("whiskerR", [ref_print_cell(e.cell), ref_print_fun(e.fun)])
    if isinstance(e, ApplyTCell):
        return ref_join("applytcell", [ref_print_cell(e.cell)])
    if isinstance(e, TupleCell):
        return ref_join("tuplecell", [ref_print_cell(p) for p in e.parts])
    raise PrintError(f"no textual form for {type(e).__name__}")


def ref_parse(build, text, env):
    try:
        return build(ref_read(text), env)
    except RecursionError:
        raise ParseError("expression nested too deeply", 0) from None


PARSERS = [(parse_cat, ref_cat_of), (parse_fun, ref_fun_of), (parse_cell, ref_top_cell_of)]
PRINTERS = [(print_cat, ref_print_cat), (print_fun, ref_print_fun), (print_cell, ref_print_cell)]
BARE = Env(builtin_base("arrow"))


def _outcome(call, *args):
    try:
        return "ok", call(*args)
    except ParseError as exc:
        return "parse-error", str(exc), exc.offset
    except PrintError as exc:
        return "print-error", str(exc)


def assert_prints_as_reference(x):
    for new, ref in PRINTERS:
        assert _outcome(new, x) == _outcome(ref, x), (new.__name__, x)


def tree_of(node):
    """A tree of either reader as nested tuples; a library group must
    also record the offset of its first comma."""
    if isinstance(node, (RefAtom, _Atom)):
        return ("atom", node.text, node.offset)
    if isinstance(node, (RefComma, _Comma)):
        return ("comma", node.offset)
    if isinstance(node, _Group):
        commas = [item.offset for item in node.items if isinstance(item, _Comma)]
        assert node.comma == (commas[0] if commas else None)
    return ("group", node.offset, tuple(tree_of(item) for item in node.items))


def assert_reads_as_reference(text):
    got = _outcome(lambda: tree_of(_read(text)))
    assert got == _outcome(lambda: tree_of(ref_read(text))), text


def assert_parses_as_reference(text):
    assert_reads_as_reference(text)
    for env in (ENV, BARE):
        for new, ref in PARSERS:
            got = _outcome(new, text, env)
            assert got == _outcome(ref_parse, ref, text, env), (new.__name__, text)
            if got[0] == "ok":
                assert_prints_as_reference(got[1])


def ref_text(expr) -> str:
    """The reference printer's text for an expression of any kind."""
    if isinstance(expr, (FinCat, Prod, Free)):
        return ref_print_cat(expr)
    return (ref_print_cell if isinstance(expr, CELL_TYPES) else ref_print_fun)(expr)


def _tree(text):
    """Printed text as nested lists of atoms."""
    stack = [[]]
    for tok in re.findall(r"[()]|[^\s()]+", text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    return stack[0][0]


def _text(tree):
    return tree if isinstance(tree, str) else "(" + " ".join(map(_text, tree)) + ")"


def _groups(tree):
    if isinstance(tree, list):
        yield tree
        for item in tree[1:]:
            yield from _groups(item)


EXTRA_ARGS = ["A", "0", "-1", "9", "x", "(identity A)", "(gamma A B)", "(prod)", "(perm 1)"]
BAD_INTS = ["0", "-1", "1", "2", "3", "9", "x", "(perm 1)", ","]
HEADS = sorted(sexpr._SYNTAX) + ["perm", "frob"]
EXPRS = st.one_of(cats(), funs(), cells())


@st.composite
def malformed_texts(draw):
    """Printed text with one fault: an argument dropped or added, a head
    replaced (often by one of the wrong kind), an integer replaced by a
    non-integer or an out-of-range one, or a gamma cut to one slot."""
    tree = _tree(ref_text(draw(EXPRS)))
    if isinstance(tree, str):
        return tree
    groups = list(_groups(tree))
    ints = [(g, k) for g in groups for k in range(1, len(g)) if re.fullmatch(r"-?\d+", str(g[k]))]
    gammas = [g for g in groups if g[0].startswith("gamma")]
    faults = ["drop", "add", "head"] + ["int"] * bool(ints) + ["one-slot"] * bool(gammas)
    fault = draw(st.sampled_from(faults))
    group = draw(st.sampled_from(groups))
    if fault == "drop" and len(group) > 1:
        del group[draw(st.integers(1, len(group) - 1))]
    elif fault == "add":
        group.insert(draw(st.integers(1, len(group))), draw(st.sampled_from(EXTRA_ARGS)))
    elif fault == "head":
        group[0] = draw(st.sampled_from(HEADS))
    elif fault == "int":
        g, k = draw(st.sampled_from(ints))
        g[k] = draw(st.sampled_from(BAD_INTS))
    elif fault == "one-slot":
        g = draw(st.sampled_from(gammas))
        g[:] = g[:3] + g[-1:] if g[0].endswith("-at") else g[:1] + g[-1:]
    return _text(tree)


@given(EXPRS)
@settings(max_examples=200, deadline=None)
def test_printed_text_parses_and_prints_as_the_reference(expr):
    assert_prints_as_reference(expr)
    assert_parses_as_reference(ref_text(expr))


@given(malformed_texts())
@settings(max_examples=600, deadline=None)
def test_malformed_text_fails_as_the_reference(text):
    assert_parses_as_reference(text)


@pytest.mark.parametrize("text", [
    "(gamma-at 1 2 A)", "(gamma-inv-at 1 A B C)", "(gamma-at 1 4 A B C)", "(gamma-at 1 3 A A)",
    "(gamma)", "(proj A x)", "(proj (prod A) 2)", "(shuffle (prod A B) (perm 1 2 3))",
    "(shuffle A (perm 1 1))", "(shuffle (prod A) (perm))", "(strength 0 A)",
    "(strength x)", "(monoid-mult -1)", "(monoid-eval A)", "(idcell (perm 1))", "(prod perm)",
    "(free)", "(free A B)", "(tuple ,)", "((gamma) A)", "(identity A", "",
])
def test_edge_texts_fail_as_the_reference(text):
    assert_parses_as_reference(text)


@pytest.mark.parametrize("space", ["\x1c", "\u00a0", "\u2003"])
def test_every_unicode_space_separates_as_the_reference(space):
    for text in ["(gamma A B)", "(idcell (identity A))", "((x y),(y))", "(gamma A", " , x"]:
        assert_parses_as_reference(text.replace(" ", space))
        assert_reads_as_reference(space + text.replace(" ", space * 2) + space)
    assert_reads_as_reference(space)
    assert _outcome(parse_cell, f"(gamma{space}A{space}B)", ENV) == ("ok", Gamma((A, A)))


SPACES = ["", " ", "\t\n", "\x1c", "\u00a0", "\u2003"]
READER_TREES = st.recursive(st.sampled_from(["x", "A1", "-2", ","]),
                            lambda kids: st.lists(kids, max_size=4), max_leaves=12)


@st.composite
def reader_texts(draw):
    """Text for the reader alone: a tree of atoms, commas and groups spelled
    with any whitespace, then cut short or run on by a few characters."""
    def spell(tree):
        if isinstance(tree, str):
            return tree
        return "(" + "".join(draw(st.sampled_from(SPACES)) + spell(t) for t in tree) + ")"

    text = spell(draw(READER_TREES)) + draw(st.sampled_from(SPACES))
    if draw(st.booleans()):
        return text[:draw(st.integers(0, len(text)))]
    return text + draw(st.text(alphabet="(),x" + "".join(SPACES), max_size=3))


@given(reader_texts())
@settings(max_examples=500, deadline=None)
def test_any_text_reads_as_the_reference(text):
    assert_reads_as_reference(text)


def test_opaque_values_print_as_the_reference():
    table = FunTable(ENV.base, ENV.base, {o: o for o in ENV.base.objects},
                     {m: m for m in ENV.base.all_morphisms()})
    for x in [FunBase(table), Const(A, A, "x"), Gamma((A, A), 1, 2, ((1,), (2,), ())),
              Compose((Identity(A), FunBase(table))), A, "A", None]:
        assert_prints_as_reference(x)
