"""Expression text: frozen parses first, then printer round-trips.

The gamma evaluation below was derived by hand: interleaving a length-2
sequence with a length-2 sequence slot-1-first and reading the result
slot-2-first gives the transpose permutation [1,3,2,4]; every component is
an identity because the inputs are objects.
"""

import pytest
from hypothesis import given, settings, strategies as st

from shufflecat.calculus import (
    ApplyT,
    ApplyTCell,
    Compose,
    Eta,
    Free,
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
    TypecheckError,
    cell_endpoints,
    eval_cell,
    fun_endpoints,
)
from shufflecat.fixtures import builtin_base, builtin_monoid
from shufflecat.freesmc import SeqObj
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
    assert parse_cell("(gamma-inv A B)", ENV) == GammaInv((A, A))
    assert parse_cell("(gamma-at 2 1 A B C)", ENV) == Gamma((A, A, A), 2, 1)
    assert parse_cell("(vcomp (gamma A B) (gamma-inv A B))", ENV) == VComp(
        (Gamma((A, A)), GammaInv((A, A)))
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
            st.sampled_from([Gamma, GammaInv]),
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
    from shufflecat.calculus import Const, FunBase
    from shufflecat.fincat import FunTable

    cat = ENV.base
    table = FunTable(cat, cat, {o: o for o in cat.objects},
                     {m: m for m in cat.all_morphisms()})
    with pytest.raises(PrintError):
        print_fun(FunBase(table))
    with pytest.raises(PrintError):
        print_fun(Const(A, A, "x"))
    with pytest.raises(PrintError):
        print_cell(Gamma((A, A), 1, 2, ((1,), (2,), ())))


def test_data_of_obj_shapes():
    c = Prod((A, Free(A)))
    x = parse_obj("(x,(y x))", c, ENV)
    assert data_of_obj(c, x) == ["x", {"entries": ["y", "x"]}]
