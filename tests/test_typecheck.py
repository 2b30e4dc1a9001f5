"""Typechecking cells in one linear pass, and the facts a check keeps.

cell_endpoints visits each sub-cell once.  Inside a law check it leaves
each cell node's source, target and categories in the check's table, and
evaluation reads them there; a one-off evaluation looks them up in an lru
cache.  The reference below is the typechecker as first written, which
built each level's composite and walked it again.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflecat import calculus
from shufflecat.calculus import (
    ApplyT,
    ApplyTCell,
    Budget,
    BudgetError,
    Compose,
    Eta,
    Free,
    Gamma,
    HComp,
    IdCell,
    Identity,
    Mu,
    Omega,
    Prod,
    Proj,
    Strength,
    Tuple,
    TupleCell,
    TypecheckError,
    VComp,
    WhiskerL,
    WhiskerR,
    cell_endpoints,
    check_naturality,
    enumerate_objects,
    equal_cell,
    eval_cell,
    fun_cod,
    fun_dom,
    fun_endpoints,
    gamma_source,
)
from shufflecat.fincat import load_fincat

ARROW = load_fincat(
    {
        "name": "arrow",
        "objects": ["x", "y"],
        "morphisms": [{"id": "f", "src": "x", "tgt": "y"}],
        "compose": [],
    }
)
W = ARROW
TW = Free(W)
WW = Prod((W, W))
BUD = Budget(max_seq_len=2)


def reference_cell_endpoints(e, path=""):
    """cell_endpoints as first written: each level looks up the categories
    of the composites built below it, walking them again."""
    try:
        where = path or type(e).__name__
        if isinstance(e, IdCell):
            fun_endpoints(e.fun, f"{where}.fun")
            return e.fun, e.fun
        if isinstance(e, Gamma):
            calculus._check_gamma(e, where)
            return gamma_source(e.slots, e.i, e.j), gamma_source(e.slots, e.j, e.i)
        if isinstance(e, VComp):
            if not e.parts:
                raise TypecheckError(f"{where}: empty vertical composition")
            ends = [reference_cell_endpoints(p, f"{where}[{k}]")
                    for k, p in enumerate(e.parts)]
            cats = [fun_endpoints(s, f"{where}[{k}].src") for k, (s, _) in enumerate(ends)]
            for k in range(len(ends) - 1):
                if cats[k] != cats[k + 1]:
                    raise TypecheckError(
                        f"{where}[{k + 1}]: vertical composition across different"
                        " hom-categories"
                    )
            return ends[0][0], ends[-1][1]
        if isinstance(e, HComp):
            s1, t1 = reference_cell_endpoints(e.first, f"{where}.first")
            s2, t2 = reference_cell_endpoints(e.second, f"{where}.second")
            if fun_cod(s1) != fun_dom(s2):
                raise TypecheckError(f"{where}: horizontal composition endpoints")
            return Compose((s1, s2)), Compose((t1, t2))
        if isinstance(e, WhiskerL):
            s, t = reference_cell_endpoints(e.cell, f"{where}.cell")
            if fun_cod(e.fun) != fun_dom(s):
                raise TypecheckError(f"{where}: left whisker endpoints")
            return Compose((e.fun, s)), Compose((e.fun, t))
        if isinstance(e, WhiskerR):
            s, t = reference_cell_endpoints(e.cell, f"{where}.cell")
            if fun_cod(s) != fun_dom(e.fun):
                raise TypecheckError(f"{where}: right whisker endpoints")
            return Compose((s, e.fun)), Compose((t, e.fun))
        if isinstance(e, ApplyTCell):
            s, t = reference_cell_endpoints(e.cell, f"{where}.cell")
            return ApplyT(s), ApplyT(t)
        if isinstance(e, TupleCell):
            if not e.parts:
                raise TypecheckError(f"{where}: empty tuple cell")
            ends = [reference_cell_endpoints(p, f"{where}[{k}]")
                    for k, p in enumerate(e.parts)]
            if len({fun_dom(s) for s, _ in ends}) != 1:
                raise TypecheckError(f"{where}: tuple cell factors need one domain")
            return Tuple(tuple(s for s, _ in ends)), Tuple(tuple(t for _, t in ends))
        raise TypecheckError(f"{where}: not a cell expression")
    except RecursionError:
        raise TypecheckError(f"{type(e).__name__}: expression nested too deeply") from None


# Functors between a few categories that meet often enough for random
# pastings to typecheck, plus ill-typed ones.
FUNS = [
    Identity(W), Identity(TW), Identity(WW), Identity(Free(WW)),
    Eta(W), Mu(W), Compose((Eta(TW), Mu(W))), ApplyT(Proj(WW, 1)),
    Tuple((Identity(TW), Identity(TW))), Strength((W, W), 1), Omega((W, W)),
    Proj(W, 1), Compose(()), Compose((Eta(W), Mu(W))), Tuple(()),
]
LEAF_CELLS = [
    IdCell(Identity(W)), IdCell(Identity(TW)), IdCell(Eta(W)), IdCell(Proj(W, 1)),
    Gamma((W, W)), Gamma((W, W), 2, 1), Gamma((W, W, W), 1, 3),
    Gamma((W, W), partition=(0, 1, 2)), Gamma((W, W), 1, 1), Identity(W),
]


def cells():
    funs = st.sampled_from(FUNS)
    return st.recursive(
        st.sampled_from(LEAF_CELLS),
        lambda kids: st.one_of(
            st.lists(kids, max_size=3).map(lambda ps: VComp(tuple(ps))),
            st.builds(HComp, kids, kids),
            st.builds(WhiskerL, funs, kids),
            st.builds(WhiskerR, kids, funs),
            st.builds(ApplyTCell, kids),
            st.lists(kids, max_size=3).map(lambda ps: TupleCell(tuple(ps))),
        ),
        max_leaves=6,
    )


def outcome(typecheck, e):
    try:
        return typecheck(e)
    except TypecheckError as err:
        return f"TypecheckError: {err}"


# Well-typed pastings: both orders of a horizontal composite, whiskers on
# both sides, a vertical composite, and T and tuples of cells.
UNPACK = Tuple((ApplyT(Proj(WW, 1)), ApplyT(Proj(WW, 2))))
PASTINGS = [
    VComp((Gamma((W, W)), Gamma((W, W), 2, 1))),
    HComp(Gamma((W, W)), WhiskerL(UNPACK, Gamma((W, W)))),
    WhiskerR(WhiskerL(Tuple((Identity(TW), Identity(TW))), Gamma((W, W))),
             ApplyT(Proj(WW, 1))),
    ApplyTCell(VComp((IdCell(Identity(W)), IdCell(Identity(W))))),
    TupleCell((IdCell(Eta(W)), IdCell(Eta(W)))),
]


@pytest.mark.parametrize("cell", PASTINGS, ids=lambda c: type(c).__name__)
def test_facts_are_the_endpoints_and_their_categories(cell):
    src, tgt, dom, cod = calculus._cell_facts(cell, "", None)
    assert (src, tgt) == reference_cell_endpoints(cell)
    assert fun_endpoints(src) == fun_endpoints(tgt) == (dom, cod)


@settings(max_examples=300, deadline=None)
@given(cells())
def test_typecheck_agrees_with_the_reference(cell):
    want = outcome(reference_cell_endpoints, cell)
    assert outcome(cell_endpoints, cell) == want
    # inside a check, where the facts of each node go to the table
    assert outcome(calculus._sharing(cell_endpoints), cell) == want
    if not isinstance(want, str):
        src, tgt, dom, cod = calculus._cell_facts(cell, "", None)
        assert fun_endpoints(src) == fun_endpoints(tgt) == (dom, cod)


@pytest.mark.parametrize("whisker", ["left", "right"])
def test_typecheck_work_grows_linearly_with_depth(monkeypatch, whisker):
    real = calculus.fun_endpoints
    calls = []

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(calculus, "fun_endpoints", counted)
    counts = []
    for n in (100, 200, 400):
        cell = IdCell(Identity(W))
        for _ in range(n):
            cell = (WhiskerL(Identity(W), cell) if whisker == "left"
                    else WhiskerR(cell, Identity(W)))
        calls.clear()
        cell_endpoints(cell)
        counts.append(len(calls))
    assert counts[2] - counts[1] == 2 * (counts[1] - counts[0]) > 0
    assert counts[0] <= 2 * 100


# ---------------------------------------------------------------- the table


def _lookups():
    info = calculus._cell_endpoints_cached.cache_info()
    return info.hits + info.misses


@pytest.mark.parametrize("cell", [PASTINGS[k] for k in (0, 1, 3)],
                         ids=lambda c: type(c).__name__)
def test_cache_lookups_inside_a_check_do_not_grow_with_points(cell):
    work = []
    for bud in (Budget(max_seq_len=1), Budget(max_seq_len=2)):
        before = _lookups()
        report = equal_cell(cell, cell, bud)
        assert report.passed
        work.append((report.points, _lookups() - before))
    (few, small), (many, large) = work
    assert few < many and small == large


def test_no_table_survives_a_checker():
    cell = PASTINGS[1]
    assert equal_cell(cell, cell, BUD).passed
    assert check_naturality(cell, Budget(max_seq_len=1)).passed
    assert calculus._entry_table is None
    raising = [
        lambda: equal_cell(cell, Gamma((W, W, W), 1, 3), BUD),  # other domains
        lambda: equal_cell(cell, VComp(()), BUD),  # ill-typed
        lambda: equal_cell(cell, cell, Budget(max_nest=0)),
        lambda: check_naturality(WhiskerR(cell, Proj(W, 1)), BUD),
    ]
    for call in raising:
        with pytest.raises((TypecheckError, BudgetError)):
            call()
        assert calculus._entry_table is None


@pytest.mark.parametrize("cell", PASTINGS, ids=lambda c: type(c).__name__)
def test_components_inside_a_check_equal_one_off_components(cell):
    objs, _ = enumerate_objects(fun_dom(cell_endpoints(cell)[0]), BUD)

    def components():
        return [eval_cell(cell, o) for o in objs]

    assert calculus._sharing(components)() == components()


# ---------------------------------------------------------------- drift


DRIFTED = {
    "source": "{perm=[1, 2, 3, 4], components=[<id_x, id_x>, <id_x, id_x>, "
              "<id_x, id_y>, <id_x, id_y>]}",
    "target": "{perm=[1, 2, 3, 4], components=[<id_x, id_x>, <id_x, id_y>, "
              "<id_x, id_x>, <id_x, id_y>]}",
}


@pytest.mark.parametrize("end", ["source", "target"])
@pytest.mark.parametrize("cell", [
    Gamma((W, W)),
    WhiskerR(Gamma((W, W)), Identity(Free(WW))),
    WhiskerL(Identity(Prod((TW, TW))), Gamma((W, W))),
], ids=["gamma", "whisker-right", "whisker-left"])
def test_drifting_components_are_reported(monkeypatch, cell, end):
    """A Gamma action whose components start or end at the wrong object:
    the identity on the true component's target (or source).  The figures
    are those of the checker that evaluated both endpoints again at each
    object."""
    real = calculus._CELL_ACTIONS[Gamma]

    def drifting(e, x):
        comp = real(e, x)
        lev = Free(Prod(e.slots))
        return lev.identity(lev.tgt(comp) if end == "source" else lev.src(comp))

    monkeypatch.setitem(calculus._CELL_ACTIONS, Gamma, drifting)
    report = equal_cell(cell, cell, BUD)
    assert report.to_dict() == {
        "kind": "equal-cell",
        "passed": False,
        "points": 1101,
        "truncated": False,
        "phase": "components",
        "counterexample": {"point": "<(x x), (x y)>", "left": DRIFTED[end]},
        "detail": f"component endpoints drift: {end}",
    }
