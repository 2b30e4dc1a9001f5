"""Expression calculus: typechecking, bounded enumeration, evaluation,
and pointwise equality reports.

The evaluator delegates to the sequence-category layer, so value-level
correctness is anchored by test_freesmc; here the focus is endpoints,
enumeration order and counts, report determinism, and counterexamples.
"""

import ast
import contextlib
import inspect
import itertools
import json
import math
import typing

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shufflecat import calculus
from shufflecat.calculus import (
    ApplyT,
    ApplyTCell,
    Budget,
    BudgetError,
    CELL_TYPES,
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
    Mu,
    Omega,
    Prod,
    Proj,
    Shuffle,
    Strength,
    Tuple,
    TupleCell,
    TypecheckError,
    UNIT,
    VComp,
    WhiskerL,
    WhiskerR,
    cell_endpoints,
    check_naturality,
    count_morphisms,
    count_objects,
    enumerate_morphisms,
    enumerate_objects,
    equal_cell,
    equal_fun,
    eval_cell,
    eval_fun,
    eval_fun_mor,
    free_depth,
    fun_endpoints,
    gamma_source,
    level_of,
    prod_map,
    typecheck,
)
from shufflecat.fincat import FinCat, FunTable, load_fincat
from shufflecat.mutations import MUTATIONS, inject
from shufflecat.freesmc import SeqMor, SeqObj, identity_seq, omega_n, seq, strength_ti
from shufflecat.perms import Perm, all_perms, identity, invert
from test_typecheck import cells as typecheck_cells

DISC2 = load_fincat(
    {"name": "discrete2", "objects": ["x", "y"], "morphisms": [], "compose": []}
)
ARROW = load_fincat(
    {
        "name": "arrow",
        "objects": ["x", "y"],
        "morphisms": [{"id": "f", "src": "x", "tgt": "y"}],
        "compose": [],
    }
)
A = DISC2
W = ARROW
TA = Free(A)
BUD = Budget()


# ---------------------------------------------------------------- typecheck


def test_identity_endpoints():
    assert fun_endpoints(Identity(W)) == (W, W)


def test_compose_requires_matching_endpoints():
    with pytest.raises(TypecheckError):
        fun_endpoints(Compose((Eta(A), Mu(A))))
    ok = Compose((Eta(Free(A)), Mu(A)))
    assert fun_endpoints(ok) == (Free(A), Free(A))


def test_typecheck_error_names_offender():
    with pytest.raises(TypecheckError, match=r"\[1\]"):
        fun_endpoints(Compose((Identity(A), Eta(Free(A)))))


def test_tuple_proj_shuffle_endpoints():
    p = Prod((A, W))
    assert fun_endpoints(Proj(p, 2)) == (p, W)
    two = Tuple((Proj(p, 2), Proj(p, 1)))
    assert fun_endpoints(two) == (p, Prod((W, A)))
    sh = Shuffle(p, Perm((2, 1)))
    assert fun_endpoints(sh) == (p, Prod((W, A)))
    with pytest.raises(TypecheckError):
        fun_endpoints(Proj(p, 3))
    with pytest.raises(TypecheckError):
        fun_endpoints(Tuple((Proj(p, 1), Identity(A))))


def test_strength_omega_endpoints():
    s = Strength((A, W, A), 2)
    assert fun_endpoints(s) == (Prod((A, Free(W), A)), Free(Prod((A, W, A))))
    om = Omega((A, W))
    assert fun_endpoints(om) == (Prod((Free(A), Free(W))), Free(Prod((A, W))))


def test_gamma_endpoints_are_strength_routes():
    g = Gamma((A, A))
    src, tgt = cell_endpoints(g)
    assert src == gamma_source((A, A), 1, 2)
    assert tgt == gamma_source((A, A), 2, 1)
    gi = GammaInv((A, A))
    assert cell_endpoints(gi) == (tgt, src)


@pytest.mark.parametrize("partition", [(1, 2), None, (0, 1, 2, 2)])
def test_malformed_gamma_partition_is_a_typecheck_error(partition):
    with pytest.raises(TypecheckError, match="three bar positions"):
        typecheck(Gamma((A, A), 1, 2, partition))
    with pytest.raises(TypecheckError):
        equal_cell(Gamma((A, A), 1, 2, partition), Gamma((A, A)), BUD)


def test_vcomp_requires_matching_categories():
    g = Gamma((A, A))
    with pytest.raises(TypecheckError):
        cell_endpoints(VComp((g, IdCell(Identity(A)))))
    assert typecheck(VComp((g, GammaInv((A, A))))) is not None


# ---------------------------------------------------------------- enumerate


def test_enumerate_unit_category():
    objs, trunc = enumerate_objects(UNIT, BUD)
    assert objs == [()] and not trunc
    mors, trunc = enumerate_morphisms(UNIT, BUD)
    assert mors == [()] and not trunc


def test_enumerate_free_discrete2_len2():
    objs, trunc = enumerate_objects(Free(A), Budget(max_seq_len=2))
    assert len(objs) == 7 and not trunc
    assert objs[0] == seq(())
    assert set(len(o.entries) for o in objs) == {0, 1, 2}


def test_counts():
    assert count_objects(Free(A), Budget(max_seq_len=2)) == 7
    assert count_objects(Prod((A, A)), BUD) == 4
    # SeqMor count over the walking arrow: sum over lengths of l! * 3^l
    assert count_morphisms(Free(W), Budget(max_seq_len=2)) == 1 + 3 + 2 * 9
    assert count_morphisms(UNIT, BUD) == 1


def test_enumerate_smallest_first():
    objs, _ = enumerate_objects(Free(Free(A)), Budget(max_seq_len=2))
    sizes = [sum(1 + len(e.entries) for e in o.entries) for o in objs]
    assert sizes == sorted(sizes)
    assert objs[0] == seq(())


def test_enumerate_truncation_deterministic():
    b = Budget(max_seq_len=3, max_points=5, seed=11)
    one, trunc1 = enumerate_objects(Free(A), b)
    two, trunc2 = enumerate_objects(Free(A), b)
    assert trunc1 and trunc2 and one == two and len(one) == 5
    other, _ = enumerate_objects(Free(A), Budget(max_seq_len=3, max_points=5, seed=12))
    assert other != one


def test_enumerate_nesting_over_budget():
    with pytest.raises(BudgetError):
        enumerate_objects(Free(Free(Free(A))), Budget(max_nest=2))


def test_enumerate_morphisms_free_arrow():
    mors, _ = enumerate_morphisms(Free(W), Budget(max_seq_len=1))
    assert len(mors) == 4
    assert all(isinstance(m, SeqMor) for m in mors)
    lev = level_of(A)


# ---------------------------------------------------------------- categories


def test_level_of_is_a_checked_identity():
    for c in (A, Prod((A, W)), Free(W)):
        assert level_of(c) is c
    with pytest.raises(TypecheckError, match="not a category expression"):
        level_of(Identity(A))


CAT_EXPRS = st.recursive(
    st.sampled_from([A, W]),
    lambda inner: st.one_of(
        st.builds(Free, inner),
        st.lists(inner, max_size=2).map(lambda fs: Prod(tuple(fs))),
    ),
    max_leaves=3,
).filter(lambda c: free_depth(c) <= 2)


@settings(max_examples=40, deadline=None)
@given(CAT_EXPRS)
def test_identities_are_units_for_composition(c):
    mors, _ = enumerate_morphisms(c, Budget(max_seq_len=2, max_points=60))
    for m in mors:
        assert c.comp(c.identity(c.tgt(m)), m) == m == c.comp(m, c.identity(c.src(m)))


# ---------------------------------------------------------------- eval_fun


def test_eval_identity_and_shuffle():
    assert eval_fun(Identity(A), "x") == "x"
    p = Prod((A, W, A))
    got = eval_fun(Shuffle(p, Perm((3, 1, 2))), ("u", "v", "w"))
    assert got == ("w", "u", "v")


def test_eval_eta_mu_strength_omega():
    assert eval_fun(Eta(A), "x") == seq(("x",))
    assert eval_fun(Mu(A), seq((seq(("x",)), seq(("y",))))) == seq(("x", "y"))
    s = Strength((A, A, A), 2)
    assert eval_fun(s, ("a", seq(("c1", "c2")), "b")) == strength_ti(
        3, 2, ("a", seq(("c1", "c2")), "b")
    )
    om = Omega((A, A))
    x, y = seq(("x", "y")), seq(("y",))
    assert eval_fun(om, (x, y)) == omega_n((x, y))


def test_eval_funbase_and_applyt():
    table = FunTable(ARROW, ARROW, {"x": "x", "y": "x"}, {"f": "id_x", "id_x": "id_x", "id_y": "id_x"})
    fb = FunBase(table)
    assert eval_fun(fb, "y") == "x"
    assert eval_fun_mor(fb, "f") == "id_x"
    lifted = ApplyT(fb)
    assert eval_fun(lifted, seq(("x", "y"))) == seq(("x", "x"))
    m = SeqMor(identity(1), ("f",))
    assert eval_fun_mor(lifted, m) == identity_seq(level_of(W), seq(("x",)))


def test_eval_const():
    c = Const(UNIT, A, "y")
    assert eval_fun(c, ()) == "y"
    assert eval_fun_mor(c, ()) == "id_y"


def test_eval_compose_diagrammatic_order():
    route = Compose((Eta(Free(A)), Mu(A)))
    x = seq(("x", "y"))
    assert eval_fun(route, x) == x


# ---------------------------------------------------------------- eval_cell


def test_eval_idcell():
    got = eval_cell(IdCell(Eta(A)), "x")
    assert got == identity_seq(level_of(A), seq(("x",)))


def test_eval_gamma_singleton_is_identity():
    g = Gamma((A, A))
    x, y = seq(("x",)), seq(("x", "y"))
    got = eval_cell(g, (x, y))
    assert got == identity_seq(level_of(Prod((A, A))), omega_n((x, y)))


def test_eval_gamma_2x2_perm():
    g = Gamma((A, A))
    x, y = seq(("x", "y")), seq(("x", "y"))
    assert eval_cell(g, (x, y)).perm == Perm((1, 3, 2, 4))


def test_eval_vcomp_gamma_inverse_pair():
    g = VComp((Gamma((A, A)), GammaInv((A, A))))
    x, y = seq(("x", "y")), seq(("x", "y"))
    got = eval_cell(g, (x, y))
    assert got == identity_seq(level_of(Prod((A, A))), omega_n((x, y)))


def test_eval_whiskers():
    # whisker gamma on the left by (eta x 1): source entries get length 1
    p = Prod((A, Free(A)))
    f = prod_map((A, Free(A)), (Eta(A), Identity(Free(A))))
    cell = WhiskerL(f, Gamma((A, A)))
    y = seq(("x", "y"))
    got = eval_cell(cell, ("x", y))
    assert got == eval_cell(Gamma((A, A)), (seq(("x",)), y))
    # whisker on the right by T(collapse)
    table = FunTable(DISC2, DISC2, {"x": "x", "y": "x"}, {"id_x": "id_x", "id_y": "id_x"})
    pair_collapse = prod_map((A, A), (FunBase(table), FunBase(table)))
    cell2 = WhiskerR(Gamma((A, A)), ApplyT(pair_collapse))
    got2 = eval_cell(cell2, (y, y))
    raw = eval_cell(Gamma((A, A)), (y, y))
    assert got2 == eval_fun_mor(ApplyT(pair_collapse), raw)


def test_eval_tuplecell_and_applytcell():
    g = Gamma((A, A))
    tc = TupleCell((g, g))
    x, y = seq(("x", "y")), seq(("y",))
    got = eval_cell(tc, (x, y))
    part = eval_cell(g, (x, y))
    assert got == (part, part)
    lifted = ApplyTCell(g)
    outer = seq(((x, y), (y, y)))
    lifted_val = eval_cell(lifted, outer)
    assert lifted_val.perm == identity(2)
    assert lifted_val.components == (
        eval_cell(g, (x, y)),
        eval_cell(g, (y, y)),
    )


def test_evaluation_past_the_recursion_limit_raises_calc_error():
    # typechecking a tuple takes fewer frames a level than evaluating it,
    # so this cell typechecks and its evaluation recurses too deeply
    deep = Identity(W)
    for _ in range(400):
        deep = Tuple((deep,))
    cell = IdCell(deep)
    assert cell_endpoints(cell)[0] == deep
    for run in (lambda: eval_cell(cell, "x"), lambda: eval_fun(deep, "x"),
                lambda: eval_fun_mor(deep, "f")):
        with pytest.raises(calculus.CalcError, match="nested too deeply to evaluate"):
            run()


# ---------------------------------------------------------------- equality


def test_equal_fun_monad_unit_law():
    left = Compose((Eta(Free(A)), Mu(A)))
    report = equal_fun(left, Identity(Free(A)), BUD)
    assert report.passed and report.points > 0 and not report.truncated


def test_equal_fun_counterexample_minimal():
    table = FunTable(ARROW, ARROW, {"x": "x", "y": "x"}, {"f": "id_x", "id_x": "id_x", "id_y": "id_x"})
    collapse = ApplyT(FunBase(table))
    report = equal_fun(Identity(Free(W)), collapse, BUD)
    assert not report.passed
    assert report.counterexample is not None
    # smallest failing input is the singleton (y)
    assert report.counterexample["point"] == "(y)"


def test_equal_fun_domain_mismatch_is_error():
    with pytest.raises(TypecheckError):
        equal_fun(Identity(A), Identity(W), BUD)


def test_sides_with_different_codomains_are_not_compared():
    # both sides send every point to x and its identity, named alike in
    # the arrow and in the discrete category
    f, g = Const(W, W, "x"), Const(W, A, "x")
    message = "^cannot compare functors with different codomains$"
    with pytest.raises(TypecheckError, match=message):
        equal_fun(f, g, BUD)
    with pytest.raises(TypecheckError, match=message):
        equal_cell(IdCell(f), IdCell(g), BUD)


def test_equal_cell_reflexive():
    g = Gamma((A, A))
    report = equal_cell(g, g, BUD)
    assert report.passed and report.phase == "components"


def test_equal_cell_endpoint_mismatch_reported():
    report = equal_cell(Gamma((A, A)), GammaInv((A, A)), BUD)
    assert not report.passed
    assert report.phase.startswith("endpoints")


def test_equal_cell_sees_a_wrong_component_inside_applyt():
    # the inverted transpose sends a component into the wrong interleaving
    # once a sequence has 3 entries; T of the cell holds such components,
    # and its endpoints are derived from them, so the drift shows there too
    cell = ApplyTCell(Gamma((A, A)))
    bud = Budget(max_seq_len=3, max_nest=2, max_points=60, seed=0)
    assert equal_cell(cell, cell, bud).passed
    with inject("gamma-transpose-direction"):
        report = equal_cell(cell, cell, bud)
    assert not report.passed and report.phase == "components"
    assert report.detail == "component endpoints drift: target"


def test_equal_cell_axiom_eta_left():
    # whiskering gamma by (eta x 1) gives an identity 2-cell
    f = prod_map((A, Free(A)), (Eta(A), Identity(Free(A))))
    cell = WhiskerL(f, Gamma((A, A)))
    route = Compose((f, gamma_source((A, A), 1, 2)))
    report = equal_cell(cell, IdCell(route), BUD)
    assert report.passed


def test_equal_cell_detects_planted_difference():
    report = equal_cell(Gamma((A, A)), IdCell(gamma_source((A, A), 1, 2)), BUD)
    assert not report.passed
    assert report.phase.startswith("endpoints")
    # against a cell with the right endpoints but wrong components
    gi = VComp((Gamma((A, A)), GammaInv((A, A)), Gamma((A, A))))
    report2 = equal_cell(gi, Gamma((A, A)), BUD)
    assert report2.passed


def test_exchange_law():
    g = Gamma((A, A))
    p = Prod((A, A))
    unpack = Tuple((ApplyT(Proj(p, 1)), ApplyT(Proj(p, 2))))
    beta = WhiskerL(unpack, Gamma((A, A)))
    h = HComp(g, beta)
    x = (seq(("x", "y")), seq(("x", "y")))
    # the other order: beta at the image of x under g's source, followed
    # by the image of g's component under beta's target
    sg, _ = cell_endpoints(g)
    _, tb = cell_endpoints(beta)
    lev = level_of(fun_endpoints(tb)[1])
    other = lev.comp(eval_fun_mor(tb, eval_cell(g, x)), eval_cell(beta, eval_fun(sg, x)))
    assert eval_cell(h, x) == other


def _json(report):
    return json.dumps(report.to_dict(), sort_keys=True)


def test_reports_deterministic_bytes():
    b = Budget(max_seq_len=2, max_points=40, seed=7)
    r1 = equal_cell(Gamma((A, A)), Gamma((A, A)), b)
    r2 = equal_cell(Gamma((A, A)), Gamma((A, A)), b)
    assert _json(r1) == _json(r2)
    parsed = json.loads(_json(r1))
    assert parsed["passed"] is True


def test_naturality_check():
    report = check_naturality(Gamma((W, W)), Budget(max_seq_len=2, max_points=400))
    assert report.passed and report.points > 0


# ---------------------------------------------------------------- one pass


def _count_calls(monkeypatch, name, when=lambda *args: True):
    """Route calculus.<name> through a counter of the calls that match."""
    real = getattr(calculus, name)
    calls = []

    def counted(*args):
        if when(*args):
            calls.append(args)
        return real(*args)

    monkeypatch.setattr(calculus, name, counted)
    return calls


def _identical_twin(f):
    """An expression unequal to f with the same values everywhere."""
    twin = Compose((f, Identity(calculus.fun_cod(f))))
    assert twin != f
    return twin


@pytest.mark.parametrize("kind", ["passing", "raising"])
def test_equal_fun_evaluates_identical_sides_once(monkeypatch, kind):
    if kind == "passing":
        f = Compose((Eta(Free(A)), Mu(A)))
    else:
        # no image for y: evaluation raises KeyError at the first point with y
        f = ApplyT(FunBase(FunTable(ARROW, ARROW, {"x": "x"}, {"id_x": "id_x"})))
    on_obj = _count_calls(monkeypatch, "eval_fun", lambda g, x: g is f)
    on_mor = _count_calls(monkeypatch, "eval_fun_mor", lambda g, m: g is f)
    report = equal_fun(f, f, BUD)
    assert len(on_obj) + len(on_mor) == report.points
    assert report.passed == (kind == "passing")
    if kind == "raising":
        assert "error" in report.counterexample
    assert equal_fun(f, _identical_twin(f), BUD) == report


def _three_pass_equal_cell(a, b, bud):
    """equal_cell as it was first written: each phase enumerates the
    domain again.  The reference for the shared enumeration."""
    sa, ta = cell_endpoints(a)
    sb, tb = cell_endpoints(b)
    src = equal_fun(sa, sb, bud)
    if not src.passed:
        return calculus.Report(
            "equal-cell", False, src.points, src.truncated,
            phase="endpoints-source", counterexample=src.counterexample,
            detail="source 1-cells disagree",
        )
    tgt = equal_fun(ta, tb, bud)
    if not tgt.passed:
        return calculus.Report(
            "equal-cell", False, src.points + tgt.points, tgt.truncated,
            phase="endpoints-target", counterexample=tgt.counterexample,
            detail="target 1-cells disagree",
        )
    lev = level_of(fun_endpoints(sa)[1])
    objs, truncated = enumerate_objects(fun_endpoints(sa)[0], bud)
    points = src.points + tgt.points
    for o in objs:
        points += 1
        try:
            left, right = eval_cell(a, o), eval_cell(b, o)
            drift = calculus._endpoint_drift(
                lev, left, eval_fun(sa, o), eval_fun(ta, o))
        except calculus._EVAL_ERRORS as err:
            return calculus.Report(
                "equal-cell", False, points, truncated,
                counterexample={"point": calculus.show_value(o), "error": str(err)},
            )
        if drift:
            return calculus.Report(
                "equal-cell", False, points, truncated,
                counterexample={"point": calculus.show_value(o),
                                "left": calculus.show_value(left)},
                detail=f"component endpoints drift: {drift}",
            )
        if left != right:
            return calculus.Report(
                "equal-cell", False, points, truncated,
                counterexample=calculus._counterexample(o, left, right),
            )
    return calculus.Report("equal-cell", True, points,
                           truncated or src.truncated or tgt.truncated)


G = Gamma((A, A))
# VComp meets its parts only at the hom-category, so Gamma after Gamma has
# Gamma's endpoints and fails to compose wherever gamma moves something
EQUAL_CELL_CASES = {
    "endpoints-source": (G, GammaInv((A, A))),
    "endpoints-target": (G, IdCell(gamma_source((A, A), 1, 2))),
    "components": (VComp((G, G)), G),
    "passing": (VComp((G, GammaInv((A, A)), G)), G),
}


@pytest.mark.parametrize("phase", sorted(EQUAL_CELL_CASES))
# the middle budget covers every object but samples the morphisms
@pytest.mark.parametrize("bud", [BUD, Budget(max_seq_len=2, max_points=60, seed=3),
                                 Budget(max_seq_len=3, max_points=25, seed=3)],
                         ids=["whole", "sampled-morphisms", "sampled"])
def test_equal_cell_enumerates_once_and_keeps_reports(monkeypatch, phase, bud):
    a, b = EQUAL_CELL_CASES[phase]
    want = _three_pass_equal_cell(a, b, bud)
    objs = _count_calls(monkeypatch, "enumerate_objects")
    mors = _count_calls(monkeypatch, "enumerate_morphisms")
    got = equal_cell(a, b, bud)
    assert (len(objs), len(mors)) == (1, 1)
    assert _json(got) == _json(want)
    assert got.passed == (phase == "passing")
    if not got.passed:
        assert got.phase == phase


def test_every_node_type_has_a_dispatch_entry():
    assert set(calculus._FUN_ACTIONS) == set(typing.get_args(FunExpr))
    assert set(calculus._CELL_ACTIONS) == set(typing.get_args(CellExpr))
    assert set(calculus._CELL_ACTIONS) == set(CELL_TYPES)
    with pytest.raises(TypecheckError, match="^not a functor expression: 'x'$"):
        eval_fun("x", "x")
    with pytest.raises(TypecheckError, match="^not a functor expression"):
        eval_fun_mor(G, "x")
    with pytest.raises(TypecheckError, match="^not a functor expression"):
        eval_fun(ApplyT(G), seq(("x",)))
    with pytest.raises(TypecheckError, match="^not a cell expression"):
        eval_cell(Identity(A), "x")


def test_mutation_after_first_evaluation_is_observed():
    strength = Strength((A, A), 1)
    point = (seq(("x", "y")), "x")
    lifted = ApplyT(strength)
    outer = seq((point,))
    x, y = seq(("x", "y")), seq(("y", "x"))
    before = (eval_fun(strength, point), eval_fun(lifted, outer), eval_cell(G, (x, y)))
    with inject("strength-entry-order"):
        assert eval_fun(strength, point).entries == before[0].entries[::-1]
        assert eval_fun(lifted, outer) != before[1]
    with inject("gamma-transpose-direction"):
        assert eval_cell(G, (x, y)).perm == invert(before[2].perm)
    assert (eval_fun(strength, point), eval_fun(lifted, outer),
            eval_cell(G, (x, y))) == before


# ---------------------------------------------------------------- sharing


class _CountingTable(FunTable):
    """A FunTable that records every entry it is asked about."""

    def __init__(self, *args):
        super().__init__(*args)
        self.asked = []

    def on_obj(self, obj):
        self.asked.append(obj)
        return super().on_obj(obj)

    def on_mor(self, m):
        self.asked.append(m)
        return super().on_mor(m)


def _collapse_table(object_map=None):
    return _CountingTable(ARROW, ARROW, object_map or {"x": "x", "y": "x"},
                          {"f": "id_x", "id_x": "id_x", "id_y": "id_x"})


def test_entry_is_evaluated_once_per_check():
    table = _collapse_table()
    lifted = ApplyT(FunBase(table))
    report = equal_fun(lifted, lifted, BUD)
    assert report.passed
    assert sorted(table.asked) == sorted(ARROW.objects + ARROW.all_morphisms())
    # the same points evaluated outside a check ask about every occurrence
    table.asked.clear()
    objs, _ = enumerate_objects(Free(W), BUD)
    for o in objs:
        eval_fun(lifted, o)
    assert len(table.asked) == sum(len(o.entries) for o in objs) > 2


def test_raising_entry_gives_the_memo_free_report():
    # "y" has no image, so every point holding a y raises
    f = ApplyT(FunBase(_collapse_table({"x": "x"})))
    g = Compose((f, Identity(Free(W))))
    objs, t_objs = enumerate_objects(Free(W), BUD)
    mors, t_mors = enumerate_morphisms(Free(W), BUD)
    want = old_equal_on(f, g, objs, mors, t_objs or t_mors)
    got = equal_fun(f, g, BUD)
    assert not got.passed and "error" in got.counterexample
    assert got == want


def test_raising_call_is_not_kept():
    outcomes = iter([KeyError("y"), "x"])

    def flaky(v):
        out = next(outcomes)
        if isinstance(out, Exception):
            raise out
        return out

    memo = calculus._memoized(flaky)
    with pytest.raises(KeyError):
        memo("y")
    assert memo("y") == "x" and memo("y") == "x"


def test_mutation_between_checks_is_observed():
    p = Prod((Free(A),))
    lifted = ApplyT(Strength((A,), 1))
    other = ApplyT(Compose((Proj(p, 1), ApplyT(Tuple((Identity(A),))))))
    bud = Budget(max_seq_len=2)
    assert equal_fun(lifted, other, bud).passed
    with inject("strength-entry-order"):
        report = equal_fun(lifted, other, bud)
    # seen already at an object, whose entries the first check evaluated
    assert not report.passed and "note" not in report.counterexample
    assert equal_fun(lifted, other, bud).passed


def test_no_table_outlives_a_check():
    table = _collapse_table()
    seen = []
    table.on_obj = lambda obj: seen.append(calculus._entry_table) or "x"
    lifted = ApplyT(FunBase(table))
    assert equal_fun(lifted, lifted, BUD).passed
    assert seen and all(t is seen[0] and t is not None for t in seen)
    assert calculus._entry_table is None
    with pytest.raises(BudgetError):
        equal_fun(lifted, lifted, Budget(max_nest=0))
    assert calculus._entry_table is None
    seen.clear()
    eval_cell(IdCell(lifted), seq(("x", "y")))
    assert seen == [None, None]


def _enumerate_reference(at, count, c, bud, size=calculus._size):
    """enumerate_* with each point built on its own, sharing nothing."""
    idxs, truncated = calculus._indices(count(c, bud), bud)
    return sorted((at(c, bud, i) for i in idxs), key=size), truncated


@pytest.mark.parametrize("c, bud, sampled", [
    (Prod((Free(A), A)), BUD, False),
    (Free(Free(A)), Budget(max_seq_len=2), False),
    (Free(Free(W)), Budget(max_seq_len=2, max_points=40, seed=5), True),
], ids=["product", "nested", "sampled"])
def test_shared_enumeration_equals_the_memo_free_reference(c, bud, sampled):
    want_objs = _enumerate_reference(calculus.object_at, count_objects, c, bud)
    want_mors = _enumerate_reference(calculus.morphism_at, count_morphisms, c, bud)
    assert enumerate_objects(c, bud) == want_objs
    assert enumerate_morphisms(c, bud) == want_mors
    assert want_objs[1] == want_mors[1] == sampled


# ------------------------------------------------- one walk, against an oracle
#
# The checkers as they were when each wrote its own point loop and built
# its own reports.  The checkers that share one walk and one report
# builder must give the same report, or raise the same error, clean and
# under every mutation.


def old_equal_on(f, g, objs, mors, truncated, values=None):
    same = f == g
    points = 0
    for o in objs:
        points += 1
        try:
            a = eval_fun(f, o)
            b = a if same else eval_fun(g, o)
        except calculus._EVAL_ERRORS as err:
            return calculus.Report(
                "equal-fun", False, points, truncated,
                counterexample={"point": calculus.show_value(o), "error": str(err)},
            )
        if a != b:
            return calculus.Report(
                "equal-fun", False, points, truncated,
                counterexample=calculus._counterexample(o, a, b),
            )
        if values is not None:
            values.append(a)
    for m in mors:
        points += 1
        try:
            a = eval_fun_mor(f, m)
            b = a if same else eval_fun_mor(g, m)
        except calculus._EVAL_ERRORS as err:
            return calculus.Report(
                "equal-fun", False, points, truncated,
                counterexample={"point": calculus.show_value(m), "error": str(err)},
            )
        if a != b:
            return calculus.Report(
                "equal-fun", False, points, truncated,
                counterexample=calculus._counterexample(m, a, b, note="on a morphism"),
            )
    return calculus.Report("equal-fun", True, points, truncated)


@calculus._sharing
def old_equal_fun(f, g, bud):
    dom = calculus.fun_dom(f)
    if calculus.fun_dom(g) != dom:
        raise TypecheckError("cannot compare functors with different domains")
    objs, t1 = enumerate_objects(dom, bud)
    mors, t2 = enumerate_morphisms(dom, bud)
    return old_equal_on(f, g, objs, mors, t1 or t2)


@calculus._sharing
def old_equal_cell(a, b, bud):
    sa, ta, dom, cod = calculus._facts(a)
    sb, tb, dom_b, _ = calculus._facts(b)
    if dom_b != dom:
        raise TypecheckError("cannot compare functors with different domains")
    objs, t_objs = enumerate_objects(dom, bud)
    mors, t_mors = enumerate_morphisms(dom, bud)
    truncated = t_objs or t_mors
    src_values: list = []
    src_report = old_equal_on(sa, sb, objs, mors, truncated, src_values)
    if not src_report.passed:
        return calculus.Report(
            "equal-cell", False, src_report.points, truncated,
            phase="endpoints-source", counterexample=src_report.counterexample,
            detail="source 1-cells disagree",
        )
    tgt_values: list = []
    tgt_report = old_equal_on(ta, tb, objs, mors, truncated, tgt_values)
    if not tgt_report.passed:
        return calculus.Report(
            "equal-cell", False,
            src_report.points + tgt_report.points, truncated,
            phase="endpoints-target", counterexample=tgt_report.counterexample,
            detail="target 1-cells disagree",
        )
    cod_level = level_of(cod)
    points = src_report.points + tgt_report.points
    for o, want_src, want_tgt in zip(objs, src_values, tgt_values):
        points += 1
        try:
            left, right = eval_cell(a, o), eval_cell(b, o)
            drift = calculus._endpoint_drift(cod_level, left, want_src, want_tgt)
        except calculus._EVAL_ERRORS as err:
            return calculus.Report(
                "equal-cell", False, points, t_objs,
                counterexample={"point": calculus.show_value(o), "error": str(err)},
            )
        if drift:
            return calculus.Report(
                "equal-cell", False, points, t_objs,
                counterexample={"point": calculus.show_value(o),
                                "left": calculus.show_value(left)},
                detail=f"component endpoints drift: {drift}",
            )
        if left != right:
            return calculus.Report(
                "equal-cell", False, points, t_objs,
                counterexample=calculus._counterexample(o, left, right),
            )
    return calculus.Report("equal-cell", True, points, truncated)


@calculus._sharing
def old_check_naturality(alpha, bud):
    s, t, dom, cod = calculus._facts(alpha)
    dom_level = level_of(dom)
    cod_level = level_of(cod)
    mors, truncated = enumerate_morphisms(dom, bud)
    points = 0
    for m in mors:
        points += 1
        x, y = dom_level.src(m), dom_level.tgt(m)
        try:
            left = cod_level.comp(eval_cell(alpha, y), eval_fun_mor(s, m))
            right = cod_level.comp(eval_fun_mor(t, m), eval_cell(alpha, x))
        except calculus._EVAL_ERRORS as err:
            return calculus.Report(
                "naturality", False, points, truncated,
                counterexample={"point": calculus.show_value(m), "error": str(err)},
            )
        if left != right:
            return calculus.Report(
                "naturality", False, points, truncated,
                counterexample=calculus._counterexample(m, left, right),
            )
    return calculus.Report("naturality", True, points, truncated)


def _outcome(check, *args):
    try:
        return check(*args).to_dict()
    except calculus.CalcError as err:
        return f"{type(err).__name__}: {err}"


# budgets that walk small domains in full and sample the larger ones
SMALL_BUDGETS = st.builds(
    Budget,
    max_seq_len=st.integers(1, 2),
    max_points=st.sampled_from([8, 60]),
    seed=st.integers(0, 9),
)


def _checks_of(cell):
    """The checks of a cell against itself and, when it is well typed,
    against its square and the identities on its source and target, whose
    categories are its own, so that every phase of equal_cell can fail;
    then its source against its target as functors."""
    checks = [(equal_cell, old_equal_cell, cell, cell),
              (check_naturality, old_check_naturality, cell)]
    try:
        s, t = cell_endpoints(cell)
    except TypecheckError:
        return checks
    return checks + [(equal_cell, old_equal_cell, VComp((cell, cell)), cell),
                     (equal_cell, old_equal_cell, IdCell(t), cell),
                     (equal_cell, old_equal_cell, IdCell(s), cell),
                     (equal_fun, old_equal_fun, s, t)]


# two parallel arrows, and the functor that swaps them: it fixes every
# object, so the sides first differ at a morphism
PAR = load_fincat({"name": "par", "objects": ["x", "y"],
                   "morphisms": [{"id": "f", "src": "x", "tgt": "y"},
                                 {"id": "g", "src": "x", "tgt": "y"}],
                   "compose": []})
SWAP = ApplyT(FunBase(FunTable(PAR, PAR, {"x": "x", "y": "y"},
                               {"f": "g", "g": "f", "id_x": "id_x", "id_y": "id_y"})))
# no image for y: evaluation raises at the first point that holds one
PARTIAL = ApplyT(FunBase(FunTable(ARROW, ARROW, {"x": "x"}, {"id_x": "id_x"})))
# an idempotent e on x with e;f = e;g = g, and a map that sends id_x to e:
# whiskered by it, an identity cell has the component e at x, and its
# square at f reads f on one side and g on the other
IDEM = load_fincat({"name": "idem", "objects": ["x", "y"],
                    "morphisms": [{"id": "e", "src": "x", "tgt": "x"},
                                  {"id": "f", "src": "x", "tgt": "y"},
                                  {"id": "g", "src": "x", "tgt": "y"}],
                    "compose": [{"first": "e", "second": "e", "result": "e"},
                                {"first": "e", "second": "f", "result": "g"},
                                {"first": "e", "second": "g", "result": "g"}]})
UNNATURAL = WhiskerR(IdCell(Identity(IDEM)), FunBase(FunTable(
    IDEM, IDEM, {"x": "x", "y": "y"},
    {"id_x": "e", "id_y": "id_y", "e": "e", "f": "f", "g": "g"})))
KNOWN_CHECKS = _checks_of(Gamma((W, W))) + _checks_of(GammaInv((W, W, W), 1, 3)) + [
    (equal_fun, old_equal_fun, Identity(Free(PAR)), SWAP),
    (equal_cell, old_equal_cell, IdCell(Identity(Free(PAR))), IdCell(SWAP)),
    (equal_cell, old_equal_cell, IdCell(PARTIAL), IdCell(_identical_twin(PARTIAL))),
    (check_naturality, old_check_naturality, WhiskerL(Tuple((PARTIAL, PARTIAL)), G)),
    (check_naturality, old_check_naturality, UNNATURAL),
    (check_naturality, old_check_naturality, ApplyTCell(UNNATURAL)),
]


@pytest.mark.parametrize("mutation", [None, *sorted(MUTATIONS)])
@settings(max_examples=15, deadline=None)
@given(checks=typecheck_cells().map(_checks_of), bud=SMALL_BUDGETS)
@example(checks=KNOWN_CHECKS, bud=Budget(max_seq_len=2, max_points=60, seed=3))
@example(checks=KNOWN_CHECKS, bud=Budget(max_seq_len=2, max_points=8, seed=1))
def test_one_walk_reports_what_the_old_checkers_did(mutation, checks, bud):
    with inject(mutation) if mutation else contextlib.nullcontext():
        for new, old, *sides in checks:
            assert _outcome(new, *sides, bud) == _outcome(old, *sides, bud)


def test_reports_are_built_in_one_helper():
    tree = ast.parse(inspect.getsource(calculus))
    helper = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_report")

    def report_calls(root):
        return [node for node in ast.walk(root) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == "Report"]

    assert report_calls(helper)
    assert report_calls(tree) == report_calls(helper)


# ------------------------------------------------- numbering, against an oracle
#
# A reference numbering written the plain way: one isinstance chain per
# function, each product and sequence decoded on its own, one size key per
# kind.  The category expressions' own methods must agree with it at every
# index, in full and in samples.


def ref_free_depth(c) -> int:
    if isinstance(c, FinCat):
        return 0
    if isinstance(c, Prod):
        return max((ref_free_depth(f) for f in c.factors), default=0)
    return 1 + ref_free_depth(c.inner)


def ref_count_objects(c, bud) -> int:
    if isinstance(c, FinCat):
        return len(c.objects)
    if isinstance(c, Prod):
        total = 1
        for f in c.factors:
            total *= ref_count_objects(f, bud)
        return total
    s = ref_count_objects(c.inner, bud)
    return sum(s**l for l in range(bud.max_seq_len + 1))


def ref_count_morphisms(c, bud) -> int:
    if isinstance(c, FinCat):
        return len(c.all_morphisms())
    if isinstance(c, Prod):
        total = 1
        for f in c.factors:
            total *= ref_count_morphisms(f, bud)
        return total
    m = ref_count_morphisms(c.inner, bud)
    return sum(math.factorial(l) * m**l for l in range(bud.max_seq_len + 1))


def ref_digits(index: int, base: int, width: int) -> list:
    out = [0] * width
    for k in range(width - 1, -1, -1):
        index, out[k] = divmod(index, base)
    return out


def ref_object_at(c, bud, index: int):
    if isinstance(c, FinCat):
        return c.objects[index]
    if isinstance(c, Prod):
        vals = []
        counts = [ref_count_objects(f, bud) for f in c.factors]
        for k, f in enumerate(c.factors):
            d, index = divmod(index, math.prod(counts[k + 1 :]))
            vals.append(ref_object_at(f, bud, d))
        return tuple(vals)
    s = ref_count_objects(c.inner, bud)
    for l in range(bud.max_seq_len + 1):
        if index < s**l:
            digits = ref_digits(index, s, l) if l else []
            return seq(tuple(ref_object_at(c.inner, bud, d) for d in digits))
        index -= s**l
    raise IndexError("object index out of range")


def ref_morphism_at(c, bud, index: int):
    if isinstance(c, FinCat):
        return c.all_morphisms()[index]
    if isinstance(c, Prod):
        vals = []
        counts = [ref_count_morphisms(f, bud) for f in c.factors]
        for k, f in enumerate(c.factors):
            d, index = divmod(index, math.prod(counts[k + 1 :]))
            vals.append(ref_morphism_at(f, bud, d))
        return tuple(vals)
    inner = c.inner
    m = ref_count_morphisms(inner, bud)
    for l in range(bud.max_seq_len + 1):
        blocksize = math.factorial(l) * m**l
        if index < blocksize:
            perm_idx, rest = divmod(index, m**l)
            perm = all_perms(l)[perm_idx]
            comps = tuple(
                ref_morphism_at(inner, bud, d)
                for d in (ref_digits(rest, m, l) if l else [])
            )
            return SeqMor(perm, comps)
        index -= blocksize
    raise IndexError("morphism index out of range")


def ref_obj_size(v) -> int:
    if isinstance(v, SeqObj):
        return 1 + sum(ref_obj_size(e) for e in v.entries)
    if isinstance(v, tuple):
        return sum(ref_obj_size(e) for e in v)
    return 1


def ref_mor_size(m) -> int:
    if isinstance(m, SeqMor):
        return 1 + sum(ref_mor_size(c) for c in m.components)
    if isinstance(m, tuple):
        return sum(ref_mor_size(c) for c in m)
    return 1


# small point budgets enumerate some spaces in full and sample the others
BUDGETS = st.builds(
    Budget,
    max_seq_len=st.integers(1, 3),
    max_points=st.sampled_from([20, 200]),
    seed=st.integers(0, 9),
)


@settings(max_examples=80, deadline=None)
@given(CAT_EXPRS, BUDGETS)
@example(Prod((A, W)), Budget(max_seq_len=1))
@example(Free(Prod((W, A))), Budget(max_seq_len=2, max_points=20, seed=3))
@example(Free(W), Budget(max_seq_len=2))
def test_numbering_equals_the_reference(c, bud):
    assert free_depth(c) == ref_free_depth(c)
    for count, at, enum, ref_count, ref_at, ref_size in (
        (count_objects, calculus.object_at, enumerate_objects,
         ref_count_objects, ref_object_at, ref_obj_size),
        (count_morphisms, calculus.morphism_at, enumerate_morphisms,
         ref_count_morphisms, ref_morphism_at, ref_mor_size),
    ):
        total = count(c, bud)
        assert total == ref_count(c, bud)
        idxs, _ = calculus._indices(total, bud)
        for i in idxs:
            value = at(c, bud, i)
            assert value == ref_at(c, bud, i)
            assert calculus._size(value) == ref_size(value)
        assert enum(c, bud) == _enumerate_reference(ref_at, ref_count, c, bud, ref_size)
