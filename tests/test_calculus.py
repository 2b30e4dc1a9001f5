"""Expression calculus: typechecking, bounded enumeration, evaluation,
and pointwise equality reports.

The evaluator delegates to the sequence-category layer, so value-level
correctness is anchored by test_freesmc; here the focus is endpoints,
enumeration order and counts, report determinism, and counterexamples.
"""

import itertools
import json
import typing

import pytest

from shufflecat import calculus
from shufflecat.calculus import (
    ApplyT,
    ApplyTCell,
    Budget,
    BudgetError,
    CELL_TYPES,
    CatBase,
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
    fun_endpoints,
    gamma_source,
    gamma_target,
    level_of,
    prod_map,
    typecheck,
)
from shufflecat.fincat import FunTable, load_fincat
from shufflecat.mutations import inject
from shufflecat.freesmc import SeqMor, identity_seq, omega, omega_n, seq, strength_ti
from shufflecat.perms import Perm, identity, invert

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
A = CatBase(DISC2)
W = CatBase(ARROW)
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
    assert tgt == gamma_target((A, A), 1, 2)
    gi = GammaInv((A, A))
    assert cell_endpoints(gi) == (tgt, src)


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
    m = SeqMor(seq(("x",)), seq(("y",)), identity(1), ("f",))
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
    assert got == identity_seq(level_of(Prod((A, A))), omega(x, y))


def test_eval_gamma_2x2_perm():
    g = Gamma((A, A))
    x, y = seq(("x", "y")), seq(("x", "y"))
    assert eval_cell(g, (x, y)).perm == Perm((1, 3, 2, 4))


def test_eval_vcomp_gamma_inverse_pair():
    g = VComp((Gamma((A, A)), GammaInv((A, A))))
    x, y = seq(("x", "y")), seq(("x", "y"))
    got = eval_cell(g, (x, y))
    assert got == identity_seq(level_of(Prod((A, A))), omega(x, y))


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


def test_equal_cell_reflexive():
    g = Gamma((A, A))
    report = equal_cell(g, g, BUD)
    assert report.passed and report.phase == "components"


def test_equal_cell_endpoint_mismatch_reported():
    report = equal_cell(Gamma((A, A)), GammaInv((A, A)), BUD)
    assert not report.passed
    assert report.phase.startswith("endpoints")


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
    src, tgt = cell_endpoints(h)
    x, y = seq(("x", "y")), seq(("x", "y"))
    lev = level_of(fun_endpoints(src)[1])
    one = eval_cell(h, (x, y))
    two = eval_cell(h, (x, y), hcomp_order=2)
    assert one == two


def test_reports_deterministic_bytes():
    b = Budget(max_seq_len=2, max_points=40, seed=7)
    r1 = equal_cell(Gamma((A, A)), Gamma((A, A)), b)
    r2 = equal_cell(Gamma((A, A)), Gamma((A, A)), b)
    assert r1.to_json() == r2.to_json()
    parsed = json.loads(r1.to_json())
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
    assert got.to_json() == want.to_json()
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
    want = calculus._equal_on(f, g, objs, mors, t_objs or t_mors)
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


def _enumerate_reference(at, count, size, c, bud):
    """enumerate_* with each point built on its own, sharing nothing."""
    idxs, truncated = calculus._indices(count(c, bud), bud)
    return sorted((at(c, bud, i) for i in idxs), key=size), truncated


@pytest.mark.parametrize("c, bud, sampled", [
    (Prod((Free(A), A)), BUD, False),
    (Free(Free(A)), Budget(max_seq_len=2), False),
    (Free(Free(W)), Budget(max_seq_len=2, max_points=40, seed=5), True),
], ids=["product", "nested", "sampled"])
def test_shared_enumeration_equals_the_memo_free_reference(c, bud, sampled):
    want_objs = _enumerate_reference(
        calculus.object_at, count_objects, calculus._obj_size, c, bud)
    want_mors = _enumerate_reference(
        calculus.morphism_at, count_morphisms, calculus._mor_size, c, bud)
    assert enumerate_objects(c, bud) == want_objs
    assert enumerate_morphisms(c, bud) == want_mors
    assert want_objs[1] == want_mors[1] == sampled
