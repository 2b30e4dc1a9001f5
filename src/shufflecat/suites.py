"""Named verification suites over the sequence-monad calculus.

A suite is a datum: a stable identifier, the law it checks stated in
plain language, and a builder that turns fixtures plus a budget into a
list of named check thunks.  Thunks are deferred so ``catalog`` can
count checks without evaluating anything.  Reports are deterministic
for a fixed context; wall-clock times are attached only on request so
repeated runs serialize to identical bytes.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from . import perms
from .algebras import (
    FreeAlg,
    MonoidAlg,
    _block_bounds,
    _cover_cell,
    _frees,
    _with_perm,
    bruhat_omega,
    free_multi,
    gamma_compose,
    identity_cell,
    monoid_algebra_eval,
    multicell_equal,
    omega_cell,
    omega_sigma_fun,
    phi_T,
    phi_T_cell,
    postcompose_free,
    pseudo_sym,
    sigma_act,
    sigma_act_cell,
    structure_cell,
    validate_onecell,
    validate_twocell,
)
from .calculus import (
    ApplyT,
    ApplyTCell,
    Budget,
    BudgetError,
    CatBase,
    CatExpr,
    CellExpr,
    Compose,
    Const,
    Eta,
    Free,
    FunBase,
    Gamma,
    GammaInv,
    IdCell,
    Identity,
    MonoidMult,
    Mu,
    Omega,
    Prod,
    Proj,
    Report,
    Shuffle,
    Strength,
    Tuple,
    TupleCell,
    VComp,
    WhiskerL,
    WhiskerR,
    _EVAL_ERRORS,
    cell_endpoints,
    enumerate_morphisms,
    equal_cell,
    equal_fun,
    eval_fun_mor,
    gamma_source,
    level_of,
    prod_map,
)
from .fincat import CommMonoid, FunTable
from .fixtures import builtin_base, builtin_monoid
from .freesmc import partitions_for
from .perms import Perm, all_perms, block, reduced_words, transposition, word_to_perm

Check = tuple[str, Callable[[], Report]]


@dataclass(frozen=True)
class SuiteContext:
    """Fixtures a suite runs against: a base category, a commutative
    monoid, and the evaluation budget."""

    base: CatExpr
    monoid: CommMonoid
    bud: Budget


@dataclass(frozen=True)
class Suite:
    ident: str
    law: str
    build: Callable[[SuiteContext], list[Check]]


SUITES: dict[str, Suite] = {}

DEFAULT_BUDGET = Budget(max_seq_len=3, max_nest=2, max_points=20000, seed=0)


def default_context(base: str = "arrow", monoid: str = "z2",
                    bud: Optional[Budget] = None) -> SuiteContext:
    return SuiteContext(CatBase(builtin_base(base)), builtin_monoid(monoid),
                        bud or DEFAULT_BUDGET)


def _suite(ident: str, law: str):
    def register(fn):
        SUITES[ident] = Suite(ident, law, fn)
        return fn
    return register


# ------------------------------------------------------------- helpers


def _points(bud: Budget, cap: int) -> Budget:
    return replace(bud, max_points=min(bud.max_points, cap))

def _seq(bud: Budget, cap: int) -> Budget:
    return replace(bud, max_seq_len=min(bud.max_seq_len, cap))


def _collapse(base: CatBase):
    """The endofunctor crushing a base category onto its first object."""
    cat = base.cat
    o0 = cat.objects[0]
    table = FunTable(cat, cat,
                     {o: o0 for o in cat.objects},
                     {m: cat.identity(o0) for m in cat.all_morphisms()})
    return FunBase(table)


def _fact(passed: bool, detail: str) -> Report:
    ce = None if passed else {"note": detail}
    return Report(kind="structural", passed=passed, points=1,
                  truncated=False, phase="structural",
                  counterexample=ce, detail=detail)


def _merge(named: Sequence[tuple[str, Report]], kind: str = "bundle") -> Report:
    points = sum(r.points for _, r in named)
    truncated = any(r.truncated for _, r in named)
    for name, r in named:
        if not r.passed:
            ce = dict(r.counterexample or {})
            ce["check"] = name
            return Report(kind=kind, passed=False, points=points,
                          truncated=truncated, phase=r.phase,
                          counterexample=ce, detail=r.detail)
    return Report(kind=kind, passed=True, points=points, truncated=truncated)


def _flat_left(a: CatExpr, b: CatExpr, c: CatExpr):
    """Reassociate Prod((Prod((a, b)), c)) onto Prod((a, b, c))."""
    pab = Prod((a, b))
    dom = Prod((pab, c))
    return Tuple((Compose((Proj(dom, 1), Proj(pab, 1))),
                  Compose((Proj(dom, 1), Proj(pab, 2))),
                  Proj(dom, 2)))


def _flat_right(a: CatExpr, b: CatExpr, c: CatExpr):
    """Reassociate Prod((a, Prod((b, c)))) onto Prod((a, b, c))."""
    pbc = Prod((b, c))
    dom = Prod((a, pbc))
    return Tuple((Proj(dom, 1),
                  Compose((Proj(dom, 2), Proj(pbc, 1))),
                  Compose((Proj(dom, 2), Proj(pbc, 2)))))


def _span(dom: Prod, lo: int, hi: int):
    return Tuple(tuple(Proj(dom, k) for k in range(lo, hi + 1)))


def _blocked_identity(base: CatExpr, sizes: Sequence[int]):
    """An identity outer functor over blocks of the given sizes, with a
    plain per-block functor for each block.  Returns (f, gs, composite)
    where composite is the flat functor Prod(base^sum) -> cod f."""
    slots = tuple(base if k == 1 else Prod((base,) * k) for k in sizes)
    f = Identity(Prod(slots))
    gs = []
    for k in sizes:
        if k == 1:
            gs.append(Proj(Prod((base,)), 1))
        else:
            gs.append(Identity(Prod((base,) * k)))
    flat = Prod((base,) * sum(sizes))
    bounds = _block_bounds(sizes)
    parts = tuple(Compose((_span(flat, lo, hi), g))
                  for (lo, hi), g in zip(bounds, gs))
    composite = Compose((Tuple(parts), f))
    return f, gs, composite


# ------------------------------------------------------------- suites


@_suite("monad.laws",
        "Inserting a singleton and then erasing parentheses is the identity"
        " on either side, erasing is associative and natural, and erasing"
        " parentheses is a functor on nested sequence morphisms.")
def _monad_laws(ctx: SuiteContext) -> list[Check]:
    A, bud = ctx.base, ctx.bud
    fb = _collapse(A)
    p = _points(bud, 2000)
    assoc = replace(bud, max_nest=3, max_seq_len=min(bud.max_seq_len, 2),
                    max_points=min(bud.max_points, 4000))

    def mu_functoriality():
        # composable pairs of nested sequence morphisms exercise the
        # component re-indexing that plain domain points never reach
        dom = Free(Free(A))
        lev = level_of(dom)
        flat = level_of(Free(A))
        mu = Mu(A)
        b2 = replace(bud, max_seq_len=min(bud.max_seq_len, 2),
                     max_points=min(bud.max_points, 800))
        mors, truncated = enumerate_morphisms(dom, b2)
        by_src: dict = {}
        for m in mors:
            by_src.setdefault(m.source, []).append(m)
        cap = min(bud.max_points, 800)
        count = 0
        for m1 in mors:
            for m2 in by_src.get(m1.target, ()):
                if count >= cap:
                    truncated = True
                    break
                count += 1
                try:
                    lhs = eval_fun_mor(mu, lev.comp(m2, m1))
                    rhs = flat.comp(eval_fun_mor(mu, m2),
                                    eval_fun_mor(mu, m1))
                    ok = lhs == rhs
                    note = ""
                except _EVAL_ERRORS as err:
                    ok, lhs, rhs = False, None, None
                    note = f"{type(err).__name__}: {err}"
                if not ok:
                    return Report(
                        kind="fun-equality", passed=False, points=count,
                        truncated=truncated, phase="composition",
                        counterexample={"first": repr(m1), "second": repr(m2),
                                        "left": repr(lhs), "right": repr(rhs),
                                        "note": note})
            if count >= cap:
                break
        return Report(kind="fun-equality", passed=True, points=count,
                      truncated=truncated, phase="composition")

    return [
        ("eta-then-mu", lambda: equal_fun(
            Compose((Eta(Free(A)), Mu(A))), Identity(Free(A)), p)),
        ("mapped-eta-then-mu", lambda: equal_fun(
            Compose((ApplyT(Eta(A)), Mu(A))), Identity(Free(A)), p)),
        ("mu-associativity", lambda: equal_fun(
            Compose((Mu(Free(A)), Mu(A))),
            Compose((ApplyT(Mu(A)), Mu(A))), assoc)),
        ("eta-naturality", lambda: equal_fun(
            Compose((fb, Eta(A))), Compose((Eta(A), ApplyT(fb))), p)),
        ("mu-naturality", lambda: equal_fun(
            Compose((Mu(A), ApplyT(fb))),
            Compose((ApplyT(ApplyT(fb)), Mu(A))), p)),
        ("mu-functoriality", mu_functoriality),
    ]


@_suite("strength.laws",
        "Interleaving one free slot into a product respects the unit and"
        " multiplication of the monad, is natural, and the two slot routes"
        " realize the row-major and column-major grid walks.")
def _strength_laws(ctx: SuiteContext) -> list[Check]:
    A, bud = ctx.base, ctx.bud
    B = A
    fb = _collapse(A)
    p = _points(bud, 1500)
    P = Prod((A, B))
    checks: list[Check] = []
    e1 = prod_map((A, B), (Eta(A), Identity(B)))
    checks.append(("unit-slot-1", lambda: equal_fun(
        Compose((e1, Strength((A, B), 1))), Eta(P), p)))
    e2 = prod_map((A, B), (Identity(A), Eta(B)))
    checks.append(("unit-slot-2", lambda: equal_fun(
        Compose((e2, Strength((A, B), 2))), Eta(P), p)))
    for i in (1, 2):
        doubled = (Free(Free(A)), B) if i == 1 else (A, Free(Free(B)))
        once = (Free(A), B) if i == 1 else (A, Free(B))
        erase = (Mu(A), Identity(B)) if i == 1 else (Identity(A), Mu(B))
        lhs = Compose((prod_map(doubled, erase), Strength((A, B), i)))
        rhs = Compose((Strength(once, i), ApplyT(Strength((A, B), i)), Mu(P)))
        checks.append((f"mult-slot-{i}",
                       lambda lhs=lhs, rhs=rhs: equal_fun(
                           lhs, rhs, _points(bud, 1200))))
    nat_l = Compose((prod_map((Free(A), B), (ApplyT(fb), fb)),
                     Strength((A, B), 1)))
    nat_r = Compose((Strength((A, B), 1), ApplyT(prod_map((A, B), (fb, fb)))))
    checks.append(("naturality", lambda: equal_fun(nat_l, nat_r, p)))
    checks.append(("row-route", lambda: equal_fun(
        gamma_source((A, B), 1, 2), Omega((A, B)), p)))
    checks.append(("column-route", lambda: equal_fun(
        gamma_source((A, B), 2, 1), omega_sigma_fun((A, B), Perm((2, 1))), p)))
    return checks


@_suite("pseudocomm.axiom1",
        "Grouping a bare middle slot into the left or the right free"
        " neighbour before interchanging gives the same 2-cell after"
        " flattening.")
def _axiom1(ctx: SuiteContext) -> list[Check]:
    A = B = C = ctx.base
    bud = _points(ctx.bud, 1200)
    D = Prod((A, Free(B), Free(C)))
    pab, pbc = Prod((A, B)), Prod((B, C))
    pair12 = Tuple((Proj(D, 1), Proj(D, 2)))
    pair23 = Tuple((Proj(D, 2), Proj(D, 3)))
    lhs = WhiskerR(
        WhiskerL(Tuple((Compose((pair12, Strength((A, B), 2))), Proj(D, 3))),
                 Gamma((pab, C))),
        ApplyT(_flat_left(A, B, C)))
    rhs = WhiskerR(
        WhiskerR(TupleCell((IdCell(Proj(D, 1)),
                            WhiskerL(pair23, Gamma((B, C))))),
                 Strength((A, pbc), 2)),
        ApplyT(_flat_right(A, B, C)))
    return [("pasting", lambda: equal_cell(lhs, rhs, bud))]


@_suite("pseudocomm.axiom2",
        "Absorbing a bare middle slot into the right or the left free"
        " factor before interchanging agrees after flattening.")
def _axiom2(ctx: SuiteContext) -> list[Check]:
    A = B = C = ctx.base
    bud = _points(ctx.bud, 1200)
    D = Prod((Free(A), B, Free(C)))
    pab, pbc = Prod((A, B)), Prod((B, C))
    pair12 = Tuple((Proj(D, 1), Proj(D, 2)))
    pair23 = Tuple((Proj(D, 2), Proj(D, 3)))
    lhs = WhiskerR(
        WhiskerL(Tuple((Proj(D, 1), Compose((pair23, Strength((B, C), 2))))),
                 Gamma((A, pbc))),
        ApplyT(_flat_right(A, B, C)))
    rhs = WhiskerR(
        WhiskerL(Tuple((Compose((pair12, Strength((A, B), 1))), Proj(D, 3))),
                 Gamma((pab, C))),
        ApplyT(_flat_left(A, B, C)))
    return [("pasting", lambda: equal_cell(lhs, rhs, bud))]


@_suite("pseudocomm.axiom3",
        "Interchanging past a bare right slot factors through pairing it"
        " into the second free factor, after flattening.")
def _axiom3(ctx: SuiteContext) -> list[Check]:
    A = B = C = ctx.base
    bud = _points(ctx.bud, 1200)
    D = Prod((Free(A), Free(B), C))
    pab, pbc = Prod((A, B)), Prod((B, C))
    pair12 = Tuple((Proj(D, 1), Proj(D, 2)))
    pair23 = Tuple((Proj(D, 2), Proj(D, 3)))
    lhs = WhiskerR(
        WhiskerL(Tuple((Proj(D, 1), Compose((pair23, Strength((B, C), 1))))),
                 Gamma((A, pbc))),
        ApplyT(_flat_right(A, B, C)))
    rhs = WhiskerR(
        WhiskerR(TupleCell((WhiskerL(pair12, Gamma((A, B))),
                            IdCell(Proj(D, 3)))),
                 Strength((pab, C), 1)),
        ApplyT(_flat_left(A, B, C)))
    return [("pasting", lambda: equal_cell(lhs, rhs, bud))]


@_suite("pseudocomm.axiom4",
        "Precomposing the interchange cell with a singleton insertion in"
        " the first slot is an identity 2-cell.")
def _axiom4(ctx: SuiteContext) -> list[Check]:
    A = B = ctx.base
    bud = _points(ctx.bud, 1500)
    emap = prod_map((A, Free(B)), (Eta(A), Identity(Free(B))))
    lhs = WhiskerL(emap, Gamma((A, B)))
    rhs = IdCell(Compose((emap, gamma_source((A, B), 1, 2))))
    return [("identity", lambda: equal_cell(lhs, rhs, bud))]


@_suite("pseudocomm.axiom5",
        "Precomposing the interchange cell with a singleton insertion in"
        " the second slot is an identity 2-cell.")
def _axiom5(ctx: SuiteContext) -> list[Check]:
    A = B = ctx.base
    bud = _points(ctx.bud, 1500)
    emap = prod_map((Free(A), B), (Identity(Free(A)), Eta(B)))
    lhs = WhiskerL(emap, Gamma((A, B)))
    rhs = IdCell(Compose((emap, gamma_source((A, B), 1, 2))))
    return [("identity", lambda: equal_cell(lhs, rhs, bud))]


@_suite("pseudocomm.axiom6",
        "Interchanging after erasing parentheses in the first slot pastes"
        " from the interchange under one free layer followed by the"
        " interchange against the doubled slot.")
def _axiom6(ctx: SuiteContext) -> list[Check]:
    A = B = ctx.base
    bud = _points(ctx.bud, 700)
    FA, FB = Free(A), Free(B)
    pab = Prod((A, B))
    lhs = WhiskerL(prod_map((Free(FA), FB), (Mu(A), Identity(FB))),
                   Gamma((A, B)))
    cell_a = WhiskerL(Strength((FA, FB), 1),
                      WhiskerR(ApplyTCell(Gamma((A, B))), Mu(pab)))
    cell_b = WhiskerR(Gamma((FA, B)),
                      Compose((ApplyT(Strength((A, B), 1)), Mu(pab))))
    rhs = VComp((cell_a, cell_b))
    return [("pasting", lambda: equal_cell(lhs, rhs, bud))]


@_suite("pseudocomm.axiom7",
        "Interchanging after erasing parentheses in the second slot pastes"
        " from the interchange against the doubled slot followed by the"
        " interchange under one free layer.")
def _axiom7(ctx: SuiteContext) -> list[Check]:
    A = B = ctx.base
    bud = _points(ctx.bud, 700)
    FA, FB = Free(A), Free(B)
    pab = Prod((A, B))
    lhs = WhiskerL(prod_map((FA, Free(FB)), (Identity(FA), Mu(B))),
                   Gamma((A, B)))
    first = WhiskerR(Gamma((A, FB)),
                     Compose((ApplyT(Strength((A, B), 2)), Mu(pab))))
    second = WhiskerL(Strength((FA, FB), 2),
                      WhiskerR(ApplyTCell(Gamma((A, B))), Mu(pab)))
    rhs = VComp((first, second))
    return [("pasting", lambda: equal_cell(lhs, rhs, bud))]


@_suite("pseudocomm.modification",
        "The interchange cell is natural in both slots: mapping before"
        " interchanging equals interchanging before mapping.")
def _modification(ctx: SuiteContext) -> list[Check]:
    A = B = ctx.base
    bud = _points(ctx.bud, 1200)
    fb = _collapse(A)
    checks: list[Check] = []
    for name, g in (("both-mapped", fb), ("first-mapped", Identity(B))):
        lhs = WhiskerL(prod_map((Free(A), Free(B)), (ApplyT(fb), ApplyT(g))),
                       Gamma((A, B)))
        rhs = WhiskerR(Gamma((A, B)), ApplyT(prod_map((A, B), (fb, g))))
        checks.append((name, lambda lhs=lhs, rhs=rhs: equal_cell(lhs, rhs, bud)))
    return checks


def symmetry_round_trip(base: CatExpr) -> tuple[CellExpr, CellExpr]:
    """The interchange-then-conjugated-transpose composite over ``base``
    and the identity cell it must equal."""
    A = B = base
    sw = Perm((2, 1))
    FA, FB = Free(A), Free(B)
    conj = WhiskerR(WhiskerL(Shuffle(Prod((FA, FB)), sw), Gamma((B, A))),
                    ApplyT(Shuffle(Prod((B, A)), sw)))
    composite = VComp((Gamma((A, B)), conj))
    return composite, IdCell(gamma_source((A, B), 1, 2))


@_suite("symmetry.axiom",
        "The interchange cell followed by its transpose conjugated by the"
        " swap equals the identity of the 1-cell, so the transpose"
        " interchange is the inverse cell.")
def _symmetry(ctx: SuiteContext) -> list[Check]:
    A = B = ctx.base
    bud = _points(ctx.bud, 2500)
    sw = Perm((2, 1))
    composite, ident = symmetry_round_trip(ctx.base)
    conj = composite.parts[1]
    return [
        ("round-trip", lambda: equal_cell(composite, ident, bud)),
        ("transpose-inverse", lambda: equal_cell(GammaInv((A, B)), conj, bud)),
    ]


@_suite("thm.partition-independence",
        "Every admissible way of splitting the remaining slots around the"
        " two freed positions induces the same interchange 2-cell.")
def _partition_independence(ctx: SuiteContext) -> list[Check]:
    A, bud = ctx.base, ctx.bud
    checks: list[Check] = []
    slots3 = (A, A, A)
    p3 = _points(bud, 700)
    for i, j in ((1, 2), (1, 3), (2, 3)):
        for part in partitions_for(3, i, j):
            name = "n3(%d,%d)@%d%d%d" % (i, j, *part)
            checks.append((name, lambda i=i, j=j, part=part: equal_cell(
                Gamma(slots3, i, j, part), Gamma(slots3, i, j), p3)))
    slots4 = (A, A, A, A)
    p4 = _points(bud, 400)
    for i, j in itertools.combinations((1, 2, 3, 4), 2):
        for part in partitions_for(4, i, j):
            name = "n4(%d,%d)@%d%d%d" % (i, j, *part)
            checks.append((name, lambda i=i, j=j, part=part: equal_cell(
                Gamma(slots4, i, j, part), Gamma(slots4, i, j), p4)))
    return checks


@_suite("omega.two",
        "The binary grid walk is the slot-1-then-slot-2 composite, and its"
        " second pseudo-morphism constraint is the documented pasting of"
        " the applied interchange with the swap-conjugated transpose.")
def _omega_two(ctx: SuiteContext) -> list[Check]:
    A = B = ctx.base
    bud = ctx.bud
    sw = Perm((2, 1))
    FA, FB = Free(A), Free(B)
    pab = Prod((A, B))
    w = omega_cell((A, B))
    cell_a = WhiskerL(Strength((FA, FB), 2),
                      WhiskerR(ApplyTCell(Gamma((A, B))), Mu(pab)))
    pre = Compose((prod_map((FA, Free(FB)), (Identity(FA), Mu(B))),
                   Shuffle(Prod((FA, FB)), sw)))
    cell_b = WhiskerL(pre, WhiskerR(Gamma((B, A)),
                                    ApplyT(Shuffle(Prod((B, A)), sw))))
    return [
        ("composite", lambda: equal_fun(
            w.underlying, gamma_source((A, B), 1, 2), _points(bud, 2000))),
        ("first-constraint-identity", lambda: _fact(
            isinstance(w.constraints[0], IdCell),
            "slot-1 constraint is literally an identity 2-cell")),
        ("second-constraint", lambda: equal_cell(
            VComp((cell_a, cell_b)), w.constraints[1], _points(bud, 700))),
    ]


@_suite("omega.onecell",
        "The grid walk is a pseudo-morphism of free algebras in every"
        " slot: constraint squares, unit squares, and multiplication"
        " coherence all hold.")
def _omega_onecell(ctx: SuiteContext) -> list[Check]:
    A, bud = ctx.base, ctx.bud
    return [
        ("binary", lambda: _merge(
            validate_onecell(omega_cell((A, A)), _points(bud, 250)))),
        ("ternary", lambda: _merge(
            validate_onecell(omega_cell((A, A, A)), _points(_seq(bud, 2), 100)))),
    ]


@_suite("omega.associativity",
        "Associativity of ω: composing the binary walk with a nested walk"
        " in either slot and flattening gives the ternary walk.")
def _omega_associativity(ctx: SuiteContext) -> list[Check]:
    A, bud = ctx.base, ctx.bud
    p = _points(bud, 150)
    paa = Prod((A, A))
    direct = omega_cell((A, A, A))
    left = postcompose_free(
        gamma_compose(omega_cell((paa, A)),
                      [omega_cell((A, A)), identity_cell(FreeAlg(A))]),
        _flat_left(A, A, A))
    right = postcompose_free(
        gamma_compose(omega_cell((A, paa)),
                      [identity_cell(FreeAlg(A)), omega_cell((A, A))]),
        _flat_right(A, A, A))
    return [
        ("left-grouping", lambda: _merge(multicell_equal(left, direct, p))),
        ("right-grouping", lambda: _merge(multicell_equal(right, direct, p))),
    ]


@_suite("omega.naturality",
        "The grid walk commutes with applying functors slotwise and with"
        " whiskering 2-cells slotwise.")
def _omega_naturality(ctx: SuiteContext) -> list[Check]:
    A, bud = ctx.base, ctx.bud
    fb = _collapse(A)
    lhsf = Compose((Omega((A, A)), ApplyT(prod_map((A, A), (fb, fb)))))
    rhsf = Compose((prod_map((Free(A), Free(A)), (ApplyT(fb), ApplyT(fb))),
                    Omega((A, A))))
    X1 = Prod((Free(A), Free(A)))
    Y1 = Free(Prod((A, A)))
    D = Prod((Free(X1), Free(A)))
    a1 = Gamma((A, A))
    a2 = IdCell(fb)
    tl = TupleCell((WhiskerL(Proj(D, 1), ApplyTCell(a1)),
                    WhiskerL(Proj(D, 2), ApplyTCell(a2))))
    lhs2 = WhiskerR(tl, Omega((Y1, A)))
    PX = Prod((X1, A))
    pm = TupleCell((WhiskerL(Proj(PX, 1), a1), WhiskerL(Proj(PX, 2), a2)))
    rhs2 = WhiskerL(Omega((X1, A)), ApplyTCell(pm))
    return [
        ("functors", lambda: equal_fun(lhsf, rhsf, _points(bud, 1000))),
        ("two-cells", lambda: equal_cell(lhs2, rhs2, _points(bud, 400))),
    ]


@_suite("omega.recursion",
        "The n-ary grid walk is the binary walk composed with the"
        " (n-1)-ary walk and the unary wrapper, up to unwrapping the"
        " grouped product.")
def _omega_recursion(ctx: SuiteContext) -> list[Check]:
    A, bud = ctx.base, ctx.bud
    wrap = Prod((A,))

    def grouped(head_n: int) -> tuple:
        head = Prod((A,) * head_n)
        dom = Prod((head, wrap))
        st = Tuple(tuple(Compose((Proj(dom, 1), Proj(head, k)))
                         for k in range(1, head_n + 1))
                   + (Compose((Proj(dom, 2), Proj(wrap, 1))),))
        rec = gamma_compose(omega_cell((head, wrap)),
                            [omega_cell((A,) * head_n), omega_cell((A,))])
        return postcompose_free(rec, st)

    return [
        ("unary-wrapper", lambda: _fact(
            free_multi(Identity(Prod((A,)))) == omega_cell((A,)),
            "the unary walk is the free image of the identity")),
        ("three-slots", lambda: _merge(multicell_equal(
            grouped(2), omega_cell((A, A, A)), _points(bud, 150)))),
        ("four-slots", lambda: _merge(multicell_equal(
            grouped(3), omega_cell((A, A, A, A)), _points(_seq(bud, 2), 80)))),
    ]


@_suite("multifunctor.laws",
        "Taking free images preserves multi-composition: the free image of"
        " a composite functor equals the composite of the free images, over"
        " a seeded sample of outer and block functors including identities"
        " and constants.")
def _multifunctor(ctx: SuiteContext) -> list[Check]:
    b, bud = ctx.base, ctx.bud
    obj0 = b.cat.objects[0]
    fb = _collapse(b)
    U, B2 = Prod((b,)), Prod((b, b))
    u_pool = [Proj(U, 1), Compose((Proj(U, 1), fb)), Const(U, b, obj0)]
    d_pool = [Proj(B2, 1), Proj(B2, 2), Compose((Proj(B2, 1), fb))]
    f_pool = [Identity(B2), Shuffle(B2, Perm((2, 1))),
              Tuple((Proj(B2, 1), Proj(B2, 1))),
              prod_map((b, b), (fb, Identity(b))),
              Const(B2, Prod(()), ())]
    combos = []
    for fi, f in enumerate(f_pool):
        for s1, s2 in ((1, 1), (1, 2), (2, 1), (2, 2)):
            pool1 = u_pool if s1 == 1 else d_pool
            pool2 = u_pool if s2 == 1 else d_pool
            for g1i, g1 in enumerate(pool1):
                for g2i, g2 in enumerate(pool2):
                    tag = f"f{fi}s{s1}{s2}g{g1i}{g2i}"
                    combos.append((tag, f, (s1, s2), (g1, g2)))
    rng = random.Random(bud.seed)
    forced = [c for c in combos if c[0] in ("f0s11g00", "f4s12g20")]
    rest = [c for c in combos if c not in forced]
    picked = forced + rng.sample(rest, 50)
    p = _points(_seq(bud, 2), 30)

    def one(tag, f, sizes, gs):
        flat = Prod((b,) * sum(sizes))
        bounds = _block_bounds(sizes)
        parts = tuple(Compose((_span(flat, lo, hi), g))
                      for (lo, hi), g in zip(bounds, gs))
        composite = Compose((Tuple(parts), f))
        direct = free_multi(composite)
        pieced = gamma_compose(free_multi(f), [free_multi(g) for g in gs])
        return _merge(multicell_equal(direct, pieced, p))

    return [(tag, lambda tag=tag, f=f, sizes=sizes, gs=gs: one(tag, f, sizes, gs))
            for tag, f, sizes, gs in picked]


@_suite("pseudosym.unit",
        "The reordering cell at the identity permutation is the identity"
        " 2-cell on the free image.")
def _pseudosym_unit(ctx: SuiteContext) -> list[Check]:
    b, bud = ctx.base, ctx.bud
    f = Identity(Prod((b, b)))
    c = pseudo_sym(f, perms.identity(2))
    return [
        ("identity-word", lambda: equal_cell(
            c.component, IdCell(free_multi(f).underlying), _points(bud, 600))),
        ("endpoints-coincide", lambda: _merge(
            multicell_equal(c.source, c.target, _points(bud, 300)))),
    ]


@_suite("pseudosym.product",
        "Reordering along a product of permutations pastes the two"
        " reordering cells, the second one transported along the first.")
def _pseudosym_product(ctx: SuiteContext) -> list[Check]:
    b, bud = ctx.base, ctx.bud
    f = Identity(Prod((b, b, b)))
    s1, s2 = transposition(3, 1), transposition(3, 2)
    p = _points(bud, 400)
    checks: list[Check] = []
    for sig, tau in ((s1, s2), (s2, s1), (s1, s1), (s2, s2)):
        prod = perms.compose(sig, tau)
        name = "s%s.t%s" % ("".join(map(str, sig.images)),
                            "".join(map(str, tau.images)))

        def thunk(sig=sig, tau=tau, prod=prod):
            lhs = pseudo_sym(f, prod).component
            first = pseudo_sym(_with_perm(f, sig), tau).component
            second = sigma_act_cell(pseudo_sym(f, sig), tau).component
            return equal_cell(lhs, VComp((first, second)), p)

        checks.append((name, thunk))
    return checks


@_suite("pseudosym.word-independence",
        "Every reduced word for a permutation builds the same reordering"
        " cell.")
def _pseudosym_words(ctx: SuiteContext) -> list[Check]:
    b, bud = ctx.base, ctx.bud
    checks: list[Check] = []
    f3 = Identity(Prod((b, b, b)))
    rev3 = Perm((3, 2, 1))
    words3 = sorted(reduced_words(rev3))
    p3 = _points(bud, 400)
    for w in words3[1:]:
        name = "n3:" + "".join(map(str, w)) + "~" + "".join(map(str, words3[0]))
        checks.append((name, lambda w=w: equal_cell(
            pseudo_sym(f3, rev3, w).component,
            pseudo_sym(f3, rev3, words3[0]).component, p3)))
    f4 = Identity(Prod((b, b, b, b)))
    rev4 = Perm((4, 3, 2, 1))
    words4 = sorted(reduced_words(rev4))
    p4 = _points(_seq(bud, 2), 60)
    for w in words4[1:]:
        name = "n4:" + "".join(map(str, w)) + "~" + "".join(map(str, words4[0]))
        checks.append((name, lambda w=w: equal_cell(
            pseudo_sym(f4, rev4, w).component,
            pseudo_sym(f4, rev4, words4[0]).component, p4)))
    return checks


def _top_equivariance_check(b: CatExpr, sizes: Sequence[int], sig: Perm,
                            bud: Budget) -> Report:
    f, gs, composite = _blocked_identity(b, sizes)
    n = len(sizes)
    tperm = block(sig, [perms.identity(sizes[sig(l) - 1])
                        for l in range(1, n + 1)])
    lhs = pseudo_sym(composite, tperm).component
    frees_flat = _frees((b,) * sum(sizes))
    DP = Prod(perms.permute(frees_flat, tperm))
    parts = []
    pos = 1
    for l in range(1, n + 1):
        j = sig(l)
        k = sizes[j - 1]
        sel = _span(DP, pos, pos + k - 1)
        parts.append(Compose((sel, Omega((b,) * k), ApplyT(gs[j - 1]))))
        pos += k
    rhs = WhiskerL(Tuple(tuple(parts)), pseudo_sym(f, sig).component)
    return equal_cell(lhs, rhs, bud)


@_suite("pseudosym.top-equivariance",
        "Reordering whole blocks of a composite is the outer reordering"
        " cell whiskered by the permuted block images.")
def _pseudosym_top(ctx: SuiteContext) -> list[Check]:
    b, bud = ctx.base, ctx.bud
    sw = Perm((2, 1))
    p = _points(bud, 250)
    p3 = _points(_seq(bud, 2), 100)
    return [
        ("blocks-21", lambda: _top_equivariance_check(b, (2, 1), sw, p)),
        ("blocks-12", lambda: _top_equivariance_check(b, (1, 2), sw, p)),
        ("blocks-112", lambda: _top_equivariance_check(
            b, (1, 1, 2), transposition(3, 2), p3)),
    ]


def _bottom_equivariance_check(b: CatExpr, sizes: Sequence[int], l: int,
                               tau: Perm, bud: Budget) -> Report:
    f, gs, composite = _blocked_identity(b, sizes)
    n = len(sizes)
    bperm = block(perms.identity(n),
                  [tau if t == l else perms.identity(sizes[t - 1])
                   for t in range(1, n + 1)])
    lhs = pseudo_sym(composite, bperm).component
    frees_flat = _frees((b,) * sum(sizes))
    DP = Prod(perms.permute(frees_flat, bperm))
    bounds = _block_bounds(sizes)
    parts = []
    for t in range(1, n + 1):
        lo, hi = bounds[t - 1]
        sel = _span(DP, lo, hi)
        if t == l:
            parts.append(WhiskerL(sel, pseudo_sym(gs[t - 1], tau).component))
        else:
            k = sizes[t - 1]
            parts.append(IdCell(Compose((sel, Omega((b,) * k),
                                         ApplyT(gs[t - 1])))))
    slots = tuple(b if k == 1 else Prod((b,) * k) for k in sizes)
    rhs = WhiskerR(TupleCell(tuple(parts)),
                   Compose((Omega(slots), ApplyT(f))))
    return equal_cell(lhs, rhs, bud)


@_suite("pseudosym.bottom-equivariance",
        "Reordering inside one block of a composite is the block's own"
        " reordering cell tupled with identities and whiskered into the"
        " outer free image.")
def _pseudosym_bottom(ctx: SuiteContext) -> list[Check]:
    b, bud = ctx.base, ctx.bud
    sw = Perm((2, 1))
    p = _points(bud, 250)
    p4 = _points(_seq(bud, 2), 100)
    return [
        ("block1-of-21", lambda: _bottom_equivariance_check(b, (2, 1), 1, sw, p)),
        ("block2-of-12", lambda: _bottom_equivariance_check(b, (1, 2), 2, sw, p)),
        ("block2-of-22", lambda: _bottom_equivariance_check(b, (2, 2), 2, sw, p4)),
    ]


@_suite("yangbaxter.disjoint",
        "Swap cells acting on disjoint adjacent pairs commute, and their"
        " pasting factors through the walk over the two grouped pairs.")
def _yangbaxter_disjoint(ctx: SuiteContext) -> list[Check]:
    A, bud = ctx.base, ctx.bud
    inners = (A, A, A, A)
    pid4 = perms.identity(4)
    s1, s3 = transposition(4, 1), transposition(4, 3)
    p = _points(_seq(bud, 2), 250)
    c_12_34 = VComp((_cover_cell(inners, pid4, 1), _cover_cell(inners, s1, 3)))
    c_34_12 = VComp((_cover_cell(inners, pid4, 3), _cover_cell(inners, s3, 1)))
    D4 = Prod(_frees(inners))
    paa = Prod((A, A))
    g12 = WhiskerL(Tuple((Proj(D4, 1), Proj(D4, 2))), Gamma((A, A)))
    g34 = WhiskerL(Tuple((Proj(D4, 3), Proj(D4, 4))), Gamma((A, A)))
    dom2 = Prod((paa, paa))
    flatten = Tuple((Compose((Proj(dom2, 1), Proj(paa, 1))),
                     Compose((Proj(dom2, 1), Proj(paa, 2))),
                     Compose((Proj(dom2, 2), Proj(paa, 1))),
                     Compose((Proj(dom2, 2), Proj(paa, 2)))))
    grouped = WhiskerR(TupleCell((g12, g34)),
                       Compose((Omega((paa, paa)), ApplyT(flatten))))
    return [
        ("commute", lambda: equal_cell(c_12_34, c_34_12, p)),
        ("factor", lambda: equal_cell(c_12_34, grouped, p)),
    ]


def _yb_fixture(A: CatExpr):
    inners = (A, A, A)
    D3 = Prod(_frees(inners))
    pair12 = Tuple((Proj(D3, 1), Proj(D3, 2)))
    pair23 = Tuple((Proj(D3, 2), Proj(D3, 3)))
    paa = Prod((A, A))
    pid3 = perms.identity(3)
    s1, s2 = transposition(3, 1), transposition(3, 2)
    chain121 = VComp((_cover_cell(inners, pid3, 1),
                      _cover_cell(inners, s1, 2),
                      _cover_cell(inners, word_to_perm(3, (1, 2)), 1)))
    chain212 = VComp((_cover_cell(inners, pid3, 2),
                      _cover_cell(inners, s2, 1),
                      _cover_cell(inners, word_to_perm(3, (2, 1)), 2)))
    return inners, D3, pair12, pair23, paa, chain121, chain212


@_suite("yangbaxter.1",
        "The three-step swap chain starting in the middle pastes to the"
        " grouped interchange: first swapping inside the grouped pair, then"
        " interchanging the first slot against the pair.")
def _yangbaxter1(ctx: SuiteContext) -> list[Check]:
    A, bud = ctx.base, ctx.bud
    inners, D3, pair12, pair23, paa, chain121, chain212 = _yb_fixture(A)
    p = _points(bud, 500)
    cell_u = WhiskerR(
        TupleCell((IdCell(Proj(D3, 1)), WhiskerL(pair23, Gamma((A, A))))),
        Compose((Omega((A, paa)), ApplyT(_flat_right(A, A, A)))))
    cell_v = WhiskerR(
        WhiskerL(Tuple((Proj(D3, 1),
                        Compose((pair23, gamma_source((A, A), 2, 1))))),
                 Gamma((A, paa))),
        ApplyT(_flat_right(A, A, A)))
    return [("grouped", lambda: equal_cell(chain212, VComp((cell_u, cell_v)), p))]


@_suite("yangbaxter.2",
        "The three-step swap chain starting on the left pastes to the"
        " grouped interchange on the other bracketing: swapping inside the"
        " grouped pair, then interchanging it against the last slot.")
def _yangbaxter2(ctx: SuiteContext) -> list[Check]:
    A, bud = ctx.base, ctx.bud
    inners, D3, pair12, pair23, paa, chain121, chain212 = _yb_fixture(A)
    p = _points(bud, 500)
    cell_u = WhiskerR(
        TupleCell((WhiskerL(pair12, Gamma((A, A))), IdCell(Proj(D3, 3)))),
        Compose((Omega((paa, A)), ApplyT(_flat_left(A, A, A)))))
    cell_v = WhiskerR(
        WhiskerL(Tuple((Compose((pair12, gamma_source((A, A), 2, 1))),
                        Proj(D3, 3))),
                 Gamma((paa, A))),
        ApplyT(_flat_left(A, A, A)))
    return [("grouped", lambda: equal_cell(chain121, VComp((cell_u, cell_v)), p))]


@_suite("yangbaxter.3",
        "The braid relation: the two three-step swap chains reversing"
        " three slots paste to the same 2-cell.")
def _yangbaxter3(ctx: SuiteContext) -> list[Check]:
    A, bud = ctx.base, ctx.bud
    inners, D3, pair12, pair23, paa, chain121, chain212 = _yb_fixture(A)
    p = _points(bud, 500)
    return [("braid", lambda: equal_cell(chain121, chain212, p))]


@_suite("newlemma.1",
        "Two swap steps moving the first slot rightward paste to the"
        " interchange of the first slot against the grouped remaining"
        " pair.")
def _newlemma1(ctx: SuiteContext) -> list[Check]:
    A, bud = ctx.base, ctx.bud
    inners, D3, pair12, pair23, paa, _, _ = _yb_fixture(A)
    p = _points(bud, 500)
    pid3 = perms.identity(3)
    s1 = transposition(3, 1)
    lhs = VComp((_cover_cell(inners, pid3, 1), _cover_cell(inners, s1, 2)))
    rhs = WhiskerR(
        WhiskerL(Tuple((Proj(D3, 1), Compose((pair23, Omega((A, A)))))),
                 Gamma((A, paa))),
        ApplyT(_flat_right(A, A, A)))
    return [("grouped", lambda: equal_cell(lhs, rhs, p))]


@_suite("newlemma.2",
        "Two swap steps moving the last slot leftward paste to the"
        " interchange of the grouped leading pair against the last slot.")
def _newlemma2(ctx: SuiteContext) -> list[Check]:
    A, bud = ctx.base, ctx.bud
    inners, D3, pair12, pair23, paa, _, _ = _yb_fixture(A)
    p = _points(bud, 500)
    pid3 = perms.identity(3)
    s2 = transposition(3, 2)
    lhs = VComp((_cover_cell(inners, pid3, 2), _cover_cell(inners, s2, 1)))
    rhs = WhiskerR(
        WhiskerL(Tuple((Compose((pair12, Omega((A, A)))), Proj(D3, 3))),
                 Gamma((paa, A))),
        ApplyT(_flat_left(A, A, A)))
    return [("grouped", lambda: equal_cell(lhs, rhs, p))]


@_suite("bruhat.path-independence",
        "The walk reorderings form a diagram over the weak right order on"
        " permutations: every maximal chain of swap cells pastes to the"
        " same 2-cell, and each cover cell runs between the catalogued"
        " walks.")
def _bruhat(ctx: SuiteContext) -> list[Check]:
    A, bud = ctx.base, ctx.bud

    def chain(data, n, word):
        cells = []
        p0 = perms.identity(n)
        for i in word:
            cells.append(data["covers"][(p0, i)])
            p0 = perms.compose(p0, transposition(n, i))
        return VComp(tuple(cells))

    def endpoints():
        data = bruhat_omega((A, A, A))
        pe = _points(bud, 300)
        named = []
        for (p0, i), cell in sorted(data["covers"].items(),
                                    key=lambda kv: (kv[0][0].images, kv[0][1])):
            src, tgt = cell_endpoints(cell)
            after = perms.compose(p0, transposition(3, i))
            tag = "".join(map(str, p0.images)) + "+s%d" % i
            named.append((tag + ".src",
                          equal_fun(src, data["objects"][p0], pe)))
            named.append((tag + ".tgt",
                          equal_fun(tgt, data["objects"][after], pe)))
        return _merge(named)

    def chains3():
        data = bruhat_omega((A, A, A))
        words = sorted(reduced_words(Perm((3, 2, 1))))
        return equal_cell(chain(data, 3, words[0]), chain(data, 3, words[1]),
                          _points(bud, 500))

    def chains4():
        # all maximal chains agree pairwise; each is compared against the
        # first, which settles every pair by transitivity
        data = bruhat_omega((A, A, A, A))
        words = sorted(reduced_words(Perm((4, 3, 2, 1))))
        base = chain(data, 4, words[0])
        p4 = _points(_seq(bud, 2), 50)
        named = []
        for w in words[1:]:
            tag = "".join(map(str, w))
            named.append((tag, equal_cell(chain(data, 4, w), base, p4)))
        return _merge(named)

    return [
        ("maximal-chains-3", chains3),
        ("maximal-chains-4", chains4),
        ("cover-endpoints", endpoints),
    ]


@_suite("esigma.operad",
        "Block substitution of permutations is an operad composition: it"
        " is associative, unital on both sides, and equivariant for the"
        " symmetric group actions.")
def _esigma(ctx: SuiteContext) -> list[Check]:
    del ctx  # pure permutation identities need no fixtures

    def assoc():
        pool = {1: all_perms(1), 2: all_perms(2)}
        count = 0
        for s in all_perms(2):
            for k1, k2 in ((1, 2), (2, 1), (2, 2)):
                for t1 in pool[k1]:
                    for t2 in pool[k2]:
                        rs = [list(pool[1] if m == 1 else pool[2])
                              for m in ([1, 2] * 2)[: k1 + k2]]
                        for combo in itertools.product(*rs):
                            count += 1
                            outer = block(s, [t1, t2])
                            lhs = block(outer, list(combo))
                            rhs = block(s, [block(t1, list(combo[:k1])),
                                            block(t2, list(combo[k1:]))])
                            if lhs != rhs:
                                return _fact(False,
                                             f"associativity broke at {s}, "
                                             f"{(t1, t2)}, {combo}")
        return Report(kind="structural", passed=True, points=count,
                      truncated=False, phase="structural")

    def units():
        count = 0
        for n in (1, 2, 3):
            for s in all_perms(n):
                count += 2
                if block(perms.identity(1), [s]) != s:
                    return _fact(False, f"left unit broke at {s}")
                if block(s, [perms.identity(1)] * n) != s:
                    return _fact(False, f"right unit broke at {s}")
        return Report(kind="structural", passed=True, points=count,
                      truncated=False, phase="structural")

    def equivariance():
        count = 0
        for s in all_perms(2):
            for pi in all_perms(2):
                for t1 in all_perms(2):
                    for t2 in all_perms(1) + all_perms(2):
                        count += 1
                        ts = [t1, t2]
                        rearranged = [ts[pi(l) - 1] for l in (1, 2)]
                        ids = [perms.identity(ts[pi(l) - 1].degree)
                               for l in (1, 2)]
                        lhs = block(perms.compose(s, pi), rearranged)
                        rhs = perms.compose(block(s, ts), block(pi, ids))
                        if lhs != rhs:
                            return _fact(False,
                                         f"equivariance broke at {s}, {pi}, {ts}")
        return Report(kind="structural", passed=True, points=count,
                      truncated=False, phase="structural")

    return [("associativity", assoc), ("units", units),
            ("equivariance", equivariance)]


@_suite("phi.omega-sigma",
        "The free image of the identity at an inverted permutation is the"
        " conjugated grid walk, pointwise, for every permutation of three"
        " slots.")
def _phi_omega_sigma(ctx: SuiteContext) -> list[Check]:
    b, bud = ctx.base, ctx.bud
    f = Identity(Prod((b, b, b)))
    p = _points(bud, 300)
    checks: list[Check] = []
    for sig in all_perms(3):
        name = "sigma" + "".join(map(str, sig.images))
        checks.append((name, lambda sig=sig: equal_fun(
            phi_T(f, perms.invert(sig)).underlying,
            omega_sigma_fun((b, b, b), sig), p)))
    return checks


@_suite("phi.symmetric-action",
        "The permutation-indexed free images assemble functorially: acting"
        " on the functor and the permutation together matches acting on"
        " the image, and the connecting 2-cells have the stated"
        " boundaries.")
def _phi_action(ctx: SuiteContext) -> list[Check]:
    b, bud = ctx.base, ctx.bud
    sw = Perm((2, 1))
    f = Identity(Prod((b, b)))
    p = _points(bud, 150)

    def action():
        named = []
        for rho in (perms.identity(2), sw):
            for sig in (perms.identity(2), sw):
                fr = _with_perm(f, rho)
                lhs = phi_T(fr, perms.compose(sig, rho))
                rhs = sigma_act(phi_T(f, sig), rho)
                tag = "".join(map(str, sig.images)) + "." + \
                      "".join(map(str, rho.images))
                named.append((tag, _merge(multicell_equal(lhs, rhs, p))))
        return _merge(named)

    def cells():
        named = []
        for sig, tau in ((perms.identity(2), sw), (sw, perms.identity(2)),
                         (sw, sw)):
            c = phi_T_cell(f, sig, tau)
            tag = "".join(map(str, sig.images)) + ">" + \
                  "".join(map(str, tau.images))
            ok = c.source == phi_T(f, sig) and c.target == phi_T(f, tau)
            named.append((tag + ".boundary",
                          _fact(ok, "connecting cell runs between the images")))
            named.append((tag, _merge(validate_twocell(c, _points(bud, 100)))))
        return _merge(named)

    return [("functorial-action", action), ("connecting-cells", cells)]


@_suite("multicat.laws",
        "Algebra cells compose associatively and unitally, the symmetric"
        " group acts functorially on them, and composition is equivariant"
        " on top and bottom.")
def _multicat(ctx: SuiteContext) -> list[Check]:
    b, bud = ctx.base, ctx.bud
    sw = Perm((2, 1))
    paa = Prod((b, b))
    f = omega_cell((paa, b))
    g1 = omega_cell((b, b))
    g2 = identity_cell(FreeAlg(b))
    comp = gamma_compose(f, [g1, g2])
    h = free_multi(Proj(Prod((b,)), 1))
    p = _points(bud, 150)
    ps = _points(bud, 100)
    s, t = Perm((2, 3, 1)), Perm((2, 1, 3))
    m3 = omega_cell((b, b, b))
    return [
        ("associativity", lambda: _merge(multicell_equal(
            gamma_compose(comp, [h, h, h]),
            gamma_compose(f, [gamma_compose(g1, [h, h]),
                              gamma_compose(g2, [h])]), ps))),
        ("unit-left", lambda: _merge(multicell_equal(
            gamma_compose(identity_cell(f.output), [f]), f, p))),
        ("unit-right", lambda: _merge(multicell_equal(
            gamma_compose(f, [identity_cell(a) for a in
                              (FreeAlg(paa), FreeAlg(b))]), f, p))),
        ("action-functorial", lambda: _merge(multicell_equal(
            sigma_act(sigma_act(m3, s), t),
            sigma_act(m3, perms.compose(s, t)), ps))),
        ("action-identity", lambda: _fact(
            sigma_act(m3, perms.identity(3)) is m3,
            "acting by the identity returns the cell unchanged")),
        ("top-equivariance", lambda: _merge(multicell_equal(
            gamma_compose(sigma_act(f, sw), [g2, g1]),
            sigma_act(comp, block(sw, [perms.identity(1),
                                       perms.identity(2)])), p))),
        ("bottom-equivariance", lambda: _merge(multicell_equal(
            gamma_compose(f, [sigma_act(g1, sw), g2]),
            sigma_act(comp, block(perms.identity(2),
                                  [sw, perms.identity(1)])), p))),
    ]


@_suite("monoid.algebra",
        "A commutative monoid folds sequences into a strict algebra: the"
        " fold is a homomorphism, its structure map is a pseudo-morphism"
        " with identity constraint, and composing bracketed"
        " multiplications into it agrees either way.")
def _monoid_algebra(ctx: SuiteContext) -> list[Check]:
    b, monoid, bud = ctx.base, ctx.monoid, ctx.bud
    alg = MonoidAlg(monoid)
    mb = alg.carrier
    p = _points(bud, 400)

    def fold_homomorphism():
        count = 0
        elems = monoid.elements
        seqs = [tuple(s) for n in range(3)
                for s in itertools.product(elems, repeat=n)]
        if monoid_algebra_eval(alg, ()) != monoid.unit:
            return _fact(False, "empty fold is not the unit")
        for s1 in seqs:
            for s2 in seqs:
                count += 1
                joint = monoid_algebra_eval(alg, s1 + s2)
                split = monoid.mult(monoid_algebra_eval(alg, s1),
                                    monoid_algebra_eval(alg, s2))
                if joint != split:
                    return _fact(False, f"fold broke at {s1} ++ {s2}")
        return Report(kind="structural", passed=True, points=count,
                      truncated=False, phase="structural")

    def bracketings():
        t3 = Prod((mb, mb, mb))
        mult = MonoidMult(monoid, 2)
        left_fun = Compose((
            Tuple((Compose((Tuple((Proj(t3, 1), Proj(t3, 2))), mult)),
                   Proj(t3, 3))), mult))
        right_fun = Compose((
            Tuple((Proj(t3, 1),
                   Compose((Tuple((Proj(t3, 2), Proj(t3, 3))), mult)))), mult))
        struct = structure_cell(alg)
        left = gamma_compose(struct, [free_multi(left_fun)])
        right = gamma_compose(struct, [free_multi(right_fun)])
        pb = _points(_seq(bud, 2), 120)
        named = [("equal", _merge(multicell_equal(left, right, pb))),
                 ("pseudo-morphism", _merge(validate_onecell(left, _points(_seq(bud, 2), 60))))]
        return _merge(named)

    return [
        ("fold-homomorphism", fold_homomorphism),
        ("structure-map", lambda: _merge(
            validate_onecell(structure_cell(alg), p))),
        ("free-structure-map", lambda: _merge(
            validate_onecell(structure_cell(FreeAlg(b)), _points(bud, 150)))),
        ("bracketed-multiplications", bracketings),
    ]


# ------------------------------------------------------- law coverage


# Every law the package claims to machine-check, mapped to the suites
# that witness it.  Keys name the content; the completeness test keeps
# the mapping total and the ids valid.
LAW_COVERAGE: dict[str, tuple[str, ...]] = {
    "free-sequence-monad-structure": ("monad.laws",),
    "strength-interleaving-compatibilities": ("strength.laws",),
    "two-strength-routes-form-the-interchange-square": (
        "strength.laws", "symmetry.axiom"),
    "interchange-grouping-axiom-slot-pairings": (
        "pseudocomm.axiom1", "pseudocomm.axiom2", "pseudocomm.axiom3"),
    "interchange-unit-axioms-are-identity-cells": (
        "pseudocomm.axiom4", "pseudocomm.axiom5"),
    "interchange-multiplication-axioms": (
        "pseudocomm.axiom6", "pseudocomm.axiom7"),
    "interchange-cell-is-a-modification": ("pseudocomm.modification",),
    "worked-sequence-monad-example": ("monad.laws", "omega.two"),
    "interchange-via-partitions-is-well-defined": (
        "thm.partition-independence",),
    "algebra-one-cells-and-two-cells": ("omega.onecell", "multicat.laws"),
    "composition-of-algebra-cells": ("multicat.laws", "multifunctor.laws"),
    "symmetry-composite-is-the-identity": ("symmetry.axiom",),
    "transpose-interchange-is-the-inverse": ("symmetry.axiom",),
    "symmetric-group-action-on-algebra-cells": (
        "multicat.laws", "phi.symmetric-action"),
    "grid-walk-definition-and-recursion": ("omega.two", "omega.recursion"),
    "grid-walk-is-an-algebra-one-cell": ("omega.onecell",),
    "grid-walk-associativity": ("omega.associativity",),
    "grid-walk-naturality": ("omega.naturality",),
    "free-image-is-a-multifunctor": ("multifunctor.laws",),
    "column-major-walk-and-reordering-generators": (
        "omega.two", "pseudosym.product"),
    "adjacent-swap-cells-satisfy-the-braid-relation": (
        "yangbaxter.1", "yangbaxter.2", "yangbaxter.3"),
    "disjoint-swap-cells-commute": ("yangbaxter.disjoint",),
    "grouped-swap-factorizations": ("newlemma.1", "newlemma.2"),
    "walk-reorderings-follow-the-weak-right-order": (
        "bruhat.path-independence",),
    "top-equivariance-of-reordering-cells": ("pseudosym.top-equivariance",),
    "bottom-equivariance-of-reordering-cells": (
        "pseudosym.bottom-equivariance",),
    "free-image-is-pseudo-symmetric": (
        "pseudosym.unit", "pseudosym.product", "pseudosym.word-independence"),
    "permutations-form-an-operad-under-block-substitution": (
        "esigma.operad",),
    "operad-indexed-family-of-free-images": (
        "phi.omega-sigma", "phi.symmetric-action"),
    "multicategory-axioms-for-algebra-cells": ("multicat.laws",),
    "pseudo-symmetric-multifunctor-axioms": (
        "pseudosym.unit", "pseudosym.product",
        "pseudosym.top-equivariance", "pseudosym.bottom-equivariance"),
    "commutative-monoids-give-strict-algebras": ("monoid.algebra",),
}


# For each documented evaluator mutation, a suite whose failure
# witnesses it.  Kept here so sensitivity tests and the acceptance
# gate agree on where to look.
MUTATION_WITNESSES: dict[str, str] = {
    "gamma-transpose-direction": "symmetry.axiom",
    "mu-block-order": "monad.laws",
    "strength-entry-order": "strength.laws",
    "strength-slot-index": "strength.laws",
    "compose-reindexing": "monad.laws",
}


# ------------------------------------------------------------- runner


def resolve_suite_ids(ids) -> list[str]:
    """Normalize a selection to a sorted list of known suite ids."""
    if ids is None or ids == "all" or list(ids) == ["all"]:
        return sorted(SUITES)
    out = []
    for ident in ids:
        if ident not in SUITES:
            raise ValueError(
                f"unknown suite id {ident!r}; valid ids: "
                + ", ".join(sorted(SUITES)))
        out.append(ident)
    return sorted(set(out))


def run_suites(ids, ctx: SuiteContext, timings: bool = False) -> list[dict]:
    """Run the selected suites and return one result dict per suite,
    ordered by suite id."""
    results = []
    for ident in resolve_suite_ids(ids):
        suite = SUITES[ident]
        start = time.perf_counter()
        checks = []
        for name, thunk in suite.build(ctx):
            try:
                report = thunk()
            except BudgetError as exc:
                # the check could not run at this budget; the others still can
                report = Report(kind="harness", passed=False, points=0,
                                truncated=False, phase="harness", detail=str(exc))
            checks.append({"name": name, **report.to_dict()})
        entry = {
            "suite": ident,
            "law": suite.law,
            "passed": all(c["passed"] for c in checks),
            "checks": checks,
        }
        if timings:
            entry["wall_ms"] = round((time.perf_counter() - start) * 1000, 3)
        results.append(entry)
    return results


def catalog(ctx: Optional[SuiteContext] = None) -> list[tuple[str, str, int]]:
    """List (suite id, law, check count) for every registered suite."""
    ctx = ctx or default_context()
    return [(ident, SUITES[ident].law, len(SUITES[ident].build(ctx)))
            for ident in sorted(SUITES)]


def render_table(results: Sequence[dict]) -> str:
    """A fixed-width text table summarizing suite results."""
    rows = [("suite", "checks", "failed", "points", "status")]
    for entry in results:
        checks = entry["checks"]
        failed = [c for c in checks if not c["passed"]]
        rows.append((entry["suite"], str(len(checks)), str(len(failed)),
                     str(sum(c["points"] for c in checks)),
                     "ok" if entry["passed"] else "FAIL"))
    widths = [max(len(r[k]) for r in rows) for k in range(5)]
    lines = []
    for idx, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
