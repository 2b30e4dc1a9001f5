"""Named verification suites over the sequence-monad calculus.

A suite is a datum: a stable identifier, the law it checks stated in
plain language, and a builder that turns fixtures plus a budget into a
list of named checks.  A check is ``(name, partial(fn, *inputs))`` with
``fn`` a checker or a check function of this module; called, it builds
every composite of algebra cells itself and returns one ``Report``, the
``calculus.bundle`` of its sub-checks if it has several.  So building a
suite evaluates nothing, and a check pickles and shows its inputs.  Like
the checkers, a check function walks its points through the calculus
loop: a failing report counts the points walked, and an evaluation error
is a counterexample at its point.  The mirrored laws share one builder,
registered once per suite id with the side as an argument.  Reports are
deterministic for a fixed context; wall-clock times are attached only on
request so repeated runs serialize to identical bytes.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional, Sequence

from . import perms
from .algebras import (
    FreeAlg,
    MonoidAlg,
    _at_slot,
    _block_bounds,
    _blockwise,
    _cover_cell,
    _frees,
    _span,
    _ungroup,
    _with_free,
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
    CatExpr,
    CellExpr,
    Compose,
    Const,
    Eta,
    Free,
    FunBase,
    Gamma,
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
    _first_failure,
    _report,
    bundle,
    cell_endpoints,
    enumerate_morphisms,
    equal_cell,
    equal_fun,
    eval_fun_mor,
    gamma_source,
    prod_map,
    show_value,
)
from .fincat import CommMonoid, FinCat, FunTable
from .fixtures import builtin_base, builtin_monoid
from .freesmc import partitions_for
from .perms import Perm, all_perms, block, reduced_words, transposition, word_to_perm

Check = tuple[str, partial[Report]]


@dataclass(frozen=True)
class SuiteContext:
    """Fixtures a suite runs against: a base category, a commutative
    monoid, and the evaluation budget."""

    base: FinCat
    monoid: CommMonoid
    bud: Budget


@dataclass(frozen=True)
class Suite:
    ident: str
    law: str
    build: Callable[[SuiteContext], list[Check]]


SUITES: dict[str, Suite] = {}

DEFAULT_BUDGET = Budget(max_seq_len=3, max_nest=2, max_points=20000, seed=0)

_SWAP = Perm((2, 1))


def default_context(base: str = "arrow", monoid: str = "z2",
                    bud: Optional[Budget] = None) -> SuiteContext:
    return SuiteContext(builtin_base(base), builtin_monoid(monoid),
                        bud or DEFAULT_BUDGET)


def _suite(ident: str, law: str, *args):
    """Register fn as the builder of suite ident, called as fn(*args, ctx)."""
    def register(fn):
        SUITES[ident] = Suite(ident, law, partial(fn, *args))
        return fn
    return register


# ------------------------------------------------------------- helpers


def _points(bud: Budget, cap: int) -> Budget:
    return replace(bud, max_points=min(bud.max_points, cap))

def _seq(bud: Budget, cap: int) -> Budget:
    return replace(bud, max_seq_len=min(bud.max_seq_len, cap))


def _collapse(cat: FinCat):
    """The endofunctor crushing a base category onto its first object."""
    o0 = cat.objects[0]
    table = FunTable(cat, cat,
                     {o: o0 for o in cat.objects},
                     {m: cat.identity(o0) for m in cat.all_morphisms()})
    return FunBase(table)


def _broke(detail: str) -> tuple:
    """The failure of a structural fact, noted by its detail."""
    return {"note": detail}, detail


def _structural(points: int, failure, detail: str = "") -> Report:
    return _report("structural", points, False, failure, "structural", detail)


def _fact(passed: bool, detail: str) -> Report:
    return _structural(1, None if passed else _broke(detail), detail)


# Slots lo and lo+1 of a triple of one category A grouped into a pair:
# lo is 1 for the left bracketing ((A, A), A) and 2 for the right one.


def _around(lo: int, pair, rest) -> tuple:
    """The grouped pair and the remaining slot of a triple, in slot order."""
    return (pair, rest) if lo == 1 else (rest, pair)


def _bracketing(A: CatExpr, lo: int) -> tuple:
    return _around(lo, Prod((A, A)), A)


def _flatten(A: CatExpr, lo: int):
    """Reassociate the bracketed triple onto Prod((A, A, A))."""
    return _ungroup(Prod(_bracketing(A, lo)), (lo,))


def _against_pair(A: CatExpr, D: Prod, lo: int, g) -> CellExpr:
    """Send slots lo and lo+1 of the triple D through g into one free
    slot, interchange it against the remaining slot, then flatten."""
    grouped = _around(lo, Compose((_span(D, lo, lo + 1), g)),
                      Proj(D, 3 if lo == 1 else 1))
    return WhiskerR(WhiskerL(Tuple(grouped), Gamma(_bracketing(A, lo))),
                    ApplyT(_flatten(A, lo)))


def _pair_swap(A: CatExpr, D: Prod, lo: int) -> CellExpr:
    """The interchange of slots lo and lo+1 of the triple D, tupled with
    the identity on the remaining slot."""
    return TupleCell(_around(lo, WhiskerL(_span(D, lo, lo + 1), Gamma((A, A))),
                             IdCell(Proj(D, 3 if lo == 1 else 1))))


def _swap_chain(inners: tuple, word: Sequence[int]) -> CellExpr:
    """The cover cells along a word of adjacent swaps, pasted vertically."""
    n = len(inners)
    return VComp(tuple(_cover_cell(inners, word_to_perm(n, word[:k]), i)
                       for k, i in enumerate(word)))


def _composite(base: CatExpr, sizes: Sequence[int], gs, f):
    """The flat functor Prod(base^sum(sizes)) -> cod f that feeds each
    block of slots through its functor in gs, then applies f."""
    flat = Prod((base,) * sum(sizes))
    return Compose((_blockwise(flat, _block_bounds(sizes), gs), f))


def _blocked_identity(base: CatExpr, sizes: Sequence[int]):
    """An identity outer functor over blocks of the given sizes, with a
    plain per-block functor for each block.  Returns (f, gs, composite)
    where composite is the flat functor Prod(base^sum) -> cod f."""
    slots = tuple(base if k == 1 else Prod((base,) * k) for k in sizes)
    f = Identity(Prod(slots))
    gs = [Proj(Prod((base,)), 1) if k == 1 else Identity(Prod((base,) * k))
          for k in sizes]
    return f, gs, _composite(base, sizes, gs, f)


# ------------------------------------------------------------- suites


def _mu_functoriality(A: CatExpr, bud: Budget) -> Report:
    # composable pairs of nested sequence morphisms exercise the
    # component re-indexing that plain domain points never reach
    dom, flat, mu = Free(Free(A)), Free(A), Mu(A)
    b2 = _points(_seq(bud, 2), 800)
    mors, truncated = enumerate_morphisms(dom, b2)
    by_src: dict = {}
    for m in mors:
        by_src.setdefault(dom.src(m), []).append(m)
    composable = ((m1, m2) for m1 in mors for m2 in by_src.get(dom.tgt(m1), ()))
    # one pair past the cap says whether the walk is truncated
    pairs = list(itertools.islice(composable, b2.max_points + 1))

    def compare(pair):
        m1, m2 = pair
        lhs = eval_fun_mor(mu, dom.comp(m2, m1))
        rhs = flat.comp(eval_fun_mor(mu, m2), eval_fun_mor(mu, m1))
        return None if lhs == rhs else (
            {"first": show_value(m1), "second": show_value(m2),
             "left": show_value(lhs), "right": show_value(rhs), "note": ""}, "")

    count, failure = _first_failure(pairs[:b2.max_points], compare)
    return _report("fun-equality", count, truncated or len(pairs) > b2.max_points,
                   failure, "composition")


@_suite("monad.laws",
        "Inserting a singleton and then erasing parentheses is the identity"
        " on either side, erasing is associative and natural, and erasing"
        " parentheses is a functor on nested sequence morphisms.")
def _monad_laws(ctx: SuiteContext) -> list[Check]:
    A, bud = ctx.base, ctx.bud
    fb = _collapse(A)
    p = _points(bud, 2000)
    assoc = replace(_points(_seq(bud, 2), 4000), max_nest=3)
    return [
        ("eta-then-mu", partial(
            equal_fun, Compose((Eta(Free(A)), Mu(A))), Identity(Free(A)), p)),
        ("mapped-eta-then-mu", partial(
            equal_fun, Compose((ApplyT(Eta(A)), Mu(A))), Identity(Free(A)), p)),
        ("mu-associativity", partial(
            equal_fun, Compose((Mu(Free(A)), Mu(A))),
            Compose((ApplyT(Mu(A)), Mu(A))), assoc)),
        ("eta-naturality", partial(
            equal_fun, Compose((fb, Eta(A))), Compose((Eta(A), ApplyT(fb))), p)),
        ("mu-naturality", partial(
            equal_fun, Compose((Mu(A), ApplyT(fb))),
            Compose((ApplyT(ApplyT(fb)), Mu(A))), p)),
        ("mu-functoriality", partial(_mu_functoriality, A, bud)),
    ]


@_suite("strength.laws",
        "Interleaving one free slot into a product respects the unit and"
        " multiplication of the monad, is natural, and the two slot routes"
        " realize the row-major and column-major grid walks.")
def _strength_laws(ctx: SuiteContext) -> list[Check]:
    A, bud = ctx.base, ctx.bud
    fb = _collapse(A)
    p = _points(bud, 1500)
    P = Prod((A, A))
    checks: list[Check] = []
    for i in (1, 2):
        unit = _at_slot((A, A), i, Eta(A))
        checks.append((f"unit-slot-{i}", partial(
            equal_fun, Compose((unit, Strength((A, A), i))), Eta(P), p)))
    for i in (1, 2):
        once = _with_free((A, A), i)
        lhs = Compose((_at_slot(_with_free(once, i), i, Mu(A)), Strength((A, A), i)))
        rhs = Compose((Strength(once, i), ApplyT(Strength((A, A), i)), Mu(P)))
        checks.append((f"mult-slot-{i}",
                       partial(equal_fun, lhs, rhs, _points(bud, 1200))))
    nat_l = Compose((prod_map((Free(A), A), (ApplyT(fb), fb)),
                     Strength((A, A), 1)))
    nat_r = Compose((Strength((A, A), 1), ApplyT(prod_map((A, A), (fb, fb)))))
    checks.append(("naturality", partial(equal_fun, nat_l, nat_r, p)))
    checks.append(("row-route", partial(
        equal_fun, gamma_source((A, A), 1, 2), Omega((A, A)), p)))
    checks.append(("column-route", partial(
        equal_fun, gamma_source((A, A), 2, 1),
        omega_sigma_fun((A, A), _SWAP), p)))
    return checks


@_suite("pseudocomm.axiom1",
        "Grouping a bare middle slot into the left or the right free"
        " neighbour before interchanging gives the same 2-cell after"
        " flattening.", 1)
@_suite("pseudocomm.axiom2",
        "Absorbing a bare middle slot into the right or the left free"
        " factor before interchanging agrees after flattening.", 2)
@_suite("pseudocomm.axiom3",
        "Interchanging past a bare right slot factors through pairing it"
        " into the second free factor, after flattening.", 3)
def _grouping_axiom(bare: int, ctx: SuiteContext) -> list[Check]:
    A = ctx.base
    bud = _points(ctx.bud, 1200)
    D = Prod(tuple(A if k == bare else Free(A) for k in (1, 2, 3)))
    if bare == 2:
        lhs = _against_pair(A, D, 2, Strength((A, A), 2))
        rhs = _against_pair(A, D, 1, Strength((A, A), 1))
    else:
        # the two free slots start at slot `free`: the bare end slot joins
        # its free neighbour on one side, the free pair interchanges first
        # on the other
        free = 2 if bare == 1 else 1
        lhs = _against_pair(A, D, 3 - free, Strength((A, A), free))
        rhs = WhiskerR(WhiskerR(_pair_swap(A, D, free),
                                Strength(_bracketing(A, free), free)),
                       ApplyT(_flatten(A, free)))
    return [("pasting", partial(equal_cell, lhs, rhs, bud))]


@_suite("pseudocomm.axiom4",
        "Precomposing the interchange cell with a singleton insertion in"
        " the first slot is an identity 2-cell.", 1)
@_suite("pseudocomm.axiom5",
        "Precomposing the interchange cell with a singleton insertion in"
        " the second slot is an identity 2-cell.", 2)
def _unit_axiom(slot: int, ctx: SuiteContext) -> list[Check]:
    A = ctx.base
    bud = _points(ctx.bud, 1500)
    emap = _at_slot(_with_free((A, A), 3 - slot), slot, Eta(A))
    lhs = WhiskerL(emap, Gamma((A, A)))
    rhs = IdCell(Compose((emap, gamma_source((A, A), 1, 2))))
    return [("identity", partial(equal_cell, lhs, rhs, bud))]


@_suite("pseudocomm.axiom6",
        "Interchanging after erasing parentheses in the first slot pastes"
        " from the interchange under one free layer followed by the"
        " interchange against the doubled slot.", 1)
@_suite("pseudocomm.axiom7",
        "Interchanging after erasing parentheses in the second slot pastes"
        " from the interchange against the doubled slot followed by the"
        " interchange under one free layer.", 2)
def _mult_axiom(slot: int, ctx: SuiteContext) -> list[Check]:
    A = ctx.base
    bud = _points(ctx.bud, 700)
    frees = _frees((A, A))
    pab = Prod((A, A))
    lhs = WhiskerL(_at_slot(_with_free(frees, slot), slot, Mu(A)), Gamma((A, A)))
    under = WhiskerL(Strength(frees, slot),
                     WhiskerR(ApplyTCell(Gamma((A, A))), Mu(pab)))
    against = WhiskerR(Gamma(_with_free((A, A), slot)),
                       Compose((ApplyT(Strength((A, A), slot)), Mu(pab))))
    rhs = VComp((under, against) if slot == 1 else (against, under))
    return [("pasting", partial(equal_cell, lhs, rhs, bud))]


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
        checks.append((name, partial(equal_cell, lhs, rhs, bud)))
    return checks


def symmetry_round_trip(base: CatExpr) -> tuple[CellExpr, CellExpr]:
    """The interchange-then-conjugated-transpose composite over ``base``
    and the identity cell it must equal."""
    A = B = base
    FA, FB = Free(A), Free(B)
    conj = WhiskerR(WhiskerL(Shuffle(Prod((FA, FB)), _SWAP), Gamma((B, A))),
                    ApplyT(Shuffle(Prod((B, A)), _SWAP)))
    composite = VComp((Gamma((A, B)), conj))
    return composite, IdCell(gamma_source((A, B), 1, 2))


@_suite("symmetry.axiom",
        "The interchange cell followed by its transpose conjugated by the"
        " swap equals the identity of the 1-cell, so the transpose"
        " interchange is the inverse cell.")
def _symmetry(ctx: SuiteContext) -> list[Check]:
    A = B = ctx.base
    bud = _points(ctx.bud, 2500)
    composite, ident = symmetry_round_trip(ctx.base)
    conj = composite.parts[1]
    return [
        ("round-trip", partial(equal_cell, composite, ident, bud)),
        ("transpose-inverse", partial(equal_cell, Gamma((A, B), 2, 1), conj, bud)),
    ]


@_suite("thm.partition-independence",
        "Every admissible way of splitting the remaining slots around the"
        " two freed positions induces the same interchange 2-cell.")
def _partition_independence(ctx: SuiteContext) -> list[Check]:
    A, bud = ctx.base, ctx.bud
    checks: list[Check] = []
    for n, cap in ((3, 700), (4, 400)):
        slots, p = (A,) * n, _points(bud, cap)
        for i, j in itertools.combinations(range(1, n + 1), 2):
            for part in partitions_for(n, i, j):
                name = "n%d(%d,%d)@%d%d%d" % (n, i, j, *part)
                checks.append((name, partial(equal_cell, Gamma(slots, i, j, part),
                                             Gamma(slots, i, j), p)))
    return checks


def _first_constraint_identity(w) -> Report:
    return _fact(isinstance(w.constraints[0], IdCell),
                 "slot-1 constraint is literally an identity 2-cell")


@_suite("omega.two",
        "The binary grid walk is the slot-1-then-slot-2 composite, and its"
        " second pseudo-morphism constraint is the documented pasting of"
        " the applied interchange with the swap-conjugated transpose.")
def _omega_two(ctx: SuiteContext) -> list[Check]:
    A = B = ctx.base
    bud = ctx.bud
    FA, FB = Free(A), Free(B)
    pab = Prod((A, B))
    w = omega_cell((A, B))
    cell_a = WhiskerL(Strength((FA, FB), 2),
                      WhiskerR(ApplyTCell(Gamma((A, B))), Mu(pab)))
    pre = Compose((_at_slot((FA, Free(FB)), 2, Mu(B)), Shuffle(Prod((FA, FB)), _SWAP)))
    cell_b = WhiskerL(pre, WhiskerR(Gamma((B, A)),
                                    ApplyT(Shuffle(Prod((B, A)), _SWAP))))
    return [
        ("composite", partial(
            equal_fun, w.underlying, gamma_source((A, B), 1, 2), _points(bud, 2000))),
        ("first-constraint-identity", partial(_first_constraint_identity, w)),
        ("second-constraint", partial(
            equal_cell, VComp((cell_a, cell_b)), w.constraints[1], _points(bud, 700))),
    ]


def _onecell_of(make, arg, bud: Budget) -> Report:
    """validate_onecell of the cell make(arg), built when the check runs."""
    return validate_onecell(make(arg), bud)


@_suite("omega.onecell",
        "The grid walk is a pseudo-morphism of free algebras in every"
        " slot: constraint squares, unit squares, and multiplication"
        " coherence all hold.")
def _omega_onecell(ctx: SuiteContext) -> list[Check]:
    A, bud = ctx.base, ctx.bud
    return [
        ("binary", partial(_onecell_of, omega_cell, (A, A), _points(bud, 250))),
        ("ternary", partial(
            _onecell_of, omega_cell, (A, A, A), _points(_seq(bud, 2), 100))),
    ]


def _grouped_walk(A: CatExpr, lo: int, bud: Budget) -> Report:
    """The binary walk over the pair walk at slot lo and the unary identity
    cell, flattened, against the ternary walk."""
    blocks = _around(lo, omega_cell((A, A)), identity_cell(FreeAlg(A)))
    grouped = gamma_compose(omega_cell(_bracketing(A, lo)), blocks)
    return multicell_equal(postcompose_free(grouped, _flatten(A, lo)),
                           omega_cell((A, A, A)), bud)


@_suite("omega.associativity",
        "Associativity of ω: composing the binary walk with a nested walk"
        " in either slot and flattening gives the ternary walk.")
def _omega_associativity(ctx: SuiteContext) -> list[Check]:
    p = _points(ctx.bud, 150)
    return [("left-grouping", partial(_grouped_walk, ctx.base, 1, p)),
            ("right-grouping", partial(_grouped_walk, ctx.base, 2, p))]


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
        ("functors", partial(equal_fun, lhsf, rhsf, _points(bud, 1000))),
        ("two-cells", partial(equal_cell, lhs2, rhs2, _points(bud, 400))),
    ]


def _unary_wrapper(A: CatExpr) -> Report:
    return _fact(free_multi(Identity(Prod((A,)))) == omega_cell((A,)),
                 "the unary walk is the free image of the identity")


def _recursive_walk(A: CatExpr, n: int, bud: Budget) -> Report:
    """The n-ary walk against the binary walk over the (n-1)-ary walk and
    the unary wrapper, pushed along the unwrapping of the grouped product."""
    head, wrap = Prod((A,) * (n - 1)), Prod((A,))
    rec = gamma_compose(omega_cell((head, wrap)),
                        [omega_cell((A,) * (n - 1)), omega_cell((A,))])
    return multicell_equal(postcompose_free(rec, _ungroup(Prod((head, wrap)), (1, 2))),
                           omega_cell((A,) * n), bud)


@_suite("omega.recursion",
        "The n-ary grid walk is the binary walk composed with the"
        " (n-1)-ary walk and the unary wrapper, up to unwrapping the"
        " grouped product.")
def _omega_recursion(ctx: SuiteContext) -> list[Check]:
    A, bud = ctx.base, ctx.bud
    return [
        ("unary-wrapper", partial(_unary_wrapper, A)),
        ("three-slots", partial(_recursive_walk, A, 3, _points(bud, 150))),
        ("four-slots", partial(_recursive_walk, A, 4, _points(_seq(bud, 2), 80))),
    ]


def _free_image_of_composite(b: CatExpr, f, sizes, gs, bud: Budget) -> Report:
    direct = free_multi(_composite(b, sizes, gs, f))
    pieced = gamma_compose(free_multi(f), [free_multi(g) for g in gs])
    return multicell_equal(direct, pieced, bud)


@_suite("multifunctor.laws",
        "Taking free images preserves multi-composition: the free image of"
        " a composite functor equals the composite of the free images, over"
        " a seeded sample of outer and block functors including identities"
        " and constants.")
def _multifunctor(ctx: SuiteContext) -> list[Check]:
    b, bud = ctx.base, ctx.bud
    obj0 = b.objects[0]
    fb = _collapse(b)
    U, B2 = Prod((b,)), Prod((b, b))
    u_pool = [Proj(U, 1), Compose((Proj(U, 1), fb)), Const(U, b, obj0)]
    d_pool = [Proj(B2, 1), Proj(B2, 2), Compose((Proj(B2, 1), fb))]
    f_pool = [Identity(B2), Shuffle(B2, _SWAP),
              Tuple((Proj(B2, 1), Proj(B2, 1))),
              prod_map((b, b), (fb, Identity(b))),
              Const(B2, Prod(()), ())]
    pools = {1: u_pool, 2: d_pool}
    combos = [(f"f{fi}s{s1}{s2}g{g1i}{g2i}", f, (s1, s2), (g1, g2))
              for fi, f in enumerate(f_pool)
              for s1, s2 in ((1, 1), (1, 2), (2, 1), (2, 2))
              for g1i, g1 in enumerate(pools[s1])
              for g2i, g2 in enumerate(pools[s2])]
    rng = random.Random(bud.seed)
    forced = [c for c in combos if c[0] in ("f0s11g00", "f4s12g20")]
    rest = [c for c in combos if c not in forced]
    picked = forced + rng.sample(rest, 50)
    p = _points(_seq(bud, 2), 30)
    return [(tag, partial(_free_image_of_composite, b, f, sizes, gs, p))
            for tag, f, sizes, gs in picked]


def _identity_word(f, c, bud: Budget) -> Report:
    return equal_cell(c.component, IdCell(free_multi(f).underlying), bud)


@_suite("pseudosym.unit",
        "The reordering cell at the identity permutation is the identity"
        " 2-cell on the free image.")
def _pseudosym_unit(ctx: SuiteContext) -> list[Check]:
    b, bud = ctx.base, ctx.bud
    f = Identity(Prod((b, b)))
    c = pseudo_sym(f, perms.identity(2))
    return [
        ("identity-word", partial(_identity_word, f, c, _points(bud, 600))),
        ("endpoints-coincide", partial(
            multicell_equal, c.source, c.target, _points(bud, 300))),
    ]


def _reordering_product(f, sig: Perm, tau: Perm, bud: Budget) -> Report:
    lhs = pseudo_sym(f, perms.compose(sig, tau)).component
    first = pseudo_sym(_with_perm(f, sig), tau).component
    second = sigma_act_cell(pseudo_sym(f, sig), tau).component
    return equal_cell(lhs, VComp((first, second)), bud)


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
        name = "s%s.t%s" % ("".join(map(str, sig.images)), "".join(map(str, tau.images)))
        checks.append((name, partial(_reordering_product, f, sig, tau, p)))
    return checks


def _same_reordering(f, sigma: Perm, w1, w2, bud: Budget) -> Report:
    return equal_cell(pseudo_sym(f, sigma, w1).component,
                      pseudo_sym(f, sigma, w2).component, bud)


@_suite("pseudosym.word-independence",
        "Every reduced word for a permutation builds the same reordering"
        " cell.")
def _pseudosym_words(ctx: SuiteContext) -> list[Check]:
    b, bud = ctx.base, ctx.bud
    checks: list[Check] = []
    for n, p in ((3, _points(bud, 400)), (4, _points(_seq(bud, 2), 60))):
        f, rev = Identity(Prod((b,) * n)), perms.reversal(n)
        first, *rest = sorted(reduced_words(rev))
        for w in rest:
            name = "n%d:%s~%s" % (n, "".join(map(str, w)), "".join(map(str, first)))
            checks.append((name, partial(_same_reordering, f, rev, w, first, p)))
    return checks


def _block_reordering(b: CatExpr, sizes: Sequence[int], outer: Perm, inner):
    """The blocked identity over sizes (f, gs), the reordering cell of its
    composite along block(outer, inner), and that cell's free domain."""
    f, gs, composite = _blocked_identity(b, sizes)
    bperm = block(outer, inner)
    lhs = pseudo_sym(composite, bperm).component
    return f, gs, lhs, Prod(perms.permute(_frees((b,) * sum(sizes)), bperm))


def _top_equivariance_check(b: CatExpr, sizes: Sequence[int], sig: Perm,
                            bud: Budget) -> Report:
    order = [sig(l) for l in range(1, len(sizes) + 1)]
    ks = [sizes[j - 1] for j in order]
    f, gs, lhs, DP = _block_reordering(b, sizes, sig, [perms.identity(k) for k in ks])
    parts = tuple(Compose((_span(DP, lo, hi), Omega((b,) * k), ApplyT(gs[j - 1])))
                  for j, k, (lo, hi) in zip(order, ks, _block_bounds(ks)))
    rhs = WhiskerL(Tuple(parts), pseudo_sym(f, sig).component)
    return equal_cell(lhs, rhs, bud)


@_suite("pseudosym.top-equivariance",
        "Reordering whole blocks of a composite is the outer reordering"
        " cell whiskered by the permuted block images.")
def _pseudosym_top(ctx: SuiteContext) -> list[Check]:
    b, bud = ctx.base, ctx.bud
    p = _points(bud, 250)
    return [
        ("blocks-21", partial(_top_equivariance_check, b, (2, 1), _SWAP, p)),
        ("blocks-12", partial(_top_equivariance_check, b, (1, 2), _SWAP, p)),
        ("blocks-112", partial(_top_equivariance_check, b, (1, 1, 2), transposition(3, 2),
                               _points(_seq(bud, 2), 100))),
    ]


def _bottom_equivariance_check(b: CatExpr, sizes: Sequence[int], l: int,
                               tau: Perm, bud: Budget) -> Report:
    n = len(sizes)
    f, gs, lhs, DP = _block_reordering(
        b, sizes, perms.identity(n),
        [tau if t == l else perms.identity(sizes[t - 1]) for t in range(1, n + 1)])
    parts = []
    for t, ((lo, hi), k, g) in enumerate(zip(_block_bounds(sizes), sizes, gs), 1):
        sel = _span(DP, lo, hi)
        parts.append(WhiskerL(sel, pseudo_sym(g, tau).component) if t == l
                     else IdCell(Compose((sel, Omega((b,) * k), ApplyT(g)))))
    rhs = WhiskerR(TupleCell(tuple(parts)),
                   Compose((Omega(f.cat.factors), ApplyT(f))))
    return equal_cell(lhs, rhs, bud)


@_suite("pseudosym.bottom-equivariance",
        "Reordering inside one block of a composite is the block's own"
        " reordering cell tupled with identities and whiskered into the"
        " outer free image.")
def _pseudosym_bottom(ctx: SuiteContext) -> list[Check]:
    b, bud = ctx.base, ctx.bud
    p = _points(bud, 250)
    return [
        ("block1-of-21", partial(_bottom_equivariance_check, b, (2, 1), 1, _SWAP, p)),
        ("block2-of-12", partial(_bottom_equivariance_check, b, (1, 2), 2, _SWAP, p)),
        ("block2-of-22", partial(_bottom_equivariance_check, b, (2, 2), 2, _SWAP,
                                 _points(_seq(bud, 2), 100))),
    ]


@_suite("yangbaxter.disjoint",
        "Swap cells acting on disjoint adjacent pairs commute, and their"
        " pasting factors through the walk over the two grouped pairs.")
def _yangbaxter_disjoint(ctx: SuiteContext) -> list[Check]:
    A, bud = ctx.base, ctx.bud
    inners = (A, A, A, A)
    p = _points(_seq(bud, 2), 250)
    c_12_34 = _swap_chain(inners, (1, 3))
    c_34_12 = _swap_chain(inners, (3, 1))
    D4 = Prod(_frees(inners))
    paa = Prod((A, A))
    g12 = WhiskerL(_span(D4, 1, 2), Gamma((A, A)))
    g34 = WhiskerL(_span(D4, 3, 4), Gamma((A, A)))
    flatten = _ungroup(Prod((paa, paa)), (1, 2))
    grouped = WhiskerR(TupleCell((g12, g34)),
                       Compose((Omega((paa, paa)), ApplyT(flatten))))
    return [
        ("commute", partial(equal_cell, c_12_34, c_34_12, p)),
        ("factor", partial(equal_cell, c_12_34, grouped, p)),
    ]


@_suite("yangbaxter.1",
        "The three-step swap chain starting in the middle pastes to the"
        " grouped interchange: first swapping inside the grouped pair, then"
        " interchanging the first slot against the pair.", 2)
@_suite("yangbaxter.2",
        "The three-step swap chain starting on the left pastes to the"
        " grouped interchange on the other bracketing: swapping inside the"
        " grouped pair, then interchanging it against the last slot.", 1)
def _yangbaxter_grouped(lo: int, ctx: SuiteContext) -> list[Check]:
    A, bud = ctx.base, ctx.bud
    D = Prod(_frees((A, A, A)))
    chain = _swap_chain((A, A, A), (lo, 3 - lo, lo))
    swap = WhiskerR(_pair_swap(A, D, lo),
                    Compose((Omega(_bracketing(A, lo)), ApplyT(_flatten(A, lo)))))
    rest = _against_pair(A, D, lo, gamma_source((A, A), 2, 1))
    p = _points(bud, 500)
    return [("grouped", partial(equal_cell, chain, VComp((swap, rest)), p))]


@_suite("yangbaxter.3",
        "The braid relation: the two three-step swap chains reversing"
        " three slots paste to the same 2-cell.")
def _yangbaxter3(ctx: SuiteContext) -> list[Check]:
    A, bud = ctx.base, ctx.bud
    chain121 = _swap_chain((A, A, A), (1, 2, 1))
    chain212 = _swap_chain((A, A, A), (2, 1, 2))
    p = _points(bud, 500)
    return [("braid", partial(equal_cell, chain121, chain212, p))]


@_suite("newlemma.1",
        "Two swap steps moving the first slot rightward paste to the"
        " interchange of the first slot against the grouped remaining"
        " pair.", 2)
@_suite("newlemma.2",
        "Two swap steps moving the last slot leftward paste to the"
        " interchange of the grouped leading pair against the last slot.", 1)
def _newlemma(lo: int, ctx: SuiteContext) -> list[Check]:
    A, bud = ctx.base, ctx.bud
    p = _points(bud, 500)
    lhs = _swap_chain((A, A, A), (3 - lo, lo))
    rhs = _against_pair(A, Prod(_frees((A, A, A))), lo, Omega((A, A)))
    return [("grouped", partial(equal_cell, lhs, rhs, p))]


def _maximal_chains(A: CatExpr, n: int) -> list:
    """(word, chain) for each reduced word of the reversal of n slots, in
    sorted order: the cover cells along the word, pasted vertically."""
    return [(w, _swap_chain((A,) * n, w)) for w in sorted(reduced_words(perms.reversal(n)))]


def _cover_endpoints(A: CatExpr, bud: Budget) -> Report:
    data = bruhat_omega((A, A, A))
    named = []
    for _, i, p0 in sorted((p0.images, i, p0) for p0, i in data["covers"]):
        src, tgt = cell_endpoints(data["covers"][(p0, i)])
        after = perms.compose(p0, transposition(3, i))
        tag = "".join(map(str, p0.images)) + "+s%d" % i
        named.append((tag + ".src", equal_fun(src, data["objects"][p0], bud)))
        named.append((tag + ".tgt", equal_fun(tgt, data["objects"][after], bud)))
    return bundle(named)


def _maximal_chains_3(A: CatExpr, bud: Budget) -> Report:
    (_, first), (_, second) = _maximal_chains(A, 3)
    return equal_cell(first, second, bud)


def _maximal_chains_4(A: CatExpr, bud: Budget) -> Report:
    # all maximal chains agree pairwise; each is compared against the
    # first, which settles every pair by transitivity
    (_, base), *rest = _maximal_chains(A, 4)
    return bundle([("".join(map(str, w)), equal_cell(chain, base, bud))
                   for w, chain in rest])


@_suite("bruhat.path-independence",
        "The walk reorderings form a diagram over the weak right order on"
        " permutations: every maximal chain of swap cells pastes to the"
        " same 2-cell, and each cover cell runs between the catalogued"
        " walks.")
def _bruhat(ctx: SuiteContext) -> list[Check]:
    A, bud = ctx.base, ctx.bud
    return [
        ("maximal-chains-3", partial(_maximal_chains_3, A, _points(bud, 500))),
        ("maximal-chains-4", partial(_maximal_chains_4, A, _points(_seq(bud, 2), 50))),
        ("cover-endpoints", partial(_cover_endpoints, A, _points(bud, 300))),
    ]


def _operad_associativity() -> Report:
    pool = {1: all_perms(1), 2: all_perms(2)}
    points = [(s, (t1, t2), combo) for s in all_perms(2)
              for k1, k2 in ((1, 2), (2, 1), (2, 2))
              for t1 in pool[k1] for t2 in pool[k2]
              for combo in itertools.product(*(pool[m] for m in (1, 2, 1, 2)[: k1 + k2]))]

    def compare(point):
        s, (t1, t2), combo = point
        k1 = t1.degree
        lhs = block(block(s, [t1, t2]), list(combo))
        rhs = block(s, [block(t1, list(combo[:k1])), block(t2, list(combo[k1:]))])
        return None if lhs == rhs else _broke(
            f"associativity broke at {s}, {(t1, t2)}, {combo}")

    return _structural(*_first_failure(points, compare))


def _operad_units() -> Report:
    def compare(point):
        side, s = point
        unit = perms.identity(1)
        got = block(unit, [s]) if side == "left" else block(s, [unit] * s.degree)
        return None if got == s else _broke(f"{side} unit broke at {s}")

    return _structural(*_first_failure(
        [(side, s) for n in (1, 2, 3) for s in all_perms(n) for side in ("left", "right")],
        compare))


def _operad_equivariance() -> Report:
    def compare(point):
        s, pi, ts = point
        rearranged = [ts[pi(l) - 1] for l in (1, 2)]
        ids = [perms.identity(t.degree) for t in rearranged]
        lhs = block(perms.compose(s, pi), rearranged)
        rhs = perms.compose(block(s, ts), block(pi, ids))
        return None if lhs == rhs else _broke(f"equivariance broke at {s}, {pi}, {ts}")

    return _structural(*_first_failure(
        [(s, pi, [t1, t2]) for s in all_perms(2) for pi in all_perms(2)
         for t1 in all_perms(2) for t2 in all_perms(1) + all_perms(2)], compare))


@_suite("esigma.operad",
        "Block substitution of permutations is an operad composition: it"
        " is associative, unital on both sides, and equivariant for the"
        " symmetric group actions.")
def _esigma(ctx: SuiteContext) -> list[Check]:
    del ctx  # pure permutation identities need no fixtures
    return [("associativity", partial(_operad_associativity)),
            ("units", partial(_operad_units)),
            ("equivariance", partial(_operad_equivariance))]


def _phi_walk(f, sig: Perm, walk, bud: Budget) -> Report:
    return equal_fun(phi_T(f, perms.invert(sig)).underlying, walk, bud)


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
        checks.append((name, partial(
            _phi_walk, f, sig, omega_sigma_fun((b, b, b), sig), p)))
    return checks


def _phi_action(f, bud: Budget) -> Report:
    named = []
    for rho in (perms.identity(2), _SWAP):
        for sig in (perms.identity(2), _SWAP):
            lhs = phi_T(_with_perm(f, rho), perms.compose(sig, rho))
            rhs = sigma_act(phi_T(f, sig), rho)
            tag = "%s.%s" % ("".join(map(str, sig.images)), "".join(map(str, rho.images)))
            named.append((tag, multicell_equal(lhs, rhs, bud)))
    return bundle(named)


def _phi_cells(f, bud: Budget) -> Report:
    named = []
    for sig, tau in ((perms.identity(2), _SWAP), (_SWAP, perms.identity(2)),
                     (_SWAP, _SWAP)):
        c = phi_T_cell(f, sig, tau)
        tag = "%s>%s" % ("".join(map(str, sig.images)), "".join(map(str, tau.images)))
        ok = c.source == phi_T(f, sig) and c.target == phi_T(f, tau)
        named.append((tag + ".boundary",
                      _fact(ok, "connecting cell runs between the images")))
        named.append((tag, validate_twocell(c, bud)))
    return bundle(named)


@_suite("phi.symmetric-action",
        "The permutation-indexed free images assemble functorially: acting"
        " on the functor and the permutation together matches acting on"
        " the image, and the connecting 2-cells have the stated"
        " boundaries.")
def _phi_symmetric_action(ctx: SuiteContext) -> list[Check]:
    b, bud = ctx.base, ctx.bud
    f = Identity(Prod((b, b)))
    return [("functorial-action", partial(_phi_action, f, _points(bud, 150))),
            ("connecting-cells", partial(_phi_cells, f, _points(bud, 100)))]


def _outer_and_blocks(b: CatExpr):
    """The binary walk with a grouped first slot, and the two blocks that
    feed it: the pair walk and the unary identity cell."""
    blocks = (omega_cell((b, b)), identity_cell(FreeAlg(b)))
    return omega_cell((Prod((b, b)), b)), blocks


def _multicat_associativity(b: CatExpr, bud: Budget) -> Report:
    f, (g1, g2) = _outer_and_blocks(b)
    h = free_multi(Proj(Prod((b,)), 1))
    return multicell_equal(
        gamma_compose(gamma_compose(f, [g1, g2]), [h, h, h]),
        gamma_compose(f, [gamma_compose(g1, [h, h]), gamma_compose(g2, [h])]), bud)


def _unit_left(b: CatExpr, bud: Budget) -> Report:
    f = _outer_and_blocks(b)[0]
    return multicell_equal(gamma_compose(identity_cell(f.output), [f]), f, bud)


def _unit_right(b: CatExpr, bud: Budget) -> Report:
    f = _outer_and_blocks(b)[0]
    return multicell_equal(
        gamma_compose(f, [identity_cell(a) for a in f.inputs]), f, bud)


def _action_functorial(b: CatExpr, s: Perm, t: Perm, bud: Budget) -> Report:
    m = omega_cell((b, b, b))
    return multicell_equal(sigma_act(sigma_act(m, s), t),
                           sigma_act(m, perms.compose(s, t)), bud)


def _action_identity(b: CatExpr) -> Report:
    m = omega_cell((b, b, b))
    return _fact(sigma_act(m, perms.identity(m.arity)) is m,
                 "acting by the identity returns the cell unchanged")


def _composition_equivariance(b: CatExpr, sigma: Perm, taus, bud: Budget) -> Report:
    """Composing with the blocks permuted by sigma, block l acted on by
    taus[l-1], against acting on the composite by block(sigma, taus)."""
    f, gs = _outer_and_blocks(b)
    blocks = [sigma_act(gs[sigma(l) - 1], tau) for l, tau in enumerate(taus, 1)]
    acted = sigma_act(gamma_compose(f, gs), block(sigma, list(taus)))
    return multicell_equal(gamma_compose(sigma_act(f, sigma), blocks), acted, bud)


@_suite("multicat.laws",
        "Algebra cells compose associatively and unitally, the symmetric"
        " group acts functorially on them, and composition is equivariant"
        " on top and bottom.")
def _multicat(ctx: SuiteContext) -> list[Check]:
    b, bud = ctx.base, ctx.bud
    p = _points(bud, 150)
    ps = _points(bud, 100)
    return [
        ("associativity", partial(_multicat_associativity, b, ps)),
        ("unit-left", partial(_unit_left, b, p)),
        ("unit-right", partial(_unit_right, b, p)),
        ("action-functorial", partial(
            _action_functorial, b, Perm((2, 3, 1)), Perm((2, 1, 3)), ps)),
        ("action-identity", partial(_action_identity, b)),
        ("top-equivariance", partial(_composition_equivariance, b, _SWAP,
                                     (perms.identity(1), perms.identity(2)), p)),
        ("bottom-equivariance", partial(_composition_equivariance, b, perms.identity(2),
                                        (_SWAP, perms.identity(1)), p)),
    ]


def _fold_homomorphism(alg: MonoidAlg) -> Report:
    monoid = alg.monoid
    seqs = [s for n in range(3) for s in itertools.product(monoid.elements, repeat=n)]

    def compare(pair):
        s1, s2 = pair
        joint = monoid_algebra_eval(alg, s1 + s2)
        # the first point, () ++ (), also checks that the empty fold is the unit
        if not (s1 or s2) and joint != monoid.unit:
            return _broke("empty fold is not the unit")
        split = monoid.mult(monoid_algebra_eval(alg, s1), monoid_algebra_eval(alg, s2))
        return None if joint == split else _broke(f"fold broke at {s1} ++ {s2}")

    return _structural(*_first_failure(itertools.product(seqs, repeat=2), compare))


def _bracketed_multiplications(alg: MonoidAlg, bud: Budget) -> Report:
    mb = alg.carrier
    t3 = Prod((mb, mb, mb))
    mult = MonoidMult(alg.monoid, 2)
    left_fun = Compose((Tuple((Compose((_span(t3, 1, 2), mult)), Proj(t3, 3))), mult))
    right_fun = Compose((Tuple((Proj(t3, 1), Compose((_span(t3, 2, 3), mult)))), mult))
    struct = structure_cell(alg)
    left = gamma_compose(struct, [free_multi(left_fun)])
    right = gamma_compose(struct, [free_multi(right_fun)])
    return bundle([("equal", multicell_equal(left, right, _points(_seq(bud, 2), 120))),
                   ("pseudo-morphism",
                    validate_onecell(left, _points(_seq(bud, 2), 60)))])


@_suite("monoid.algebra",
        "A commutative monoid folds sequences into a strict algebra: the"
        " fold is a homomorphism, its structure map is a pseudo-morphism"
        " with identity constraint, and composing bracketed"
        " multiplications into it agrees either way.")
def _monoid_algebra(ctx: SuiteContext) -> list[Check]:
    b, bud = ctx.base, ctx.bud
    alg = MonoidAlg(ctx.monoid)
    return [
        ("fold-homomorphism", partial(_fold_homomorphism, alg)),
        ("structure-map", partial(_onecell_of, structure_cell, alg, _points(bud, 400))),
        ("free-structure-map", partial(
            _onecell_of, structure_cell, FreeAlg(b), _points(bud, 150))),
        ("bracketed-multiplications", partial(_bracketed_multiplications, alg, bud)),
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
            except (BudgetError, *_EVAL_ERRORS) as exc:
                # the check could not run at this budget, or its set-up broke
                # outside its walk; the others still can
                report = _report("harness", 0, False, (None, str(exc)), "harness")
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
