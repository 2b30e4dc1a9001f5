"""Multicells between algebras for the sequence monad.

A multicell is a functor out of a product of algebra carriers together
with one structure 2-cell per input slot, making it a pseudo-morphism in
each variable separately.  This module builds the canonical interleaving
multicells, composes multicells blockwise, lets permutations act on their
slots, and produces the comparison 2-cells between differently ordered
interleavings.  Every axiom is checked pointwise through the budgets of
the calculus module rather than assumed.

Slots are numbered from 1 throughout, matching the strength and
interchange expressions they index into.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import Sequence, Union

from . import perms
from .calculus import (
    ApplyT,
    ApplyTCell,
    Budget,
    CatExpr,
    CellExpr,
    Compose,
    Const,
    Eta,
    Free,
    FunExpr,
    Gamma,
    IdCell,
    Identity,
    MonoidEval,
    Mu,
    Omega,
    Prod,
    Proj,
    Report,
    Shuffle,
    Strength,
    Tuple,
    TupleCell,
    TypecheckError,
    VComp,
    WhiskerL,
    WhiskerR,
    _report,
    bundle,
    cell_endpoints,
    cell_facts,
    equal_cell,
    equal_fun,
    free_depth,
    fun_cod,
    fun_dom,
    fun_endpoints,
    prod_map,
)
from .fincat import CommMonoid
from .perms import Perm


@dataclass(frozen=True)
class FreeAlg:
    """Free algebra on a category expression: sequences with erasure."""

    inner: CatExpr

    @property
    def carrier(self) -> CatExpr:
        return Free(self.inner)

    @property
    def structure(self) -> FunExpr:
        return Mu(self.inner)


@dataclass(frozen=True)
class MonoidAlg:
    """Algebra on the discrete category of a commutative monoid."""

    monoid: CommMonoid

    @property
    def carrier(self) -> CatExpr:
        return self.monoid.cat

    @property
    def structure(self) -> FunExpr:
        return MonoidEval(self.monoid)


Algebra = Union[FreeAlg, MonoidAlg]


def _frees(cats: Sequence[CatExpr]) -> tuple[CatExpr, ...]:
    return tuple(Free(c) for c in cats)


def _with_free(cats: Sequence[CatExpr], i: int) -> tuple[CatExpr, ...]:
    out = list(cats)
    out[i - 1] = Free(out[i - 1])
    return tuple(out)


def _at_slot(cats: Sequence[CatExpr], i: int, g: FunExpr) -> FunExpr:
    """The product map on cats that applies g at slot i and identities
    elsewhere."""
    funs = [Identity(c) for c in cats]
    funs[i - 1] = g
    return prod_map(cats, tuple(funs))


def _span(dom: CatExpr, lo: int, hi: int) -> FunExpr:
    """Slots lo..hi of the product dom, as a product (empty when hi < lo)."""
    if hi < lo:
        return Const(dom, Prod(()), ())
    return Tuple(tuple(Proj(dom, k) for k in range(lo, hi + 1)))


def _blockwise(dom: CatExpr, bounds: Sequence[tuple[int, int]],
               funs: Sequence[FunExpr]) -> FunExpr:
    """Feed each block (lo, hi) of the slots of dom through its functor;
    with no blocks, dom is the empty product and this its identity."""
    if not bounds:
        return Identity(dom)
    return Tuple(
        tuple(Compose((_span(dom, lo, hi), g)) for (lo, hi), g in zip(bounds, funs))
    )


def _ungroup(dom: Prod, grouped: Sequence[int]) -> FunExpr:
    """The slots of dom with the factors at the positions in grouped, which
    are products themselves, spread out into their own slots."""
    parts: list[FunExpr] = []
    for k, c in enumerate(dom.factors, start=1):
        if k in grouped:
            parts.extend(Compose((Proj(dom, k), Proj(c, m)))
                         for m in range(1, len(c.factors) + 1))
        else:
            parts.append(Proj(dom, k))
    return Tuple(tuple(parts))


def _route(
    carriers: Sequence[CatExpr], i: int, und: FunExpr, output: Algebra
) -> FunExpr:
    """Route that frees slot i, interleaves, applies und, then acts."""
    return Compose((Strength(carriers, i), ApplyT(und), output.structure))


@dataclass(frozen=True)
class MultiCell:
    """Functor out of a product of carriers plus one constraint per slot.

    The constraint for slot i is a 2-cell between the two ways around the
    slot's structure square; only the boundary categories are checked at
    construction time, the squares themselves are checked pointwise by
    validate_onecell.
    """

    inputs: tuple[Algebra, ...]
    output: Algebra
    underlying: FunExpr
    constraints: tuple[CellExpr, ...]

    def __post_init__(self) -> None:
        if len(self.constraints) != len(self.inputs):
            raise TypecheckError("one constraint per input slot required")
        dom, cod = fun_endpoints(self.underlying)
        if dom != Prod(self.carriers) or cod != self.output.carrier:
            raise TypecheckError("underlying functor has the wrong boundary")
        for i, c in enumerate(self.constraints, start=1):
            if cell_facts(c)[2:] != (Prod(_with_free(self.carriers, i)), cod):
                raise TypecheckError(f"constraint {i} has the wrong boundary")

    @property
    def arity(self) -> int:
        return len(self.inputs)

    @property
    def carriers(self) -> tuple[CatExpr, ...]:
        return tuple(a.carrier for a in self.inputs)

    def square_source(self, i: int) -> FunExpr:
        """Route that frees slot i, interleaves, applies, then acts."""
        return _route(self.carriers, i, self.underlying, self.output)

    def square_target(self, i: int) -> FunExpr:
        """Route that acts on the freed slot first, then applies."""
        free_i = _with_free(self.carriers, i)
        return Compose(
            (_at_slot(free_i, i, self.inputs[i - 1].structure), self.underlying)
        )


@dataclass(frozen=True)
class MultiTwoCell:
    """2-cell between two multicells with the same inputs and output."""

    source: MultiCell
    target: MultiCell
    component: CellExpr

    def __post_init__(self) -> None:
        if self.source.inputs != self.target.inputs:
            raise TypecheckError("two-cell endpoints take different inputs")
        if self.source.output != self.target.output:
            raise TypecheckError("two-cell endpoints land in different algebras")
        want = (Prod(self.source.carriers), self.source.output.carrier)
        if cell_facts(self.component)[2:] != want:
            raise TypecheckError("component has the wrong boundary")


def _fit(bud: Budget, *cats: CatExpr) -> Budget:
    # checks on freed slots live above the ambient nesting level; raise
    # only the nesting cap so sampling and lengths stay comparable
    need = max((free_depth(c) for c in cats), default=0)
    if need > bud.max_nest:
        return replace(bud, max_nest=need)
    return bud


def _square_check(m: MultiCell, i: int, bud: Budget) -> Report:
    src, tgt, dom, _ = cell_facts(m.constraints[i - 1])
    fit = _fit(bud, dom)
    routes = (("source", src, m.square_source(i), "interleave-then-act"),
              ("target", tgt, m.square_target(i), "act-then-apply"))
    points, truncated = 0, False
    for end, side, route, name in routes:
        r = equal_fun(side, route, fit)
        points, truncated = points + r.points, truncated or r.truncated
        if not r.passed:
            return _report(r.kind, points, truncated, (r.counterexample, ""), r.phase,
                           f"constraint {end} differs from the {name} route")
    return _report("equal-fun", points, truncated, None)


def _eta_check(m: MultiCell, i: int, bud: Budget) -> Report:
    carriers = m.carriers
    lhs = WhiskerL(_at_slot(carriers, i, Eta(carriers[i - 1])), m.constraints[i - 1])
    return equal_cell(lhs, IdCell(m.underlying), _fit(bud, Prod(carriers)))


def _mu_check(m: MultiCell, i: int, bud: Budget) -> Report:
    carriers = m.carriers
    a_i = m.inputs[i - 1].structure
    b = m.output.structure
    kappa = m.constraints[i - 1]
    once = _with_free(carriers, i)
    twice = _with_free(once, i)
    lhs = WhiskerL(_at_slot(twice, i, Mu(carriers[i - 1])), kappa)
    upper = WhiskerL(Strength(once, i), WhiskerR(ApplyTCell(kappa), b))
    lower = WhiskerL(_at_slot(twice, i, ApplyT(a_i)), kappa)
    return equal_cell(lhs, VComp((upper, lower)), _fit(bud, Prod(twice)))


def _coherence_check(m: MultiCell, i: int, j: int, bud: Budget) -> Report:
    carriers = m.carriers
    b = m.output.structure
    d_i = _with_free(carriers, i)
    d_j = _with_free(carriers, j)
    d_ij = _with_free(d_i, j)
    k_i, k_j = m.constraints[i - 1], m.constraints[j - 1]
    one = VComp(
        (
            WhiskerL(Strength(d_j, i), WhiskerR(ApplyTCell(k_j), b)),
            WhiskerL(_at_slot(d_ij, j, m.inputs[j - 1].structure), k_i),
        )
    )
    two = VComp(
        (
            WhiskerR(Gamma(carriers, i, j), Compose((ApplyT(m.underlying), b))),
            WhiskerL(Strength(d_i, j), WhiskerR(ApplyTCell(k_i), b)),
            WhiskerL(_at_slot(d_ij, i, m.inputs[i - 1].structure), k_j),
        )
    )
    return equal_cell(one, two, _fit(bud, Prod(d_ij)))


def validate_onecell(m: MultiCell, bud: Budget) -> Report:
    """Check every pseudo-morphism axiom of m pointwise.

    Every sub-check runs: the two boundary routes of each slot square
    (``square[i]``), the unit and multiplication pastings of each slot
    (``eta[i]``, ``mu[i]``) and the interchange coherence of each slot
    pair (``coherence[i,j]``).  Returns their ``bundle``.
    """
    slots = range(1, m.arity + 1)
    return bundle(
        [(f"square[{i}]", _square_check(m, i, bud)) for i in slots]
        + [(f"eta[{i}]", _eta_check(m, i, bud)) for i in slots]
        + [(f"mu[{i}]", _mu_check(m, i, bud)) for i in slots]
        + [(f"coherence[{i},{j}]", _coherence_check(m, i, j, bud))
           for i, j in combinations(slots, 2)]
    )


def validate_twocell(t: MultiTwoCell, bud: Budget) -> Report:
    """Check that the component mediates the two families of constraints.

    Returns the ``bundle`` of the boundary checks (``boundary-source``,
    ``boundary-target``) and one pasting check per slot (``slot[i]``).
    """
    src, tgt = cell_endpoints(t.component)
    carriers = t.source.carriers
    b = t.source.output.structure
    fit0 = _fit(bud, Prod(carriers))
    out: list[tuple[str, Report]] = [
        ("boundary-source", equal_fun(src, t.source.underlying, fit0)),
        ("boundary-target", equal_fun(tgt, t.target.underlying, fit0)),
    ]
    for i in range(1, t.source.arity + 1):
        d_i = _with_free(carriers, i)
        clear = _at_slot(d_i, i, t.source.inputs[i - 1].structure)
        one = VComp((t.source.constraints[i - 1], WhiskerL(clear, t.component)))
        two = VComp(
            (
                WhiskerL(Strength(carriers, i), WhiskerR(ApplyTCell(t.component), b)),
                t.target.constraints[i - 1],
            )
        )
        out.append((f"slot[{i}]", equal_cell(one, two, _fit(bud, Prod(d_i)))))
    return bundle(out)


def multicell_equal(m1: MultiCell, m2: MultiCell, bud: Budget) -> Report:
    """Pointwise equality of two multicells with the same signature: the
    ``bundle`` of the underlying functors' check (``underlying``) and one
    check per slot constraint (``constraint[i]``)."""
    if m1.inputs != m2.inputs or m1.output != m2.output:
        raise TypecheckError("multicells have different signatures")
    out = [
        (
            "underlying",
            equal_fun(m1.underlying, m2.underlying, _fit(bud, Prod(m1.carriers))),
        )
    ]
    for i in range(1, m1.arity + 1):
        dom = Prod(_with_free(m1.carriers, i))
        out.append(
            (
                f"constraint[{i}]",
                equal_cell(m1.constraints[i - 1], m2.constraints[i - 1], _fit(bud, dom)),
            )
        )
    return bundle(out)


def identity_cell(alg: Algebra) -> MultiCell:
    """Unary cell projecting the single slot, with a strict constraint."""
    und = Proj(Prod((alg.carrier,)), 1)
    return MultiCell((alg,), alg, und, (IdCell(_route((alg.carrier,), 1, und, alg)),))


def identity_twocell(m: MultiCell) -> MultiTwoCell:
    return MultiTwoCell(m, m, IdCell(m.underlying))


def omega_cell(inners: Sequence[CatExpr]) -> MultiCell:
    """Interleaving cell: the grid in slot order, first slot slowest.

    For two slots the second constraint is the inverse interchange
    whiskered into the flattening; for more slots the constraints come
    from composing the two-slot cell blockwise and pushing along the
    product flattening, while the functor itself stays the direct grid.
    """
    inners = tuple(inners)
    n = len(inners)
    prod = Prod(inners)
    out = FreeAlg(prod)
    und = Omega(inners)
    cons: tuple[CellExpr, ...] = ()
    if n > 2:
        head, last = inners[:-1], inners[-1]
        rec = gamma_compose(
            omega_cell((Prod(head), last)),
            (omega_cell(head), identity_cell(FreeAlg(last))),
        )
        flat = ApplyT(_ungroup(Prod((Prod(head), last)), (1,)))
        cons = tuple(WhiskerR(c, flat) for c in rec.constraints)
    elif n:
        cons = (IdCell(_route(_frees(inners), 1, und, out)),)
    if n == 2:
        cons += (
            WhiskerR(
                Gamma((inners[0], Free(inners[1])), 2, 1),
                Compose((ApplyT(Strength(inners, 2)), Mu(prod))),
            ),
        )
    return MultiCell(tuple(FreeAlg(a) for a in inners), out, und, cons)


def _block_bounds(sizes: Sequence[int]) -> list[tuple[int, int]]:
    out = []
    lo = 1
    for k in sizes:
        out.append((lo, lo + k - 1))
        lo += k
    return out


def gamma_compose(f: MultiCell, gs: Sequence[MultiCell]) -> MultiCell:
    """Blockwise composite: input j of f is fed by the output of gs[j-1].

    The constraint at a global slot pastes the constraint of its block
    cell, pushed through the other blocks, with the constraint of f at
    the block's position.
    """
    gs = tuple(gs)
    if len(gs) != f.arity:
        raise TypecheckError("block count does not match the outer arity")
    for j, g in enumerate(gs, start=1):
        if g.output != f.inputs[j - 1]:
            raise TypecheckError(f"block {j} does not land in outer input {j}")
    inputs = tuple(a for g in gs for a in g.inputs)
    carriers = tuple(a.carrier for a in inputs)
    bounds = _block_bounds([g.arity for g in gs])
    und = Compose((_blockwise(Prod(carriers), bounds, [g.underlying for g in gs]),
                   f.underlying))
    cons: list[CellExpr] = []
    for j, ((lo_j, _), g_j) in enumerate(zip(bounds, gs), start=1):
        for d in range(1, g_j.arity + 1):
            dom_s = Prod(_with_free(carriers, lo_j + d - 1))
            pre_parts: list[FunExpr] = []
            ctx_parts: list[CellExpr] = []
            for t, ((lo, hi), g) in enumerate(zip(bounds, gs), start=1):
                bp = _span(dom_s, lo, hi)
                if t != j:
                    through = Compose((bp, g.underlying))
                    pre_parts.append(through)
                    ctx_parts.append(IdCell(through))
                else:
                    pre_parts.append(
                        Compose((bp, Strength(g.carriers, d), ApplyT(g.underlying)))
                    )
                    ctx_parts.append(WhiskerL(bp, g.constraints[d - 1]))
            cell1 = WhiskerL(Tuple(tuple(pre_parts)), f.constraints[j - 1])
            cell2 = WhiskerR(TupleCell(tuple(ctx_parts)), f.underlying)
            cons.append(VComp((cell1, cell2)))
    return MultiCell(inputs, f.output, und, tuple(cons))


def gamma_compose_cell(
    alpha: MultiTwoCell, betas: Sequence[MultiTwoCell]
) -> MultiTwoCell:
    """Blockwise composite of 2-cells over gamma_compose of their ends."""
    betas = tuple(betas)
    src = gamma_compose(alpha.source, tuple(b.source for b in betas))
    tgt = gamma_compose(alpha.target, tuple(b.target for b in betas))
    if alpha.source.arity == 0:
        return MultiTwoCell(src, tgt, alpha.component)
    dom = Prod(src.carriers)
    bounds = _block_bounds([b.source.arity for b in betas])
    block_cells = tuple(
        WhiskerL(_span(dom, lo, hi), b.component) for (lo, hi), b in zip(bounds, betas)
    )
    prodg_t = _blockwise(dom, bounds, [b.target.underlying for b in betas])
    comp = VComp(
        (
            WhiskerR(TupleCell(block_cells), alpha.source.underlying),
            WhiskerL(prodg_t, alpha.component),
        )
    )
    return MultiTwoCell(src, tgt, comp)


def sigma_act(m: MultiCell, sigma: Perm) -> MultiCell:
    """Permute the slots: slot l of the result is slot sigma(l) of m."""
    if sigma.degree != m.arity:
        raise TypecheckError("permutation degree does not match the arity")
    if sigma == perms.identity(m.arity):
        return m
    inv = perms.invert(sigma)
    inputs = perms.permute(m.inputs, sigma)
    carriers = tuple(a.carrier for a in inputs)
    und = Compose((Shuffle(Prod(carriers), inv), m.underlying))
    cons = tuple(
        WhiskerL(
            Shuffle(Prod(_with_free(carriers, l)), inv),
            m.constraints[sigma(l) - 1],
        )
        for l in range(1, m.arity + 1)
    )
    return MultiCell(inputs, m.output, und, cons)


def sigma_act_cell(t: MultiTwoCell, sigma: Perm) -> MultiTwoCell:
    if sigma == perms.identity(sigma.degree):
        return t
    src = sigma_act(t.source, sigma)
    tgt = sigma_act(t.target, sigma)
    comp = WhiskerL(Shuffle(Prod(src.carriers), perms.invert(sigma)), t.component)
    return MultiTwoCell(src, tgt, comp)


def free_multi(f: FunExpr) -> MultiCell:
    """Free cell of a functor out of a product: interleave, then apply."""
    dom = fun_dom(f)
    if not isinstance(dom, Prod):
        raise TypecheckError("free_multi needs a functor out of a product")
    walk = omega_cell(dom.factors)
    return walk if f == Identity(dom) else postcompose_free(walk, f)


def shuffle_into(factors: Sequence[CatExpr], sigma: Perm) -> FunExpr:
    """Relabelling from the sigma-permuted product back to slot order."""
    return Shuffle(Prod(perms.permute(tuple(factors), sigma)), perms.invert(sigma))


def _with_perm(f: FunExpr, p: Perm) -> FunExpr:
    if p == perms.identity(p.degree):
        return f
    return Compose((shuffle_into(fun_dom(f).factors, p), f))


def pseudo_sym(f: FunExpr, sigma: Perm, word: Sequence[int] | None = None) -> MultiTwoCell:
    """Comparison cell from the free cell of the slot-permuted functor to
    the permuted free cell, pasted from adjacent interchanges.

    The pasting follows a reduced word for sigma (lexicographically least
    by default); any word spelling sigma gives a pointwise equal cell.
    """
    dom = fun_dom(f)
    if not isinstance(dom, Prod):
        raise TypecheckError("pseudo_sym needs a functor out of a product")
    inners = dom.factors
    n = len(inners)
    if sigma.degree != n:
        raise TypecheckError("permutation degree does not match the product")
    if word is None:
        word = () if sigma == perms.identity(n) else min(perms.reduced_words(sigma))
    word = tuple(word)
    if perms.word_to_perm(n, word) != sigma:
        raise ValueError("word does not spell the permutation")
    if not word:
        return identity_twocell(free_multi(f))
    frees = _frees(inners)
    comp: CellExpr | None = None
    p = perms.identity(n)
    for i in word:
        s = perms.transposition(n, i)
        g_cell = WhiskerR(
            _swap_cell(perms.permute(inners, p), s, i), ApplyT(_with_perm(f, p))
        )
        p = perms.compose(p, s)
        if comp is None:
            comp = g_cell
        else:
            shuf = Shuffle(Prod(perms.permute(frees, p)), s)
            comp = VComp((g_cell, WhiskerL(shuf, comp)))
    return MultiTwoCell(
        free_multi(_with_perm(f, sigma)),
        sigma_act(free_multi(f), sigma),
        comp,
    )


def omega_sigma_fun(inners: Sequence[CatExpr], sigma: Perm) -> FunExpr:
    """Interleaving that walks the grid in sigma order but keeps the
    entries labelled in slot order."""
    inners = tuple(inners)
    if sigma == perms.identity(len(inners)):
        return Omega(inners)
    permuted = perms.permute(inners, sigma)
    return Compose(
        (
            Shuffle(Prod(_frees(inners)), sigma),
            Omega(permuted),
            ApplyT(Shuffle(Prod(permuted), perms.invert(sigma))),
        )
    )


def _swap_cell(inners: tuple[CatExpr, ...], sigma: Perm, i: int) -> CellExpr:
    # interchange of the adjacent pair (i, i+1) of the sigma-ordered walk,
    # out of the sigma-permuted free factors, relabelled back to slot order
    permuted = perms.permute(inners, sigma)
    dpp = Prod(_frees(permuted))
    pair = permuted[i - 1 : i + 1]
    parts = (
        tuple(IdCell(Proj(dpp, l)) for l in range(1, i))
        + (WhiskerL(_span(dpp, i, i + 1), Gamma(pair)),)
        + tuple(IdCell(Proj(dpp, l)) for l in range(i + 2, len(inners) + 1))
    )
    op = Prod(permuted[: i - 1] + (Prod(pair),) + permuted[i + 1 :])
    relabel = Compose((_ungroup(op, (i,)), shuffle_into(inners, sigma)))
    return WhiskerR(TupleCell(parts), Compose((Omega(op.factors), ApplyT(relabel))))


def _cover_cell(inners: tuple[CatExpr, ...], sigma: Perm, i: int) -> CellExpr:
    # the swap cell on the unpermuted domain shared by all walks
    return WhiskerL(Shuffle(Prod(_frees(inners)), sigma), _swap_cell(inners, sigma, i))


def bruhat_omega(inners: Sequence[CatExpr]) -> dict:
    """Every sigma-interleaving together with one interchange cell per
    covering pair of the weak right order."""
    inners = tuple(inners)
    n = len(inners)
    objects = {s: omega_sigma_fun(inners, s) for s in perms.all_perms(n)}
    covers = {
        (s, i): _cover_cell(inners, s, i)
        for s in perms.all_perms(n)
        for i in range(1, n)
        if perms.is_weak_right_cover(s, i)
    }
    return {"objects": objects, "covers": covers}


def phi_T(f: FunExpr, sigma: Perm) -> MultiCell:
    """Free cell adjusted so the slots are consumed in sigma order."""
    if sigma == perms.identity(sigma.degree):
        return free_multi(f)
    return sigma_act(free_multi(_with_perm(f, perms.invert(sigma))), sigma)


def phi_T_cell(f: FunExpr, sigma: Perm, tau: Perm) -> MultiTwoCell:
    """Comparison cell from the sigma-adjusted to the tau-adjusted cell."""
    base = pseudo_sym(
        _with_perm(f, perms.invert(tau)),
        perms.compose(tau, perms.invert(sigma)),
    )
    acted = sigma_act_cell(base, sigma)
    return MultiTwoCell(phi_T(f, sigma), phi_T(f, tau), acted.component)


def structure_cell(alg: Algebra) -> MultiCell:
    """The structure map of an algebra as a unary cell out of the free
    algebra on its carrier.  Its square commutes on the nose (it is the
    multiplication law of the algebra), so the constraint is strict."""
    dom = Prod((Free(alg.carrier),))
    und = Compose((Proj(dom, 1), alg.structure))
    route = _route(dom.factors, 1, und, alg)
    return MultiCell((FreeAlg(alg.carrier),), alg, und, (IdCell(route),))


def monoid_algebra_eval(alg: MonoidAlg, entries) -> object:
    """Fold a free sequence into the monoid."""
    items = getattr(entries, "entries", None)
    if items is None:
        items = tuple(entries)
    return alg.monoid.fold(items)


def postcompose_free(m: MultiCell, st: FunExpr) -> MultiCell:
    """Push a multicell with free output along a functor between the
    generating categories."""
    if not isinstance(m.output, FreeAlg):
        raise TypecheckError("postcompose_free needs a free output")
    if fun_dom(st) != m.output.inner:
        raise TypecheckError("functor does not start at the output generator")
    und = Compose((m.underlying, ApplyT(st)))
    cons = tuple(WhiskerR(c, ApplyT(st)) for c in m.constraints)
    return MultiCell(m.inputs, FreeAlg(fun_cod(st)), und, cons)
