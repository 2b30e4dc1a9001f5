"""Expression trees for categories, functors and 2-cells, plus a bounded
pointwise equality checker.

Category expressions are built from finite base categories with flat n-ary
products and the free symmetric monoidal construction; functor expressions
name the structural maps (projections, shuffles, eta, mu, strengths, the
interleavings) and compose in diagrammatic order; cell expressions paste
interchange cells with whiskering, vertical, and horizontal composition.

Equality of functors or 2-cells is decided pointwise over a deterministic
bounded enumeration of the domain: smallest inputs first, so the first
reported counterexample is a minimal one.  When the space is larger than
the point budget, a seeded uniform sample is checked and the report says
so.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache, partial, wraps
from typing import Optional, Union

from .fincat import CommMonoid, FinCat, FunTable
from .freesmc import (
    BaseLevel,
    FreeLevel,
    Fun,
    Level,
    ProdLevel,
    SeqMor,
    SeqObj,
    eta,
    eta_mor,
    gamma_ij_component,
    mu,
    mu_mor,
    omega_n,
    omega_n_mor,
    seq,
    strength_ti,
    strength_ti_mor,
    tmap,
)
from .perms import Perm, all_perms, permute
from .perms import identity as perm_identity


class CalcError(Exception):
    pass


class TypecheckError(CalcError):
    pass


class BudgetError(CalcError):
    pass


# ------------------------------------------------------------- categories


@dataclass(frozen=True)
class CatBase:
    cat: FinCat


@dataclass(frozen=True)
class Prod:
    factors: tuple


@dataclass(frozen=True)
class Free:
    inner: "CatExpr"


CatExpr = Union[CatBase, Prod, Free]
UNIT = Prod(())


def free_depth(c: CatExpr) -> int:
    if isinstance(c, CatBase):
        return 0
    if isinstance(c, Prod):
        return max((free_depth(f) for f in c.factors), default=0)
    return 1 + free_depth(c.inner)


@lru_cache(maxsize=None)
def level_of(c: CatExpr) -> Level:
    if isinstance(c, CatBase):
        return BaseLevel(c.cat)
    if isinstance(c, Prod):
        return ProdLevel(tuple(level_of(f) for f in c.factors))
    if isinstance(c, Free):
        return FreeLevel(level_of(c.inner))
    raise TypecheckError(f"not a category expression: {c!r}")


# ------------------------------------------------------------- functors


@dataclass(frozen=True)
class Identity:
    cat: CatExpr


@dataclass(frozen=True)
class Compose:
    parts: tuple


@dataclass(frozen=True)
class Tuple:
    parts: tuple


@dataclass(frozen=True)
class Proj:
    prod: Prod
    k: int


@dataclass(frozen=True)
class Shuffle:
    prod: Prod
    perm: Perm


@dataclass(frozen=True)
class ApplyT:
    inner: "FunExpr"


@dataclass(frozen=True)
class Eta:
    cat: CatExpr


@dataclass(frozen=True)
class Mu:
    cat: CatExpr


@dataclass(frozen=True)
class Strength:
    slots: tuple
    i: int


@dataclass(frozen=True)
class Omega:
    inners: tuple


@dataclass(frozen=True)
class FunBase:
    table: FunTable


@dataclass(frozen=True)
class Const:
    dom: CatExpr
    cod: CatExpr
    obj: object


@dataclass(frozen=True)
class MonoidEval:
    monoid: CommMonoid


@dataclass(frozen=True)
class MonoidMult:
    monoid: CommMonoid
    n: int


FunExpr = Union[
    Identity, Compose, Tuple, Proj, Shuffle, ApplyT, Eta, Mu, Strength, Omega,
    FunBase, Const, MonoidEval, MonoidMult,
]


def fun_endpoints(f: FunExpr, path: str = "") -> tuple:
    """Domain and codomain category expressions; raises TypecheckError with
    the offending subexpression path on mismatch."""
    where = path or type(f).__name__
    if isinstance(f, Identity):
        return f.cat, f.cat
    if isinstance(f, Compose):
        if not f.parts:
            raise TypecheckError(f"{where}: empty composition")
        ends = [fun_endpoints(p, f"{where}[{k}]") for k, p in enumerate(f.parts)]
        for k in range(len(ends) - 1):
            if ends[k][1] != ends[k + 1][0]:
                raise TypecheckError(
                    f"{where}[{k + 1}]: composition endpoints do not meet"
                )
        return ends[0][0], ends[-1][1]
    if isinstance(f, Tuple):
        if not f.parts:
            raise TypecheckError(f"{where}: empty tuple has no domain")
        ends = [fun_endpoints(p, f"{where}[{k}]") for k, p in enumerate(f.parts)]
        dom = ends[0][0]
        for k, (d, _) in enumerate(ends):
            if d != dom:
                raise TypecheckError(f"{where}[{k}]: tuple factors need one domain")
        return dom, Prod(tuple(c for _, c in ends))
    if isinstance(f, Proj):
        if not isinstance(f.prod, Prod):
            raise TypecheckError(f"{where}: projection needs a product domain")
        if not 1 <= f.k <= len(f.prod.factors):
            raise TypecheckError(f"{where}: projection index out of range")
        return f.prod, f.prod.factors[f.k - 1]
    if isinstance(f, Shuffle):
        if not isinstance(f.prod, Prod):
            raise TypecheckError(f"{where}: shuffle needs a product domain")
        if f.perm.degree != len(f.prod.factors):
            raise TypecheckError(f"{where}: shuffle degree mismatch")
        return f.prod, Prod(permute(f.prod.factors, f.perm))
    if isinstance(f, ApplyT):
        d, c = fun_endpoints(f.inner, f"{where}.inner")
        return Free(d), Free(c)
    if isinstance(f, Eta):
        return f.cat, Free(f.cat)
    if isinstance(f, Mu):
        return Free(Free(f.cat)), Free(f.cat)
    if isinstance(f, Strength):
        n = len(f.slots)
        if not 1 <= f.i <= n:
            raise TypecheckError(f"{where}: strength slot out of range")
        dom = Prod(
            tuple(Free(s) if k == f.i - 1 else s for k, s in enumerate(f.slots))
        )
        return dom, Free(Prod(f.slots))
    if isinstance(f, Omega):
        return Prod(tuple(Free(a) for a in f.inners)), Free(Prod(f.inners))
    if isinstance(f, FunBase):
        return CatBase(f.table.domain), CatBase(f.table.codomain)
    if isinstance(f, Const):
        return f.dom, f.cod
    if isinstance(f, MonoidEval):
        base = CatBase(f.monoid.cat)
        return Free(base), base
    if isinstance(f, MonoidMult):
        if f.n < 0:
            raise TypecheckError(f"{where}: negative multiplication arity")
        base = CatBase(f.monoid.cat)
        return Prod((base,) * f.n), base
    raise TypecheckError(f"{where}: not a functor expression")


@lru_cache(maxsize=None)
def _fun_endpoints_cached(f: FunExpr) -> tuple:
    return fun_endpoints(f)


@lru_cache(maxsize=None)
def _cell_endpoints_cached(e) -> tuple:
    return cell_endpoints(e)


def fun_dom(f: FunExpr) -> CatExpr:
    return _fun_endpoints_cached(f)[0]


def fun_cod(f: FunExpr) -> CatExpr:
    return _fun_endpoints_cached(f)[1]


def prod_map(doms: tuple, funs: tuple) -> FunExpr:
    """The componentwise map on a product: factor k projects then applies
    funs[k]."""
    p = Prod(tuple(doms))
    return Tuple(tuple(Compose((Proj(p, k + 1), g)) for k, g in enumerate(funs)))


# ------------------------------------------------------------- cells


@dataclass(frozen=True)
class IdCell:
    fun: FunExpr


@dataclass(frozen=True)
class Gamma:
    slots: tuple
    i: int = 1
    j: int = 2
    partition: object = "canonical"


@dataclass(frozen=True)
class GammaInv:
    slots: tuple
    i: int = 1
    j: int = 2
    partition: object = "canonical"


@dataclass(frozen=True)
class VComp:
    parts: tuple


@dataclass(frozen=True)
class HComp:
    first: "CellExpr"
    second: "CellExpr"


@dataclass(frozen=True)
class WhiskerL:
    fun: FunExpr
    cell: "CellExpr"


@dataclass(frozen=True)
class WhiskerR:
    cell: "CellExpr"
    fun: FunExpr


@dataclass(frozen=True)
class ApplyTCell:
    cell: "CellExpr"


@dataclass(frozen=True)
class TupleCell:
    parts: tuple


CellExpr = Union[
    IdCell, Gamma, GammaInv, VComp, HComp, WhiskerL, WhiskerR, ApplyTCell, TupleCell
]

CELL_TYPES = (
    IdCell, Gamma, GammaInv, VComp, HComp, WhiskerL, WhiskerR, ApplyTCell, TupleCell
)


def gamma_source(slots: tuple, i: int, j: int) -> FunExpr:
    """The 1-cell that interleaves slot i before slot j: apply the strength
    at slot i with slot j still free, then the freed strength at slot j,
    then flatten."""
    with_free_j = tuple(Free(s) if k == j - 1 else s for k, s in enumerate(slots))
    return Compose(
        (
            Strength(with_free_j, i),
            ApplyT(Strength(tuple(slots), j)),
            Mu(Prod(tuple(slots))),
        )
    )


def gamma_target(slots: tuple, i: int, j: int) -> FunExpr:
    return gamma_source(slots, j, i)


def cell_endpoints(e: CellExpr, path: str = "") -> tuple:
    """Source and target functor expressions of a cell.

    Vertical composition only requires the meeting functors to share
    endpoint categories; whether the 1-cells themselves agree is checked
    extensionally by equal_cell, matching how pasting diagrams are read up
    to strictly commuting squares.
    """
    where = path or type(e).__name__
    if isinstance(e, IdCell):
        fun_endpoints(e.fun, f"{where}.fun")
        return e.fun, e.fun
    if isinstance(e, Gamma):
        _check_gamma(e, where)
        return (
            gamma_source(e.slots, e.i, e.j),
            gamma_target(e.slots, e.i, e.j),
        )
    if isinstance(e, GammaInv):
        _check_gamma(e, where)
        return (
            gamma_source(e.slots, e.j, e.i),
            gamma_target(e.slots, e.j, e.i),
        )
    if isinstance(e, VComp):
        if not e.parts:
            raise TypecheckError(f"{where}: empty vertical composition")
        ends = [cell_endpoints(p, f"{where}[{k}]") for k, p in enumerate(e.parts)]
        cats = [
            (fun_endpoints(s, f"{where}[{k}].src")) for k, (s, _) in enumerate(ends)
        ]
        for k in range(len(ends) - 1):
            if cats[k] != cats[k + 1]:
                raise TypecheckError(
                    f"{where}[{k + 1}]: vertical composition across different"
                    " hom-categories"
                )
        return ends[0][0], ends[-1][1]
    if isinstance(e, HComp):
        s1, t1 = cell_endpoints(e.first, f"{where}.first")
        s2, t2 = cell_endpoints(e.second, f"{where}.second")
        if fun_cod(s1) != fun_dom(s2):
            raise TypecheckError(f"{where}: horizontal composition endpoints")
        return Compose((s1, s2)), Compose((t1, t2))
    if isinstance(e, WhiskerL):
        s, t = cell_endpoints(e.cell, f"{where}.cell")
        if fun_cod(e.fun) != fun_dom(s):
            raise TypecheckError(f"{where}: left whisker endpoints")
        return Compose((e.fun, s)), Compose((e.fun, t))
    if isinstance(e, WhiskerR):
        s, t = cell_endpoints(e.cell, f"{where}.cell")
        if fun_cod(s) != fun_dom(e.fun):
            raise TypecheckError(f"{where}: right whisker endpoints")
        return Compose((s, e.fun)), Compose((t, e.fun))
    if isinstance(e, ApplyTCell):
        s, t = cell_endpoints(e.cell, f"{where}.cell")
        return ApplyT(s), ApplyT(t)
    if isinstance(e, TupleCell):
        if not e.parts:
            raise TypecheckError(f"{where}: empty tuple cell")
        ends = [cell_endpoints(p, f"{where}[{k}]") for k, p in enumerate(e.parts)]
        doms = [fun_dom(s) for s, _ in ends]
        if len(set(doms)) != 1:
            raise TypecheckError(f"{where}: tuple cell factors need one domain")
        return (
            Tuple(tuple(s for s, _ in ends)),
            Tuple(tuple(t for _, t in ends)),
        )
    raise TypecheckError(f"{where}: not a cell expression")


def _check_gamma(e, where):
    n = len(e.slots)
    if e.i == e.j or not (1 <= e.i <= n and 1 <= e.j <= n):
        raise TypecheckError(f"{where}: interchange slots out of range")
    if e.partition != "canonical":
        b1, b2, b3 = e.partition
        p, q = min(e.i, e.j), max(e.i, e.j)
        if not (0 <= b1 < p <= b2 < q <= b3 <= n):
            raise TypecheckError(f"{where}: partition does not isolate the slots")


def typecheck(e) -> tuple:
    """Endpoints of a functor or cell expression."""
    if isinstance(e, CELL_TYPES):
        return cell_endpoints(e)
    return fun_endpoints(e)


# ------------------------------------------------------------- budget


@dataclass(frozen=True)
class Budget:
    max_seq_len: int = 3
    max_nest: int = 2
    max_points: int = 20000
    seed: int = 0

    def __post_init__(self):
        if min(self.max_seq_len, self.max_points) < 1 or self.max_nest < 0:
            raise ValueError("budget fields must be positive")


@lru_cache(maxsize=None)
def count_objects(c: CatExpr, bud: Budget) -> int:
    if isinstance(c, CatBase):
        return len(c.cat.objects)
    if isinstance(c, Prod):
        total = 1
        for f in c.factors:
            total *= count_objects(f, bud)
        return total
    s = count_objects(c.inner, bud)
    return sum(s**l for l in range(bud.max_seq_len + 1))


@lru_cache(maxsize=None)
def count_morphisms(c: CatExpr, bud: Budget) -> int:
    if isinstance(c, CatBase):
        return len(c.cat.all_morphisms())
    if isinstance(c, Prod):
        total = 1
        for f in c.factors:
            total *= count_morphisms(f, bud)
        return total
    m = count_morphisms(c.inner, bud)
    return sum(math.factorial(l) * m**l for l in range(bud.max_seq_len + 1))


def _digits(index: int, base: int, width: int) -> list:
    out = [0] * width
    for k in range(width - 1, -1, -1):
        index, out[k] = divmod(index, base)
    return out


def _part(at, c: CatExpr, bud: Budget, index: int, table):
    """at(c, bud, index), built once per enumeration when a table is
    given: the table maps (id(c), index) to the value."""
    if table is None:
        return at(c, bud, index)
    key = (id(c), index)
    value = table.get(key)
    if value is None:
        value = table[key] = at(c, bud, index, table)
    return value


def object_at(c: CatExpr, bud: Budget, index: int, table=None):
    if isinstance(c, CatBase):
        return c.cat.objects[index]
    if isinstance(c, Prod):
        vals = []
        counts = [count_objects(f, bud) for f in c.factors]
        for k, f in enumerate(c.factors):
            rest = math.prod(counts[k + 1 :])
            d, index = divmod(index, rest)
            vals.append(_part(object_at, f, bud, d, table))
        return tuple(vals)
    s = count_objects(c.inner, bud)
    for l in range(bud.max_seq_len + 1):
        blocksize = s**l
        if index < blocksize:
            digits = _digits(index, s, l) if l else []
            return seq(tuple(_part(object_at, c.inner, bud, d, table) for d in digits))
        index -= blocksize
    raise IndexError("object index out of range")


def morphism_at(c: CatExpr, bud: Budget, index: int, table=None):
    if isinstance(c, CatBase):
        return c.cat.all_morphisms()[index]
    if isinstance(c, Prod):
        vals = []
        counts = [count_morphisms(f, bud) for f in c.factors]
        for k, f in enumerate(c.factors):
            rest = math.prod(counts[k + 1 :])
            d, index = divmod(index, rest)
            vals.append(_part(morphism_at, f, bud, d, table))
        return tuple(vals)
    m = count_morphisms(c.inner, bud)
    lev = level_of(c.inner)
    for l in range(bud.max_seq_len + 1):
        blocksize = math.factorial(l) * m**l
        if index < blocksize:
            perm_idx, rest = divmod(index, m**l)
            perm = all_perms(l)[perm_idx]
            comps = tuple(
                _part(morphism_at, c.inner, bud, d, table)
                for d in (_digits(rest, m, l) if l else [])
            )
            source = seq(tuple(lev.src(x) for x in comps))
            target = [None] * l
            for i in range(1, l + 1):
                target[perm(i) - 1] = lev.tgt(comps[i - 1])
            return SeqMor(source, seq(tuple(target)), perm, comps)
        index -= blocksize
    raise IndexError("morphism index out of range")


def _obj_size(v) -> int:
    if isinstance(v, SeqObj):
        return 1 + sum(_obj_size(e) for e in v.entries)
    if isinstance(v, tuple):
        return sum(_obj_size(e) for e in v)
    return 1


def _mor_size(m) -> int:
    if isinstance(m, SeqMor):
        return 1 + sum(_mor_size(c) for c in m.components)
    if isinstance(m, tuple):
        return sum(_mor_size(c) for c in m)
    return 1


def _indices(total: int, bud: Budget):
    if total <= bud.max_points:
        return range(total), False
    rng = random.Random(bud.seed)
    try:
        picked = rng.sample(range(total), bud.max_points)
    except OverflowError:
        # totals past ssize_t cannot back a range-based sample; with the
        # population that sparse, seeded draws collide rarely enough that
        # rejection sampling stays cheap
        seen: set = set()
        while len(seen) < bud.max_points:
            seen.add(rng.randrange(total))
        picked = list(seen)
    return sorted(picked), True


def _check_nest(c: CatExpr, bud: Budget):
    d = free_depth(c)
    if d > bud.max_nest:
        raise BudgetError(f"nesting depth {d} exceeds budget {bud.max_nest}")


def enumerate_objects(c: CatExpr, bud: Budget):
    """All objects (or a seeded sample when over budget), smallest first.
    Each component object is built once and shared by every point that
    contains it."""
    _check_nest(c, bud)
    idxs, truncated = _indices(count_objects(c, bud), bud)
    table: dict = {}
    vals = [object_at(c, bud, i, table) for i in idxs]
    vals.sort(key=_obj_size)
    return vals, truncated


def enumerate_morphisms(c: CatExpr, bud: Budget):
    _check_nest(c, bud)
    idxs, truncated = _indices(count_morphisms(c, bud), bud)
    table: dict = {}
    vals = [morphism_at(c, bud, i, table) for i in idxs]
    vals.sort(key=_mor_size)
    return vals, truncated


# ------------------------------------------------------------- evaluation
#
# Each node type maps to its actions in one table: the object and morphism
# actions of a functor, the component of a cell.  The actions recurse
# through eval_fun, eval_fun_mor and eval_cell and reach the sequence
# kernels by their module-level names at call time.


def eval_fun(f: FunExpr, x):
    """Apply a functor expression to an object of its domain."""
    actions = _FUN_ACTIONS.get(type(f))
    if actions is None:
        raise TypecheckError(f"not a functor expression: {f!r}")
    return actions[0](f, x)


def eval_fun_mor(f: FunExpr, m):
    """Apply a functor expression to a morphism of its domain."""
    actions = _FUN_ACTIONS.get(type(f))
    if actions is None:
        raise TypecheckError(f"not a functor expression: {f!r}")
    return actions[1](f, m)


def _compose_obj(f: Compose, x):
    for part in f.parts:
        x = eval_fun(part, x)
    return x


def _compose_mor(f: Compose, m):
    for part in f.parts:
        m = eval_fun_mor(part, m)
    return m


def _strength_mor(f: Strength, m):
    # strength_ti_mor never reads the level of the freed slot, so the
    # slots' own levels serve
    levels = tuple([level_of(c) for c in f.slots])
    return strength_ti_mor(levels, len(f.slots), f.i, m)


def _monoid_mult_mor(f: MonoidMult, m):
    sources = tuple(f.monoid.cat.src(c) for c in m)
    return f.monoid.cat.identity(f.monoid.fold(sources))


# While a law check runs: id(inner) -> (inner, its memoized entrywise
# actions).  Holding inner keeps its id from being reused during the check.
_entry_table: Optional[dict] = None


def _tfun(inner: FunExpr) -> Fun:
    """The entrywise actions of inner, looked up once for a whole sequence.
    While a check runs they are memoized, so each distinct entry is
    evaluated once per check."""
    table = _entry_table
    if table is not None:
        hit = table.get(id(inner))
        if hit is not None:
            return hit[1]
    actions = _FUN_ACTIONS.get(type(inner))
    if actions is None:
        raise TypecheckError(f"not a functor expression: {inner!r}")
    on_obj, on_mor = partial(actions[0], inner), partial(actions[1], inner)
    if table is None:
        return Fun(on_obj, on_mor)
    # entries that hold sequence morphisms seldom repeat, so only base
    # morphisms and tuples of them are kept
    if free_depth(fun_dom(inner)) == 0:
        on_mor = _memoized(on_mor)
    fun = Fun(_memoized(on_obj), on_mor)
    table[id(inner)] = (inner, fun)
    return fun


def _memoized(action):
    """action with its results kept by argument; a call that raises keeps
    nothing, so it raises again at the next point."""
    results: dict = {}

    def memo(v):
        out = results.get(v)
        if out is None:
            out = results[v] = action(v)
        return out

    return memo


_FUN_ACTIONS = {
    Identity: (lambda f, x: x, lambda f, m: m),
    Compose: (_compose_obj, _compose_mor),
    Tuple: (
        lambda f, x: tuple([eval_fun(p, x) for p in f.parts]),
        lambda f, m: tuple([eval_fun_mor(p, m) for p in f.parts]),
    ),
    Proj: (lambda f, x: x[f.k - 1], lambda f, m: m[f.k - 1]),
    Shuffle: (lambda f, x: permute(x, f.perm), lambda f, m: permute(m, f.perm)),
    ApplyT: (
        lambda f, x: tmap(_tfun(f.inner), x),
        lambda f, m: tmap(_tfun(f.inner), m),
    ),
    Eta: (lambda f, x: eta(x), lambda f, m: eta_mor(level_of(f.cat), m)),
    Mu: (lambda f, x: mu(x), lambda f, m: mu_mor(m)),
    Strength: (lambda f, x: strength_ti(len(f.slots), f.i, x), _strength_mor),
    Omega: (lambda f, x: omega_n(x), lambda f, m: omega_n_mor(m)),
    FunBase: (lambda f, x: f.table.on_obj(x), lambda f, m: f.table.on_mor(m)),
    Const: (lambda f, x: f.obj, lambda f, m: level_of(f.cod).identity(f.obj)),
    MonoidEval: (
        lambda f, x: f.monoid.fold(x.entries),
        lambda f, m: f.monoid.cat.identity(f.monoid.fold(m.source.entries)),
    ),
    MonoidMult: (lambda f, x: f.monoid.fold(x), _monoid_mult_mor),
}


def eval_cell(e: CellExpr, x, hcomp_order: int = 1):
    """Component of a 2-cell at an object of its source's domain."""
    component = _CELL_ACTIONS.get(type(e))
    if component is None:
        raise TypecheckError(f"not a cell expression: {e!r}")
    return component(e, x, hcomp_order)


def _gamma_component(e, x, i: int, j: int):
    levels = tuple([level_of(s) for s in e.slots])
    return gamma_ij_component(levels, len(e.slots), i, j, x, e.partition)


def _vcomp_component(e: VComp, x, hcomp_order: int):
    src, _ = _cell_endpoints_cached(e)
    lev = level_of(fun_cod(src))
    acc = eval_cell(e.parts[0], x, hcomp_order)
    for part in e.parts[1:]:
        acc = lev.comp(eval_cell(part, x, hcomp_order), acc)
    return acc


def _hcomp_component(e: HComp, x, hcomp_order: int):
    sf, tf = _cell_endpoints_cached(e.first)
    ss, ts = _cell_endpoints_cached(e.second)
    lev = level_of(fun_cod(ss))
    left = eval_cell(e.first, x, hcomp_order)
    if hcomp_order == 1:
        return lev.comp(
            eval_cell(e.second, eval_fun(tf, x), hcomp_order),
            eval_fun_mor(ss, left),
        )
    return lev.comp(
        eval_fun_mor(ts, left),
        eval_cell(e.second, eval_fun(sf, x), hcomp_order),
    )


def _applyt_component(e: ApplyTCell, x, hcomp_order: int):
    s, t = _cell_endpoints_cached(e.cell)
    comps = tuple(eval_cell(e.cell, v, hcomp_order) for v in x.entries)
    return SeqMor(
        eval_fun(ApplyT(s), x),
        eval_fun(ApplyT(t), x),
        perm_identity(len(comps)),
        comps,
    )


_CELL_ACTIONS = {
    IdCell: lambda e, x, h: level_of(fun_cod(e.fun)).identity(eval_fun(e.fun, x)),
    Gamma: lambda e, x, h: _gamma_component(e, x, e.i, e.j),
    GammaInv: lambda e, x, h: _gamma_component(e, x, e.j, e.i),
    VComp: _vcomp_component,
    HComp: _hcomp_component,
    WhiskerL: lambda e, x, h: eval_cell(e.cell, eval_fun(e.fun, x), h),
    WhiskerR: lambda e, x, h: eval_fun_mor(e.fun, eval_cell(e.cell, x, h)),
    ApplyTCell: _applyt_component,
    TupleCell: lambda e, x, h: tuple([eval_cell(p, x, h) for p in e.parts]),
}


# ------------------------------------------------------------- reports


def show_value(v) -> str:
    if isinstance(v, SeqObj):
        return "(" + " ".join(show_value(e) for e in v.entries) + ")"
    if isinstance(v, SeqMor):
        perm = list(v.perm.images)
        comps = ", ".join(show_value(c) for c in v.components)
        return f"{{perm={perm}, components=[{comps}]}}"
    if isinstance(v, tuple):
        return "<" + ", ".join(show_value(e) for e in v) + ">"
    return str(v)


@dataclass
class Report:
    kind: str
    passed: bool
    points: int
    truncated: bool
    phase: str = "components"
    counterexample: Optional[dict] = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "passed": self.passed,
            "points": self.points,
            "truncated": self.truncated,
            "phase": self.phase,
            "counterexample": self.counterexample,
            "detail": self.detail,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


# Wrong values and type-shape breakage (a sequence where a plain object was
# expected, say) both count as observed failures at a point; harness misuse
# (TypecheckError, BudgetError) still propagates.
_EVAL_ERRORS = (ValueError, TypeError, AttributeError, KeyError, IndexError)


def _counterexample(point, left, right, note="") -> dict:
    out = {"point": show_value(point), "left": show_value(left), "right": show_value(right)}
    if note:
        out["note"] = note
    return out


def _sharing(check):
    """Open the entry table for the outermost checker call; nested calls
    share it, and it is dropped when that call returns or raises."""

    @wraps(check)
    def run(*args, **kwargs):
        global _entry_table
        if _entry_table is not None:
            return check(*args, **kwargs)
        _entry_table = {}
        try:
            return check(*args, **kwargs)
        finally:
            _entry_table = None

    return run


@_sharing
def equal_fun(f: FunExpr, g: FunExpr, bud: Budget) -> Report:
    """Pointwise equality of two functor expressions on objects and
    morphisms of their shared domain."""
    dom = fun_dom(f)
    if fun_dom(g) != dom:
        raise TypecheckError("cannot compare functors with different domains")
    objs, t1 = enumerate_objects(dom, bud)
    mors, t2 = enumerate_morphisms(dom, bud)
    return _equal_on(f, g, objs, mors, t1 or t2)


def _equal_on(f: FunExpr, g: FunExpr, objs, mors, truncated: bool) -> Report:
    """Compare f and g at the given objects, then at the given morphisms,
    stopping at the first failing point.  When f == g each point is
    evaluated once: the comparison cannot fail, but an evaluation error
    still can."""
    same = f == g
    points = 0
    for o in objs:
        points += 1
        try:
            a = eval_fun(f, o)
            b = a if same else eval_fun(g, o)
        except _EVAL_ERRORS as err:
            return Report(
                "equal-fun", False, points, truncated,
                counterexample={"point": show_value(o), "error": str(err)},
            )
        if a != b:
            return Report(
                "equal-fun", False, points, truncated,
                counterexample=_counterexample(o, a, b),
            )
    for m in mors:
        points += 1
        try:
            a = eval_fun_mor(f, m)
            b = a if same else eval_fun_mor(g, m)
        except _EVAL_ERRORS as err:
            return Report(
                "equal-fun", False, points, truncated,
                counterexample={"point": show_value(m), "error": str(err)},
            )
        if a != b:
            return Report(
                "equal-fun", False, points, truncated,
                counterexample=_counterexample(m, a, b, note="on a morphism"),
            )
    return Report("equal-fun", True, points, truncated)


@_sharing
def equal_cell(a: CellExpr, b: CellExpr, bud: Budget) -> Report:
    """Pointwise equality of two cells: first their source and target
    1-cells extensionally, then the components at every enumerated point.
    The shared domain is enumerated once for all three phases."""
    sa, ta = cell_endpoints(a)
    sb, tb = cell_endpoints(b)
    dom = fun_dom(sa)
    if not fun_dom(sb) == fun_dom(ta) == fun_dom(tb) == dom:
        raise TypecheckError("cannot compare functors with different domains")
    objs, t_objs = enumerate_objects(dom, bud)
    mors, t_mors = enumerate_morphisms(dom, bud)
    truncated = t_objs or t_mors
    src_report = _equal_on(sa, sb, objs, mors, truncated)
    if not src_report.passed:
        return Report(
            "equal-cell", False, src_report.points, truncated,
            phase="endpoints-source", counterexample=src_report.counterexample,
            detail="source 1-cells disagree",
        )
    tgt_report = _equal_on(ta, tb, objs, mors, truncated)
    if not tgt_report.passed:
        return Report(
            "equal-cell", False,
            src_report.points + tgt_report.points, truncated,
            phase="endpoints-target", counterexample=tgt_report.counterexample,
            detail="target 1-cells disagree",
        )
    cod_level = level_of(fun_cod(sa))
    points = src_report.points + tgt_report.points
    for o in objs:
        points += 1
        try:
            left, right = eval_cell(a, o), eval_cell(b, o)
            drift = _endpoint_drift(cod_level, left, eval_fun(sa, o), eval_fun(ta, o))
        except _EVAL_ERRORS as err:
            return Report(
                "equal-cell", False, points, t_objs,
                counterexample={"point": show_value(o), "error": str(err)},
            )
        if drift:
            return Report(
                "equal-cell", False, points, t_objs,
                counterexample={"point": show_value(o), "left": show_value(left)},
                detail=f"component endpoints drift: {drift}",
            )
        if left != right:
            return Report(
                "equal-cell", False, points, t_objs,
                counterexample=_counterexample(o, left, right),
            )
    return Report("equal-cell", True, points, truncated)


def _endpoint_drift(lev: Level, component, want_src, want_tgt) -> str:
    if lev.src(component) != want_src:
        return "source"
    if lev.tgt(component) != want_tgt:
        return "target"
    return ""


@_sharing
def check_naturality(alpha: CellExpr, bud: Budget) -> Report:
    """The components of a cell assemble into a natural transformation:
    both square routes agree on every enumerated morphism."""
    s, t = cell_endpoints(alpha)
    dom = fun_dom(s)
    dom_level = level_of(dom)
    cod_level = level_of(fun_cod(s))
    mors, truncated = enumerate_morphisms(dom, bud)
    points = 0
    for m in mors:
        points += 1
        x, y = dom_level.src(m), dom_level.tgt(m)
        try:
            left = cod_level.comp(eval_cell(alpha, y), eval_fun_mor(s, m))
            right = cod_level.comp(eval_fun_mor(t, m), eval_cell(alpha, x))
        except _EVAL_ERRORS as err:
            return Report(
                "naturality", False, points, truncated,
                counterexample={"point": show_value(m), "error": str(err)},
            )
        if left != right:
            return Report(
                "naturality", False, points, truncated,
                counterexample=_counterexample(m, left, right),
            )
    return Report("naturality", True, points, truncated)
