"""Expression trees for categories, functors and 2-cells, plus a bounded
pointwise equality checker.

Category expressions are loaded finite categories (fincat.FinCat) and
the flat n-ary products and free symmetric monoidal categories built on
them (freesmc, re-exported here); functor expressions name the
structural maps (projections, shuffles, eta, mu, strengths, the
interleavings) and compose in diagrammatic order; cell expressions paste interchange cells with
whiskering, vertical, and horizontal composition.

Equality of functors or 2-cells is decided pointwise over a deterministic
bounded enumeration of the domain: smallest inputs first, so the first
reported counterexample is a minimal one.  When the space is larger than
the point budget, a seeded uniform sample is checked and the report says
so.  The category expressions number their own values; this module
sorts and samples them, with one body for objects and morphisms.

Typechecking a cell visits each sub-cell once.  A check typechecks its
cells once, and evaluation at every point reads each cell node's source,
target and categories from that pass instead of deriving them again.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from functools import lru_cache, partial, wraps
from typing import Optional, Union

from .fincat import CatExpr, CommMonoid, FunTable
from .freesmc import (
    Free,
    Fun,
    Prod,
    SeqMor,
    SeqObj,
    eta,
    eta_mor,
    gamma_ij_component,
    mu,
    mu_mor,
    omega_n,
    omega_n_mor,
    strength_ti,
    strength_ti_mor,
    tmap,
)
from .perms import Perm, permute
from .perms import identity as perm_identity


class CalcError(Exception):
    pass


class TypecheckError(CalcError):
    pass


class BudgetError(CalcError):
    pass


# ------------------------------------------------------------- categories


UNIT = Prod(())


def CatBase(cat):
    """cat itself: a FinCat is its own category expression.  Kept only
    because the benchmark's workloads (bench/workloads.py) import it."""
    return cat


def free_depth(c: CatExpr) -> int:
    return c.free_depth()


def level_of(c: CatExpr) -> CatExpr:
    """c itself, once checked: a category expression supplies its own
    identities, composition and endpoints."""
    if not isinstance(c, CatExpr):
        raise TypecheckError(f"not a category expression: {c!r}")
    return c


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
    the offending subexpression path on mismatch, and on nesting deeper
    than the interpreter's recursion limit."""
    try:
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
            return f.table.domain, f.table.codomain
        if isinstance(f, Const):
            return f.dom, f.cod
        if isinstance(f, MonoidEval):
            return Free(f.monoid.cat), f.monoid.cat
        if isinstance(f, MonoidMult):
            if f.n < 0:
                raise TypecheckError(f"{where}: negative multiplication arity")
            return Prod((f.monoid.cat,) * f.n), f.monoid.cat
        raise TypecheckError(f"{where}: not a functor expression")
    except RecursionError:
        raise TypecheckError(f"{type(f).__name__}: expression nested too deeply") from None


@lru_cache(maxsize=None)
def _fun_endpoints_cached(f: FunExpr) -> tuple:
    return fun_endpoints(f)


@lru_cache(maxsize=None)
def _cell_endpoints_cached(e) -> tuple:
    """The typecheck's facts about cell e, for evaluation outside a check."""
    return _cell_facts(e, type(e).__name__, None)


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
    then flatten.  Gamma(slots, i, j) runs from gamma_source(slots, i, j)
    to gamma_source(slots, j, i)."""
    with_free_j = tuple(Free(s) if k == j - 1 else s for k, s in enumerate(slots))
    return Compose(
        (
            Strength(with_free_j, i),
            ApplyT(Strength(tuple(slots), j)),
            Mu(Prod(tuple(slots))),
        )
    )


# While a law check runs: id(node) -> (node, what the check knows of it):
# the typecheck's facts about each cell node, and the memoized entrywise
# actions of each functor that T applies.  Holding the node keeps its id
# from being reused during the check.
_entry_table: Optional[dict] = None


def cell_endpoints(e: CellExpr, path: str = "") -> tuple:
    """Source and target functor expressions of a cell.

    Vertical composition only requires the meeting functors to share
    endpoint categories; whether the 1-cells themselves agree is checked
    extensionally by equal_cell, matching how pasting diagrams are read up
    to strictly commuting squares.  Nesting deeper than the interpreter's
    recursion limit raises TypecheckError.
    """
    return cell_facts(e, path)[:2]


def cell_facts(e: CellExpr, path: str = "") -> tuple:
    """(source, target, domain, codomain) of a cell: its endpoints and the
    categories they run between, from the one pass that typechecks it."""
    try:
        return _cell_facts(e, path or type(e).__name__, _entry_table)
    except RecursionError:
        raise TypecheckError(f"{type(e).__name__}: expression nested too deeply") from None


def _cell_facts(e: CellExpr, where: str, table) -> tuple:
    """(source, target, domain, codomain) of a cell, the last two being the
    categories its source and target run between.  Each sub-cell is visited
    once and passes its categories up with its endpoints, so no level walks
    a composite built below it.  Inside a check, table keeps the facts of
    every node by id, and a node already there is not visited again."""
    if table is not None:
        hit = table.get(id(e))
        if hit is not None:
            return hit[1]
    if isinstance(e, IdCell):
        facts = (e.fun, e.fun, *fun_endpoints(e.fun, f"{where}.fun"))
    elif isinstance(e, (Gamma, GammaInv)):
        _check_gamma(e, where)
        i, j = (e.i, e.j) if isinstance(e, Gamma) else (e.j, e.i)
        freed = (i - 1, j - 1)
        facts = (
            gamma_source(e.slots, i, j),
            gamma_source(e.slots, j, i),
            Prod(tuple(Free(s) if k in freed else s for k, s in enumerate(e.slots))),
            Free(Prod(tuple(e.slots))),
        )
    elif isinstance(e, VComp):
        if not e.parts:
            raise TypecheckError(f"{where}: empty vertical composition")
        parts = [_cell_facts(p, f"{where}[{k}]", table) for k, p in enumerate(e.parts)]
        for k in range(len(parts) - 1):
            if parts[k][2:] != parts[k + 1][2:]:
                raise TypecheckError(
                    f"{where}[{k + 1}]: vertical composition across different"
                    " hom-categories"
                )
        facts = (parts[0][0], parts[-1][1], *parts[0][2:])
    elif isinstance(e, TupleCell):
        if not e.parts:
            raise TypecheckError(f"{where}: empty tuple cell")
        parts = [_cell_facts(p, f"{where}[{k}]", table) for k, p in enumerate(e.parts)]
        if len({p[2] for p in parts}) != 1:
            raise TypecheckError(f"{where}: tuple cell factors need one domain")
        facts = (
            Tuple(tuple(p[0] for p in parts)),
            Tuple(tuple(p[1] for p in parts)),
            parts[0][2],
            Prod(tuple(p[3] for p in parts)),
        )
    elif isinstance(e, HComp):
        s1, t1, d1, c1 = _cell_facts(e.first, f"{where}.first", table)
        s2, t2, d2, c2 = _cell_facts(e.second, f"{where}.second", table)
        if c1 != d2:
            raise TypecheckError(f"{where}: horizontal composition endpoints")
        facts = Compose((s1, s2)), Compose((t1, t2)), d1, c2
    elif isinstance(e, WhiskerL):
        s, t, d, c = _cell_facts(e.cell, f"{where}.cell", table)
        fd, fc = fun_endpoints(e.fun)
        if fc != d:
            raise TypecheckError(f"{where}: left whisker endpoints")
        facts = Compose((e.fun, s)), Compose((e.fun, t)), fd, c
    elif isinstance(e, WhiskerR):
        s, t, d, c = _cell_facts(e.cell, f"{where}.cell", table)
        fd, fc = fun_endpoints(e.fun)
        if c != fd:
            raise TypecheckError(f"{where}: right whisker endpoints")
        facts = Compose((s, e.fun)), Compose((t, e.fun)), d, fc
    elif isinstance(e, ApplyTCell):
        s, t, d, c = _cell_facts(e.cell, f"{where}.cell", table)
        facts = ApplyT(s), ApplyT(t), Free(d), Free(c)
    else:
        raise TypecheckError(f"{where}: not a cell expression")
    if table is not None:
        table[id(e)] = (e, facts)
    return facts


def _check_gamma(e, where):
    n = len(e.slots)
    if e.i == e.j or not (1 <= e.i <= n and 1 <= e.j <= n):
        raise TypecheckError(f"{where}: interchange slots out of range")
    if e.partition != "canonical":
        three = isinstance(e.partition, tuple) and len(e.partition) == 3
        if not (three and all(type(b) is int for b in e.partition)):
            raise TypecheckError(f"{where}: partition must be three bar positions")
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
        for name, least in (("max_seq_len", 1), ("max_nest", 0), ("max_points", 1)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")


def count_objects(c: CatExpr, bud: Budget) -> int:
    return c.count_objects(bud)


def count_morphisms(c: CatExpr, bud: Budget) -> int:
    return c.count_morphisms(bud)


def object_at(c: CatExpr, bud: Budget, index: int, table=None):
    return c.object_at(bud, index, table)


def morphism_at(c: CatExpr, bud: Budget, index: int, table=None):
    return c.morphism_at(bud, index, table)


def _size(v) -> int:
    """Sort key of enumerated objects and morphisms alike."""
    if isinstance(v, SeqObj):
        return 1 + sum(_size(e) for e in v.entries)
    if isinstance(v, SeqMor):
        return 1 + sum(_size(c) for c in v.components)
    if isinstance(v, tuple):
        return sum(_size(e) for e in v)
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


def _enumerate(c: CatExpr, bud: Budget, count, at):
    d = free_depth(c)
    if d > bud.max_nest:
        raise BudgetError(f"nesting depth {d} exceeds budget {bud.max_nest}")
    idxs, truncated = _indices(count(c, bud), bud)
    table: dict = {}
    return sorted([at(c, bud, i, table) for i in idxs], key=_size), truncated


def enumerate_objects(c: CatExpr, bud: Budget):
    """All objects (or a seeded sample when over budget), smallest first.
    Each component object is built once and shared by every point that
    contains it."""
    return _enumerate(c, bud, count_objects, object_at)


def enumerate_morphisms(c: CatExpr, bud: Budget):
    return _enumerate(c, bud, count_morphisms, morphism_at)


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
    try:
        return actions[0](f, x)
    except RecursionError:
        raise CalcError(f"{type(f).__name__}: expression nested too deeply to evaluate") from None


def eval_fun_mor(f: FunExpr, m):
    """Apply a functor expression to a morphism of its domain."""
    actions = _FUN_ACTIONS.get(type(f))
    if actions is None:
        raise TypecheckError(f"not a functor expression: {f!r}")
    try:
        return actions[1](f, m)
    except RecursionError:
        raise CalcError(f"{type(f).__name__}: expression nested too deeply to evaluate") from None


def _compose_obj(f: Compose, x):
    for part in f.parts:
        x = eval_fun(part, x)
    return x


def _compose_mor(f: Compose, m):
    for part in f.parts:
        m = eval_fun_mor(part, m)
    return m


def _monoid_mor(f: Union[MonoidEval, MonoidMult], mors):
    """The identity on the product of the sources of mors."""
    cat = f.monoid.cat
    return cat.identity(f.monoid.fold(map(cat.src, mors)))


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
    Eta: (lambda f, x: eta(x), lambda f, m: eta_mor(m)),
    Mu: (lambda f, x: mu(x), lambda f, m: mu_mor(m)),
    Strength: (
        lambda f, x: strength_ti(len(f.slots), f.i, x),
        lambda f, m: strength_ti_mor(len(f.slots), f.i, m),
    ),
    Omega: (lambda f, x: omega_n(x), lambda f, m: omega_n_mor(m)),
    FunBase: (lambda f, x: f.table.on_obj(x), lambda f, m: f.table.on_mor(m)),
    Const: (lambda f, x: f.obj, lambda f, m: level_of(f.cod).identity(f.obj)),
    MonoidEval: (
        lambda f, x: f.monoid.fold(x.entries),
        lambda f, m: _monoid_mor(f, m.components),
    ),
    MonoidMult: (lambda f, x: f.monoid.fold(x), _monoid_mor),
}


def eval_cell(e: CellExpr, x):
    """Component of a 2-cell at an object of its source's domain."""
    component = _CELL_ACTIONS.get(type(e))
    if component is None:
        raise TypecheckError(f"not a cell expression: {e!r}")
    try:
        return component(e, x)
    except RecursionError:
        raise CalcError(f"{type(e).__name__}: expression nested too deeply to evaluate") from None


def _gamma_component(e, x, i: int, j: int):
    return gamma_ij_component(e.slots, len(e.slots), i, j, x, e.partition)


def _facts(e: CellExpr) -> tuple:
    """(source, target, domain, codomain) of cell node e.  Inside a check
    they are read from the table its typecheck filled (a node it did not
    reach is typechecked now); a one-off evaluation looks them up in the
    lru cache."""
    table = _entry_table
    if table is None:
        return _cell_endpoints_cached(e)
    hit = table.get(id(e))
    if hit is None:
        cell_endpoints(e)
        hit = table[id(e)]
    return hit[1]


def _vcomp_component(e: VComp, x):
    lev = level_of(_facts(e)[3])
    acc = eval_cell(e.parts[0], x)
    for part in e.parts[1:]:
        acc = lev.comp(eval_cell(part, x), acc)
    return acc


def _hcomp_component(e: HComp, x):
    # by the exchange law the other order, second at the source's image
    # followed by the target image of first, gives the same component
    _, tf, _, _ = _facts(e.first)
    ss, _, _, cod = _facts(e.second)
    lev = level_of(cod)
    left = eval_cell(e.first, x)
    return lev.comp(eval_cell(e.second, eval_fun(tf, x)), eval_fun_mor(ss, left))


def _applyt_component(e: ApplyTCell, x):
    comps = tuple([eval_cell(e.cell, v) for v in x.entries])
    return SeqMor(perm_identity(len(comps)), comps)


_CELL_ACTIONS = {
    IdCell: lambda e, x: level_of(_facts(e)[3]).identity(eval_fun(e.fun, x)),
    Gamma: lambda e, x: _gamma_component(e, x, e.i, e.j),
    GammaInv: lambda e, x: _gamma_component(e, x, e.j, e.i),
    VComp: _vcomp_component,
    HComp: _hcomp_component,
    WhiskerL: lambda e, x: eval_cell(e.cell, eval_fun(e.fun, x)),
    WhiskerR: lambda e, x: eval_fun_mor(e.fun, eval_cell(e.cell, x)),
    ApplyTCell: _applyt_component,
    TupleCell: lambda e, x: tuple([eval_cell(p, x) for p in e.parts]),
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
        return asdict(self)


# Wrong values and type-shape breakage (a sequence where a plain object was
# expected, say) both count as observed failures at a point; harness misuse
# (TypecheckError, BudgetError) still propagates.
_EVAL_ERRORS = (ValueError, TypeError, AttributeError, KeyError, IndexError)


def _counterexample(point, left, right, note="") -> dict:
    out = {"point": show_value(point), "left": show_value(left), "right": show_value(right)}
    if note:
        out["note"] = note
    return out


def _first_failure(points, compare, count: int = 0) -> tuple:
    """Walk points in order, stopping at the first one where compare(p)
    returns (counterexample, detail) or raises an evaluation error.
    Returns the points walked, counted on from count, and that failure or
    None."""
    for p in points:
        count += 1
        try:
            failure = compare(p)
        except _EVAL_ERRORS as err:
            return count, ({"point": show_value(p), "error": str(err)}, "")
        if failure is not None:
            return count, failure
    return count, None


def _report(kind: str, points: int, truncated: bool, failure,
            phase: str = "components", detail: str = "") -> Report:
    """The report of a walk; detail, when given, replaces the failure's."""
    if failure is None:
        return Report(kind, True, points, truncated, phase)
    counterexample, found = failure
    return Report(kind, False, points, truncated, phase, counterexample, detail or found)


def _check_same_categories(ends, other_ends) -> None:
    """Two sides can be compared only between the same categories."""
    for mine, theirs, what in zip(ends, other_ends, ("domains", "codomains")):
        if mine != theirs:
            raise TypecheckError(f"cannot compare functors with different {what}")


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
    ends = _fun_endpoints_cached(f)
    _check_same_categories(ends, _fun_endpoints_cached(g))
    objs, t1 = enumerate_objects(ends[0], bud)
    mors, t2 = enumerate_morphisms(ends[0], bud)
    points, failure = _equal_on(f, g, objs, mors)
    return _report("equal-fun", points, t1 or t2, failure)


def _equal_on(f: FunExpr, g: FunExpr, objs, mors, values: Optional[list] = None,
              count: int = 0) -> tuple:
    """Walk f and g over the given objects, then the given morphisms, and
    return what _first_failure does.  When f == g each point is evaluated
    once: the comparison cannot fail, but an evaluation error still can.
    The values of f at the objects are appended to values."""
    same = f == g

    def compare(evaluate, note, keep, v):
        a = evaluate(f, v)
        b = a if same else evaluate(g, v)
        if a != b:
            return _counterexample(v, a, b, note), ""
        if keep:
            values.append(a)
        return None

    count, failure = _first_failure(
        objs, partial(compare, eval_fun, "", values is not None), count)
    if failure is None:
        count, failure = _first_failure(
            mors, partial(compare, eval_fun_mor, "on a morphism", False), count)
    return count, failure


@_sharing
def equal_cell(a: CellExpr, b: CellExpr, bud: Budget) -> Report:
    """Pointwise equality of two cells: first their source and target
    1-cells extensionally, then the components at every enumerated point.
    The shared domain is enumerated once for all three phases, and the
    components are checked against the endpoint values those phases
    computed at each object."""
    sa, ta, dom, cod = _facts(a)
    sb, tb, *cats_b = _facts(b)
    # a cell's target runs between the categories of its source
    _check_same_categories((dom, cod), cats_b)
    objs, t_objs = enumerate_objects(dom, bud)
    mors, t_mors = enumerate_morphisms(dom, bud)
    truncated = t_objs or t_mors
    values = ([], [])
    points = 0
    for end, sides, kept in zip(("source", "target"), ((sa, sb), (ta, tb)), values):
        points, failure = _equal_on(*sides, objs, mors, kept, points)
        if failure is not None:
            return _report("equal-cell", points, truncated, failure,
                           f"endpoints-{end}", f"{end} 1-cells disagree")
    cod_level = level_of(cod)
    # the walk visits objs in order, so the endpoint values follow it
    wants = zip(*values)

    def compare(o):
        left, right = eval_cell(a, o), eval_cell(b, o)
        drift = _endpoint_drift(cod_level, left, *next(wants))
        if drift:
            return ({"point": show_value(o), "left": show_value(left)},
                    f"component endpoints drift: {drift}")
        if left != right:
            return _counterexample(o, left, right), ""
        return None

    points, failure = _first_failure(objs, compare, points)
    # a failing component says whether the objects alone were sampled
    return _report("equal-cell", points, t_objs if failure else truncated, failure)


def _endpoint_drift(lev: CatExpr, component, want_src, want_tgt) -> str:
    if lev.src(component) != want_src:
        return "source"
    if lev.tgt(component) != want_tgt:
        return "target"
    return ""


@_sharing
def check_naturality(alpha: CellExpr, bud: Budget) -> Report:
    """The components of a cell assemble into a natural transformation:
    both square routes agree on every enumerated morphism."""
    s, t, dom, cod = _facts(alpha)
    dom_level = level_of(dom)
    cod_level = level_of(cod)
    mors, truncated = enumerate_morphisms(dom, bud)

    def compare(m):
        x, y = dom_level.src(m), dom_level.tgt(m)
        left = cod_level.comp(eval_cell(alpha, y), eval_fun_mor(s, m))
        right = cod_level.comp(eval_fun_mor(t, m), eval_cell(alpha, x))
        if left != right:
            return _counterexample(m, left, right), ""
        return None

    points, failure = _first_failure(mors, compare)
    return _report("naturality", points, truncated, failure)
