"""Free symmetric strict monoidal categories over a base category.

An object is a finite sequence of base objects; a morphism is a permutation
together with one base morphism per source entry.  Entry i of the source is
carried to slot perm(i) of the target by components[i-1], so composing two
morphisms re-indexes the outer components through the inner permutation.

A loaded FinCat is the base category expression; the products and free
categories built on it live here.  Each supplies its own identities,
composition and endpoints: the free category on C takes those of its
entries from C, so sequences nest to any depth.  A sequence
morphism holds only its permutation and components, and Free.src and
Free.tgt derive its endpoints from theirs.  Category expressions also
number their own objects and morphisms, with one mixed-radix decoder for
products and sequences.  The calculus module re-exports them.

Public construction (``SeqObj``, ``SeqMor``, ``seq``) validates its
arguments; the kernels build their results through the unchecked internal
constructors ``_obj`` and ``_mor``, from parts that are already valid.

>>> from shufflecat.fincat import load_fincat
>>> from shufflecat.perms import Perm
>>> arrow = load_fincat({
...     "name": "arrow", "objects": ["x", "y"],
...     "morphisms": [{"id": "f", "src": "x", "tgt": "y"}], "compose": []})
>>> Free(arrow).identity(seq(("x", "y"))).perm
Perm((1, 2))
>>> eta("x")
SeqObj(('x',))
>>> mu(seq((seq(("x", "y")), seq(("x",)))))
SeqObj(('x', 'y', 'x'))
>>> strength_ti(2, 2, ("a", seq(("b1", "b2")))).entries
(('a', 'b1'), ('a', 'b2'))
>>> x, y = seq(("a1", "a2")), seq(("b1", "b2"))
>>> omega_n((x, y)).entries
(('a1', 'b1'), ('a1', 'b2'), ('a2', 'b1'), ('a2', 'b2'))

The interchange from this row-major interleaving to the column-major one,
where the first sequence varies fastest, is pure shuffling; on a pair of
2-entry sequences it transposes the middle:

>>> lab = load_fincat({"name": "lab", "objects": ["a1", "a2", "b1", "b2"],
...                    "morphisms": [], "compose": []})
>>> gamma_component(lab, lab, x, y).perm
Perm((1, 3, 2, 4))

Shorter values are numbered first, then in mixed radix; a sequence
morphism's permutation is its most significant digit.  Up to length 2, the
free category on the arrow has 1 + 2 + 4 objects and 1 + 3 + 2 * 9 morphisms:

>>> from shufflecat.calculus import Budget
>>> free, bud = Free(arrow), Budget(max_seq_len=2)
>>> free.count_objects(bud), free.count_morphisms(bud)
(7, 22)
>>> free.object_at(bud, 1 + 2 + 2)
SeqObj(('y', 'x'))
>>> arrow.all_morphisms()
('id_x', 'id_y', 'f')
>>> m = free.morphism_at(bud, 1 + 3 + 1 * 9 + (1 * 3 + 2))
>>> m.perm, m.components, free.tgt(m)
(Perm((2, 1)), ('id_y', 'f'), SeqObj(('y', 'y')))
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from .fincat import CatExpr
from .perms import Perm, _perm, all_perms, block, block_right, compose, identity, invert, permute

# Deliberate fault injection for the meta checks: when a mutation name is
# active, exactly one convention below is flipped.  See the mutations module.
# Each kernel reads it once per call.
_ACTIVE_MUTATION = None


@dataclass(frozen=True)
class SeqObj:
    """A finite sequence of objects of the base category."""

    entries: tuple

    def __post_init__(self):
        if not isinstance(self.entries, tuple):
            raise TypeError("SeqObj entries must be a tuple")

    def __repr__(self) -> str:
        return f"SeqObj({self.entries!r})"


def seq(entries) -> SeqObj:
    return SeqObj(tuple(entries))


@dataclass(frozen=True)
class SeqMor:
    """A permutation plus one component morphism per source entry.

    components[i-1] runs from source entry i to target entry perm(i), so
    the endpoints are not stored: the category of the components supplies
    them, and Free.src and Free.tgt place them.
    """

    perm: Perm
    components: tuple

    def __post_init__(self):
        if self.perm.degree != len(self.components):
            raise ValueError("need one component per entry")


_new, _set = object.__new__, object.__setattr__


def _obj(entries: tuple) -> SeqObj:
    """A SeqObj of a tuple, unchecked."""
    o = _new(SeqObj)
    _set(o, "entries", entries)
    return o


def _mor(perm: Perm, components: tuple) -> SeqMor:
    """A SeqMor of a permutation and as many components, unchecked."""
    m = _new(SeqMor)
    _set(m, "perm", perm)
    _set(m, "components", components)
    return m


def _decode(index: int, parts, bud, mor: bool, table: dict) -> tuple:
    """The values (morphisms if mor, else objects) of a mixed-radix index, one
    per (category, radix) part; table, shared by one enumeration, maps
    (id(c), digit) to c's value.  The first part is the most significant."""
    out = [None] * len(parts)
    for k in range(len(parts) - 1, -1, -1):
        c, radix = parts[k]
        index, d = divmod(index, radix)
        value = out[k] = table.get((id(c), d))
        if value is None:
            out[k] = table[id(c), d] = c._at(bud, d, mor, table)
    return tuple(out)


@dataclass(frozen=True)
class Prod(CatExpr):
    """A flat product: objects and morphisms are tuples, one entry per
    factor, numbered in mixed radix with the first factor most significant."""

    factors: tuple

    def identity(self, obj):
        return tuple([f.identity(o) for f, o in zip(self.factors, obj, strict=True)])

    def comp(self, m2, m1):
        return tuple([f.comp(a, b) for f, a, b in zip(self.factors, m2, m1, strict=True)])

    def src(self, m):
        return tuple([f.src(c) for f, c in zip(self.factors, m, strict=True)])

    def tgt(self, m):
        return tuple([f.tgt(c) for f, c in zip(self.factors, m, strict=True)])

    def free_depth(self) -> int:
        return max((f.free_depth() for f in self.factors), default=0)

    @lru_cache(maxsize=None)
    def _count(self, bud, mor: bool) -> int:
        return math.prod(f._count(bud, mor) for f in self.factors)

    def _at(self, bud, index: int, mor: bool, table):
        return _decode(index, [(f, f._count(bud, mor)) for f in self.factors], bud, mor, table)


@dataclass(frozen=True)
class Free(CatExpr):
    """The free symmetric strict monoidal category on inner: identities
    and composition of entries come from inner.  Shorter values come first;
    within a length the rank of a morphism's permutation in all_perms(l) is
    the most significant digit, then come the entries, first entry first."""

    inner: CatExpr

    def identity(self, obj):
        return identity_seq(self.inner, obj)

    def comp(self, m2, m1):
        return compose_seq(self.inner, m2, m1)

    def src(self, m):
        """Source entry i is the source of component i."""
        return _obj(tuple(map(self.inner.src, m.components)))

    def tgt(self, m):
        """Target entry perm(i) is the target of component i."""
        tgt, out = self.inner.tgt, [None] * len(m.components)
        for i, c in zip(m.perm.images, m.components):
            out[i - 1] = tgt(c)
        return _obj(tuple(out))

    def free_depth(self) -> int:
        return 1 + self.inner.free_depth()

    @lru_cache(maxsize=None)
    def _count(self, bud, mor: bool) -> int:
        radix = self.inner._count(bud, mor)
        return sum((math.factorial(l) if mor else 1) * radix**l for l in range(bud.max_seq_len + 1))

    def _at(self, bud, index: int, mor: bool, table):
        inner, radix = self.inner, self.inner._count(bud, mor)
        for l in range(bud.max_seq_len + 1):
            block = radix**l
            size = math.factorial(l) * block if mor else block
            if index < size:
                rank, index = divmod(index, block)
                entries = _decode(index, ((inner, radix),) * l, bud, mor, table)
                return _mor(all_perms(l)[rank], entries) if mor else _obj(entries)
            index -= size
        raise IndexError(f"{'morphism' if mor else 'object'} index out of range")


def identity_seq(inner: CatExpr, x: SeqObj) -> SeqMor:
    entries = x.entries
    return _mor(identity(len(entries)), tuple([inner.identity(e) for e in entries]))


def sym_mor(inner: CatExpr, x: SeqObj, sigma: Perm) -> SeqMor:
    """The pure shuffle into x whose underlying permutation is sigma.

    Its source lists the entries of x rearranged so that source entry i is
    x's entry sigma(i); the components are identities.
    """
    return SeqMor(sigma, tuple(inner.identity(e) for e in permute(x.entries, sigma)))


def compose_seq(inner: CatExpr, m2: SeqMor, m1: SeqMor) -> SeqMor:
    """m1 followed by m2; the second batch of components is re-indexed
    through m1's permutation before composing entrywise.  The endpoints
    meet when each component of m1 ends where the component of m2 it is
    carried to starts."""
    c2, tgt, src = m2.components, inner.tgt, inner.src
    if len(c2) != len(m1.components) or any(
        tgt(c1) != src(c2[j - 1]) for j, c1 in zip(m1.perm.images, m1.components)
    ):
        raise ValueError("cannot compose: endpoints do not meet")
    if _ACTIVE_MUTATION == "compose-reindexing":
        comps = tuple(map(inner.comp, c2, m1.components))
    else:
        comps = tuple(
            [inner.comp(c2[j - 1], c1) for j, c1 in zip(m1.perm.images, m1.components)]
        )
    return _mor(compose(m2.perm, m1.perm), comps)


# ------------------------------------------------------------------ functor


@dataclass(frozen=True)
class Fun:
    """A pair of callables used to push sequences through a functor."""

    on_obj: Callable
    on_mor: Optional[Callable] = None


def tmap(fun: Fun, x):
    """Apply a functor entrywise to a SeqObj or SeqMor."""
    if isinstance(x, SeqObj):
        return _obj(tuple(map(fun.on_obj, x.entries)))
    return _mor(x.perm, tuple(map(fun.on_mor, x.components)))


# ------------------------------------------------------------------ monad


def eta(a) -> SeqObj:
    return _obj((a,))


def eta_mor(f) -> SeqMor:
    return _mor(identity(1), (f,))


def mu(s: SeqObj) -> SeqObj:
    """Erase one layer of parentheses."""
    out = []
    for e in s.entries:
        out.extend(e.entries)
    return _obj(tuple(out))


def mu_mor(m: SeqMor) -> SeqMor:
    """Flatten a sequence of sequence morphisms: the underlying permutation
    is the blockwise composite of the outer and inner permutations."""
    combine = block_right if _ACTIVE_MUTATION == "mu-block-order" else block
    p = combine(m.perm, [c.perm for c in m.components])
    comps = []
    for c in m.components:
        comps.extend(c.components)
    return _mor(p, tuple(comps))


# ------------------------------------------------------------------ strength


def _splice(n: int, i: int, head: tuple, tail: tuple, entries, slot_fault: bool) -> tuple:
    """Place each of entries at slot i, between head and tail."""
    if slot_fault and n > 1:
        k = i if i < n else i - 2
        return tuple(_swap(head + (c,) + tail, i - 1, k) for c in entries)
    return tuple([head + (c,) + tail for c in entries])


def _swap(entry: tuple, a: int, b: int) -> tuple:
    swapped = list(entry)
    swapped[a], swapped[b] = swapped[b], swapped[a]
    return tuple(swapped)


def strength_ti(n: int, i: int, args: tuple) -> SeqObj:
    """n-ary strength with the sequence in slot i: distribute the other
    slots over every entry.

    >>> strength_ti(3, 2, ("a", seq(("c1", "c2")), "b")).entries
    (('a', 'c1', 'b'), ('a', 'c2', 'b'))
    """
    if len(args) != n:
        raise ValueError("argument count does not match arity")
    if not 1 <= i <= n:
        raise ValueError("slot out of range")
    mut = _ACTIVE_MUTATION
    x = args[i - 1]
    entries = reversed(x.entries) if mut == "strength-entry-order" else x.entries
    return _obj(_splice(n, i, args[: i - 1], args[i:], entries, mut == "strength-slot-index"))


def strength_ti_mor(n: int, i: int, margs: tuple) -> SeqMor:
    """Morphism action of strength_ti: the permutation of the sequence
    morphism in slot i, with the other slots distributed over its
    components."""
    if len(margs) != n:
        raise ValueError("argument count does not match arity")
    if not 1 <= i <= n:
        raise ValueError("slot out of range")
    m = margs[i - 1]
    perm, comps = m.perm, m.components
    mut = _ACTIVE_MUTATION
    if mut == "strength-entry-order":
        # both endpoints reversed: entry k is entry l+1-k, sent to the
        # reversal l+1-perm(l+1-k) of its old slot
        l = len(comps)
        perm, comps = _perm(tuple([l + 1 - j for j in perm.images[::-1]])), comps[::-1]
    slot_fault = mut == "strength-slot-index"
    return _mor(perm, _splice(n, i, margs[: i - 1], margs[i:], comps, slot_fault))


# ------------------------------------------------------------------ omega


def omega_n(xs: tuple) -> SeqObj:
    """Lexicographic interleaving of any number of sequences; with no
    arguments this is the singleton empty tuple."""
    return _obj(tuple(itertools.product(*[x.entries for x in xs])))


def omega_n_mor(ms: tuple) -> SeqMor:
    # grid point (i_1 .. i_k), in lexicographic order, goes to the rank of
    # (perm_1(i_1) .. perm_k(i_k)) and carries the components at i_1 .. i_k;
    # ranks are built up one slot at a time, the last slot varying fastest
    ranks = [0]
    for m in ms:
        l = len(m.components)
        ranks = [r * l + (j - 1) for r in ranks for j in m.perm.images]
    images = tuple([r + 1 for r in ranks])
    return _mor(_perm(images), tuple(itertools.product(*[m.components for m in ms])))


def omega_sigma(sigma: Perm, xs: tuple) -> SeqObj:
    """Interleave in the order prescribed by sigma, then relabel each entry
    back to the original slot order."""
    inv = invert(sigma)
    n = len(xs)
    relabel = lambda e: tuple(e[inv(l) - 1] for l in range(1, n + 1))
    return tmap(Fun(relabel, relabel), omega_n(permute(xs, sigma)))


def omega_sigma_mor(sigma: Perm, ms: tuple) -> SeqMor:
    inv = invert(sigma)
    n = len(ms)
    relabel = lambda e: tuple(e[inv(l) - 1] for l in range(1, n + 1))
    return tmap(Fun(relabel, relabel), omega_n_mor(permute(ms, sigma)))


# ------------------------------------------------------------------ gamma


def gamma_component(alev: CatExpr, blev: CatExpr, x: SeqObj, y: SeqObj) -> SeqMor:
    """The shuffle from the row-major to the column-major interleaving.

    Source entry (i-1)m+j holds (x_i, y_j) and goes to target slot (j-1)n+i,
    which holds the same pair; all components are identities.
    """
    n, m = len(x.entries), len(y.entries)
    images = tuple(
        [(j - 1) * n + i for i in range(1, n + 1) for j in range(1, m + 1)]
    )
    p = _perm(images)
    if _ACTIVE_MUTATION == "gamma-transpose-direction":
        p = invert(p)
    ids_a = [alev.identity(a) for a in x.entries]
    ids_b = [blev.identity(b) for b in y.entries]
    return _mor(p, tuple([(a, b) for a in ids_a for b in ids_b]))


def partitions_for(n: int, i: int, j: int):
    """All ways to cut 1..n into four consecutive (possibly empty) groups
    with min(i,j) in the second and max(i,j) in the third, as bar positions
    (b1, b2, b3)."""
    p, q = min(i, j), max(i, j)
    for b1 in range(0, p):
        for b2 in range(p, q):
            for b3 in range(q, n + 1):
                yield (b1, b2, b3)


def gamma_ij_component(
    levels: tuple, n: int, i: int, j: int, args: tuple, partition="canonical"
) -> SeqMor:
    """Interchange the sequences in slots i and j of an n-fold interleaving.

    The slots are grouped by the chosen partition, each group is pulled into
    one sequence by a strength, the binary interchange is applied to the two
    groups, and the result is flattened back to flat n-tuples.  The outcome
    does not depend on the partition.
    """
    if len(args) != n or len(levels) != n:
        raise ValueError("argument count does not match arity")
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("slots must be distinct and in range")
    p, q = min(i, j), max(i, j)
    if partition == "canonical":
        partition = (p - 1, p, q)
    b1, b2, b3 = partition
    if not (0 <= b1 < p <= b2 < q <= b3 <= n):
        raise ValueError("partition does not isolate the two slots")
    u = strength_ti(b2 - b1, p - b1, args[b1:b2])
    v = strength_ti(b3 - b2, q - b2, args[b2:b3])
    lev2 = Prod(tuple(levels[b1:b2]))
    lev3 = Prod(tuple(levels[b2:b3]))
    if i < j:
        mid = gamma_component(lev2, lev3, u, v)
    else:
        mid = gamma_component(lev3, lev2, v, u)
    outer_margs = (
        tuple(levels[k].identity(args[k]) for k in range(b1))
        + (mid,)
        + tuple(levels[k].identity(args[k]) for k in range(b3, n))
    )
    h = strength_ti_mor(n - (b3 - b1) + 1, b1 + 1, outer_margs)
    if i < j:
        flat = lambda e: e[:b1] + e[b1][0] + e[b1][1] + e[b1 + 1 :]
    else:
        flat = lambda e: e[:b1] + e[b1][1] + e[b1][0] + e[b1 + 1 :]
    return tmap(Fun(flat, flat), h)
