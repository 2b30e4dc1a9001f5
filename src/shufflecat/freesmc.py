"""Free symmetric strict monoidal categories over a base category.

An object is a finite sequence of base objects; a morphism is a permutation
together with one base morphism per source entry.  Entry i of the source is
carried to slot perm(i) of the target by components[i-1], so composing two
morphisms re-indexes the outer components through the inner permutation.

>>> from shufflecat.fincat import load_fincat
>>> from shufflecat.perms import Perm
>>> arrow = load_fincat({
...     "name": "arrow", "objects": ["x", "y"],
...     "morphisms": [{"id": "f", "src": "x", "tgt": "y"}], "compose": []})
>>> lev = BaseLevel(arrow)
>>> eta("x")
SeqObj(('x',))
>>> mu(seq((seq(("x", "y")), seq(("x",)))))
SeqObj(('x', 'y', 'x'))
>>> strength_t2("a", seq(("b1", "b2"))).entries
(('a', 'b1'), ('a', 'b2'))
>>> x, y = seq(("a1", "a2")), seq(("b1", "b2"))
>>> omega(x, y).entries
(('a1', 'b1'), ('a1', 'b2'), ('a2', 'b1'), ('a2', 'b2'))
>>> omega_prime(x, y).entries
(('a1', 'b1'), ('a2', 'b1'), ('a1', 'b2'), ('a2', 'b2'))

The interchange from the row-major to the column-major interleaving is pure
shuffling; on a pair of 2-entry sequences it transposes the middle:

>>> lab = load_fincat({"name": "lab", "objects": ["a1", "a2", "b1", "b2"],
...                    "morphisms": [], "compose": []})
>>> gamma_component(BaseLevel(lab), BaseLevel(lab), x, y).perm
Perm((1, 3, 2, 4))
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from .fincat import FinCat
from .perms import Perm, block, block_right, compose, identity, invert, permute

# Deliberate fault injection for the meta checks: when a mutation name is
# active, exactly one convention below is flipped.  See the mutations module.
_ACTIVE_MUTATION = None


def _mut(name: str) -> bool:
    return _ACTIVE_MUTATION == name


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

    components[i-1] runs from source entry i to target entry perm(i).
    """

    source: SeqObj
    target: SeqObj
    perm: Perm
    components: tuple

    def __post_init__(self):
        n = len(self.source.entries)
        if len(self.target.entries) != n:
            raise ValueError("source and target lengths differ")
        if self.perm.degree != n:
            raise ValueError("permutation degree does not match length")
        if len(self.components) != n:
            raise ValueError("need one component per entry")


class Level:
    """How to treat entries of a sequence as objects and morphisms.

    The free construction nests: entries of a sequence can be base objects,
    tuples, or sequences again.  A Level supplies identities, composition
    and endpoints for whatever the entries are at that depth.
    """

    def identity(self, obj):
        raise NotImplementedError

    def comp(self, m2, m1):
        raise NotImplementedError

    def src(self, m):
        raise NotImplementedError

    def tgt(self, m):
        raise NotImplementedError


@dataclass(frozen=True)
class BaseLevel(Level):
    cat: FinCat

    def identity(self, obj):
        return self.cat.identity(obj)

    def comp(self, m2, m1):
        return self.cat.comp(m2, m1)

    def src(self, m):
        return self.cat.src(m)

    def tgt(self, m):
        return self.cat.tgt(m)


@dataclass(frozen=True)
class ProdLevel(Level):
    factors: tuple

    def _zip(self, m):
        if len(m) != len(self.factors):
            raise ValueError("tuple length does not match product arity")
        return zip(self.factors, m)

    def identity(self, obj):
        return tuple(f.identity(o) for f, o in self._zip(obj))

    def comp(self, m2, m1):
        if len(m2) != len(self.factors):
            raise ValueError("tuple length does not match product arity")
        return tuple(f.comp(a, b) for (f, b), a in zip(self._zip(m1), m2))

    def src(self, m):
        return tuple(f.src(c) for f, c in self._zip(m))

    def tgt(self, m):
        return tuple(f.tgt(c) for f, c in self._zip(m))


@dataclass(frozen=True)
class FreeLevel(Level):
    inner: Level

    def identity(self, obj):
        return identity_seq(self.inner, obj)

    def comp(self, m2, m1):
        return compose_seq(self.inner, m2, m1)

    def src(self, m):
        return m.source

    def tgt(self, m):
        return m.target


def identity_seq(inner: Level, x: SeqObj) -> SeqMor:
    n = len(x.entries)
    return SeqMor(x, x, identity(n), tuple(inner.identity(e) for e in x.entries))


def sym_mor(inner: Level, x: SeqObj, sigma: Perm) -> SeqMor:
    """The pure shuffle into x whose underlying permutation is sigma.

    Its source lists the entries of x rearranged so that source entry i is
    x's entry sigma(i); the components are identities.
    """
    source = SeqObj(permute(x.entries, sigma))
    comps = tuple(inner.identity(e) for e in source.entries)
    return SeqMor(source, x, sigma, comps)


def compose_seq(inner: Level, m2: SeqMor, m1: SeqMor) -> SeqMor:
    """m1 followed by m2; the second batch of components is re-indexed
    through m1's permutation before composing entrywise."""
    if m1.target != m2.source:
        raise ValueError("cannot compose: endpoints do not meet")
    if _mut("compose-reindexing"):
        comps = tuple(map(inner.comp, m2.components, m1.components))
    else:
        c2 = m2.components
        comps = tuple(
            [inner.comp(c2[j - 1], c1) for j, c1 in zip(m1.perm.images, m1.components)]
        )
    return SeqMor(m1.source, m2.target, compose(m2.perm, m1.perm), comps)


# ------------------------------------------------------------------ functor


@dataclass(frozen=True)
class Fun:
    """A pair of callables used to push sequences through a functor."""

    on_obj: Callable
    on_mor: Optional[Callable] = None


def tmap(fun: Fun, x):
    """Apply a functor entrywise to a SeqObj or SeqMor."""
    if isinstance(x, SeqObj):
        return SeqObj(tuple(map(fun.on_obj, x.entries)))
    return SeqMor(
        tmap(fun, x.source),
        tmap(fun, x.target),
        x.perm,
        tuple(map(fun.on_mor, x.components)),
    )


# ------------------------------------------------------------------ monad


def eta(a) -> SeqObj:
    return SeqObj((a,))


def eta_mor(inner: Level, f) -> SeqMor:
    return SeqMor(eta(inner.src(f)), eta(inner.tgt(f)), identity(1), (f,))


def mu(s: SeqObj) -> SeqObj:
    """Erase one layer of parentheses."""
    out = []
    for e in s.entries:
        out.extend(e.entries)
    return SeqObj(tuple(out))


def mu_mor(m: SeqMor) -> SeqMor:
    """Flatten a sequence of sequence morphisms: the underlying permutation
    is the blockwise composite of the outer and inner permutations."""
    combine = block_right if _mut("mu-block-order") else block
    p = combine(m.perm, [c.perm for c in m.components])
    comps = []
    for c in m.components:
        comps.extend(c.components)
    return SeqMor(mu(m.source), mu(m.target), p, tuple(comps))


# ------------------------------------------------------------------ strength


def strength_t2(a, y: SeqObj) -> SeqObj:
    """Pull a plain first factor inside: (a, (b_1 .. b_m)) becomes
    ((a, b_1) .. (a, b_m))."""
    return SeqObj(tuple((a, c) for c in y.entries))


def strength_t2_mor(alev: Level, f, m: SeqMor) -> SeqMor:
    a0, a1 = alev.src(f), alev.tgt(f)
    return SeqMor(
        strength_t2(a0, m.source),
        strength_t2(a1, m.target),
        m.perm,
        tuple((f, c) for c in m.components),
    )


def strength_t1(x: SeqObj, b) -> SeqObj:
    """Mirror image of strength_t2 with the plain factor on the right."""
    return SeqObj(tuple((c, b) for c in x.entries))


def strength_t1_mor(blev: Level, m: SeqMor, g) -> SeqMor:
    b0, b1 = blev.src(g), blev.tgt(g)
    return SeqMor(
        strength_t1(m.source, b0),
        strength_t1(m.target, b1),
        m.perm,
        tuple((c, g) for c in m.components),
    )


def _splice(n: int, i: int, args: tuple, entries) -> tuple:
    """Place each of entries at slot i among the remaining args."""
    head, tail = args[: i - 1], args[i:]
    if _mut("strength-slot-index") and n > 1:
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
    x = args[i - 1]
    entries = reversed(x.entries) if _mut("strength-entry-order") else x.entries
    return SeqObj(_splice(n, i, args, entries))


def strength_ti_mor(levels: tuple, n: int, i: int, margs: tuple) -> SeqMor:
    """Morphism action of strength_ti.  levels[k] supplies endpoints for the
    plain slots; the entry for slot i is unused and may be None."""
    if len(margs) != n or len(levels) != n:
        raise ValueError("argument count does not match arity")
    m = margs[i - 1]
    src_args = tuple(
        m.source if k == i - 1 else levels[k].src(margs[k]) for k in range(n)
    )
    tgt_args = tuple(
        m.target if k == i - 1 else levels[k].tgt(margs[k]) for k in range(n)
    )
    comps = _splice(n, i, margs, m.components)
    return SeqMor(
        strength_ti(n, i, src_args), strength_ti(n, i, tgt_args), m.perm, comps
    )


# ------------------------------------------------------------------ omega


def omega(x: SeqObj, y: SeqObj) -> SeqObj:
    """Row-major interleaving: vary the second sequence fastest."""
    return SeqObj(tuple((a, b) for a in x.entries for b in y.entries))


def omega_prime(x: SeqObj, y: SeqObj) -> SeqObj:
    """Column-major interleaving: vary the first sequence fastest."""
    return SeqObj(tuple((a, b) for b in y.entries for a in x.entries))


def omega_mor(p: SeqMor, q: SeqMor) -> SeqMor:
    n, m = len(p.components), len(q.components)
    images = tuple(
        (p.perm(i) - 1) * m + q.perm(j)
        for i in range(1, n + 1)
        for j in range(1, m + 1)
    )
    comps = tuple((a, b) for a in p.components for b in q.components)
    return SeqMor(
        omega(p.source, q.source), omega(p.target, q.target), Perm(images), comps
    )


def omega_prime_mor(p: SeqMor, q: SeqMor) -> SeqMor:
    n, m = len(p.components), len(q.components)
    images = tuple(
        (q.perm(j) - 1) * n + p.perm(i)
        for j in range(1, m + 1)
        for i in range(1, n + 1)
    )
    comps = tuple((a, b) for b in q.components for a in p.components)
    return SeqMor(
        omega_prime(p.source, q.source),
        omega_prime(p.target, q.target),
        Perm(images),
        comps,
    )


def omega_n(xs: tuple) -> SeqObj:
    """Lexicographic interleaving of any number of sequences; with no
    arguments this is the singleton empty tuple."""
    return SeqObj(tuple(itertools.product(*(x.entries for x in xs))))


def _rank(idx: tuple, lens: tuple) -> int:
    r = 0
    for i, l in zip(idx, lens):
        r = r * l + (i - 1)
    return r + 1


def omega_n_mor(ms: tuple) -> SeqMor:
    # grid point (i_1 .. i_k), in lexicographic order, goes to the rank of
    # (perm_1(i_1) .. perm_k(i_k)) and carries the components at i_1 .. i_k
    lens = tuple([len(m.components) for m in ms])
    images = tuple(
        [_rank(idx, lens) for idx in itertools.product(*(m.perm.images for m in ms))]
    )
    comps = tuple(itertools.product(*(m.components for m in ms)))
    return SeqMor(
        omega_n(tuple(m.source for m in ms)),
        omega_n(tuple(m.target for m in ms)),
        Perm(images),
        comps,
    )


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


def gamma_component(alev: Level, blev: Level, x: SeqObj, y: SeqObj) -> SeqMor:
    """The shuffle from the row-major to the column-major interleaving.

    Source entry (i-1)m+j holds (x_i, y_j) and goes to target slot (j-1)n+i,
    which holds the same pair; all components are identities.
    """
    n, m = len(x.entries), len(y.entries)
    images = tuple(
        (j - 1) * n + i for i in range(1, n + 1) for j in range(1, m + 1)
    )
    p = Perm(images)
    if _mut("gamma-transpose-direction"):
        p = invert(p)
    source = omega(x, y)
    comps = tuple(
        (alev.identity(a), blev.identity(b)) for a, b in source.entries
    )
    return SeqMor(source, omega_prime(x, y), p, comps)


def gamma_inv_component(alev: Level, blev: Level, x: SeqObj, y: SeqObj) -> SeqMor:
    n, m = len(x.entries), len(y.entries)
    g = gamma_component(alev, blev, x, y)
    source = omega_prime(x, y)
    comps = tuple(
        (alev.identity(a), blev.identity(b)) for a, b in source.entries
    )
    return SeqMor(source, omega(x, y), invert(g.perm), comps)


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
    lev2 = ProdLevel(tuple(levels[b1:b2]))
    lev3 = ProdLevel(tuple(levels[b2:b3]))
    if i < j:
        mid = gamma_component(lev2, lev3, u, v)
    else:
        mid = gamma_component(lev3, lev2, v, u)
    outer_levels = levels[:b1] + (None,) + levels[b3:]
    outer_margs = (
        tuple(levels[k].identity(args[k]) for k in range(b1))
        + (mid,)
        + tuple(levels[k].identity(args[k]) for k in range(b3, n))
    )
    h = strength_ti_mor(outer_levels, n - (b3 - b1) + 1, b1 + 1, outer_margs)
    if i < j:
        flat = lambda e: e[:b1] + e[b1][0] + e[b1][1] + e[b1 + 1 :]
    else:
        flat = lambda e: e[:b1] + e[b1][1] + e[b1][0] + e[b1 + 1 :]
    return tmap(Fun(flat, flat), h)
