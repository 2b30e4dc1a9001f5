"""Finite categories presented by explicit composition tables.

A category document lists objects, non-identity morphisms with their
endpoints, and a total composition table for composable pairs.  Identities
are implicit: every object ``x`` contributes a morphism named ``id_x``, and
that prefix is reserved.  Table entries are read as "first applied first",
so ``{"first": "f", "second": "g", "result": "h"}`` records g after f.

Loading validates the document exhaustively: dangling labels, missing or
duplicated table entries, endpoint mismatches, and associativity failures
are all rejected with the offending labels named.  Two loaded categories
are never equal unless they are the same object; values living in distinct
loads are deliberately incomparable.

A loaded FinCat is the base category expression: like the products and
free categories of the freesmc module it numbers its objects and
morphisms, in its own order, and supplies its own identities,
composition and endpoints.

>>> arrow = load_fincat({
...     "name": "arrow", "objects": ["x", "y"],
...     "morphisms": [{"id": "f", "src": "x", "tgt": "y"}], "compose": []})
>>> from shufflecat.calculus import Budget, Free, count_morphisms, count_objects, morphism_at
>>> bud = Budget(max_seq_len=2)
>>> count_morphisms(arrow, bud), morphism_at(arrow, bud, 2), arrow.free_depth()
(3, 'f', 0)
>>> count_objects(Free(arrow), bud)
7
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "CatExpr",
    "CommMonoid",
    "FinCat",
    "FinCatError",
    "FunTable",
    "check_functor",
    "identity_functor",
    "load_fincat",
    "load_monoid",
]

ID_PREFIX = "id_"


class FinCatError(ValueError):
    """Raised when a category document or operation is invalid."""


class CatExpr:
    """A category expression: for a budget, whose max_seq_len bounds the
    length of sequences, _count(bud, mor) counts its objects (or, when mor
    is true, its morphisms) and _at(bud, index, mor, table) numbers them
    from 0; calculus.count_objects and its kin read them."""


@dataclass(eq=False)
class FinCat(CatExpr):
    """A finite category with labelled objects and morphisms.

    Morphism labels include the implicit identities.  Equality is object
    identity: independently loaded copies do not compare equal.
    """

    name: str
    objects: tuple[str, ...]
    _src: dict[str, str] = field(repr=False)
    _tgt: dict[str, str] = field(repr=False)
    _table: dict[tuple[str, str], str] = field(repr=False)
    _declared: tuple[str, ...] = field(repr=False)

    def is_identity(self, m: str) -> bool:
        return m.startswith(ID_PREFIX)

    def identity(self, obj: str) -> str:
        if obj not in self._obj_set:
            raise FinCatError(f"{self.name}: no object {obj!r}")
        return ID_PREFIX + obj

    def src(self, m: str) -> str:
        try:
            return self._src[m]
        except KeyError:
            raise FinCatError(f"{self.name}: no morphism {m!r}") from None

    def tgt(self, m: str) -> str:
        try:
            return self._tgt[m]
        except KeyError:
            raise FinCatError(f"{self.name}: no morphism {m!r}") from None

    def comp(self, m2: str, m1: str) -> str:
        """Composite of m1 followed by m2."""
        if self.tgt(m1) != self.src(m2):
            raise FinCatError(
                f"{self.name}: cannot compose {m1!r} (into {self.tgt(m1)!r}) "
                f"with {m2!r} (out of {self.src(m2)!r})"
            )
        if self.is_identity(m1):
            return m2
        if self.is_identity(m2):
            return m1
        return self._table[(m1, m2)]

    def all_morphisms(self) -> tuple[str, ...]:
        """Identities in object order, then declared morphisms in document order."""
        return self._all_morphisms

    def hom(self, a: str, b: str) -> tuple[str, ...]:
        return tuple(
            m for m in self.all_morphisms() if self._src[m] == a and self._tgt[m] == b
        )

    def free_depth(self) -> int:
        return 0

    def _count(self, bud, mor: bool) -> int:
        return len(self.all_morphisms() if mor else self.objects)

    def _at(self, bud, index: int, mor: bool, table):
        return (self.all_morphisms() if mor else self.objects)[index]

    def __post_init__(self) -> None:
        self._obj_set = frozenset(self.objects)
        self._all_morphisms = tuple(ID_PREFIX + o for o in self.objects) + self._declared


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise FinCatError(msg)


def _records(doc: dict, key: str, fields: tuple, where: str) -> list[tuple]:
    """The entries of doc[key], a list of objects with a string under
    each of fields, as tuples of those strings."""
    entries = doc[key]
    _require(isinstance(entries, list), f"{where}: field {key!r} must be a list")
    for entry in entries:
        _require(isinstance(entry, dict)
                 and all(isinstance(entry.get(k), str) for k in fields),
                 f"{where}: each entry of {key!r} must be an object with string "
                 + ", ".join(map(repr, fields)))
    return [tuple(entry[k] for k in fields) for entry in entries]


def load_fincat(doc: dict) -> FinCat:
    """Build a validated FinCat from a parsed category document; any
    malformed document raises FinCatError, naming the field at fault."""
    _require(isinstance(doc, dict), "category document must be an object")
    for key in ("name", "objects", "morphisms", "compose"):
        _require(key in doc, f"category document missing key {key!r}")
    name = doc["name"]
    _require(isinstance(name, str) and name != "", "category name must be nonempty")

    objects = doc["objects"]
    _require(isinstance(objects, list) and all(isinstance(o, str) and o for o in objects),
             f"{name}: field 'objects' must be a list of nonempty strings")
    objects = tuple(objects)
    _require(len(set(objects)) == len(objects), f"{name}: duplicate object names")

    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    declared: list[str] = []
    for o in objects:
        src[ID_PREFIX + o] = o
        tgt[ID_PREFIX + o] = o
    for m, a, b in _records(doc, "morphisms", ("id", "src", "tgt"), name):
        _require(m != "", f"{name}: morphism ids must be nonempty strings")
        _require(not m.startswith(ID_PREFIX), f"{name}: morphism id {m!r} uses the reserved prefix {ID_PREFIX!r}")
        _require(m not in src, f"{name}: duplicate morphism id {m!r}")
        _require(a in objects, f"{name}: morphism {m!r} has unknown source {a!r}")
        _require(b in objects, f"{name}: morphism {m!r} has unknown target {b!r}")
        src[m] = a
        tgt[m] = b
        declared.append(m)

    table: dict[tuple[str, str], str] = {}
    for f, g, r in _records(doc, "compose", ("first", "second", "result"), name):
        for label in (f, g):
            _require(
                not label.startswith(ID_PREFIX),
                f"{name}: compose pairs must not mention the reserved identities ({label!r})",
            )
        for label in (f, g, r):
            _require(label in src, f"{name}: compose entry mentions unknown morphism {label!r}")
        _require(
            tgt[f] == src[g],
            f"{name}: compose entry ({f!r}, {g!r}) is not a composable pair "
            f"(endpoint {tgt[f]!r} vs {src[g]!r})",
        )
        _require(
            src[r] == src[f] and tgt[r] == tgt[g],
            f"{name}: composite of {f!r} then {g!r} has wrong endpoints: "
            f"{r!r} is {src[r]!r}->{tgt[r]!r}, expected {src[f]!r}->{tgt[g]!r}",
        )
        _require((f, g) not in table, f"{name}: duplicate compose entry for ({f!r}, {g!r})")
        table[(f, g)] = r

    for f in declared:
        for g in declared:
            if tgt[f] == src[g]:
                _require(
                    (f, g) in table,
                    f"{name}: compose table missing entry for first={f!r}, second={g!r}",
                )

    cat = FinCat(name=name, objects=objects, _src=src, _tgt=tgt, _table=table, _declared=tuple(declared))

    for f in declared:
        for g in declared:
            if tgt[f] != src[g]:
                continue
            for h in declared:
                if tgt[g] != src[h]:
                    continue
                left = cat.comp(h, cat.comp(g, f))
                right = cat.comp(cat.comp(h, g), f)
                _require(
                    left == right,
                    f"{name}: composition is not associative on ({f!r}, {g!r}, {h!r}): "
                    f"{left!r} != {right!r}",
                )
    return cat


@dataclass(eq=False)
class FunTable:
    """A functor between finite categories given by explicit tables."""

    domain: FinCat
    codomain: FinCat
    object_map: dict[str, str]
    morphism_map: dict[str, str]

    def on_obj(self, obj: str) -> str:
        return self.object_map[obj]

    def on_mor(self, m: str) -> str:
        return self.morphism_map[m]


def check_functor(t: FunTable) -> list[str]:
    """All functor law violations in t, as human-readable strings."""
    c, d = t.domain, t.codomain
    bad: list[str] = []
    for o in c.objects:
        if o not in t.object_map:
            bad.append(f"object {o!r} has no image")
        elif t.object_map[o] not in d.objects:
            bad.append(f"object {o!r} maps outside the codomain")
    if bad:
        return bad
    for m in c.all_morphisms():
        if m not in t.morphism_map:
            bad.append(f"morphism {m!r} has no image")
            continue
        fm = t.morphism_map[m]
        try:
            fs, ft = d.src(fm), d.tgt(fm)
        except FinCatError:
            bad.append(f"morphism {m!r} maps outside the codomain")
            continue
        if fs != t.object_map[c.src(m)] or ft != t.object_map[c.tgt(m)]:
            bad.append(
                f"morphism {m!r} image {fm!r} has endpoints {fs!r}->{ft!r}, "
                f"expected {t.object_map[c.src(m)]!r}->{t.object_map[c.tgt(m)]!r}"
            )
    if bad:
        return bad
    for o in c.objects:
        if t.morphism_map[c.identity(o)] != d.identity(t.object_map[o]):
            bad.append(f"identity of {o!r} is not sent to an identity")
    for f in c.all_morphisms():
        for g in c.all_morphisms():
            if c.tgt(f) != c.src(g):
                continue
            lhs = t.morphism_map[c.comp(g, f)]
            rhs = d.comp(t.morphism_map[g], t.morphism_map[f])
            if lhs != rhs:
                bad.append(
                    f"composition not preserved on ({f!r}, {g!r}): {lhs!r} != {rhs!r}"
                )
    return bad


def identity_functor(cat: FinCat) -> FunTable:
    return FunTable(
        domain=cat,
        codomain=cat,
        object_map={o: o for o in cat.objects},
        morphism_map={m: m for m in cat.all_morphisms()},
    )


@dataclass(eq=False)
class CommMonoid:
    """A finite commutative monoid, carried as a discrete category whose
    objects are the elements.  Folding a sequence of elements multiplies
    them out; commutativity makes the result order-independent."""

    name: str
    elements: tuple
    unit: str
    _table: dict
    cat: FinCat = field(init=False)

    def __post_init__(self) -> None:
        self.cat = FinCat(
            name=self.name,
            objects=self.elements,
            _src={ID_PREFIX + o: o for o in self.elements},
            _tgt={ID_PREFIX + o: o for o in self.elements},
            _table={},
            _declared=(),
        )

    def mult(self, a: str, b: str) -> str:
        if (a, b) not in self._table:
            raise FinCatError(f"unknown elements in product: ({a!r}, {b!r})")
        return self._table[(a, b)]

    def fold(self, entries) -> str:
        out = self.unit
        for e in entries:
            out = self.mult(out, e)
        return out


def load_monoid(doc: dict) -> CommMonoid:
    """Build a CommMonoid from ``{"elements", "unit", "table"}``; the table
    is a square matrix in element order.  Validates unit, associativity,
    commutativity, and closure exhaustively; any malformed document raises
    FinCatError, naming the field at fault."""
    _require(isinstance(doc, dict), "monoid document must be an object")
    for key in ("elements", "unit", "table"):
        _require(key in doc, f"monoid document missing key {key!r}")
    elements = doc["elements"]
    _require(isinstance(elements, list) and all(isinstance(e, str) for e in elements),
             "field 'elements' must be a list of strings")
    elements = tuple(elements)
    _require(len(elements) > 0, "monoid needs at least one element")
    _require(len(set(elements)) == len(elements), "duplicate monoid elements")
    unit = doc["unit"]
    _require(unit in elements, f"unit {unit!r} is not an element")
    rows = doc["table"]
    _require(isinstance(rows, list) and len(rows) == len(elements),
             "field 'table' must be a list with one row per element")
    table = {}
    for a, row in zip(elements, rows):
        _require(isinstance(row, list) and len(row) == len(elements),
                 f"field 'table': row for {a!r} must be a list with one entry per element")
        for b, r in zip(elements, row):
            _require(r in elements, f"product {a!r}*{b!r} = {r!r} is not an element")
            table[(a, b)] = r
    for a in elements:
        _require(table[(unit, a)] == a, f"unit law fails on {a!r}")
        _require(table[(a, unit)] == a, f"unit law fails on {a!r}")
    for a in elements:
        for b in elements:
            _require(
                table[(a, b)] == table[(b, a)],
                f"not commutative on ({a!r}, {b!r})",
            )
            for c in elements:
                _require(
                    table[(table[(a, b)], c)] == table[(a, table[(b, c)])],
                    f"not associative on ({a!r}, {b!r}, {c!r})",
                )
    return CommMonoid(doc.get("name", "monoid"), elements, unit, table)
