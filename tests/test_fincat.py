"""Finite categories from tables: loading, validation, functors."""

import json

import pytest

from shufflecat.fincat import (
    FinCat,
    FinCatError,
    FunTable,
    check_functor,
    identity_functor,
    load_fincat,
    load_monoid,
)
from shufflecat.fixtures import builtin_base, builtin_base_names


WALKING_ARROW = {
    "name": "arrow",
    "objects": ["x", "y"],
    "morphisms": [{"id": "f", "src": "x", "tgt": "y"}],
    "compose": [],
}

# a one-object category with three endomorphisms and an associative table
# (the cyclic monoid of order 3)
CYCLE3 = {
    "name": "cycle3",
    "objects": ["x"],
    "morphisms": [
        {"id": "r", "src": "x", "tgt": "x"},
        {"id": "s", "src": "x", "tgt": "x"},
    ],
    "compose": [
        {"first": "r", "second": "r", "result": "s"},
        {"first": "r", "second": "s", "result": "id_x"},
        {"first": "s", "second": "r", "result": "id_x"},
        {"first": "s", "second": "s", "result": "r"},
    ],
}


def test_load_terminal():
    c = load_fincat({"name": "pt", "objects": ["*"], "morphisms": [], "compose": []})
    assert c.objects == ("*",)
    assert c.all_morphisms() == ("id_*",)


def test_load_walking_arrow():
    c = load_fincat(WALKING_ARROW)
    assert c.objects == ("x", "y")
    assert c.all_morphisms() == ("id_x", "id_y", "f")
    assert c.src("f") == "x" and c.tgt("f") == "y"
    assert c.comp("id_y", "f") == "f"
    assert c.comp("f", "id_x") == "f"


def test_load_cycle3_and_compose_direction():
    c = load_fincat(CYCLE3)
    # comp(second, first) follows "first applied first" table entries
    assert c.comp("r", "r") == "s"
    assert c.comp("s", "r") == "id_x"


def test_discrete_two_object_counts():
    c = load_fincat({"name": "d", "objects": ["a", "b"], "morphisms": [], "compose": []})
    assert len(c.objects) == 2
    assert len(c.all_morphisms()) == 2


def test_builtin_fixture_names():
    assert set(builtin_base_names()) == {"terminal", "discrete2", "arrow"}
    for name in builtin_base_names():
        c = builtin_base(name)
        assert isinstance(c, FinCat)


def test_missing_composite_rejected():
    doc = {
        "name": "bad",
        "objects": ["x"],
        "morphisms": [
            {"id": "r", "src": "x", "tgt": "x"},
        ],
        "compose": [],
    }
    with pytest.raises(FinCatError, match="r.*r"):
        load_fincat(doc)


def test_non_associative_table_rejected_naming_triple():
    doc = json.loads(json.dumps(CYCLE3))
    # perturb one entry: (r;r)=s stays, but r;(r;r)=r;s=id while (r;r);r=s;r
    # is rewritten to r, breaking associativity on the triple (r, r, r)
    doc["compose"][2]["result"] = "r"
    with pytest.raises(FinCatError, match="associat"):
        load_fincat(doc)


def test_dangling_labels_rejected():
    doc = {
        "name": "bad",
        "objects": ["x"],
        "morphisms": [{"id": "f", "src": "x", "tgt": "zzz"}],
        "compose": [],
    }
    with pytest.raises(FinCatError, match="zzz"):
        load_fincat(doc)


def test_reserved_identity_names_rejected():
    doc = {
        "name": "bad",
        "objects": ["x"],
        "morphisms": [{"id": "id_x", "src": "x", "tgt": "x"}],
        "compose": [],
    }
    with pytest.raises(FinCatError, match="reserved"):
        load_fincat(doc)
    doc2 = json.loads(json.dumps(CYCLE3))
    doc2["compose"].append({"first": "id_x", "second": "r", "result": "r"})
    with pytest.raises(FinCatError, match="reserved"):
        load_fincat(doc2)


def test_endpoint_mismatch_in_table_rejected():
    doc = {
        "name": "bad",
        "objects": ["x", "y"],
        "morphisms": [
            {"id": "f", "src": "x", "tgt": "y"},
            {"id": "g", "src": "y", "tgt": "x"},
            {"id": "e", "src": "x", "tgt": "x"},
            {"id": "h", "src": "y", "tgt": "y"},
        ],
        "compose": [
            {"first": "f", "second": "g", "result": "h"},
            {"first": "g", "second": "f", "result": "f"},
            {"first": "e", "second": "e", "result": "e"},
            {"first": "h", "second": "h", "result": "h"},
            {"first": "e", "second": "f", "result": "f"},
            {"first": "f", "second": "h", "result": "f"},
            {"first": "h", "second": "g", "result": "g"},
            {"first": "g", "second": "e", "result": "g"},
        ],
    }
    with pytest.raises(FinCatError, match="f.*g|endpoint"):
        load_fincat(doc)


def test_cross_category_values_never_equal():
    c1 = load_fincat(WALKING_ARROW)
    c2 = load_fincat(WALKING_ARROW)
    assert c1 != c2 and c1 == c1


def test_identity_functor_checks():
    c = load_fincat(CYCLE3)
    assert check_functor(identity_functor(c)) == []


def test_constant_functor_checks():
    c = load_fincat(WALKING_ARROW)
    d = load_fincat(CYCLE3)
    t = FunTable(
        domain=c,
        codomain=d,
        object_map={"x": "x", "y": "x"},
        morphism_map={"id_x": "id_x", "id_y": "id_x", "f": "id_x"},
    )
    assert check_functor(t) == []


def test_broken_functor_named():
    c = load_fincat(WALKING_ARROW)
    t = FunTable(
        domain=c,
        codomain=c,
        object_map={"x": "x", "y": "y"},
        morphism_map={"id_x": "id_x", "id_y": "id_y", "f": "id_x"},
    )
    failures = check_functor(t)
    assert failures and any("f" in msg for msg in failures)


def test_load_monoid_z2():
    from shufflecat.fincat import load_monoid
    from shufflecat.fixtures import builtin_monoid

    m = builtin_monoid("z2")
    assert m.fold(()) == "0"
    assert m.fold(("1",)) == "1"
    assert m.fold(("1", "1")) == "0"
    assert m.mult("1", "0") == "1"
    assert m.cat.objects == ("0", "1")
    assert m.cat.identity("1") == "id_1"


def test_load_monoid_rejections():
    import pytest

    from shufflecat.fincat import FinCatError, load_monoid

    ok = {"elements": ["0", "1"], "unit": "0", "table": [["0", "1"], ["1", "0"]]}
    load_monoid(ok)
    with pytest.raises(FinCatError, match="unit law"):
        load_monoid({**ok, "table": [["1", "1"], ["1", "0"]]})
    with pytest.raises(FinCatError, match="commutative"):
        load_monoid(
            {
                "elements": ["0", "1", "2"],
                "unit": "0",
                "table": [["0", "1", "2"], ["1", "1", "1"], ["2", "2", "2"]],
            }
        )
    with pytest.raises(FinCatError, match="not an element"):
        load_monoid({**ok, "table": [["0", "1"], ["1", "9"]]})


# Documents of the wrong JSON shape, with the field each error must name.
MALFORMED_CATEGORIES = {
    "morphism-entry-a-string": ({**WALKING_ARROW, "morphisms": ["f"]}, "'morphisms'"),
    "morphism-entry-without-id": (
        {**WALKING_ARROW, "morphisms": [{"src": "x", "tgt": "y"}]}, "'morphisms'"),
    "morphisms-an-object": ({**WALKING_ARROW, "morphisms": {"f": "x"}}, "'morphisms'"),
    "compose-label-a-list": (
        {**CYCLE3, "compose": [{"first": ["r"], "second": "r", "result": "s"}]},
        "'compose'"),
    "document-a-number": (5, "must be an object"),
    "objects-a-string": ({**WALKING_ARROW, "objects": "xy"}, "'objects'"),
}

Z2_DOC = {"elements": ["0", "1"], "unit": "0", "table": [["0", "1"], ["1", "0"]]}

MALFORMED_MONOIDS = {
    "document-a-list": ([], "must be an object"),
    "table-row-a-number": ({"elements": ["a"], "unit": "a", "table": [5]}, "'table'"),
    "table-a-string": ({**Z2_DOC, "table": "01"}, "'table'"),
    "element-a-list": ({"elements": [["a"]], "unit": "a", "table": [["a"]]}, "'elements'"),
    "elements-a-string": ({**Z2_DOC, "elements": "01"}, "'elements'"),
}


@pytest.mark.parametrize("doc, field", MALFORMED_CATEGORIES.values(),
                         ids=MALFORMED_CATEGORIES.keys())
def test_malformed_category_raises_fincat_error_naming_the_field(doc, field):
    with pytest.raises(FinCatError, match=field):
        load_fincat(doc)


@pytest.mark.parametrize("doc, field", MALFORMED_MONOIDS.values(),
                         ids=MALFORMED_MONOIDS.keys())
def test_malformed_monoid_raises_fincat_error_naming_the_field(doc, field):
    with pytest.raises(FinCatError, match=field):
        load_monoid(doc)
