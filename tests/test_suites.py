"""Contract tests for the suite catalog and runner."""

import functools
import hashlib
import json
import pickle

import pytest

from shufflecat import algebras, suites
from shufflecat.calculus import Budget, CatBase
from shufflecat.fixtures import builtin_base, builtin_monoid
from shufflecat.mutations import inject
from shufflecat.suites import (
    DEFAULT_BUDGET,
    LAW_COVERAGE,
    MUTATION_WITNESSES,
    SUITES,
    SuiteContext,
    catalog,
    default_context,
    render_table,
    resolve_suite_ids,
    run_suites,
)

SMALL = SuiteContext(
    builtin_base("arrow"),
    builtin_monoid("z2"),
    Budget(max_seq_len=2, max_nest=2, max_points=100, seed=0),
)


def test_catbase_returns_the_loaded_category():
    # the benchmark's workloads still build their contexts through CatBase
    base = builtin_base("arrow")
    assert CatBase(base) is base


def test_catalog_covers_every_suite():
    rows = catalog(SMALL)
    assert [ident for ident, _, _ in rows] == sorted(SUITES)
    assert all(count > 0 for _, _, count in rows)


@pytest.mark.parametrize("bud", [SMALL.bud, DEFAULT_BUDGET], ids=["small", "default"])
@pytest.mark.parametrize("base", ["terminal", "discrete2", "arrow"])
def test_building_the_suites_composes_no_algebra_cells(monkeypatch, base, bud):
    # composites of algebra cells are built by the checks that compare them
    def refuse(*args):
        raise AssertionError("a suite builder composed algebra cells")

    monkeypatch.setattr(algebras, "gamma_compose", refuse)
    monkeypatch.setattr(suites, "gamma_compose", refuse)
    rows = catalog(default_context(base, bud=bud))
    assert [ident for ident, _, _ in rows] == sorted(SUITES)


def test_catalog_states_the_key_laws():
    laws = {ident: law for ident, law, _ in catalog(SMALL)}
    assert "equals the identity of the 1-cell" in laws["symmetry.axiom"]
    assert "Associativity of ω" in laws["omega.associativity"]
    assert "weak right order on" in laws["bruhat.path-independence"]
    assert "is an identity 2-cell" in laws["pseudocomm.axiom4"]


@pytest.mark.parametrize("bud", [SMALL.bud, DEFAULT_BUDGET], ids=["small", "default"])
def test_every_check_is_a_picklable_partial_of_a_module_level_function(bud):
    ctx = SuiteContext(SMALL.base, SMALL.monoid, bud)
    for ident in sorted(SUITES):
        for name, check in SUITES[ident].build(ctx):
            assert isinstance(check, functools.partial), (ident, name)
            qual = check.func.__qualname__
            assert "<lambda>" not in qual and "<locals>" not in qual, (ident, name, qual)
            pickle.dumps(check)


@pytest.mark.parametrize("ident", ["esigma.operad", "monad.laws", "strength.laws",
                                   "omega.two"])
def test_an_unpickled_check_reports_what_the_original_does(ident):
    for name, check in SUITES[ident].build(SMALL):
        copy = pickle.loads(pickle.dumps(check))
        assert copy().to_dict() == check().to_dict(), name


def test_law_coverage_is_total_and_valid():
    for law, idents in LAW_COVERAGE.items():
        assert idents, law
        for ident in idents:
            assert ident in SUITES, (law, ident)
    covered = {ident for idents in LAW_COVERAGE.values() for ident in idents}
    assert covered == set(SUITES)


def test_mutation_witnesses_name_real_suites():
    from shufflecat.mutations import MUTATIONS

    assert set(MUTATION_WITNESSES) == set(MUTATIONS)
    for ident in MUTATION_WITNESSES.values():
        assert ident in SUITES


def test_resolve_rejects_unknown_ids():
    with pytest.raises(ValueError, match="unknown suite id"):
        resolve_suite_ids(["no.such.suite"])
    assert resolve_suite_ids("all") == sorted(SUITES)
    assert resolve_suite_ids(["monad.laws", "monad.laws"]) == ["monad.laws"]


def test_results_are_ordered_and_deterministic():
    ids = ["esigma.operad", "pseudosym.unit", "monad.laws"]
    first = run_suites(ids, SMALL)
    second = run_suites(ids, SMALL)
    assert [e["suite"] for e in first] == sorted(ids)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert "wall_ms" not in first[0]
    timed = run_suites(["esigma.operad"], SMALL, timings=True)
    assert "wall_ms" in timed[0]


def test_render_table_lists_one_row_per_suite():
    results = run_suites(["esigma.operad", "monad.laws"], SMALL)
    table = render_table(results)
    lines = table.splitlines()
    assert "suite" in lines[0]
    assert any("esigma.operad" in line for line in lines)
    assert any(line.endswith("ok") for line in lines[2:])


# sha256 of json.dumps(run_suites("all", SMALL), sort_keys=True), recorded
# before evaluation was reorganised; it is the same for every
# PYTHONHASHSEED.  Reports at a fixed budget and seed stay byte-identical.
ALL_SUITES_SHA256 = "35c2e3062ac6007016d192b9ac1ba525b9cd9b0c26dd92d743b3c4a98956cfae"


def test_all_suites_pass():
    results = run_suites("all", SMALL)
    bad = []
    for entry in results:
        for check in entry["checks"]:
            if not check["passed"]:
                bad.append((entry["suite"], check["name"],
                            check["phase"], check["counterexample"]))
    assert not bad, bad
    text = json.dumps(results, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == ALL_SUITES_SHA256


@pytest.mark.parametrize("ident", [
    "pseudocomm.axiom4", "pseudocomm.axiom5", "pseudocomm.modification",
    "pseudosym.bottom-equivariance", "symmetry.axiom", "thm.partition-independence",
])
def test_strength_entry_order_is_caught_through_its_morphism_action(ident):
    # these suites see the reversed strength only where it acts on
    # morphisms: its permutation conjugated by the reversal
    with inject("strength-entry-order"):
        results = run_suites([ident], SMALL)
    assert results[0]["passed"] is False


MUTATION_BUDGET = Budget(max_seq_len=3, max_nest=2, max_points=500, seed=0)


@pytest.mark.parametrize("mutation", sorted(MUTATION_WITNESSES))
def test_each_mutation_is_caught(mutation):
    ctx = SuiteContext(builtin_base("arrow"), builtin_monoid("z2"),
                       MUTATION_BUDGET)
    witness = MUTATION_WITNESSES[mutation]
    with inject(mutation):
        results = run_suites([witness], ctx)
    assert results[0]["passed"] is False
