"""Acceptance gate: ten criteria, one printed pass/fail line each.

Every criterion runs the relevant suites at the default budget (sequence
length up to 3, nesting up to 2, at most 20000 points per check) over the
shipped fixtures: the terminal category, the discrete two-object category,
the walking arrow, and the Z/2 monoid algebra.  Run with ``pytest -s`` to
see the lines stream; the whole module is budgeted to finish in well under
five minutes.
"""

import functools
import time

import pytest

from shufflecat.calculus import (
    Budget,
    _endpoint_drift,
    _EVAL_ERRORS,
    cell_endpoints,
    enumerate_objects,
    eval_cell,
    eval_fun,
    fun_cod,
    fun_dom,
    level_of,
    show_value,
)
from shufflecat.fixtures import builtin_base, builtin_monoid
from shufflecat.mutations import MUTATIONS, inject
from shufflecat.suites import (
    DEFAULT_BUDGET,
    MUTATION_WITNESSES,
    SuiteContext,
    run_suites,
    symmetry_round_trip,
)

BASES = ("terminal", "discrete2", "arrow")
MUTATION_BUDGET = Budget(max_seq_len=3, max_nest=2, max_points=500, seed=0)
_T0 = time.monotonic()


def _context(base_name: str, bud: Budget = DEFAULT_BUDGET) -> SuiteContext:
    return SuiteContext(
        base=builtin_base(base_name),
        monoid=builtin_monoid("z2"),
        bud=bud,
    )


@functools.lru_cache(maxsize=None)
def _run_one(base_name: str, suite_id: str) -> dict:
    return run_suites([suite_id], _context(base_name))[0]


def _criterion(num: int, title: str, wanted: dict) -> list[dict]:
    """Run every (base -> suites) pair, print the one-line verdict, and
    fail the test on any failing check."""
    failing = []
    checks = 0
    entries = []
    for base_name, suite_ids in wanted.items():
        for suite_id in suite_ids:
            entry = _run_one(base_name, suite_id)
            entries.append(entry)
            checks += len(entry["checks"])
            failing.extend(
                f"{base_name}:{suite_id}:{c['name']}"
                for c in entry["checks"]
                if not c["passed"]
            )
    status = "PASS" if not failing else "FAIL"
    tail = f" failing={failing[:5]}" if failing else ""
    print(f"criterion {num:>2}/10 {title:<58} {status} ({checks} checks){tail}")
    assert not failing, f"criterion {num} has failing checks: {failing}"
    return entries


def test_criterion_01_monad_and_strength_foundation():
    _criterion(
        1,
        "monad laws, strength unity/associativity, compat squares",
        {
            "terminal": ["monad.laws", "strength.laws"],
            "discrete2": ["monad.laws", "strength.laws"],
            "arrow": ["monad.laws", "strength.laws", "monoid.algebra"],
        },
    )


def test_criterion_02_pseudocommutativity_axioms():
    _criterion(
        2,
        "interchange axioms (1)-(7) and the modification square",
        {
            "arrow": [
                "pseudocomm.axiom1",
                "pseudocomm.axiom2",
                "pseudocomm.axiom3",
                "pseudocomm.axiom4",
                "pseudocomm.axiom5",
                "pseudocomm.axiom6",
                "pseudocomm.axiom7",
                "pseudocomm.modification",
            ]
        },
    )


def test_criterion_03_symmetry_identity_and_inverse():
    _criterion(
        3,
        "symmetry composite is the identity; transpose is the inverse",
        {"arrow": ["symmetry.axiom"]},
    )


def test_criterion_04_partition_independence_all_bases():
    entries = _criterion(
        4,
        "interchange agrees across all admissible partitions, n <= 4",
        {base: ["thm.partition-independence"] for base in BASES},
    )
    names = {c["name"] for e in entries for c in e["checks"]}
    quads = {n for n in names if n.startswith("n4")}
    pairs = {n[3:6] for n in quads}
    assert pairs == {"1,2", "1,3", "1,4", "2,3", "2,4", "3,4"}


def test_criterion_05_grid_walk_layer():
    _criterion(
        5,
        "binary walk, its 1-cell axioms, associativity, naturality",
        {
            "arrow": [
                "omega.two",
                "omega.onecell",
                "omega.associativity",
                "omega.naturality",
                "omega.recursion",
            ]
        },
    )


def test_criterion_06_free_image_multifunctor_sampled():
    entries = _criterion(
        6,
        "free image preserves identities and composition, >=50/fixture",
        {base: ["multifunctor.laws"] for base in BASES},
    )
    for entry in entries:
        assert len(entry["checks"]) >= 50


def test_criterion_07_pseudo_symmetry():
    _criterion(
        7,
        "reordering cells: unit, product, equivariance, word choice",
        {
            "arrow": [
                "pseudosym.unit",
                "pseudosym.product",
                "pseudosym.top-equivariance",
                "pseudosym.bottom-equivariance",
                "pseudosym.word-independence",
                "multicat.laws",
            ]
        },
    )


def test_criterion_08_braid_relations_and_chain_independence():
    _criterion(
        8,
        "swap-cell braid relations and maximal-chain independence",
        {
            "arrow": [
                "yangbaxter.disjoint",
                "yangbaxter.1",
                "yangbaxter.2",
                "yangbaxter.3",
                "newlemma.1",
                "newlemma.2",
                "bruhat.path-independence",
            ]
        },
    )


def test_criterion_09_operad_and_permuted_free_images():
    _criterion(
        9,
        "permutation operad laws and the permuted free-image family",
        {"arrow": ["esigma.operad", "phi.omega-sigma", "phi.symmetric-action"]},
    )


def _passes_round_trip(composite, ident, src, tgt, lev, o) -> bool:
    try:
        left = eval_cell(composite, o)
        right = eval_cell(ident, o)
        drift = _endpoint_drift(lev, left, eval_fun(src, o), eval_fun(tgt, o))
    except _EVAL_ERRORS:
        return False
    return not drift and left == right


def test_criterion_10_meta_soundness_and_minimal_counterexamples():
    assert sorted(MUTATION_WITNESSES) == sorted(MUTATIONS)
    uncaught = []
    for name in sorted(MUTATION_WITNESSES):
        witness = MUTATION_WITNESSES[name]
        with inject(name):
            result = run_suites([witness], _context("arrow", MUTATION_BUDGET))[0]
        if result["passed"]:
            uncaught.append(f"{name} (witness {witness})")

    # One case verified exhaustively: the flipped transpose must be caught
    # at the first failing point of the object enumeration, with every
    # earlier point passing.
    composite, ident = symmetry_round_trip(builtin_base("arrow"))
    src, tgt = cell_endpoints(composite)
    dom, lev = fun_dom(src), level_of(fun_cod(src))
    with inject("gamma-transpose-direction"):
        result = run_suites(["symmetry.axiom"], _context("arrow", MUTATION_BUDGET))[0]
        check = next(c for c in result["checks"] if c["name"] == "round-trip")
        assert check["passed"] is False
        assert check["phase"] == "components"
        reported = check["counterexample"]["point"]

        objs, truncated = enumerate_objects(dom, MUTATION_BUDGET)
        assert not truncated, "minimality needs the exhaustive enumeration"
        verdicts = [
            _passes_round_trip(composite, ident, src, tgt, lev, o) for o in objs
        ]
    first_bad = verdicts.index(False)
    assert show_value(objs[first_bad]) == reported
    assert all(verdicts[:first_bad])

    status = "PASS" if not uncaught else "FAIL"
    tail = f" uncaught={uncaught}" if uncaught else ""
    print(
        f"criterion 10/10 {'every documented mutation is caught, minimally':<58} "
        f"{status} ({len(MUTATIONS)} mutations){tail}"
    )
    assert not uncaught


def test_total_runtime_stays_at_desk_scale():
    elapsed = time.monotonic() - _T0
    print(f"acceptance wall time: {elapsed:.1f}s (budget 300s)")
    assert elapsed < 300
