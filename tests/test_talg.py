"""Contract tests for multicells between free algebras.

Each test pins an independently derived outcome: hand-computed values on
small sequences, strict equalities of permutation bookkeeping, or the
pseudo-morphism axioms themselves checked pointwise by the calculus layer.
"""

import pytest

from shufflecat.algebras import (
    FreeAlg,
    MonoidAlg,
    MultiCell,
    MultiTwoCell,
    _coherence_check,
    _eta_check,
    _fit,
    _mu_check,
    _square_check,
    _with_free,
    bruhat_omega,
    free_multi,
    gamma_compose,
    gamma_compose_cell,
    identity_cell,
    identity_twocell,
    monoid_algebra_eval,
    multicell_equal,
    omega_cell,
    omega_sigma_fun,
    phi_T,
    phi_T_cell,
    postcompose_free,
    pseudo_sym,
    shuffle_into,
    sigma_act,
    structure_cell,
    validate_onecell,
    validate_twocell,
)
from shufflecat.calculus import (
    ApplyT,
    Budget,
    Compose,
    Const,
    Free,
    Gamma,
    IdCell,
    Identity,
    MonoidEval,
    MonoidMult,
    Mu,
    Omega,
    Prod,
    Proj,
    Shuffle,
    Strength,
    Tuple as TupleFun,
    TypecheckError,
    WhiskerR,
    equal_cell,
    equal_fun,
    eval_fun,
    fun_dom,
    gamma_source,
)
from shufflecat.calculus import FunBase
from shufflecat.fincat import FunTable
from shufflecat.fixtures import builtin_base, builtin_monoid
from shufflecat.freesmc import omega_sigma, seq
from shufflecat.perms import (
    Perm,
    block,
    compose as pcomp,
    identity as pid,
    invert,
    reduced_words,
    transposition,
)

D2 = builtin_base("discrete2")
AR = builtin_base("arrow")
TERM = builtin_base("terminal")
Z2 = builtin_monoid("z2")

BUD = Budget(max_seq_len=2, max_points=200, seed=0)
SMALL = Budget(max_seq_len=2, max_points=60, seed=0)
SWAP = Perm((2, 1))


# The reverse interleaving and the interchange between the two walks,
# built here as oracles for the two-slot walk and the two-cell checks.


def omega_prime_cell(inners):
    """Reverse interleaving for two slots: second slot slowest."""
    a, b = tuple(inners)
    prod = Prod((a, b))
    carriers = (Free(a), Free(b))
    und = gamma_source((a, b), 2, 1)
    first = WhiskerR(
        Gamma((Free(a), b)),
        Compose((ApplyT(Strength((a, b), 1)), Mu(prod))),
    )
    second = IdCell(Compose((Strength(carriers, 2), ApplyT(und), Mu(prod))))
    return MultiCell((FreeAlg(a), FreeAlg(b)), FreeAlg(prod), und, (first, second))


def gamma_twocell(a, b):
    """The interchange, as a 2-cell between the two interleaving cells."""
    return MultiTwoCell(omega_cell((a, b)), omega_prime_cell((a, b)), Gamma((a, b)))


# ------------------------------------------------------------- objects


def test_free_algebra_object():
    alg = FreeAlg(D2)
    assert alg.carrier == Free(D2)
    assert alg.structure == Mu(D2)


def test_monoid_algebra_object():
    alg = MonoidAlg(Z2)
    assert alg.carrier == Z2.cat
    assert alg.structure == MonoidEval(Z2)


# ------------------------------------------------------------- omega cells


def test_omega_cell_shape():
    m = omega_cell((D2, AR))
    assert m.arity == 2
    assert m.underlying == Omega((D2, AR))
    assert m.inputs == (FreeAlg(D2), FreeAlg(AR))
    assert m.output == FreeAlg(Prod((D2, AR)))
    assert len(m.constraints) == 2


def test_omega_cell_validates():
    m = omega_cell((D2, D2))
    report = validate_onecell(m, BUD)
    assert report.passed, report.counterexample
    # every sub-check ran: the bundle's points are the sum of theirs
    subs = [check(m, i, BUD) for check in (_square_check, _eta_check, _mu_check)
            for i in (1, 2)] + [_coherence_check(m, 1, 2, BUD)]
    assert report.points == sum(r.points for r in subs)


def test_identity_constraint_fails_coherence():
    good = omega_cell((D2, D2))
    doctored = MultiCell(
        inputs=good.inputs,
        output=good.output,
        underlying=good.underlying,
        constraints=(good.constraints[0], IdCell(good.square_source(2))),
    )
    report = _coherence_check(doctored, 1, 2, BUD)
    assert not report.passed
    assert report.counterexample is not None


def test_multicell_rejects_a_wrong_boundary():
    m = omega_cell((D2, AR))
    relabel = ApplyT(Shuffle(Prod((D2, AR)), SWAP))
    with pytest.raises(TypecheckError, match="^one constraint per input slot required$"):
        MultiCell(m.inputs, m.output, m.underlying, m.constraints[:1])
    with pytest.raises(TypecheckError, match="^underlying functor has the wrong boundary$"):
        MultiCell(m.inputs, m.output, Omega((AR, D2)), m.constraints)
    # constraint 1 frees the first slot, so in slot 2 its domain is wrong
    with pytest.raises(TypecheckError, match="^constraint 2 has the wrong boundary$"):
        MultiCell(m.inputs, m.output, m.underlying, (m.constraints[0],) * 2)
    # the right domain, but relabelled into another codomain
    with pytest.raises(TypecheckError, match="^constraint 1 has the wrong boundary$"):
        MultiCell(m.inputs, m.output, m.underlying,
                  (WhiskerR(m.constraints[0], relabel), m.constraints[1]))


def test_multitwocell_rejects_a_wrong_component():
    m = omega_cell((D2, AR))
    for component in (IdCell(m.square_source(1)),
                      IdCell(Compose((m.underlying, ApplyT(Shuffle(Prod((D2, AR)), SWAP)))))):
        with pytest.raises(TypecheckError, match="^component has the wrong boundary$"):
            MultiTwoCell(m, m, component)


def test_unary_collapse_validates():
    table = FunTable(
        AR,
        AR,
        {"x": "x", "y": "x"},
        {"id_x": "id_x", "id_y": "id_x", "f": "id_x"},
    )
    f = Compose((Proj(Prod((AR,)), 1), FunBase(table)))
    m = free_multi(f)
    assert m.arity == 1
    report = validate_onecell(m, BUD)
    assert report.passed, report.counterexample


def test_omega_prime_cell_validates():
    report = validate_onecell(omega_prime_cell((D2, AR)), BUD)
    assert report.passed, report.counterexample


# ------------------------------------------------------------- composition


def test_gamma_compose_signature_mismatch():
    f = omega_cell((D2, D2))
    with pytest.raises(TypecheckError):
        gamma_compose(f, [omega_cell((D2,))])
    with pytest.raises(TypecheckError):
        gamma_compose(f, [omega_cell((D2,)), omega_cell((AR,))])


def test_gamma_unity_right():
    f = omega_cell((D2, AR))
    comp = gamma_compose(f, [identity_cell(FreeAlg(D2)), identity_cell(FreeAlg(AR))])
    assert comp.inputs == f.inputs and comp.output == f.output
    assert multicell_equal(comp, f, BUD).passed


def test_gamma_unity_left():
    f = omega_cell((D2, AR))
    comp = gamma_compose(identity_cell(f.output), [f])
    assert multicell_equal(comp, f, BUD).passed


def test_failing_multicell_equal_names_first_failure_and_sums_points():
    # the row-major and column-major walks differ in the functor and in
    # both constraints; every sub-check still runs
    rows, cols = omega_cell((D2, D2)), omega_prime_cell((D2, D2))
    report = multicell_equal(rows, cols, BUD)
    under = equal_fun(rows.underlying, cols.underlying, _fit(BUD, Prod(rows.carriers)))
    subs = [under] + [
        equal_cell(rows.constraints[i - 1], cols.constraints[i - 1],
                   _fit(BUD, Prod(_with_free(rows.carriers, i))))
        for i in (1, 2)
    ]
    assert [r.passed for r in subs] == [False, False, False]
    assert report.kind == "bundle" and not report.passed
    assert report.counterexample == {**under.counterexample, "check": "underlying"}
    assert (report.phase, report.detail) == (under.phase, under.detail)
    assert report.points == sum(r.points for r in subs)
    assert report.truncated == any(r.truncated for r in subs)


def test_gamma_compose_validates():
    outer = omega_cell((Prod((D2, D2)), D2))
    comp = gamma_compose(outer, [omega_cell((D2, D2)), identity_cell(FreeAlg(D2))])
    assert comp.arity == 3
    report = validate_onecell(comp, SMALL)
    assert report.passed, report.counterexample


def test_omega_associativity():
    left = gamma_compose(
        omega_cell((D2, Prod((D2, D2)))),
        [identity_cell(FreeAlg(D2)), omega_cell((D2, D2))],
    )
    right = gamma_compose(
        omega_cell((Prod((D2, D2)), D2)),
        [omega_cell((D2, D2)), identity_cell(FreeAlg(D2))],
    )
    pl = Prod((D2, Prod((D2, D2))))
    lflat = (
        Proj(pl, 1),
        Compose((Proj(pl, 2), Proj(Prod((D2, D2)), 1))),
        Compose((Proj(pl, 2), Proj(Prod((D2, D2)), 2))),
    )
    pr = Prod((Prod((D2, D2)), D2))
    rflat = (
        Compose((Proj(pr, 1), Proj(Prod((D2, D2)), 1))),
        Compose((Proj(pr, 1), Proj(Prod((D2, D2)), 2))),
        Proj(pr, 2),
    )
    direct = omega_cell((D2, D2, D2))
    for grouped, flat in ((left, lflat), (right, rflat)):
        flattened = postcompose_free(grouped, TupleFun(flat))
        report = multicell_equal(flattened, direct, SMALL)
        assert report.passed, report.counterexample


# ------------------------------------------------------------- sigma action


def test_sigma_act_identity():
    m = omega_cell((D2, AR))
    assert sigma_act(m, pid(2)) is m


def test_sigma_act_composition():
    m = omega_cell((D2, AR, D2))
    s, t = Perm((2, 3, 1)), Perm((2, 1, 3))
    both = sigma_act(sigma_act(m, s), t)
    once = sigma_act(m, pcomp(s, t))
    assert both.inputs == once.inputs
    assert multicell_equal(both, once, SMALL).passed


def test_sigma_act_swap_on_interleaving():
    m = sigma_act(omega_cell((D2, AR)), SWAP)
    relabeled = postcompose_free(
        omega_prime_cell((AR, D2)), Shuffle(Prod((AR, D2)), SWAP)
    )
    assert m.inputs == relabeled.inputs == (FreeAlg(AR), FreeAlg(D2))
    report = multicell_equal(m, relabeled, BUD)
    assert report.passed, report.counterexample


def test_sigma_act_preserves_validity():
    report = validate_onecell(sigma_act(omega_cell((D2, AR)), SWAP), BUD)
    assert report.passed, report.counterexample


# ------------------------------------------------------------- free_multi


def test_free_multi_nullary():
    f = Const(Prod(()), D2, "a")
    m = free_multi(f)
    assert m.arity == 0
    assert m.constraints == ()
    assert eval_fun(m.underlying, ()) == seq(("a",))
    assert validate_onecell(m, BUD).passed


def test_free_multi_binary_identity_is_omega():
    assert free_multi(Identity(Prod((D2, AR)))) == omega_cell((D2, AR))


def test_free_multi_validates():
    m = free_multi(Shuffle(Prod((D2, AR)), SWAP))
    assert m.output == FreeAlg(Prod((AR, D2)))
    report = validate_onecell(m, BUD)
    assert report.passed, report.counterexample


# ------------------------------------------------------------- pseudo_sym


def test_pseudo_sym_identity():
    f = Identity(Prod((D2, AR)))
    t = pseudo_sym(f, pid(2))
    assert t.source == t.target == free_multi(f)
    assert t.component == IdCell(free_multi(f).underlying)


def test_pseudo_sym_swap_matches_interchange():
    f = Identity(Prod((D2, AR)))
    t = pseudo_sym(f, SWAP)
    assert t.source == free_multi(Compose((Shuffle(Prod((AR, D2)), SWAP), f)))
    assert t.target == sigma_act(free_multi(f), SWAP)
    oracle = WhiskerR(
        Gamma((AR, D2)),
        Compose((ApplyT(Shuffle(Prod((AR, D2)), SWAP)), ApplyT(f))),
    )
    rep = equal_cell(t.component, oracle, BUD)
    assert rep.passed, rep.counterexample


def test_pseudo_sym_validates():
    t = pseudo_sym(Identity(Prod((D2, AR))), SWAP)
    report = validate_twocell(t, SMALL)
    assert report.passed, report.counterexample


def test_pseudo_sym_word_independence():
    f = Identity(Prod((D2, D2, D2)))
    rev = Perm((3, 2, 1))
    words = sorted(reduced_words(rev))
    assert words == [(1, 2, 1), (2, 1, 2)]
    first = pseudo_sym(f, rev, word=words[0])
    second = pseudo_sym(f, rev, word=words[1])
    assert first.source == second.source and first.target == second.target
    rep = equal_cell(first.component, second.component, SMALL)
    assert rep.passed, rep.counterexample


def test_pseudo_sym_rejects_wrong_word():
    with pytest.raises(ValueError):
        pseudo_sym(Identity(Prod((D2, D2))), SWAP, word=(1, 1))


# ------------------------------------------------------------- bruhat


def test_bruhat_two():
    data = bruhat_omega((D2, AR))
    assert set(data["objects"]) == {pid(2), SWAP}
    assert set(data["covers"]) == {(pid(2), 1)}
    xs = (seq(("a",)), seq(("x", "y")))
    assert eval_fun(data["objects"][SWAP], xs) == omega_sigma(SWAP, xs)
    rep = equal_cell(data["covers"][(pid(2), 1)], Gamma((D2, AR)), BUD)
    assert rep.passed, rep.counterexample


def test_bruhat_three_path_independence():
    from shufflecat.calculus import VComp

    data = bruhat_omega((D2, D2, TERM))
    assert len(data["objects"]) == 6

    def chain(word):
        p = pid(3)
        parts = []
        for i in word:
            parts.append(data["covers"][(p, i)])
            p = pcomp(p, transposition(3, i))
        return VComp(tuple(parts))

    one, two = (chain(w) for w in sorted(reduced_words(Perm((3, 2, 1)))))
    rep = equal_cell(one, two, SMALL)
    assert rep.passed, rep.counterexample


# ------------------------------------------------------------- phi_T


def test_phi_T_identity_is_free_multi():
    f = Identity(Prod((D2, AR)))
    assert phi_T(f, pid(2)) == free_multi(f)


def test_phi_T_gives_sigma_interleaving():
    inners = (D2, AR, TERM)
    f = Identity(Prod(inners))
    s = Perm((2, 3, 1))
    xs = (seq(("a",)), seq(("x", "y")), seq(("*",)))
    assert eval_fun(omega_sigma_fun(inners, s), xs) == omega_sigma(s, xs)
    rep = equal_fun(phi_T(f, invert(s)).underlying, omega_sigma_fun(inners, s), SMALL)
    assert rep.passed, rep.counterexample


def test_phi_T_respects_action():
    f = Identity(Prod((D2, AR)))
    fr = Compose((shuffle_into((D2, AR), SWAP), f))
    lhs = phi_T(fr, pcomp(SWAP, SWAP))
    rhs = sigma_act(phi_T(f, SWAP), SWAP)
    assert multicell_equal(lhs, rhs, BUD).passed


def test_phi_T_cell_validates():
    f = Identity(Prod((D2, AR)))
    c = phi_T_cell(f, pid(2), SWAP)
    assert c.source == phi_T(f, pid(2))
    assert c.target == phi_T(f, SWAP)
    report = validate_twocell(c, SMALL)
    assert report.passed, report.counterexample


def test_block_perm():
    assert block(SWAP, (pid(2), pid(1))) == Perm((2, 3, 1))
    assert block(pid(2), (SWAP, pid(1))) == Perm((2, 1, 3))


# ------------------------------------------------------------- two-cells


def test_gamma_twocell_validates():
    t = gamma_twocell(D2, AR)
    assert t.source == omega_cell((D2, AR))
    assert t.target == omega_prime_cell((D2, AR))
    assert t.component == Gamma((D2, AR))
    report = validate_twocell(t, BUD)
    assert report.passed, report.counterexample


def test_gamma_compose_cell_validates():
    a = gamma_twocell(D2, D2)
    b = identity_twocell(identity_cell(FreeAlg(D2)))
    c = gamma_compose_cell(a, [b, b])
    assert c.source.inputs == (FreeAlg(D2), FreeAlg(D2))
    report = validate_twocell(c, SMALL)
    assert report.passed, report.counterexample


# ------------------------------------------------------------- monoid algebras


def test_monoid_algebra_eval_examples():
    alg = MonoidAlg(Z2)
    assert monoid_algebra_eval(alg, seq(())) == "0"
    assert monoid_algebra_eval(alg, seq(("1",))) == "1"
    assert monoid_algebra_eval(alg, seq(("1", "1"))) == "0"


def test_structure_cell_validates():
    for alg in (MonoidAlg(Z2), FreeAlg(D2)):
        report = validate_onecell(structure_cell(alg), BUD)
        assert report.passed, report.counterexample


def test_bare_multiplication_is_not_a_cell():
    # multiplying bare carriers slotwise is not an algebra map: folding
    # an empty free slot gives the unit on one route and not the other
    alg = MonoidAlg(Z2)
    und = MonoidMult(Z2, 2)
    carriers = (alg.carrier, alg.carrier)
    bare = MultiCell(
        (alg, alg),
        alg,
        und,
        tuple(
            IdCell(Compose((Strength(carriers, i), ApplyT(und), alg.structure)))
            for i in (1, 2)
        ),
    )
    report = _square_check(bare, 1, BUD)
    assert not report.passed
    assert report.counterexample is not None


def test_monoid_gamma_compose():
    alg = MonoidAlg(Z2)
    mb = alg.carrier
    t3 = Prod((mb, mb, mb))
    mult = MonoidMult(Z2, 2)
    left_fun = Compose((
        TupleFun((Compose((TupleFun((Proj(t3, 1), Proj(t3, 2))), mult)), Proj(t3, 3))),
        mult,
    ))
    right_fun = Compose((
        TupleFun((Proj(t3, 1), Compose((TupleFun((Proj(t3, 2), Proj(t3, 3))), mult)))),
        mult,
    ))
    struct = structure_cell(alg)
    left = gamma_compose(struct, [free_multi(left_fun)])
    right = gamma_compose(struct, [free_multi(right_fun)])
    assert left.output == alg
    assert multicell_equal(left, right, BUD).passed
    assert validate_onecell(left, BUD).passed


# ------------------------------------------------------------- helpers


def test_shuffle_into():
    s = Perm((2, 3, 1))
    f = shuffle_into((D2, AR, TERM), s)
    assert fun_dom(f) == Prod((AR, TERM, D2))
    assert eval_fun(f, ("x", "*", "a")) == ("a", "x", "*")
