"""Sequence categories: the free symmetric strict monoidal construction.

Oracles here are independent of the implementation: interleavings are
recomputed with itertools.product, transpose permutations by matching
uniquely labelled entries, and every strength/interleaving map is checked
against its defining composite assembled from smaller primitives.  The
binary strengths, the binary interleavings of objects and morphisms and the
inverse interchange live here as such oracles, built through the validating
public constructors.
"""

import contextlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflecat import freesmc
from shufflecat.calculus import ApplyTCell, Gamma, eval_cell
from shufflecat.fincat import load_fincat
from shufflecat.freesmc import (
    Free,
    Fun,
    Prod,
    SeqMor,
    SeqObj,
    compose_seq,
    eta,
    eta_mor,
    gamma_component,
    gamma_ij_component,
    identity_seq,
    mu,
    mu_mor,
    omega_n,
    omega_n_mor,
    omega_sigma,
    omega_sigma_mor,
    partitions_for,
    seq,
    strength_ti,
    strength_ti_mor,
    sym_mor,
    tmap,
)
from shufflecat.mutations import MUTATIONS, inject
from shufflecat.perms import (
    Perm, all_perms, block, compose, identity, invert, permute, reversal, transposition,
)

ARROW = load_fincat(
    {
        "name": "arrow",
        "objects": ["x", "y"],
        "morphisms": [{"id": "f", "src": "x", "tgt": "y"}],
        "compose": [],
    }
)
SWAP = Perm((2, 1))

LABELS = load_fincat(
    {
        "name": "labels",
        "objects": [f"{c}{k}" for c in "abc" for k in (1, 2, 3, 4)],
        "morphisms": [],
        "compose": [],
    }
)
# the sequence categories whose endpoints the tests read
FA, FFA = Free(ARROW), Free(Free(ARROW))
FA2, FA3 = Free(Prod((ARROW, ARROW))), Free(Prod((ARROW, ARROW, ARROW)))


def mors_from(obj):
    return tuple(m for m in ARROW.all_morphisms() if ARROW.src(m) == obj)


@st.composite
def seq_mors(draw, max_len=3):
    n = draw(st.integers(min_value=0, max_value=max_len))
    source = tuple(draw(st.sampled_from(("x", "y"))) for _ in range(n))
    perm = Perm(tuple(draw(st.permutations(tuple(range(1, n + 1))))))
    comps = tuple(draw(st.sampled_from(mors_from(source[i]))) for i in range(n))
    return SeqMor(perm, comps)


def extend(m):
    """A morphism composable after m, built entrywise."""
    comps = tuple(mors_from(e)[-1] for e in FA.tgt(m).entries)
    return SeqMor(identity(len(comps)), comps)


# ---------------------------------------------------------------- oracles


def omega(x, y):
    """Row-major interleaving: vary the second sequence fastest."""
    return SeqObj(tuple((a, b) for a in x.entries for b in y.entries))


def omega_prime(x, y):
    """Column-major interleaving: vary the first sequence fastest."""
    return SeqObj(tuple((a, b) for b in y.entries for a in x.entries))


def strength_t2(a, y):
    """Pull a plain first factor inside: (a, (b_1 .. b_m)) becomes
    ((a, b_1) .. (a, b_m))."""
    return SeqObj(tuple((a, c) for c in y.entries))


def strength_t2_mor(f, m):
    return SeqMor(m.perm, tuple((f, c) for c in m.components))


def strength_t1(x, b):
    """Mirror image of strength_t2 with the plain factor on the right."""
    return SeqObj(tuple((c, b) for c in x.entries))


def strength_t1_mor(m, g):
    return SeqMor(m.perm, tuple((c, g) for c in m.components))


def omega_mor(p, q):
    n, m = len(p.components), len(q.components)
    images = tuple(
        (p.perm(i) - 1) * m + q.perm(j)
        for i in range(1, n + 1)
        for j in range(1, m + 1)
    )
    return SeqMor(Perm(images), tuple((a, b) for a in p.components for b in q.components))


def omega_prime_mor(p, q):
    n, m = len(p.components), len(q.components)
    images = tuple(
        (q.perm(j) - 1) * n + p.perm(i)
        for j in range(1, m + 1)
        for i in range(1, n + 1)
    )
    return SeqMor(Perm(images), tuple((a, b) for b in q.components for a in p.components))


def gamma_inv_component(alev, blev, x, y):
    g = gamma_component(alev, blev, x, y)
    ident = identity_seq(Prod((alev, blev)), omega_prime(x, y))
    return SeqMor(invert(g.perm), ident.components)


# ---------------------------------------------------------------- basics


def test_eta():
    assert eta("x") == seq(("x",))
    m = eta_mor("f")
    assert FA.src(m) == seq(("x",)) and FA.tgt(m) == seq(("y",))
    assert m.perm == identity(1) and m.components == ("f",)
    assert eta_mor("id_x") == identity_seq(ARROW, eta("x"))


def test_identity_and_sym():
    x = seq(("x", "y", "x"))
    assert identity_seq(ARROW, x).perm == identity(3)
    rho = Perm((2, 3, 1))
    m = sym_mor(ARROW, x, rho)
    assert FA.tgt(m) == x
    assert FA.src(m) == seq(permute(x.entries, rho))
    for i in range(1, 4):
        assert FA.tgt(m).entries[m.perm(i) - 1] == FA.src(m).entries[i - 1]


def test_compose_identity_laws():
    x = seq(("x", "y"))
    m = sym_mor(ARROW, x, SWAP)
    assert compose_seq(ARROW, m, identity_seq(ARROW, FA.src(m))) == m
    assert compose_seq(ARROW, identity_seq(ARROW, FA.tgt(m)), m) == m


def test_compose_pure_symmetries():
    x = seq(("x", "y", "x"))
    a, b = Perm((2, 3, 1)), Perm((2, 1, 3))
    m1 = sym_mor(ARROW, seq(permute(x.entries, a)), b)
    m2 = sym_mor(ARROW, x, a)
    c = compose_seq(ARROW, m2, m1)
    assert c.perm == compose(a, b)
    assert all(ARROW.is_identity(k) for k in c.components)


def test_compose_reindexes_components():
    m1 = sym_mor(ARROW, seq(("x", "y")), SWAP)
    m2 = SeqMor(identity(2), ("f", "id_y"))
    c = compose_seq(ARROW, m2, m1)
    assert FA.src(c) == seq(("y", "x")) and FA.tgt(c) == seq(("y", "y"))
    assert c.perm == SWAP
    assert c.components == ("id_y", "f")


def test_compose_endpoint_mismatch_raises():
    m = sym_mor(ARROW, seq(("x", "y")), SWAP)
    with pytest.raises(ValueError, match=r"^cannot compose: endpoints do not meet$"):
        compose_seq(ARROW, m, m)
    # each component has a composable partner, but not at its own slot
    with pytest.raises(ValueError, match=r"^cannot compose: endpoints do not meet$"):
        compose_seq(ARROW, SeqMor(SWAP, ("f", "id_y")), SeqMor(identity(2), ("f", "id_y")))
    # the endpoints differ in length: x y against x
    with pytest.raises(ValueError, match=r"^cannot compose: endpoints do not meet$"):
        compose_seq(ARROW, SeqMor(identity(1), ("id_x",)), m)


def test_compose_over_a_base_builds_no_sequence(monkeypatch):
    # the endpoint check compares component by component
    calls = []
    real = freesmc._obj
    monkeypatch.setattr(freesmc, "_obj", lambda entries: calls.append(entries) or real(entries))
    m = SeqMor(identity(2), ("f", "id_y"))
    assert compose_seq(ARROW, identity_seq(ARROW, seq(("y", "y"))), m).components == ("f", "id_y")
    assert calls == []


PAIR = Prod((ARROW, ARROW))


@pytest.mark.parametrize("call", [
    lambda: PAIR.identity(("x",)),
    lambda: PAIR.identity(("x", "y", "x")),
    lambda: PAIR.comp(("id_y",), ("f", "id_x")),
    lambda: PAIR.comp(("id_y", "id_x"), ("f", "id_x", "id_x")),
    lambda: PAIR.src(("f",)),
    lambda: PAIR.tgt(("f", "id_x", "id_y")),
], ids=["identity-short", "identity-long", "comp-second-short", "comp-first-long",
        "src-short", "tgt-long"])
def test_product_rejects_a_tuple_of_the_wrong_length(call):
    with pytest.raises(ValueError) as raised:
        call()
    assert raised.type is ValueError


@settings(max_examples=60)
@given(seq_mors())
def test_compose_associative(m1):
    m2 = extend(m1)
    m3 = extend(m2)
    lhs = compose_seq(ARROW, m3, compose_seq(ARROW, m2, m1))
    rhs = compose_seq(ARROW, compose_seq(ARROW, m3, m2), m1)
    assert lhs == rhs


# ---------------------------------------------------------------- mu


def test_mu_erases_parentheses():
    s = seq((seq(("x", "y")), seq(("x",))))
    assert mu(s) == seq(("x", "y", "x"))
    assert mu(seq(())) == seq(())


def test_mu_mor_outer_swap_blocks():
    inner1 = seq(("x",))
    inner2 = seq(("y", "x"))
    flev = Free(ARROW)
    outer = sym_mor(flev, seq((inner2, inner1)), SWAP)
    m = mu_mor(outer)
    assert FA.src(m) == seq(("x", "y", "x"))
    assert FA.tgt(m) == seq(("y", "x", "x"))
    assert m.perm == block(SWAP, [identity(1), identity(2)])
    assert m.perm == Perm((3, 1, 2))


@settings(max_examples=50)
@given(st.data())
def test_mu_mor_pure_perm_oracle(data):
    sizes = data.draw(st.lists(st.integers(0, 2), min_size=0, max_size=3))
    n = len(sizes)
    outer_p = Perm(tuple(data.draw(st.permutations(tuple(range(1, n + 1))))))
    blocks = []
    for k in sizes:
        entries = tuple(data.draw(st.sampled_from(("x", "y"))) for _ in range(k))
        p = Perm(tuple(data.draw(st.permutations(tuple(range(1, k + 1))))))
        blocks.append(sym_mor(ARROW, seq(entries), p))
    outer = SeqMor(outer_p, tuple(blocks))
    m = mu_mor(outer)
    # pure symmetries satisfy target[perm(i)] == source[i]
    source = FA.src(m).entries
    placed = [None] * len(source)
    for i in range(1, len(placed) + 1):
        placed[m.perm(i) - 1] = source[i - 1]
    assert tuple(placed) == FA.tgt(m).entries
    assert FA.src(m) == mu(FFA.src(outer)) and FA.tgt(m) == mu(FFA.tgt(outer))


def test_mu_mor_compatible_with_compose():
    flev = Free(ARROW)
    inner = SeqMor(identity(1), ("f",))
    m1 = sym_mor(flev, seq((seq(("x",)), seq(("x", "y")))), SWAP)
    m2 = SeqMor(identity(2), (inner, identity_seq(ARROW, seq(("x", "y")))))
    lhs = mu_mor(compose_seq(flev, m2, m1))
    rhs = compose_seq(ARROW, mu_mor(m2), mu_mor(m1))
    assert lhs == rhs


# ---------------------------------------------------------------- tmap

COLLAPSE = Fun(lambda o: "x", lambda m: "id_x")


def test_tmap_identity():
    ident = Fun(lambda o: o, lambda m: m)
    x = seq(("x", "y"))
    assert tmap(ident, x) == x
    m = sym_mor(ARROW, x, SWAP)
    assert tmap(ident, m) == m


def test_tmap_componentwise():
    assert tmap(COLLAPSE, seq(("y", "y"))) == seq(("x", "x"))
    m = SeqMor(identity(1), ("f",))
    assert tmap(COLLAPSE, m) == identity_seq(ARROW, seq(("x",)))


@settings(max_examples=40)
@given(seq_mors())
def test_tmap_functorial(m1):
    m2 = extend(m1)
    lhs = tmap(COLLAPSE, compose_seq(ARROW, m2, m1))
    rhs = compose_seq(ARROW, tmap(COLLAPSE, m2), tmap(COLLAPSE, m1))
    assert lhs == rhs


# ---------------------------------------------------------------- strengths


def test_strength_t2_objects():
    assert strength_t2("a", seq(())) == seq(())
    assert strength_t2("a", seq(("b1", "b2"))) == seq((("a", "b1"), ("a", "b2")))


def test_strength_t2_morphisms():
    m = sym_mor(ARROW, seq(("x", "y")), SWAP)
    r = strength_t2_mor("f", m)
    assert FA2.src(r) == seq((("x", "y"), ("x", "x")))
    assert FA2.tgt(r) == seq((("y", "x"), ("y", "y")))
    assert r.perm == SWAP
    assert r.components == (("f", "id_y"), ("f", "id_x"))


def test_strength_t1_objects():
    assert strength_t1(seq(("a1", "a2")), "b") == seq((("a1", "b"), ("a2", "b")))


def test_strength_ti_direct():
    got = strength_ti(3, 2, ("a", seq(("c1", "c2")), "b"))
    assert got == seq((("a", "c1", "b"), ("a", "c2", "b")))
    assert strength_ti(2, 2, ("a", seq(("b1",)))) == strength_t2("a", seq(("b1",)))
    assert strength_ti(3, 2, ("a", seq(()), "b")) == seq(())


def ti_via_pair(n, i, args):
    """Move slot i to the end, apply the binary strength, relabel back."""
    rest = args[: i - 1] + args[i:]
    paired = strength_t2(rest, args[i - 1])
    back = lambda e: e[0][: i - 1] + (e[1],) + e[0][i - 1 :]
    return tmap(Fun(back, back), paired)


def ti_via_tail(n, i, args):
    """First interleave the tail group, then the full product."""
    u = strength_ti(n - i + 1, 1, args[i - 1 :])
    nested = strength_ti(i, i, args[: i - 1] + (u,))
    flat = lambda e: e[: i - 1] + e[i - 1]
    return tmap(Fun(flat, flat), nested)


def ti_via_head(n, i, args):
    """First interleave the head group, then the full product."""
    v = strength_ti(i, i, args[:i])
    nested = strength_ti(n - i + 1, 1, (v,) + args[i:])
    flat = lambda e: e[0] + e[1:]
    return tmap(Fun(flat, flat), nested)


def test_strength_ti_factorizations():
    pool = [seq(p) for k in range(3) for p in itertools.product("xy", repeat=k)]
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            for x in pool:
                args = tuple("u%d" % k if k != i else x for k in range(1, n + 1))
                direct = strength_ti(n, i, args)
                assert direct == ti_via_pair(n, i, args)
                assert direct == ti_via_tail(n, i, args)
                assert direct == ti_via_head(n, i, args)


def test_strength_ti_mor():
    m = sym_mor(ARROW, seq(("x", "y")), SWAP)
    r = strength_ti_mor(3, 2, ("f", m, "id_y"))
    assert r.perm == SWAP
    assert FA3.src(r) == strength_ti(3, 2, ("x", FA.src(m), "y"))
    assert FA3.tgt(r) == strength_ti(3, 2, ("y", FA.tgt(m), "y"))
    assert r.components == (("f", "id_y", "id_y"), ("f", "id_x", "id_y"))


# ---------------------------------------------------------------- monad laws


def nested_objs(depth, max_len=2):
    if depth == 0:
        yield from ("x", "y")
        return
    inner = list(nested_objs(depth - 1, max_len))
    for k in range(max_len + 1):
        for combo in itertools.product(inner, repeat=k):
            yield seq(combo)


def test_monad_unit_laws():
    for s in nested_objs(1):
        assert mu(tmap(Fun(eta, None), s)) == s
        assert mu(eta(s)) == s


def test_monad_associativity():
    count = 0
    for s in itertools.islice(nested_objs(3, max_len=2), 400):
        assert mu(mu(s)) == mu(tmap(Fun(mu, None), s))
        count += 1
    assert count > 50


def test_strength_eta_mu_compat():
    # t after (1 x eta) equals eta of the pair
    assert strength_t2("a", eta("b")) == eta(("a", "b"))
    for yy in itertools.islice(nested_objs(2), 100):
        # t after (1 x mu) equals mu after Tt after t
        lhs = strength_t2("a", mu(yy))
        rhs = mu(
            tmap(Fun(lambda e: strength_t2(e[0], e[1]), None), strength_t2("a", yy))
        )
        assert lhs == rhs


# ---------------------------------------------------------------- omega


def test_omega_objects():
    x, y = seq(("a1", "a2")), seq(("b1", "b2"))
    assert omega(x, y) == seq(
        (("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2"))
    )
    assert omega_prime(x, y) == seq(
        (("a1", "b1"), ("a2", "b1"), ("a1", "b2"), ("a2", "b2"))
    )
    assert omega(seq(()), y) == seq(())
    assert omega(x, seq(())) == seq(())


def omega_via_composite(x, y):
    inner = strength_t1(x, y)
    expand = Fun(lambda e: strength_t2(e[0], e[1]), None)
    return mu(tmap(expand, inner))


def omega_prime_via_composite(x, y):
    inner = strength_t2(x, y)
    expand = Fun(lambda e: strength_t1(e[0], e[1]), None)
    return mu(tmap(expand, inner))


def test_omega_equals_defining_composite():
    pool = [seq(p) for k in range(4) for p in itertools.product(("a", "b"), repeat=k)]
    for x in pool:
        for y in pool:
            assert omega(x, y) == omega_via_composite(x, y)
            assert omega(x, y) == omega_n((x, y))
            assert omega_prime(x, y) == omega_prime_via_composite(x, y)


def omega_mor_via_composite(p, q):
    inner = strength_t1_mor(p, q)
    expand = Fun(
        lambda e: strength_t2(e[0], e[1]),
        lambda em: strength_t2_mor(em[0], em[1]),
    )
    return mu_mor(tmap(expand, inner))


@settings(max_examples=40)
@given(seq_mors(max_len=2), seq_mors(max_len=2))
def test_omega_mor_matches_composite(p, q):
    assert omega_mor(p, q) == omega_mor_via_composite(p, q)


# ---------------------------------------------------------------- gamma


def transpose_oracle(x, y):
    """Match uniquely labelled interleavings entry by entry."""
    src = omega(x, y).entries
    tgt = omega_prime(x, y).entries
    images = tuple(tgt.index(e) + 1 for e in src)
    return Perm(images)


def test_gamma_transpose_2x2():
    x, y = seq(("a1", "a2")), seq(("b1", "b2"))
    g = gamma_component(LABELS, LABELS, x, y)
    assert g.perm == Perm((1, 3, 2, 4))
    assert Free(Prod((LABELS, LABELS))).src(g) == omega(x, y)
    assert Free(Prod((LABELS, LABELS))).tgt(g) == omega_prime(x, y)
    assert all(
        LABELS.is_identity(c[0]) and LABELS.is_identity(c[1]) for c in g.components
    )


def test_gamma_transpose_2x3():
    x, y = seq(("a1", "a2")), seq(("b1", "b2", "b3"))
    g = gamma_component(LABELS, LABELS, x, y)
    assert g.perm == Perm((1, 3, 5, 2, 4, 6))
    assert g.perm == transpose_oracle(x, y)


def test_gamma_label_matching_oracle():
    for n in range(4):
        for m in range(4):
            x = seq(tuple(f"a{i+1}" for i in range(n)))
            y = seq(tuple(f"b{j+1}" for j in range(m)))
            assert gamma_component(LABELS, LABELS, x, y).perm == transpose_oracle(x, y)


def test_gamma_identity_when_singleton():
    x1, y = seq(("a1",)), seq(("b1", "b2"))
    plev = Prod((LABELS, LABELS))
    g = gamma_component(LABELS, LABELS, x1, y)
    assert g == identity_seq(plev, omega(x1, y))
    h = gamma_component(LABELS, LABELS, y, x1)
    assert h == identity_seq(plev, omega(y, x1))


def test_gamma_inverse():
    x, y = seq(("a1", "a2", "a3")), seq(("b1", "b2"))
    plev = Prod((LABELS, LABELS))
    g = gamma_component(LABELS, LABELS, x, y)
    gi = gamma_inv_component(LABELS, LABELS, x, y)
    assert gi.perm == invert(g.perm)
    assert compose_seq(plev, gi, g) == identity_seq(plev, omega(x, y))
    assert compose_seq(plev, g, gi) == identity_seq(plev, omega_prime(x, y))


@settings(max_examples=40)
@given(seq_mors(max_len=2), seq_mors(max_len=2))
def test_gamma_natural(p, q):
    plev = Prod((ARROW, ARROW))
    g_src = gamma_component(ARROW, ARROW, FA.src(p), FA.src(q))
    g_tgt = gamma_component(ARROW, ARROW, FA.tgt(p), FA.tgt(q))
    lhs = compose_seq(plev, g_tgt, omega_mor(p, q))
    rhs = compose_seq(plev, omega_prime_mor(p, q), g_src)
    assert lhs == rhs


def test_symmetry_axiom():
    x, y = seq(("a1", "a2")), seq(("b1", "b2", "b3"))
    plev = Prod((LABELS, LABELS))
    g = gamma_component(LABELS, LABELS, x, y)
    h = gamma_component(LABELS, LABELS, y, x)
    swap_pair = lambda e: (e[1], e[0])
    h_relabelled = tmap(Fun(swap_pair, swap_pair), h)
    assert compose_seq(plev, h_relabelled, g) == identity_seq(plev, omega(x, y))


# ---------------------------------------------------------------- gamma_ij


def test_gamma_ij_binary_is_gamma():
    x, y = seq(("a1", "a2")), seq(("b1", "b2"))
    g = gamma_ij_component((LABELS, LABELS), 2, 1, 2, (x, y))
    assert g == gamma_component(LABELS, LABELS, x, y)


def test_gamma_ij_empty_slot():
    x, y = seq(()), seq(("b1",))
    g = gamma_ij_component((LABELS, LABELS, LABELS), 3, 1, 3, (x, "c1", y))
    free = Free(Prod((LABELS, LABELS, LABELS)))
    assert free.src(g) == free.tgt(g) == seq(())


def test_gamma_ij_partition_independent():
    pool = {1: seq(("a1",)), 2: seq(("a1", "a2"))}
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                for li in (1, 2):
                    for lj in (1, 2):
                        args = tuple(
                            pool[li] if k == i else pool[lj] if k == j else f"c{k}"
                            for k in range(1, n + 1)
                        )
                        levels = tuple(LABELS for _ in range(n))
                        results = {
                            gamma_ij_component(levels, n, i, j, args, K)
                            for K in partitions_for(n, i, j)
                        }
                        assert len(results) == 1, (n, i, j, li, lj)


def test_gamma_ij_has_both_orders_as_inverses():
    x, y = seq(("a1", "a2")), seq(("b1", "b2"))
    levels = (LABELS, LABELS, LABELS)
    args = (x, "c2", y)
    g = gamma_ij_component(levels, 3, 1, 3, args)
    h = gamma_ij_component(levels, 3, 3, 1, args)
    assert h.perm == invert(g.perm)
    plev = Prod(levels)
    free = Free(plev)
    assert free.src(h) == free.tgt(g) and free.tgt(h) == free.src(g)
    assert compose_seq(plev, h, g) == identity_seq(plev, free.src(g))


def test_gamma_ij_two_partitions_n3_agree():
    x, y = seq(("a1", "a2")), seq(("b1", "b2"))
    levels = (LABELS, LABELS, LABELS)
    args = (x, "c2", y)
    k_wide = (0, 2, 3)
    k_tight = (0, 1, 3)
    a = gamma_ij_component(levels, 3, 1, 3, args, k_wide)
    b = gamma_ij_component(levels, 3, 1, 3, args, k_tight)
    assert a == b


# ---------------------------------------------------------------- omega_n


def omega_n_oracle(xs):
    return seq(tuple(itertools.product(*(x.entries for x in xs))))


def omega_n_left_recursion(xs):
    if not xs:
        return seq(((),))
    acc = seq(tuple((e,) for e in xs[0].entries))
    for x in xs[1:]:
        nested = omega(acc, x)
        flat = lambda e: e[0] + (e[1],)
        acc = tmap(Fun(flat, flat), nested)
    return acc


def omega_n_right_recursion(xs):
    if not xs:
        return seq(((),))
    if len(xs) == 1:
        return seq(tuple((e,) for e in xs[0].entries))
    rest = omega_n_right_recursion(xs[1:])
    nested = omega(xs[0], rest)
    flat = lambda e: (e[0],) + e[1]
    return tmap(Fun(flat, flat), nested)


def test_omega_n_small_cases():
    assert omega_n(()) == seq(((),))
    x = seq(("a1", "a2"))
    assert omega_n((x,)) == seq((("a1",), ("a2",)))
    xs = (seq(("a1", "a2")), seq(("b1",)), seq(("c1", "c2")))
    got = omega_n(xs)
    assert got == seq(
        (
            ("a1", "b1", "c1"),
            ("a1", "b1", "c2"),
            ("a2", "b1", "c1"),
            ("a2", "b1", "c2"),
        )
    )
    assert omega_n((x, seq(()))) == seq(())


def test_omega_n_matches_recursions():
    pool = [seq(p) for k in range(3) for p in itertools.product(("a", "b"), repeat=k)]
    for n in (2, 3, 4):
        for xs in itertools.islice(itertools.product(pool, repeat=n), 200):
            direct = omega_n(xs)
            assert direct == omega_n_oracle(xs)
            assert direct == omega_n_left_recursion(xs)
            assert direct == omega_n_right_recursion(xs)


def omega_n_mor_left(ms):
    wrap = Fun(lambda e: (e,), lambda c: (c,))
    acc = tmap(wrap, ms[0])
    for mm in ms[1:]:
        nested = omega_mor(acc, mm)
        flat = lambda e: e[0] + (e[1],)
        acc = tmap(Fun(flat, flat), nested)
    return acc


@settings(max_examples=30)
@given(seq_mors(max_len=2), seq_mors(max_len=2), seq_mors(max_len=2))
def test_omega_n_mor_consistent(p, q, r):
    m = omega_n_mor((p, q, r))
    assert FA3.src(m) == omega_n((FA.src(p), FA.src(q), FA.src(r)))
    assert FA3.tgt(m) == omega_n((FA.tgt(p), FA.tgt(q), FA.tgt(r)))
    assert m == omega_n_mor_left((p, q, r))
    expected = tuple(
        (a, b, c)
        for a in p.components
        for b in q.components
        for c in r.components
    )
    assert m.components == expected


# ---------------------------------------------------------------- omega_sigma


def test_omega_sigma_identity_is_omega_n():
    xs = (seq(("a1", "a2")), seq(("b1",)))
    assert omega_sigma(identity(2), xs) == omega_n(xs)


def test_omega_sigma_swap_is_prime():
    x, y = seq(("a1", "a2")), seq(("b1", "b2"))
    got = omega_sigma(SWAP, (x, y))
    assert got == omega_prime(x, y)


def omega_sigma_oracle(sigma, xs):
    """All tuples, ordered lexicographically by their sigma-permuted indices."""
    n = len(xs)
    grid = itertools.product(*(range(len(x.entries)) for x in xs))
    ordered = sorted(grid, key=lambda t: tuple(t[sigma(k) - 1] for k in range(1, n + 1)))
    return seq(tuple(tuple(xs[s].entries[t[s]] for s in range(n)) for t in ordered))


def test_omega_sigma_against_sort_oracle():
    xs = (seq(("a1", "a2")), seq(("b1",)), seq(("c1", "c2")))
    for sigma in all_perms(3):
        assert omega_sigma(sigma, xs) == omega_sigma_oracle(sigma, xs)


@settings(max_examples=20)
@given(seq_mors(max_len=2), seq_mors(max_len=2))
def test_omega_sigma_mor_endpoints(p, q):
    m = omega_sigma_mor(SWAP, (p, q))
    assert FA2.src(m) == omega_sigma(SWAP, (FA.src(p), FA.src(q)))
    assert FA2.tgt(m) == omega_sigma(SWAP, (FA.tgt(p), FA.tgt(q)))


# ---------------------------------------------------------------- mutations


def test_mutations_flip_and_restore():
    from shufflecat.mutations import MUTATIONS, inject

    x, y = seq(("a1", "a2")), seq(("b1", "b2"))
    clean = gamma_component(LABELS, LABELS, x, y)
    with inject("gamma-transpose-direction"):
        assert gamma_component(LABELS, LABELS, x, y).perm == invert(clean.perm)
    assert gamma_component(LABELS, LABELS, x, y) == clean
    with inject("strength-slot-index"):
        assert strength_ti(2, 1, (x, "c")).entries == (("c", "a1"), ("c", "a2"))
    assert strength_ti(2, 1, (x, "c")).entries == (("a1", "c"), ("a2", "c"))
    assert len(MUTATIONS) == 5
    with pytest.raises(KeyError):
        with inject("nonsense"):
            pass


# ---------------------------------------------------------------- validation


def test_public_constructors_stay_strict():
    with pytest.raises(TypeError, match=r"^SeqObj entries must be a tuple$"):
        SeqObj(["x", "y"])
    with pytest.raises(ValueError, match=r"^need one component per entry$"):
        SeqMor(identity(1), ("id_x", "id_y"))
    with pytest.raises(ValueError, match=r"^need one component per entry$"):
        SeqMor(identity(2), ("id_x",))


def revalidate(v):
    """Rebuild every Perm, SeqObj and SeqMor inside v through the public
    constructors and check that each equals the value it was built from."""
    if isinstance(v, Perm):
        assert Perm(v.images) == v
    elif isinstance(v, SeqObj):
        assert SeqObj(v.entries) == v
        revalidate(v.entries)
    elif isinstance(v, SeqMor):
        assert SeqMor(v.perm, v.components) == v
        revalidate(v.perm)
        revalidate(v.components)
    elif isinstance(v, (tuple, list)):
        for part in v:
            revalidate(part)


def kernel_calls(m, p, q, i):
    """(kernel, args) for every kernel that builds its result unchecked."""
    flev = Free(ARROW)
    # p in the first slot and q in the second, swapped into place
    nested = SeqMor(SWAP, (p, q))
    plain_objs, plain_mors = ("x", "y", "x"), ("f", "id_y", "id_x")
    args = plain_objs[: i - 1] + (FA.src(m),) + plain_objs[i:]
    margs = plain_mors[: i - 1] + (m,) + plain_mors[i:]
    # the interchange of each entry's pair of sequences, lifted to the sequence
    pairs = SeqObj(((FA.src(p), FA.src(q)), (FA.src(m), FA.src(p))))
    return [
        (identity, (m.perm.degree,)),
        (transposition, (4, i)),
        (reversal, (m.perm.degree,)),
        (all_perms, (m.perm.degree,)),
        (compose, (m.perm, invert(m.perm))),
        (invert, (m.perm,)),
        (block, (SWAP, [p.perm, q.perm])),
        (identity_seq, (ARROW, FA.src(m))),
        (compose_seq, (ARROW, extend(m), m)),
        (tmap, (COLLAPSE, m)),
        (tmap, (COLLAPSE, FA.tgt(m))),
        (tmap, (Fun(eta, eta_mor), m)),
        (eta, ("x",)),
        (eta_mor, ("f",)),
        (mu, (FFA.src(nested),)),
        (mu_mor, (nested,)),
        (identity_seq, (flev, FFA.tgt(nested))),
        (strength_ti, (3, i, args)),
        (strength_ti_mor, (3, i, margs)),
        (omega_n, ((FA.src(p), FA.src(q), FA.src(m)),)),
        (omega_n_mor, ((p, q, m),)),
        (gamma_component, (ARROW, ARROW, FA.src(p), FA.src(q))),
        (gamma_ij_component, ((ARROW,) * 3, 3, 1, 3, (FA.src(p), "x", FA.src(q)))),
        (omega_sigma_mor, (SWAP, (p, q))),
        (eval_cell, (ApplyTCell(Gamma((ARROW, ARROW))), pairs)),
    ]


@pytest.mark.parametrize("mutation", [None, *sorted(MUTATIONS)])
@settings(max_examples=30, deadline=None)
@given(seq_mors(), seq_mors(max_len=2), seq_mors(max_len=2), st.integers(1, 3))
def test_kernel_outputs_pass_the_public_validators(mutation, m, p, q, i):
    calls = kernel_calls(m, p, q, i)
    outputs = []
    with inject(mutation) if mutation else contextlib.nullcontext():
        for kernel, args in calls:
            try:
                outputs.append(kernel(*args))
            except ValueError:  # a faulty convention may meet no composable pair
                if mutation is None:
                    raise
    assert outputs
    for out in outputs:
        revalidate(out)


def endpoint_cases(m, p, q, i):
    """(kernel, the endpoints of its morphism output as the category derives
    them, its object kernel applied to the endpoints of its inputs)."""
    m2, nested = extend(m), SeqMor(SWAP, (p, q))
    x, y = FA.src(p), FA.src(m)
    margs = ("f", "id_y", "id_x")[: i - 1] + (m,) + ("f", "id_y", "id_x")[i:]
    ends = [
        tuple(FA.src(a) if isinstance(a, SeqMor) else ARROW.src(a) for a in margs),
        tuple(FA.tgt(a) if isinstance(a, SeqMor) else ARROW.tgt(a) for a in margs),
    ]
    lift = Fun(eta, eta_mor)
    cases = [
        ("identity_seq", FA, identity_seq(ARROW, x), (x, x)),
        ("compose_seq", FA, compose_seq(ARROW, m2, m), (FA.src(m), FA.tgt(m2))),
        ("tmap", FFA, tmap(lift, m), (tmap(lift, FA.src(m)), tmap(lift, FA.tgt(m)))),
        ("eta_mor", FA, eta_mor("f"), (eta("x"), eta("y"))),
        ("mu_mor", FA, mu_mor(nested), (mu(FFA.src(nested)), mu(FFA.tgt(nested)))),
        ("strength_ti_mor", FA3, strength_ti_mor(3, i, margs),
         tuple(strength_ti(3, i, e) for e in ends)),
        ("omega_n_mor", FA3, omega_n_mor((p, q, m)),
         tuple(omega_n((end(p), end(q), end(m))) for end in (FA.src, FA.tgt))),
        ("gamma_component", FA2, gamma_component(ARROW, ARROW, x, y),
         (omega(x, y), omega_prime(x, y))),
    ]
    return [(name, (free.src(v), free.tgt(v)), want) for name, free, v, want in cases]


@settings(max_examples=60, deadline=None)
@given(seq_mors(), seq_mors(max_len=2), seq_mors(max_len=2), st.integers(1, 3))
def test_morphism_kernels_run_between_their_object_kernels(m, p, q, i):
    # endpoints are derived from the components, so a kernel that builds
    # the wrong permutation or components lands between the wrong objects
    for kernel, got, want in endpoint_cases(m, p, q, i):
        assert got == want, kernel
