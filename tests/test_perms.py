"""Permutation algebra: frozen small cases first, then the group laws.

Expected values below were derived by hand from the fixed conventions:
compose(p, q)(i) = p(q(i)) ("apply q first"), permute(seq, p)[i] = seq[p(i)],
act(p, seq)[p(i)] = seq[i].
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from shufflecat.perms import (
    Perm,
    act,
    all_perms,
    block,
    block_right,
    compose,
    identity,
    inversions,
    invert,
    is_weak_right_cover,
    permute,
    reduced_words,
    reversal,
    transposition,
    word_to_perm,
)


def perms(max_degree=5):
    return st.integers(min_value=0, max_value=max_degree).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(
            lambda xs: Perm(tuple(xs))
        )
    )


# -- construction and validation ------------------------------------------

def test_degree_zero_and_one_are_identities():
    assert identity(0) == Perm(())
    assert identity(1) == Perm((1,))
    assert compose(identity(0), identity(0)) == identity(0)


def test_rejects_non_bijections():
    with pytest.raises(ValueError, match=r"^not a bijection of 1\.\.2: \(1, 1\)$"):
        Perm((1, 1))
    with pytest.raises(ValueError, match=r"^not a bijection of 1\.\.2: \(0, 1\)$"):
        Perm((0, 1))
    with pytest.raises(ValueError, match=r"^not a bijection of 1\.\.2: \(2, 3\)$"):
        Perm((2, 3))


# -- compose ----------------------------------------------------------------

def test_compose_identity():
    assert compose(identity(3), identity(3)) == identity(3)


def test_compose_transposition_involution():
    s1 = transposition(2, 1)
    assert compose(s1, s1) == identity(2)


def test_compose_hand_table():
    # p(q(i)) for p=[2,3,1], q=[2,1,3]: i=1 -> p(2)=3, i=2 -> p(1)=2, i=3 -> p(3)=1
    assert compose(Perm((2, 3, 1)), Perm((2, 1, 3))) == Perm((3, 2, 1))


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose(identity(2), identity(3))


@given(perms(), st.data())
def test_group_laws(p, data):
    n = p.degree
    q = Perm(tuple(data.draw(st.permutations(list(range(1, n + 1))))))
    r = Perm(tuple(data.draw(st.permutations(list(range(1, n + 1))))))
    assert compose(compose(p, q), r) == compose(p, compose(q, r))
    assert compose(p, identity(n)) == p
    assert compose(identity(n), p) == p
    assert compose(p, invert(p)) == identity(n)
    assert compose(invert(p), p) == identity(n)


def test_group_laws_exhaustive_small():
    for n in range(5):
        for p in all_perms(n):
            assert compose(p, invert(p)) == identity(n)
            for q in all_perms(n):
                assert permute(permute(tuple(range(n)), p), q) == permute(
                    tuple(range(n)), compose(p, q)
                )


# -- sequence actions --------------------------------------------------------

def test_permute_is_right_action_formula():
    # permute(seq, p)[i] = seq[p(i)]
    assert permute(("a", "b", "c"), Perm((2, 3, 1))) == ("b", "c", "a")


def test_act_inverts_permute():
    p = Perm((3, 1, 2))
    seq = ("x", "y", "z")
    assert permute(act(p, seq), p) == seq
    assert act(p, permute(seq, p)) == seq
    # act puts entry i at slot p(i): x lands at 3, y at 1, z at 2
    assert act(p, seq) == ("y", "z", "x")


# -- block composition -------------------------------------------------------

def test_block_identity():
    assert block(identity(3), [identity(2), identity(1), identity(3)]) == identity(6)


def test_block_swaps_blocks():
    # blocks (x | y z), outer swap: result is (y z x); entry i lands at slot pi(i)
    pi = block(Perm((2, 1)), [identity(1), identity(2)])
    assert pi == Perm((3, 1, 2))
    assert act(pi, ("x", "y", "z")) == ("y", "z", "x")


def test_block_inner_permutation():
    # blocks (x y | z), inner swap in block 1: result is (y x z)
    pi = block(identity(2), [Perm((2, 1)), identity(1)])
    assert pi == Perm((2, 1, 3))
    assert act(pi, ("x", "y", "z")) == ("y", "x", "z")


def labeled_block_oracle(sigma, taus, blocks):
    """Rearrange labeled blocks directly: source block i, internally
    rearranged by its own tau, lands at the slot range of rank sigma(i);
    equivalently, result slot j is filled by source block sigma^{-1}(j)."""
    inv = invert(sigma)
    out = []
    for j in range(1, sigma.degree + 1):
        i = inv(j)
        out.extend(act(taus[i - 1], tuple(blocks[i - 1])))
    return tuple(out)


@given(st.data())
def test_block_matches_labeled_list_oracle(data):
    n = data.draw(st.integers(min_value=0, max_value=3))
    sigma = Perm(tuple(data.draw(st.permutations(list(range(1, n + 1))))))
    ks = [data.draw(st.integers(min_value=0, max_value=3)) for _ in range(n)]
    taus = [
        Perm(tuple(data.draw(st.permutations(list(range(1, k + 1)))))) for k in ks
    ]
    blocks = []
    label = 0
    for k in ks:
        blocks.append(tuple(range(label, label + k)))
        label += k
    concat = tuple(x for b in blocks for x in b)
    pi = block(sigma, taus)
    assert act(pi, concat) == labeled_block_oracle(sigma, taus, blocks)
    # the right-action packaging fills slot j with block sigma(j) under permute
    out = []
    for j in range(1, n + 1):
        i = sigma(j)
        out.extend(permute(tuple(blocks[i - 1]), taus[i - 1]))
    assert permute(concat, block_right(sigma, taus)) == tuple(out)


def test_block_respects_products_exhaustive():
    # acting by block(sigma, taus) and then moving the relocated blocks by rho
    # equals one block permutation for the composed outer permutation
    for n in (2, 3):
        for sigma in all_perms(n):
            for rho in all_perms(n):
                ks = tuple((i % 2) + 2 for i in range(n))
                taus = [reversal(k) for k in ks]
                inv = invert(sigma)
                ids2 = [identity(ks[inv(j) - 1]) for j in range(1, n + 1)]
                lhs = compose(block(rho, ids2), block(sigma, taus))
                rhs = block(compose(rho, sigma), taus)
                assert lhs == rhs


# -- inversions, weak order, reduced words -----------------------------------

def test_inversions_frozen():
    assert inversions(identity(4)) == 0
    assert inversions(Perm((3, 2, 1))) == 3
    assert inversions(Perm((2, 1, 3))) == 1
    assert inversions(reversal(4)) == 6


def test_inversions_step_by_one():
    for n in range(1, 5):
        for p in all_perms(n):
            for i in range(1, n):
                q = compose(p, transposition(n, i))
                assert abs(inversions(q) - inversions(p)) == 1


def test_weak_right_cover_frozen():
    assert is_weak_right_cover(identity(3), 1)
    assert is_weak_right_cover(identity(3), 2)
    assert not is_weak_right_cover(transposition(2, 1), 1)
    assert is_weak_right_cover(Perm((2, 1, 3)), 2)


def test_reduced_words_frozen():
    assert reduced_words(identity(3)) == {()}
    assert reduced_words(transposition(2, 1)) == {(1,)}
    assert reduced_words(Perm((3, 2, 1))) == {(1, 2, 1), (2, 1, 2)}


def test_reduced_words_evaluate_and_have_minimal_length():
    for n in range(1, 5):
        for p in all_perms(n):
            words = reduced_words(p)
            assert words
            for w in words:
                assert len(w) == inversions(p)
                assert word_to_perm(n, w) == p


def test_longest_element_word_count_s4():
    # the reversal in degree 4 has 16 reduced words
    assert len(reduced_words(reversal(4))) == 16


def test_reduced_words_connected_by_moves():
    # braid/commutation moves connect all reduced words of each permutation
    def neighbors(w):
        out = set()
        for k in range(len(w) - 1):
            a, b = w[k], w[k + 1]
            if abs(a - b) >= 2:
                out.add(w[:k] + (b, a) + w[k + 2 :])
        for k in range(len(w) - 2):
            a, b, c = w[k], w[k + 1], w[k + 2]
            if a == c and abs(a - b) == 1:
                out.add(w[:k] + (b, a, b) + w[k + 3 :])
        return out

    for n in range(1, 5):
        for p in all_perms(n):
            words = reduced_words(p)
            seen = {min(words)}
            frontier = [min(words)]
            while frontier:
                w = frontier.pop()
                for v in neighbors(w):
                    if v not in seen:
                        seen.add(v)
                        frontier.append(v)
            assert seen == words


def test_word_evaluation_order_matches_right_multiplication():
    # appending a generator to a word is right multiplication
    w = (1, 2)
    p = word_to_perm(3, w)
    assert word_to_perm(3, w + (1,)) == compose(p, transposition(3, 1))


def test_all_perms_count():
    assert [len(all_perms(n)) for n in range(5)] == [1, 1, 2, 6, 24]
