"""Finite permutations in one-line notation, 1-based.

Conventions, fixed once and used everywhere:

- ``Perm((2, 3, 1))`` is the bijection sending 1 to 2, 2 to 3, 3 to 1.
- ``compose(p, q)(i) == p(q(i))``: the right factor acts first.
- ``permute(seq, p)[i] == seq[p(i)]`` is the right action on sequences;
  ``act(p, seq)`` is its inverse action, placing entry ``i`` at slot ``p(i)``.

``Perm(...)`` checks that its images are a bijection.  Every function here
builds its result unchecked, from images that are a bijection by
construction; among them ``all_perms``, the producer behind every sequence
morphism the enumeration numbers.

>>> compose(Perm((2, 3, 1)), Perm((2, 1, 3)))
Perm((3, 2, 1))
>>> permute(("a", "b", "c"), Perm((2, 3, 1)))
('b', 'c', 'a')
>>> act(Perm((2, 3, 1)), ("a", "b", "c"))
('c', 'a', 'b')
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

__all__ = [
    "Perm",
    "identity",
    "transposition",
    "compose",
    "invert",
    "permute",
    "act",
    "block",
    "block_right",
    "inversions",
    "is_weak_right_cover",
    "right_descents",
    "reduced_words",
    "word_to_perm",
    "reversal",
    "all_perms",
]

REDUCED_WORD_DEGREE_BOUND = 5


@dataclass(frozen=True)
class Perm:
    """A bijection of {1..n} as a tuple of images.

    >>> p = Perm((3, 1, 2))
    >>> p(1), p.degree
    (3, 3)
    """

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __repr__(self) -> str:
        return f"Perm({self.images!r})"


def _perm(images: tuple) -> Perm:
    """A Perm of images that are already a bijection of 1..n, unchecked:
    the kernels below build their results with it."""
    p = object.__new__(Perm)
    object.__setattr__(p, "images", images)
    return p


def identity(n: int) -> Perm:
    return _perm(tuple(range(1, n + 1)))


def transposition(n: int, i: int) -> Perm:
    """The adjacent transposition swapping i and i+1 inside degree n.

    >>> transposition(4, 2)
    Perm((1, 3, 2, 4))
    """
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for degree {n}")
    images = list(range(1, n + 1))
    images[i - 1], images[i] = images[i], images[i - 1]
    return _perm(tuple(images))


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: the right factor acts first.

    >>> compose(Perm((2, 1)), Perm((2, 1)))
    Perm((1, 2))
    """
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} vs {q.degree}")
    images = p.images
    return _perm(tuple([images[j - 1] for j in q.images]))


def invert(p: Perm) -> Perm:
    images = [0] * p.degree
    for i, j in enumerate(p.images, start=1):
        images[j - 1] = i
    return _perm(tuple(images))


def permute(seq: Sequence, p: Perm) -> tuple:
    """Right action: entry at slot i of the result is seq[p(i)]."""
    if len(seq) != p.degree:
        raise ValueError(f"length {len(seq)} does not match degree {p.degree}")
    return tuple([seq[j - 1] for j in p.images])


def act(p: Perm, seq: Sequence) -> tuple:
    """Position action: entry i of seq lands at slot p(i) of the result."""
    if len(seq) != p.degree:
        raise ValueError(f"length {len(seq)} does not match degree {p.degree}")
    out = [None] * p.degree
    for i, x in enumerate(seq, start=1):
        out[p(i) - 1] = x
    return tuple(out)


def block(sigma: Perm, taus: Iterable[Perm]) -> Perm:
    """Compose permutations blockwise: sigma moves n blocks, tau_i churns block i.

    The result pi satisfies, for a list split into blocks of the taus' degrees:
    act(pi, concat) lists the blocks in sigma-order with block i internally
    rearranged by tau_i, and equivalently permute(concat, pi) realizes the
    right action that sends block slot j to block sigma(j).

    >>> block(Perm((2, 1)), [identity(1), identity(2)])
    Perm((3, 1, 2))
    """
    taus = list(taus)
    if sigma.degree != len(taus):
        raise ValueError(f"outer degree {sigma.degree} vs {len(taus)} blocks")
    # the blocks keep their source order in the result's domain and are laid
    # out in increasing sigma(i) in its image
    result_offsets = [0] * len(taus)
    offset = 0
    for i in sorted(range(len(taus)), key=sigma.images.__getitem__):
        result_offsets[i] = offset
        offset += taus[i].degree
    images = []
    for start, tau in zip(result_offsets, taus):
        images.extend([start + l for l in tau.images])
    return _perm(tuple(images))


def block_right(sigma: Perm, taus: Iterable[Perm]) -> Perm:
    """The blockwise composite packaged for the right action: permuting a
    concatenated list by the result lists block sigma(j) at slot j, with each
    block rearranged by its own tau under the right action.

    >>> permute(("x", "y", "z"), block_right(Perm((2, 1)), [identity(1), identity(2)]))
    ('y', 'z', 'x')
    """
    taus = list(taus)
    return invert(block(invert(sigma), [invert(t) for t in taus]))


def inversions(p: Perm) -> int:
    """Number of pairs i < j with p(i) > p(j); the word length of p.

    >>> inversions(Perm((3, 2, 1)))
    3
    """
    return sum(
        1
        for i, j in itertools.combinations(range(1, p.degree + 1), 2)
        if p(i) > p(j)
    )


def right_descents(p: Perm) -> list[int]:
    """Generator indices i with p(i) > p(i+1): right multiplication by the
    transposition at i shortens p."""
    return [i for i in range(1, p.degree) if p(i) > p(i + 1)]


def is_weak_right_cover(p: Perm, i: int) -> bool:
    """True iff p is covered by p * transposition(i) in the weak right order."""
    if not 1 <= i <= p.degree - 1:
        raise ValueError(f"generator index {i} out of range for degree {p.degree}")
    return p(i) < p(i + 1)


def word_to_perm(n: int, word: Iterable[int]) -> Perm:
    """Evaluate a word in adjacent transpositions; appending a letter is right
    multiplication.

    >>> word_to_perm(3, (1, 2, 1))
    Perm((3, 2, 1))
    """
    p = identity(n)
    for i in word:
        p = compose(p, transposition(n, i))
    return p


def reduced_words(p: Perm) -> set[tuple[int, ...]]:
    """All minimal-length words for p in adjacent transpositions.

    >>> sorted(reduced_words(Perm((3, 2, 1))))
    [(1, 2, 1), (2, 1, 2)]
    """
    if p.degree > REDUCED_WORD_DEGREE_BOUND:
        raise ValueError(
            f"degree {p.degree} exceeds the reduced-word bound "
            f"{REDUCED_WORD_DEGREE_BOUND}"
        )
    return set(_reduced_words(p.images))


@lru_cache(maxsize=None)
def _reduced_words(images: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    p = _perm(images)
    descents = right_descents(p)
    if not descents:
        return frozenset({()})
    words = set()
    for i in descents:
        shorter = compose(p, transposition(p.degree, i))
        for w in _reduced_words(shorter.images):
            words.add(w + (i,))
    return frozenset(words)


def reversal(n: int) -> Perm:
    """The order-reversing permutation, the top of the weak right order."""
    return _perm(tuple(range(n, 0, -1)))


def all_perms(n: int) -> list[Perm]:
    """Every permutation of degree n, in lexicographic image order."""
    return [_perm(images) for images in itertools.permutations(range(1, n + 1))]
