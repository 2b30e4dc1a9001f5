"""
Swap cells, braid moves, and maximal chains
===========================================

Every permutation of slots is reached by adjacent swaps.  The walk cells
for single swaps satisfy the braid relation, and any two maximal chains of
swaps from the identity up to the full reversal paste to the same 2-cell.

Run with ``python3 demos/braid_and_chains.py``.
"""

from shufflecat.algebras import bruhat_omega
from shufflecat.calculus import Budget, VComp, equal_cell
from shufflecat.fixtures import builtin_base
from shufflecat.perms import Perm, compose, identity, reduced_words, transposition

A = builtin_base("arrow")
bud = Budget(max_seq_len=2, max_nest=2, max_points=200, seed=0)

# bruhat_omega lays out one walk functor per permutation of three slots and
# one cover cell per adjacent swap that adds an inversion.
data = bruhat_omega((A, A, A))
print("walk functors:", len(data["objects"]))
print("cover cells:  ", len(data["covers"]))


def chain(word):
    cells = []
    here = identity(3)
    for i in word:
        cells.append(data["covers"][(here, i)])
        here = compose(here, transposition(3, i))
    return VComp(tuple(cells))


# The reversal [3, 2, 1] has exactly two reduced words; both chains paste
# to the same 2-cell (a Yang-Baxter instance).
words = sorted(reduced_words(Perm((3, 2, 1))))
print("reduced words for the reversal:", words)
report = equal_cell(chain(words[0]), chain(words[1]), bud)
print("the two maximal chains agree:", report.passed,
      f"({report.points} points)")
