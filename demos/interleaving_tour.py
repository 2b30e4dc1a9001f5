"""
A first tour: sequences, the interchange cell, and its inverse
==============================================================

Run with ``python3 demos/interleaving_tour.py``.
"""

import json

from shufflecat.calculus import (
    Budget,
    Gamma,
    VComp,
    cell_endpoints,
    equal_cell,
    eval_cell,
    fun_endpoints,
    gamma_source,
    IdCell,
)
from shufflecat.fixtures import builtin_base
from shufflecat.freesmc import SeqObj, partitions_for
from shufflecat.sexpr import data_of_mor

# The base category is the walking arrow: objects x, y and one arrow f.
# A loaded finite category is itself a category expression.
A = builtin_base("arrow")

# Gamma((A, B)) compares the two ways of interleaving a pair of sequences.
# Its component at a pair is a permutation of the flattened grid.
cell = Gamma((A, A))
src, _ = cell_endpoints(cell)
dom, cod = fun_endpoints(src)

point = (SeqObj(("x", "y")), SeqObj(("y", "x")))
mor = eval_cell(cell, point)
print("interchange at ((x y), (y x)):")
print(" ", json.dumps(data_of_mor(cod, mor)))
# The permutation [1, 3, 2, 4] is the transpose of the 2 x 2 grid.

# The inverse is the interchange with its two slots swapped,
# Gamma((A, A), 2, 1).  Pasting it back on gives the identity 2-cell; the
# checker confirms it pointwise.
bud = Budget(max_seq_len=3, max_nest=2, max_points=400, seed=0)
report = equal_cell(
    VComp((Gamma((A, A)), Gamma((A, A), 2, 1))),
    IdCell(gamma_source((A, A), 1, 2)),
    bud,
)
print("round trip equals the identity:", report.passed,
      f"({report.points} points)")

# The same cell can be built through any admissible partition of the
# remaining slots; all of them agree.
slots = (A, A, A)
for part in partitions_for(3, 1, 3):
    report = equal_cell(Gamma(slots, 1, 3, part), Gamma(slots, 1, 3), bud)
    print(f"partition {part}: same cell ->", report.passed)
