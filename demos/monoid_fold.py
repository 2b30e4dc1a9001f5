"""
A commutative monoid as a strict algebra
========================================

Folding a sequence of monoid elements into their product is a strict
algebra for the free construction: the fold respects concatenation, and
bracketed multiplications composed into the structure map agree no matter
how they are grouped.

Run with ``python3 demos/monoid_fold.py``.
"""

from shufflecat.algebras import (
    MonoidAlg,
    gamma_compose,
    free_multi,
    monoid_algebra_eval,
    multicell_equal,
    structure_cell,
    validate_onecell,
)
from shufflecat.calculus import Budget, Compose, MonoidMult, Prod, Proj, Tuple
from shufflecat.fixtures import builtin_monoid

z2 = builtin_monoid("z2")
alg = MonoidAlg(z2)
bud = Budget(max_seq_len=3, max_nest=2, max_points=300, seed=0)

# The fold sends a sequence of elements to their product.
for entries in ((), ("1",), ("1", "1"), ("1", "0", "1")):
    print("fold", entries, "->", monoid_algebra_eval(alg, entries))

# The structure map packages the fold as an algebra 1-cell.
struct = structure_cell(alg)
print("structure map is an algebra 1-cell:",
      validate_onecell(struct, bud).passed)

# Left-nested and right-nested double multiplications agree after folding.
t3 = Prod((alg.carrier,) * 3)
mult = MonoidMult(z2, 2)
left = Compose((Tuple((Compose((Tuple((Proj(t3, 1), Proj(t3, 2))), mult)),
                       Proj(t3, 3))), mult))
right = Compose((Tuple((Proj(t3, 1),
                        Compose((Tuple((Proj(t3, 2), Proj(t3, 3))), mult)))), mult))
report = multicell_equal(gamma_compose(struct, [free_multi(left)]),
                         gamma_compose(struct, [free_multi(right)]), bud)
print("bracketings agree through the fold:", report.passed)
