"""Principal partitions: the nested minimizers of f(X) - lambda |X|.

Sweeping lambda upward, the maximal minimizer jumps through a nested chain
of sets; the jump points (critical values) are exact rationals equal to the
growth ratio between consecutive chain sets.  All of it is read off one
vector, the minimum-norm base x* of f: its distinct values are the critical
values and its level sets {x* <= lambda} are the chain.  The chain is the
scaffolding for the ordering approximation in demo 04.
"""

from fractions import Fraction

from ordolab import (
    Graph,
    GraphicMatroid,
    compute_principal_partition,
    min_norm_base,
    minimize_offset,
)
from ordolab.instances import triangle_with_bridge

tb = GraphicMatroid(triangle_with_bridge())

pp = compute_principal_partition(tb)
print("chain sets:", [bin(s) for s in pp.sets])
print("critical values:", pp.critical_values)

# The minimum-norm base: 2/3 on the triangle, 1 on the bridge.
x = min_norm_base(tb)
print("x* =", tuple(str(v) for v in x))
print("distinct values of x* are the critical values:",
      tuple(sorted(set(x))) == pp.critical_values)

# Watch the maximal minimizer jump at the critical values.
for lam in (Fraction(1, 2), Fraction(2, 3), Fraction(5, 6), Fraction(1), Fraction(3, 2)):
    res = minimize_offset(tb, lam)
    print(f"lambda = {lam}: maximal minimizer {bin(res.maximal_minimizer)}, "
          f"min value {res.min_value}")

# Steepness (the largest singleton value) and linearity f(E)/steepness,
# with f(E) the chain's last value: for a matroid rank, steepness is 1 and
# linearity is the rank of the whole ground set.
kappa = max(tb.singleton_values)
print(f"\nsteepness = {kappa}, linearity = {pp.values[-1] / kappa}, m = {tb.m}")

# Elements of value zero (self-loops here) have x* = 0: they form the
# chain's first step, at lambda = 0, and lead every ordering built on it.
loopy = GraphicMatroid(Graph(3, ((0, 0), (0, 1), (1, 2))))
pp0 = compute_principal_partition(loopy)
print(f"\nwith a loop edge: x* = {tuple(str(v) for v in min_norm_base(loopy))}")
print(f"loop edge forms the zero set: {bin(pp0.sets[1])} at lambda = {pp0.critical_values[0]}; "
      f"chain sets {[bin(s) for s in pp0.sets]}")
