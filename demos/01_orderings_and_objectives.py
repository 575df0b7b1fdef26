"""Orderings, prefix objectives, and the exact solver.

The central object is an ordering of a ground set, and the central cost is
the sum of a set function over the ordering's prefixes.  For the rank
function of a graph this counts, prefix by prefix, how much independent
structure has appeared so far, so cheap-to-span edges should come early.
"""

from ordolab import GraphicMatroid, Ordering, exact_mlop_dp, mlop_objective
from ordolab.instances import complete_graph, triangle_with_bridge

# The triangle: every ordering gives prefix ranks 1, 2, 2.
triangle = GraphicMatroid(complete_graph(3))
for seq in ((0, 1, 2), (2, 1, 0)):
    sigma = Ordering.from_sequence(seq)
    print(f"triangle, order {seq}: cost = {mlop_objective(triangle, sigma)}")

# A triangle with a pendant bridge tells orders apart: the bridge is a
# coloop and belongs at the end.
tb = GraphicMatroid(triangle_with_bridge())
good = Ordering.from_sequence((0, 1, 2, 3))   # triangle first, bridge last
bad = Ordering.from_sequence((3, 0, 1, 2))    # bridge first
print(f"\ntriangle+bridge, bridge last:  {mlop_objective(tb, good)}")
print(f"triangle+bridge, bridge first: {mlop_objective(tb, bad)}")

# The subset dynamic program solves the problem exactly at desk scale.
value, sigma = exact_mlop_dp(tb)
print(f"\nexact optimum: {value}, achieved by {list(sigma.sequence())}")
assert value == mlop_objective(tb, good)
