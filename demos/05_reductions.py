"""Instance transformations, each carrying an exact transfer certificate.

Latency vertex cover (MLVC: edges pay the larger endpoint label) converts
to sum vertex cover on the complement, to matroid ordering through duality,
and -- the heavy one -- to weighted graphic ordering through an apex vertex
whose star edges are so expensive that any optimal ordering must encode a
vertex labeling in its prefix ranks.
"""

from ordolab import (
    Graph,
    Ordering,
    UniformMatroid,
    dual_transfer,
    mlvc_msvc_shift,
    regular_shift,
    solve_mlvc_via_apex,
)
from ordolab.instances import cycle_graph, path_graph

# MLVC on G = shift + MSVC on the complement, labeling reversed.
p3 = path_graph(3)
comp, pi2, cert = mlvc_msvc_shift(p3, Ordering(positions=(2, 1, 3)))
print(f"MLVC(P3) = {cert.source_value} = {cert.shift} + MSVC(complement) = "
      f"{cert.shift} + {cert.target_value}")

# Rank prefix sums transfer to the dual matroid under the reversed order.
M = UniformMatroid(3, 1)
dual, sigma_rev, cert = dual_transfer(M, Ordering.identity(3))
print(f"rank sum {cert.source_value} = {cert.shift} + corank sum {cert.target_value}")

# On regular graphs, linear arrangement and MLVC differ by a constant.
c4 = cycle_graph(4)
cert = regular_shift(c4, Ordering.identity(4))
print(f"MLA(C4) = 2 * MLVC(C4) - 20: {cert.source_value} = "
      f"2 * {cert.target_value} - 20")

# The apex reduction: solve MLVC by solving a weighted graphic ordering.
k2 = Graph(2, ((0, 1),))
pi, value, red, cert = solve_mlvc_via_apex(k2)
print(f"\napex reduction on a single edge: star cost k = {red.k}")
print(f"weighted ordering optimum {cert.source_value} "
      f"= MLVC optimum {value} + offset {cert.shift}")
print(f"recovered labeling: {list(pi.sequence())}")
